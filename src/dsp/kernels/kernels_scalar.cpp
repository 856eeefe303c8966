// Canonical scalar kernel table. Every loop here *defines* the arithmetic
// the SIMD tables must reproduce bit-for-bit (see kernels.hpp): the striped
// reduction order, the block-scan one-pole lanes, and the stencil
// expression order are all written out explicitly rather than left to the
// vectorizer, so "what the scalar fallback computes" is a specification,
// not an accident of optimization flags. The TU is compiled with
// -ffp-contract=off; the loops are plain enough that the autovectorizer
// may still use SIMD *encodings*, which is fine — IEEE semantics per lane
// are unchanged, only fused multiply-adds could break identity.

#include <algorithm>
#include <cmath>

#include "dsp/kernels/kernels_detail.hpp"
#include "dsp/rng.hpp"

namespace ecocap::dsp::kernels::detail::scalar {

Real dot(const Real* a, const Real* b, std::size_t n) {
  Real s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  Real s4 = 0.0, s5 = 0.0, s6 = 0.0, s7 = 0.0;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    s0 += a[i + 0] * b[i + 0];
    s1 += a[i + 1] * b[i + 1];
    s2 += a[i + 2] * b[i + 2];
    s3 += a[i + 3] * b[i + 3];
    s4 += a[i + 4] * b[i + 4];
    s5 += a[i + 5] * b[i + 5];
    s6 += a[i + 6] * b[i + 6];
    s7 += a[i + 7] * b[i + 7];
  }
  const Real t0 = s0 + s4;
  const Real t1 = s1 + s5;
  const Real t2 = s2 + s6;
  const Real t3 = s3 + s7;
  Real r = (t0 + t1) + (t2 + t3);
  for (; i < n; ++i) r += a[i] * b[i];
  return r;
}

void correlate_valid(const Real* x, std::size_t nx, const Real* h,
                     std::size_t nh, Real* out) {
  const std::size_t out_len = nx - nh + 1;
  for (std::size_t k = 0; k < out_len; ++k) out[k] = dot(x + k, h, nh);
}

void biquad(const Real* x, Real* y, std::size_t n, const BiquadCoeffs& c,
            BiquadState& s) {
  // Exact seed direct-form-I expression; state lives in locals so the
  // output store cannot alias it back to memory every sample.
  Real x1 = s.x1, x2 = s.x2, y1 = s.y1, y2 = s.y2;
  for (std::size_t i = 0; i < n; ++i) {
    const Real xi = x[i];
    const Real yi = c.b0 * xi + c.b1 * x1 + c.b2 * x2 - c.a1 * y1 - c.a2 * y2;
    x2 = x1;
    x1 = xi;
    y2 = y1;
    y1 = yi;
    y[i] = yi;
  }
  s.x1 = x1;
  s.x2 = x2;
  s.y1 = y1;
  s.y2 = y2;
}

namespace {

/// Shared block-scan core for the one-pole recurrence
/// y[i] = p*y[i-1] + alpha*u[i], p = 1 - alpha. Blocks of four samples are
/// expressed directly in terms of the block-entry state:
///   c_k = (w0*u_k + w1*u_{k-1}) + (w2*u_{k-2} + w3*u_{k-3}),  u_{<0} = 0
///   y_k = c_k + p^{k+1} * y_prev
/// with w_k = p^k * alpha. The lane expressions (and the power products
/// p2 = p*p, p3 = p2*p, p4 = p2*p2, w_k likewise) are what the SIMD tables
/// replicate verbatim. `Rect` maps each input sample (identity for the
/// low-pass, fabs for the envelope detector).
template <typename Rect>
inline void onepole_scan(const Real* x, Real* y, std::size_t n, Real alpha,
                         Real* state, Rect rect) {
  const Real p = 1.0 - alpha;
  const Real p2 = p * p;
  const Real p3 = p2 * p;
  const Real p4 = p2 * p2;
  const Real w0 = alpha;
  const Real w1 = p * alpha;
  const Real w2 = p2 * alpha;
  const Real w3 = p3 * alpha;
  Real yp = *state;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const Real u0 = rect(x[i + 0]);
    const Real u1 = rect(x[i + 1]);
    const Real u2 = rect(x[i + 2]);
    const Real u3 = rect(x[i + 3]);
    const Real c0 = (w0 * u0 + w1 * 0.0) + (w2 * 0.0 + w3 * 0.0);
    const Real c1 = (w0 * u1 + w1 * u0) + (w2 * 0.0 + w3 * 0.0);
    const Real c2 = (w0 * u2 + w1 * u1) + (w2 * u0 + w3 * 0.0);
    const Real c3 = (w0 * u3 + w1 * u2) + (w2 * u1 + w3 * u0);
    const Real y0 = c0 + p * yp;
    const Real y1 = c1 + p2 * yp;
    const Real y2 = c2 + p3 * yp;
    const Real y3 = c3 + p4 * yp;
    y[i + 0] = y0;
    y[i + 1] = y1;
    y[i + 2] = y2;
    y[i + 3] = y3;
    yp = y3;
  }
  for (; i < n; ++i) {
    yp = (w0 * rect(x[i])) + (p * yp);
    y[i] = yp;
  }
  *state = yp;
}

}  // namespace

void onepole(const Real* x, Real* y, std::size_t n, Real alpha, Real* state) {
  onepole_scan(x, y, n, alpha, state, [](Real v) { return v; });
}

void envelope(const Real* x, Real* y, std::size_t n, Real alpha, Real* state) {
  onepole_scan(x, y, n, alpha, state, [](Real v) { return std::fabs(v); });
}

void fdtd_velocity_row(const FdtdVelocityRowArgs& a) {
  // Expression order matches the seed ElasticFdtd::update_velocity_rows
  // exactly — the SIMD tables mirror it, so the fields are bit-identical
  // regardless of which table steps the grid.
  if (a.fx != nullptr) {
    for (std::size_t i = a.i0; i < a.i1; ++i) {
      const Real dsxx_dx = (a.sxx[i] - a.sxx[i - 1]) * a.inv_dx;
      const Real dsxy_dy = (a.sxy[i] - a.sxy_dn[i]) * a.inv_dx;
      const Real dsxy_dx = (a.sxy[i + 1] - a.sxy[i]) * a.inv_dx;
      const Real dsyy_dy = (a.syy_up[i] - a.syy[i]) * a.inv_dx;
      const Real inv_rho = 1.0 / a.rho[i];
      a.vx[i] += a.dt * inv_rho * (dsxx_dx + dsxy_dy + a.fx[i]);
      a.vy[i] += a.dt * inv_rho * (dsxy_dx + dsyy_dy + a.fy[i]);
      a.fx[i] = 0.0;
      a.fy[i] = 0.0;
    }
  } else {
    for (std::size_t i = a.i0; i < a.i1; ++i) {
      const Real dsxx_dx = (a.sxx[i] - a.sxx[i - 1]) * a.inv_dx;
      const Real dsxy_dy = (a.sxy[i] - a.sxy_dn[i]) * a.inv_dx;
      const Real dsxy_dx = (a.sxy[i + 1] - a.sxy[i]) * a.inv_dx;
      const Real dsyy_dy = (a.syy_up[i] - a.syy[i]) * a.inv_dx;
      const Real inv_rho = 1.0 / a.rho[i];
      a.vx[i] += a.dt * inv_rho * (dsxx_dx + dsxy_dy);
      a.vy[i] += a.dt * inv_rho * (dsxy_dx + dsyy_dy);
    }
  }
}

void fdtd_stress_row(const FdtdStressRowArgs& a) {
  for (std::size_t i = a.i0; i < a.i1; ++i) {
    const Real dvx_dx = (a.vx[i + 1] - a.vx[i]) * a.inv_dx;
    const Real dvy_dy = (a.vy[i] - a.vy_dn[i]) * a.inv_dx;
    const Real l = a.lambda[i];
    const Real m = a.mu[i];
    a.sxx[i] += a.dt * ((l + 2.0 * m) * dvx_dx + l * dvy_dy);
    a.syy[i] += a.dt * (l * dvx_dx + (l + 2.0 * m) * dvy_dy);
    const Real dvx_dy = (a.vx_up[i] - a.vx[i]) * a.inv_dx;
    const Real dvy_dx = (a.vy[i] - a.vy[i - 1]) * a.inv_dx;
    a.sxy[i] += a.dt * m * (dvx_dy + dvy_dx);
  }
}

std::uint64_t mt_word(std::uint64_t cur, std::uint64_t next,
                      std::uint64_t far) {
  const std::uint64_t y =
      (cur & dsp::detail::kMtUpperMask) | (next & dsp::detail::kMtLowerMask);
  // The matrix is masked in rather than selected: y's low bit is a coin
  // flip, and a branch on it mispredicts every other word.
  return far ^ (y >> 1) ^ (dsp::detail::kMtMatrixA & (0 - (y & 1)));
}

void mt_twist(std::uint64_t* mt) {
  // The standard's transition for i = 0 .. n-1 in order, split where the
  // indices wrap: x[i+m] is still old below n-m and already new above.
  constexpr std::size_t n = dsp::detail::kMtN;
  constexpr std::size_t m = dsp::detail::kMtM;
  std::size_t i = 0;
  for (; i < n - m; ++i) mt[i] = mt_word(mt[i], mt[i + 1], mt[i + m]);
  for (; i < n - 1; ++i) mt[i] = mt_word(mt[i], mt[i + 1], mt[i + m - n]);
  mt[n - 1] = mt_word(mt[n - 1], mt[0], mt[m - 1]);
}

std::size_t gaussian_fast(const std::uint64_t* state, std::size_t avail,
                          Real* x, std::size_t n, Real sigma) {
  const std::size_t len = std::min(avail, n);
  for (std::size_t i = 0; i < len; ++i) {
    const std::uint64_t u = dsp::detail::mt_temper(state[i]);
    const std::uint64_t layer = u & 0xff;
    const std::uint64_t m = u >> 11;
    if (m >= dsp::detail::kZigK[layer]) return i;
    const Real g = static_cast<Real>(m) * dsp::detail::kZigW[layer];
    x[i] += sigma * dsp::detail::negate_if_bit8(g, u);
  }
  return len;
}

}  // namespace ecocap::dsp::kernels::detail::scalar
