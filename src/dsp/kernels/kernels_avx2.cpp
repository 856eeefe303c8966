// AVX2 kernel table (4-wide double). Every loop reproduces the canonical
// scalar table's arithmetic bit-for-bit: the striped dot keeps residues
// 0..3 in one accumulator vector and 4..7 in a second, the one-pole
// block-scan maps each scalar lane expression onto one vector lane, and the
// FDTD stencils are straight per-lane transcriptions. Only separate
// _mm256_mul_pd/_mm256_add_pd are used — never an FMA intrinsic — and the
// TU is compiled with -ffp-contract=off, so the compiler cannot fuse one in
// behind our back.

#include <cmath>
#include <immintrin.h>

#include "dsp/kernels/kernels_detail.hpp"
// Only the engine's constants and the Ziggurat tables are used from here:
// this TU calls no inline function of rng.hpp (nor std::min), so no copy
// of one compiled with -mavx2 can be linked in place of the portable one.
#include "dsp/rng.hpp"

namespace ecocap::dsp::kernels::detail::avx2 {

namespace {

/// Combine the two striped accumulators exactly as the scalar table does:
/// t[k] = s[k] + s[k+4], then (t0 + t1) + (t2 + t3).
inline Real stripe_combine(__m256d lo, __m256d hi) {
  const __m256d t = _mm256_add_pd(lo, hi);
  alignas(32) Real tmp[4];
  _mm256_store_pd(tmp, t);
  return (tmp[0] + tmp[1]) + (tmp[2] + tmp[3]);
}

}  // namespace

Real dot(const Real* a, const Real* b, std::size_t n) {
  __m256d lo = _mm256_setzero_pd();  // s0..s3
  __m256d hi = _mm256_setzero_pd();  // s4..s7
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    lo = _mm256_add_pd(
        lo, _mm256_mul_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i)));
    hi = _mm256_add_pd(hi, _mm256_mul_pd(_mm256_loadu_pd(a + i + 4),
                                         _mm256_loadu_pd(b + i + 4)));
  }
  Real r = stripe_combine(lo, hi);
  for (; i < n; ++i) r += a[i] * b[i];
  return r;
}

void correlate_valid(const Real* x, std::size_t nx, const Real* h,
                     std::size_t nh, Real* out) {
  // Each lag is an independent striped dot, so out[k] matches the scalar
  // table exactly; the window data stays hot in L1/L2 across lags.
  const std::size_t out_len = nx - nh + 1;
  for (std::size_t k = 0; k < out_len; ++k) out[k] = dot(x + k, h, nh);
}

void biquad(const Real* x, Real* y, std::size_t n, const BiquadCoeffs& c,
            BiquadState& s) {
  // A direct-form-I recurrence has a loop-carried dependency on every
  // sample; there is nothing for 4-wide SIMD to do. Use the canonical
  // scalar loop (state in locals), which is the bit-identity reference.
  scalar::biquad(x, y, n, c, s);
}

namespace {

/// Vectorized block-scan core shared by onepole and envelope. One vector
/// lane computes one scalar lane expression of kernels_scalar.cpp:
///   c = (w0*u + w1*u<<1) + (w2*u<<2 + w3*u<<3),  y = c + [p,p2,p3,p4]*yp
/// where u<<k is u shifted toward higher lanes with zero fill, reproducing
/// the u_{<0} = 0 terms.
template <bool kRectify>
inline void onepole_scan_avx2(const Real* x, Real* y, std::size_t n,
                              Real alpha, Real* state) {
  const Real p = 1.0 - alpha;
  const Real p2 = p * p;
  const Real p3 = p2 * p;
  const Real p4 = p2 * p2;
  const Real w0 = alpha;
  const Real w1 = p * alpha;
  const Real w2 = p2 * alpha;
  const Real w3 = p3 * alpha;
  const __m256d pv = _mm256_setr_pd(p, p2, p3, p4);
  const __m256d w0v = _mm256_set1_pd(w0);
  const __m256d w1v = _mm256_set1_pd(w1);
  const __m256d w2v = _mm256_set1_pd(w2);
  const __m256d w3v = _mm256_set1_pd(w3);
  const __m256d zero = _mm256_setzero_pd();
  const __m256d abs_mask =
      _mm256_castsi256_pd(_mm256_set1_epi64x(0x7fffffffffffffffll));
  Real yp = *state;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256d u = _mm256_loadu_pd(x + i);
    if (kRectify) u = _mm256_and_pd(u, abs_mask);
    // u shifted toward higher lanes: [0,u0,u1,u2], [0,0,u0,u1], [0,0,0,u0].
    const __m256d u1 = _mm256_blend_pd(
        _mm256_permute4x64_pd(u, _MM_SHUFFLE(2, 1, 0, 0)), zero, 0x1);
    const __m256d u2 = _mm256_blend_pd(
        _mm256_permute4x64_pd(u, _MM_SHUFFLE(1, 0, 0, 0)), zero, 0x3);
    const __m256d u3 = _mm256_blend_pd(
        _mm256_permute4x64_pd(u, _MM_SHUFFLE(0, 0, 0, 0)), zero, 0x7);
    const __m256d c =
        _mm256_add_pd(_mm256_add_pd(_mm256_mul_pd(w0v, u), _mm256_mul_pd(w1v, u1)),
                      _mm256_add_pd(_mm256_mul_pd(w2v, u2), _mm256_mul_pd(w3v, u3)));
    const __m256d yv =
        _mm256_add_pd(c, _mm256_mul_pd(pv, _mm256_set1_pd(yp)));
    _mm256_storeu_pd(y + i, yv);
    alignas(32) Real lanes[4];
    _mm256_store_pd(lanes, yv);
    yp = lanes[3];
  }
  for (; i < n; ++i) {
    const Real u = kRectify ? std::fabs(x[i]) : x[i];
    yp = (w0 * u) + (p * yp);
    y[i] = yp;
  }
  *state = yp;
}

}  // namespace

void onepole(const Real* x, Real* y, std::size_t n, Real alpha, Real* state) {
  onepole_scan_avx2<false>(x, y, n, alpha, state);
}

void envelope(const Real* x, Real* y, std::size_t n, Real alpha, Real* state) {
  onepole_scan_avx2<true>(x, y, n, alpha, state);
}

void fdtd_velocity_row(const FdtdVelocityRowArgs& a) {
  const __m256d inv_dx = _mm256_set1_pd(a.inv_dx);
  const __m256d dt = _mm256_set1_pd(a.dt);
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d zero = _mm256_setzero_pd();
  std::size_t i = a.i0;
  for (; i + 4 <= a.i1; i += 4) {
    const __m256d sxx = _mm256_loadu_pd(a.sxx + i);
    const __m256d dsxx_dx = _mm256_mul_pd(
        _mm256_sub_pd(sxx, _mm256_loadu_pd(a.sxx + i - 1)), inv_dx);
    const __m256d sxy = _mm256_loadu_pd(a.sxy + i);
    const __m256d dsxy_dy = _mm256_mul_pd(
        _mm256_sub_pd(sxy, _mm256_loadu_pd(a.sxy_dn + i)), inv_dx);
    const __m256d dsxy_dx = _mm256_mul_pd(
        _mm256_sub_pd(_mm256_loadu_pd(a.sxy + i + 1), sxy), inv_dx);
    const __m256d syy = _mm256_loadu_pd(a.syy + i);
    const __m256d dsyy_dy = _mm256_mul_pd(
        _mm256_sub_pd(_mm256_loadu_pd(a.syy_up + i), syy), inv_dx);
    const __m256d inv_rho =
        _mm256_div_pd(one, _mm256_loadu_pd(a.rho + i));
    const __m256d scale = _mm256_mul_pd(dt, inv_rho);
    __m256d fx_sum = _mm256_add_pd(dsxx_dx, dsxy_dy);
    __m256d fy_sum = _mm256_add_pd(dsxy_dx, dsyy_dy);
    if (a.fx != nullptr) {
      fx_sum = _mm256_add_pd(fx_sum, _mm256_loadu_pd(a.fx + i));
      fy_sum = _mm256_add_pd(fy_sum, _mm256_loadu_pd(a.fy + i));
      _mm256_storeu_pd(a.fx + i, zero);
      _mm256_storeu_pd(a.fy + i, zero);
    }
    _mm256_storeu_pd(a.vx + i, _mm256_add_pd(_mm256_loadu_pd(a.vx + i),
                                             _mm256_mul_pd(scale, fx_sum)));
    _mm256_storeu_pd(a.vy + i, _mm256_add_pd(_mm256_loadu_pd(a.vy + i),
                                             _mm256_mul_pd(scale, fy_sum)));
  }
  if (i < a.i1) {
    FdtdVelocityRowArgs tail = a;
    tail.i0 = i;
    scalar::fdtd_velocity_row(tail);
  }
}

void fdtd_stress_row(const FdtdStressRowArgs& a) {
  const __m256d inv_dx = _mm256_set1_pd(a.inv_dx);
  const __m256d dt = _mm256_set1_pd(a.dt);
  const __m256d two = _mm256_set1_pd(2.0);
  std::size_t i = a.i0;
  for (; i + 4 <= a.i1; i += 4) {
    const __m256d vx = _mm256_loadu_pd(a.vx + i);
    const __m256d dvx_dx = _mm256_mul_pd(
        _mm256_sub_pd(_mm256_loadu_pd(a.vx + i + 1), vx), inv_dx);
    const __m256d vy = _mm256_loadu_pd(a.vy + i);
    const __m256d dvy_dy = _mm256_mul_pd(
        _mm256_sub_pd(vy, _mm256_loadu_pd(a.vy_dn + i)), inv_dx);
    const __m256d l = _mm256_loadu_pd(a.lambda + i);
    const __m256d m = _mm256_loadu_pd(a.mu + i);
    const __m256d l2m = _mm256_add_pd(l, _mm256_mul_pd(two, m));
    _mm256_storeu_pd(
        a.sxx + i,
        _mm256_add_pd(_mm256_loadu_pd(a.sxx + i),
                      _mm256_mul_pd(dt, _mm256_add_pd(
                                            _mm256_mul_pd(l2m, dvx_dx),
                                            _mm256_mul_pd(l, dvy_dy)))));
    _mm256_storeu_pd(
        a.syy + i,
        _mm256_add_pd(_mm256_loadu_pd(a.syy + i),
                      _mm256_mul_pd(dt, _mm256_add_pd(
                                            _mm256_mul_pd(l, dvx_dx),
                                            _mm256_mul_pd(l2m, dvy_dy)))));
    const __m256d dvx_dy = _mm256_mul_pd(
        _mm256_sub_pd(_mm256_loadu_pd(a.vx_up + i), vx), inv_dx);
    const __m256d dvy_dx = _mm256_mul_pd(
        _mm256_sub_pd(vy, _mm256_loadu_pd(a.vy + i - 1)), inv_dx);
    _mm256_storeu_pd(
        a.sxy + i,
        _mm256_add_pd(_mm256_loadu_pd(a.sxy + i),
                      _mm256_mul_pd(_mm256_mul_pd(dt, m),
                                    _mm256_add_pd(dvx_dy, dvy_dx))));
  }
  if (i < a.i1) {
    FdtdStressRowArgs tail = a;
    tail.i0 = i;
    scalar::fdtd_stress_row(tail);
  }
}

namespace {

inline __m256i set1_u64(std::uint64_t v) {
  return _mm256_set1_epi64x(static_cast<long long>(v));
}

/// One twist word per lane: far ^ (y >> 1) ^ (A if y is odd), with y the
/// upper bits of cur and the lower bits of next.
inline __m256i mt_words(__m256i cur, __m256i next, __m256i far) {
  const __m256i upper =
      _mm256_and_si256(cur, set1_u64(dsp::detail::kMtUpperMask));
  const __m256i lower =
      _mm256_and_si256(next, set1_u64(dsp::detail::kMtLowerMask));
  const __m256i y = _mm256_or_si256(upper, lower);
  // All ones where y is odd, so the matrix is xored in only there.
  const __m256i odd = _mm256_sub_epi64(
      _mm256_setzero_si256(), _mm256_and_si256(y, _mm256_set1_epi64x(1)));
  const __m256i mag =
      _mm256_and_si256(odd, set1_u64(dsp::detail::kMtMatrixA));
  return _mm256_xor_si256(_mm256_xor_si256(far, _mm256_srli_epi64(y, 1)), mag);
}

inline __m256i loadu_u64(const std::uint64_t* p) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}

inline void storeu_u64(std::uint64_t* p, __m256i v) {
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
}

/// Four words of the twist starting at i, with x[i+m] (mod n) at `far`.
/// x[i+1 .. i+4] is loaded before x[i .. i+3] is stored, so the lane that
/// reads x[i+4] still sees the old word, as the sequential loop does.
inline void mt_chunk(std::uint64_t* mt, std::size_t i,
                     const std::uint64_t* far) {
  const __m256i cur = loadu_u64(mt + i);
  const __m256i next = loadu_u64(mt + i + 1);
  storeu_u64(mt + i, mt_words(cur, next, loadu_u64(far)));
}

/// dsp::detail::mt_temper on four words.
inline __m256i mt_temper4(__m256i x) {
  x = _mm256_xor_si256(x, _mm256_and_si256(_mm256_srli_epi64(x, 29),
                                           set1_u64(dsp::detail::kMtTemperD)));
  x = _mm256_xor_si256(x, _mm256_and_si256(_mm256_slli_epi64(x, 17),
                                           set1_u64(dsp::detail::kMtTemperB)));
  x = _mm256_xor_si256(x, _mm256_and_si256(_mm256_slli_epi64(x, 37),
                                           set1_u64(dsp::detail::kMtTemperC)));
  return _mm256_xor_si256(x, _mm256_srli_epi64(x, 43));
}

/// Exact double of four integers below 2^53: the low and high 32-bit
/// halves are placed in the mantissas of 2^52 and 2^84, the two offsets
/// are removed in one exact subtraction, and the final add is exact
/// because the true sum fits in 53 bits.
inline __m256d u53_to_double(__m256i m) {
  const __m256i lo = _mm256_blend_epi32(
      _mm256_castpd_si256(_mm256_set1_pd(0x1p52)), m, 0x55);
  const __m256i hi = _mm256_xor_si256(
      _mm256_srli_epi64(m, 32), _mm256_castpd_si256(_mm256_set1_pd(0x1p84)));
  const __m256d hi_d = _mm256_sub_pd(_mm256_castsi256_pd(hi),
                                     _mm256_set1_pd(0x1p84 + 0x1p52));
  return _mm256_add_pd(hi_d, _mm256_castsi256_pd(lo));
}

}  // namespace

void mt_twist(std::uint64_t* mt) {
  // Same split as the scalar loop: below n-m, x[i+m] is still old; from
  // n-m on it is x[i+m-n], already new. Words 0..155 are 39 chunks of 4
  // and 156..307 another 38; a chunk at 308 would load x[312], so words
  // 308..310 and the wrapping word 311 are done one at a time.
  constexpr std::size_t n = dsp::detail::kMtN;
  constexpr std::size_t m = dsp::detail::kMtM;
  static_assert((n - m) % 4 == 0);
  std::size_t i = 0;
  for (; i < n - m; i += 4) mt_chunk(mt, i, mt + i + m);
  for (; i + 4 < n; i += 4) mt_chunk(mt, i, mt + i + m - n);
  for (; i < n - 1; ++i) {
    mt[i] = scalar::mt_word(mt[i], mt[i + 1], mt[i + m - n]);
  }
  mt[n - 1] = scalar::mt_word(mt[n - 1], mt[0], mt[m - 1]);
}

std::size_t gaussian_fast(const std::uint64_t* state, std::size_t avail,
                          Real* x, std::size_t n, Real sigma) {
  const std::size_t len = avail < n ? avail : n;
  const __m256i layer_mask = _mm256_set1_epi64x(0xff);
  const __m256i sign_bit = _mm256_set1_epi64x(0x100);
  const __m256d sigma_v = _mm256_set1_pd(sigma);
  const auto* k_table = reinterpret_cast<const long long*>(dsp::detail::kZigK);
  std::size_t i = 0;
  for (; i + 4 <= len; i += 4) {
    const __m256i u = mt_temper4(loadu_u64(state + i));
    const __m256i layer = _mm256_and_si256(u, layer_mask);
    const __m256i m = _mm256_srli_epi64(u, 11);
    // m < 2^53 and K <= 2^53, so the signed compare is the unsigned one.
    const __m256i accept =
        _mm256_cmpgt_epi64(_mm256_i64gather_epi64(k_table, layer, 8), m);
    const int mask = _mm256_movemask_pd(_mm256_castsi256_pd(accept));
    const __m256d w = _mm256_i64gather_pd(dsp::detail::kZigW, layer, 8);
    // Bit 8 of the word moved to the sign bit: the same flip as -g.
    const __m256i sign = _mm256_slli_epi64(_mm256_and_si256(u, sign_bit), 55);
    const __m256d g = _mm256_xor_pd(_mm256_mul_pd(u53_to_double(m), w),
                                    _mm256_castsi256_pd(sign));
    const __m256d out =
        _mm256_add_pd(_mm256_loadu_pd(x + i), _mm256_mul_pd(sigma_v, g));
    if (mask == 0xf) {
      _mm256_storeu_pd(x + i, out);
      continue;
    }
    // Keep the lanes before the first miss; the miss ends the run.
    const int lead = __builtin_ctz(static_cast<unsigned>(~mask));
    alignas(32) Real lanes[4];
    _mm256_store_pd(lanes, out);
    for (int j = 0; j < lead; ++j) x[i + j] = lanes[j];
    return i + static_cast<std::size_t>(lead);
  }
  return i + scalar::gaussian_fast(state + i, len - i, x + i, len - i, sigma);
}

}  // namespace ecocap::dsp::kernels::detail::avx2
