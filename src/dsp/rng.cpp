#include "dsp/rng.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace ecocap::dsp {

namespace {

/// Tail cut of the 256-layer Ziggurat: X[1] of the generator's recurrence.
constexpr Real kZigR = 3.6541528853610088;

}  // namespace

Real Rng::gaussian_slow(std::uint64_t u) {
  const std::uint64_t layer = u & 0xff;
  const Real sign = (u & 0x100) ? -1.0 : 1.0;
  if (layer == 0) {
    // Base strip beyond R: Marsaglia's exponential tail sampler.
    for (;;) {
      const Real a = -std::log1p(-uniform()) / kZigR;
      const Real b = -std::log1p(-uniform());
      if (b + b > a * a) return sign * (kZigR + a);
    }
  }
  // Wedge between the layer's inner rectangle and the curve; a rejected
  // point starts over on a fresh word.
  const Real x = static_cast<Real>(u >> 11) * detail::kZigW[layer];
  const Real f_lo = detail::kZigF[layer];
  const Real f_hi = detail::kZigF[layer + 1];
  if (f_lo + (f_hi - f_lo) * uniform() < std::exp(-0.5 * x * x)) {
    return sign * x;
  }
  return gaussian();
}

void Rng::add_gaussian(std::span<Real> x, Real sigma) {
  for (Real& v : x) v += sigma * gaussian();
}

std::uint64_t Rng::index(std::uint64_t n) {
  if (n == 0) return engine_();
  __extension__ using u128 = unsigned __int128;
  u128 product = static_cast<u128>(engine_()) * n;
  auto low = static_cast<std::uint64_t>(product);
  if (low < n) {
    const std::uint64_t threshold = (0 - n) % n;
    while (low < threshold) {
      product = static_cast<u128>(engine_()) * n;
      low = static_cast<std::uint64_t>(product);
    }
  }
  return static_cast<std::uint64_t>(product >> 64);
}

int Rng::poisson(Real mean) {
  if (mean < 12) {
    const Real threshold = std::exp(-mean);
    int x = 0;
    Real product = 1.0;
    do {
      product *= uniform();
      x += 1;
    } while (product > threshold);
    return x - 1;
  }

  // Devroye (1986, p. 511) with the errata: a normal/exponential envelope
  // around the mode and an exact lgamma acceptance test. The constants
  // are long-double literals rounded once to double.
  const Real m = std::floor(mean);
  const Real log_mean = std::log(mean);
  const Real lfm = std::lgamma(m + 1);
  const Real sm = std::sqrt(m);
  const Real pi_4 = static_cast<Real>(0.7853981633974483096156608458198757L);
  const Real dx = std::sqrt(2 * m * std::log(32 * m / pi_4));
  const Real d = std::round(std::max<Real>(6.0, std::min(m, dx)));
  const Real cx = 2 * m + d;
  const Real scx = std::sqrt(cx / 2);
  const Real inv_cx = 1 / cx;
  const Real c2b = std::sqrt(pi_4 * cx) * std::exp(inv_cx);
  const Real cb = 2 * cx * std::exp(-d * inv_cx * (1 + d / 2)) / d;

  const Real naf = (1 - std::numeric_limits<Real>::epsilon()) / 2;
  const Real thr = std::numeric_limits<int>::max() + naf;
  const Real spi_2 = static_cast<Real>(1.2533141373155002512078826424055226L);
  const Real c1 = sm * spi_2;
  const Real c2 = c2b + c1;
  const Real c3 = c2 + 1;
  const Real c4 = c3 + 1;
  const Real w1 = static_cast<Real>(0.0128205128205128205128205128205128L);
  const Real e178 = static_cast<Real>(1.0129030479320018583185514777512983L);
  const Real c5 = c4 + e178;
  const Real c = cb + c5;
  const Real two_cx = 2 * (2 * m + d);

  // Normals by Marsaglia's polar method, the spare kept for one call.
  Real spare = 0.0;
  bool has_spare = false;
  const auto normal = [&]() -> Real {
    if (has_spare) {
      has_spare = false;
      return spare;
    }
    Real a, b, r2;
    do {
      a = 2.0 * uniform() - 1.0;
      b = 2.0 * uniform() - 1.0;
      r2 = a * a + b * b;
    } while (r2 > 1.0 || r2 == 0.0);
    const Real mult = std::sqrt(-2 * std::log(r2) / r2);
    spare = a * mult;
    has_spare = true;
    return b * mult;
  };

  Real x = 0.0;
  bool reject = true;
  do {
    const Real u = c * uniform();
    const Real e = -std::log(1.0 - uniform());
    Real w = 0.0;
    if (u <= c1) {
      const Real n = normal();
      const Real y = -std::abs(n) * sm - 1;
      x = std::floor(y);
      w = -n * n / 2;
      if (x < -m) continue;
    } else if (u <= c2) {
      const Real n = normal();
      const Real y = 1 + std::abs(n) * scx;
      x = std::ceil(y);
      w = y * (2 - y) * inv_cx;
      if (x > d) continue;
    } else if (u <= c3) {
      x = -1;
    } else if (u <= c4) {
      x = 0;
    } else if (u <= c5) {
      x = 1;
      w = w1;
    } else {
      const Real v = -std::log(1.0 - uniform());
      const Real y = d + v * two_cx / d;
      x = std::ceil(y);
      w = -d * inv_cx * (1 + y / 2);
    }
    reject = (w - e - x * log_mean > lfm - std::lgamma(x + m + 1));
    reject |= x + m >= thr;
  } while (reject);
  return static_cast<int>(x + m + naf);
}

}  // namespace ecocap::dsp
