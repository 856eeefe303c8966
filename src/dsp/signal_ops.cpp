#include "dsp/signal_ops.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace ecocap::dsp {

Real mean(std::span<const Real> x) {
  if (x.empty()) return 0.0;
  Real sum = 0.0;
  for (Real v : x) sum += v;
  return sum / static_cast<Real>(x.size());
}

Real power(std::span<const Real> x) {
  if (x.empty()) return 0.0;
  Real sum = 0.0;
  for (Real v : x) sum += v * v;
  return sum / static_cast<Real>(x.size());
}

Real rms(std::span<const Real> x) { return std::sqrt(power(x)); }

Real peak(std::span<const Real> x) {
  Real p = 0.0;
  for (Real v : x) p = std::max(p, std::abs(v));
  return p;
}

Real energy(std::span<const Real> x) {
  Real sum = 0.0;
  for (Real v : x) sum += v * v;
  return sum;
}

Real to_db(Real power_ratio) {
  if (power_ratio <= 0.0) return -300.0;
  return 10.0 * std::log10(power_ratio);
}

Real from_db(Real db) { return std::pow(10.0, db / 10.0); }

void normalize_peak(Signal& x, Real target) {
  const Real p = peak(x);
  if (p <= 0.0) return;
  const Real g = target / p;
  for (Real& v : x) v *= g;
}

Signal add(std::span<const Real> a, std::span<const Real> b) {
  if (a.size() != b.size()) {
    throw std::invalid_argument("dsp::add: size mismatch");
  }
  Signal out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] + b[i];
  return out;
}

Signal multiply(std::span<const Real> a, std::span<const Real> b) {
  Signal out;
  multiply(a, b, out);
  return out;
}

void multiply(std::span<const Real> a, std::span<const Real> b, Signal& out) {
  if (a.size() != b.size()) {
    throw std::invalid_argument("dsp::multiply: size mismatch");
  }
  // Aliased (in-place) calls already have out.size() == a.size(), so the
  // resize never reallocates under the input spans.
  out.resize(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] * b[i];
}

void scale(Signal& x, Real gain) {
  for (Real& v : x) v *= gain;
}

void add_awgn(Signal& x, Real sigma, Rng& rng) {
  rng.add_gaussian(x, sigma);
}

Real add_awgn_snr(Signal& x, Real snr_db, Rng& rng) {
  const Real p = power(x);
  if (p <= 0.0) return 0.0;
  const Real noise_power = p / from_db(snr_db);
  const Real sigma = std::sqrt(noise_power);
  add_awgn(x, sigma, rng);
  return sigma;
}

Real measure_snr_db(std::span<const Real> reference,
                    std::span<const Real> observed) {
  if (reference.size() != observed.size()) {
    throw std::invalid_argument("dsp::measure_snr_db: size mismatch");
  }
  Real sig = 0.0;
  Real noise = 0.0;
  for (std::size_t i = 0; i < reference.size(); ++i) {
    sig += reference[i] * reference[i];
    const Real d = observed[i] - reference[i];
    noise += d * d;
  }
  if (noise <= 0.0) return 300.0;
  return to_db(sig / noise);
}

Signal concat(std::span<const Real> a, std::span<const Real> b) {
  Signal out;
  out.reserve(a.size() + b.size());
  out.insert(out.end(), a.begin(), a.end());
  out.insert(out.end(), b.begin(), b.end());
  return out;
}

Signal slice(std::span<const Real> x, std::size_t start, std::size_t count) {
  Signal out(count, 0.0);
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t j = start + i;
    if (j < x.size()) out[i] = x[j];
  }
  return out;
}

}  // namespace ecocap::dsp
