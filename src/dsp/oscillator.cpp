#include "dsp/oscillator.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace ecocap::dsp {

namespace {

/// x wrapped to [0, 2*pi).
Real wrap_phase(Real x) {
  Real r = x - kTwoPi * std::floor(x / kTwoPi);
  if (r >= kTwoPi) r -= kTwoPi;
  if (r < 0.0) r += kTwoPi;
  return r;
}

}  // namespace

Oscillator::Oscillator(Real fs, Real frequency)
    : fs_(fs), frequency_(frequency) {
  if (fs <= 0.0) throw std::invalid_argument("Oscillator: fs must be > 0");
  set_rate();
  anchor(0.0);
}

void Oscillator::set_rate() {
  // P[k] = P[k-1] exp(i step): two libm calls per frequency, so an FSK hop
  // stays cheap; the recurrence drifts by well under 1e-14 over a period.
  step_ = kTwoPi * frequency_ / fs_;
  const Real w_re = std::cos(step_);
  const Real w_im = std::sin(step_);
  table_re_[0] = 1.0;
  table_im_[0] = 0.0;
  for (std::size_t k = 1; k < kAnchorPeriod; ++k) {
    table_re_[k] = table_re_[k - 1] * w_re - table_im_[k - 1] * w_im;
    table_im_[k] = table_re_[k - 1] * w_im + table_im_[k - 1] * w_re;
  }
}

void Oscillator::anchor(Real phase) {
  anchor_phase_ = phase;
  anchor_re_ = std::cos(phase);
  anchor_im_ = std::sin(phase);
  since_anchor_ = 0;
}

void Oscillator::advance_period() {
  anchor(wrap_phase(anchor_phase_ +
                    step_ * static_cast<Real>(kAnchorPeriod)));
}

Real Oscillator::phase() const {
  if (since_anchor_ == 0) return anchor_phase_;
  return wrap_phase(anchor_phase_ + step_ * static_cast<Real>(since_anchor_));
}

void Oscillator::reset_phase(Real phase) { anchor(phase); }

void Oscillator::set_frequency(Real frequency) {
  const Real ph = phase();
  frequency_ = frequency;
  set_rate();
  anchor(ph);
}

Real Oscillator::next(Real amplitude) {
  if (since_anchor_ == kAnchorPeriod) advance_period();
  const std::size_t k = since_anchor_++;
  return amplitude * (anchor_im_ * table_re_[k] + anchor_re_ * table_im_[k]);
}

template <class Op>
void Oscillator::run(std::span<Real> x, Real amplitude, Op op) {
  // Period by period: within one, every sample is the expression next()
  // evaluates, on locals the compiler can keep in registers and vectorize.
  std::size_t i = 0;
  while (i < x.size()) {
    if (since_anchor_ == kAnchorPeriod) advance_period();
    const std::size_t k0 = since_anchor_;
    const std::size_t len = std::min(x.size() - i, kAnchorPeriod - k0);
    const Real a_re = anchor_re_;
    const Real a_im = anchor_im_;
    Real* out = x.data() + i;
    const Real* c = table_re_.data() + k0;
    const Real* s = table_im_.data() + k0;
    for (std::size_t j = 0; j < len; ++j) {
      op(out[j], amplitude * (a_im * c[j] + a_re * s[j]));
    }
    since_anchor_ += len;
    i += len;
  }
}

Signal Oscillator::generate(std::size_t n, Real amplitude) {
  Signal out;
  generate(n, amplitude, out);
  return out;
}

void Oscillator::generate(std::size_t n, Real amplitude, Signal& out) {
  out.resize(n);
  run(out, amplitude, [](Real& o, Real v) { o = v; });
}

void Oscillator::add_to(std::span<Real> x, Real amplitude) {
  run(x, amplitude, [](Real& o, Real v) { o += v; });
}

Signal tone(Real fs, Real f, std::size_t n, Real amplitude, Real phase0) {
  Signal out(n);
  const Real step = kTwoPi * f / fs;
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = amplitude * std::sin(phase0 + step * static_cast<Real>(i));
  }
  return out;
}

Signal chirp(Real fs, Real f0, Real f1, std::size_t n, Real amplitude) {
  Signal out(n);
  if (n == 0) return out;
  const Real duration = static_cast<Real>(n) / fs;
  const Real k = (f1 - f0) / duration;  // Hz per second
  for (std::size_t i = 0; i < n; ++i) {
    const Real t = static_cast<Real>(i) / fs;
    const Real phase = kTwoPi * (f0 * t + 0.5 * k * t * t);
    out[i] = amplitude * std::sin(phase);
  }
  return out;
}

}  // namespace ecocap::dsp
