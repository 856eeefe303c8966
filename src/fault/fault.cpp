#include "fault/fault.hpp"

#include <algorithm>
#include <cmath>

namespace ecocap::fault {

namespace {
/// Salt separating the injector's stream from the channel/node/protocol
/// streams derived from the same base seed.
constexpr std::uint64_t kFaultSalt = 0xfa017ec7a1a5ull;
}  // namespace

FaultPlan FaultPlan::at_intensity(Real intensity) {
  const Real x = std::clamp(intensity, 0.0, 1.0);
  FaultPlan p;
  if (x <= 0.0) return p;  // exactly the empty plan
  p.channel.burst_prob = 0.5 * x;
  p.channel.burst_sigma = 0.02 + 0.10 * x;
  p.channel.burst_fraction = 0.15;
  p.channel.dropout_prob = 0.3 * x;
  p.channel.dropout_fraction = 0.25;
  p.channel.clock_drift_ppm = 200.0 * x;
  p.channel.spike_rate_hz = 2000.0 * x;
  p.channel.spike_amplitude = 0.5 * x;
  p.node.brownout_prob = 0.15 * x;
  p.node.cap_leak_amps = 20.0e-6 * x;
  p.node.bit_flip_prob = 0.3 * x;
  p.reader.adc_clip_level = 0.0;  // clip is opt-in; it needs calibration
  return p;
}

FaultPlan FaultPlan::seismic_shaking(Real pga) {
  const Real g = std::clamp(pga, 0.0, 2.0);
  FaultPlan p;
  if (g <= 0.0) return p;  // exactly the empty plan
  // Ground motion rattles everything at once: rebar scatter turns
  // impulsive, the PA coupling drops in and out, and racked capsules see
  // supply dips. Scaled so PGA 1 m/s^2 is a rough site and 2 is severe.
  p.channel.spike_rate_hz = 4000.0 * g;
  p.channel.spike_amplitude = 0.4 * g;
  p.channel.dropout_prob = std::min<Real>(0.25 * g, 0.6);
  p.channel.dropout_fraction = 0.3;
  p.node.brownout_prob = std::min<Real>(0.10 * g, 0.4);
  return p;
}

FaultPlan FaultPlan::max_of(const FaultPlan& a, const FaultPlan& b) {
  const ChannelFaultPlan& ca = a.channel;
  const ChannelFaultPlan& cb = b.channel;
  // A shape field (window length, noise level, spike height) counts only
  // from the inputs whose impairment is active: an inactive impairment's
  // shape is a default that never fires, not a setting to compete with.
  const auto shape = [](Real x, Real x_rate, Real y, Real y_rate) {
    const bool x_on = x_rate > 0.0;
    if (x_on != (y_rate > 0.0)) return x_on ? x : y;
    return std::max(x, y);
  };
  FaultPlan p;
  ChannelFaultPlan& c = p.channel;
  c.burst_prob = std::max(ca.burst_prob, cb.burst_prob);
  c.burst_sigma =
      shape(ca.burst_sigma, ca.burst_prob, cb.burst_sigma, cb.burst_prob);
  c.burst_fraction =
      shape(ca.burst_fraction, ca.burst_prob, cb.burst_fraction, cb.burst_prob);
  c.dropout_prob = std::max(ca.dropout_prob, cb.dropout_prob);
  c.dropout_fraction = shape(ca.dropout_fraction, ca.dropout_prob,
                             cb.dropout_fraction, cb.dropout_prob);
  c.clock_drift_ppm = std::max(ca.clock_drift_ppm, cb.clock_drift_ppm);
  c.spike_rate_hz = std::max(ca.spike_rate_hz, cb.spike_rate_hz);
  c.spike_amplitude = shape(ca.spike_amplitude, ca.spike_rate_hz,
                            cb.spike_amplitude, cb.spike_rate_hz);
  p.node.brownout_prob = std::max(a.node.brownout_prob, b.node.brownout_prob);
  p.node.cap_leak_amps = std::max(a.node.cap_leak_amps, b.node.cap_leak_amps);
  p.node.bit_flip_prob = std::max(a.node.bit_flip_prob, b.node.bit_flip_prob);
  p.reader.adc_clip_level =
      std::max(a.reader.adc_clip_level, b.reader.adc_clip_level);
  return p;
}

Injector::Injector(const FaultPlan& plan, std::uint64_t base_seed,
                   std::uint64_t trial)
    : plan_(plan),
      rng_(dsp::trial_seed(base_seed ^ kFaultSalt, trial)) {}

void Injector::corrupt_waveform(Signal& x, Real fs) {
  const ChannelFaultPlan& c = plan_.channel;
  if (c.empty() || x.empty() || fs <= 0.0) return;

  // Burst noise window.
  if (c.burst_prob > 0.0 && rng_.chance(c.burst_prob)) {
    ++counters_.bursts;
    const auto len = static_cast<std::size_t>(
        std::max<Real>(1.0, c.burst_fraction * static_cast<Real>(x.size())));
    const std::size_t start =
        x.size() > len ? rng_.index(x.size() - len + 1) : 0;
    const std::size_t end = std::min(x.size(), start + len);
    for (std::size_t i = start; i < end; ++i) {
      x[i] += rng_.gaussian(c.burst_sigma);
    }
  }

  // Carrier dropout window.
  if (c.dropout_prob > 0.0 && rng_.chance(c.dropout_prob)) {
    ++counters_.dropouts;
    const auto len = static_cast<std::size_t>(
        std::max<Real>(1.0, c.dropout_fraction * static_cast<Real>(x.size())));
    const std::size_t start =
        x.size() > len ? rng_.index(x.size() - len + 1) : 0;
    const std::size_t end = std::min(x.size(), start + len);
    std::fill(x.begin() + static_cast<std::ptrdiff_t>(start),
              x.begin() + static_cast<std::ptrdiff_t>(end), 0.0);
  }

  // Impulsive rebar-scatter spikes: Poisson count over the waveform span.
  if (c.spike_rate_hz > 0.0 && c.spike_amplitude > 0.0) {
    const Real span_s = static_cast<Real>(x.size()) / fs;
    const int n = rng_.poisson(c.spike_rate_hz * span_s);
    for (int k = 0; k < n; ++k) {
      const std::size_t i = rng_.index(x.size());
      x[i] += rng_.chance(0.5) ? c.spike_amplitude : -c.spike_amplitude;
      ++counters_.spikes;
    }
  }
}

Real Injector::clock_drift_factor() {
  if (plan_.channel.clock_drift_ppm <= 0.0) return 1.0;
  if (drift_factor_ == 0.0) {
    const Real ppm = plan_.channel.clock_drift_ppm;
    drift_factor_ = 1.0 + rng_.uniform(-ppm, ppm) * 1.0e-6;
  }
  return drift_factor_;
}

bool Injector::brownout_aborts_frame() {
  if (plan_.node.brownout_prob <= 0.0) return false;
  const bool hit = rng_.chance(plan_.node.brownout_prob);
  if (hit) ++counters_.brownouts;
  return hit;
}

Real Injector::brownout_cut() {
  // Uniform in (0.05, 0.95): the frame always loses a meaningful tail but
  // some preamble energy still leaves the node.
  return rng_.uniform(0.05, 0.95);
}

void Injector::corrupt_frame_bits(phy::Bits& payload) {
  if (plan_.node.bit_flip_prob <= 0.0 || payload.empty()) return;
  if (!rng_.chance(plan_.node.bit_flip_prob)) return;
  const std::size_t i = rng_.index(payload.size());
  payload[i] ^= 1u;
  ++counters_.bit_flips;
}

void Injector::clip_adc(Signal& x) {
  const Real level = plan_.reader.adc_clip_level;
  if (level <= 0.0) return;
  for (Real& v : x) {
    if (v > level) {
      v = level;
      ++counters_.clipped_samples;
    } else if (v < -level) {
      v = -level;
      ++counters_.clipped_samples;
    }
  }
}

bool Injector::reply_lost() {
  // Dropout windows and mid-frame brownouts both read as a lost reply at
  // the protocol level; combine their probabilities as independent events.
  const Real p = 1.0 - (1.0 - std::clamp(plan_.channel.dropout_prob, 0.0, 1.0)) *
                           (1.0 - std::clamp(plan_.node.brownout_prob, 0.0, 1.0));
  if (p <= 0.0) return false;
  const bool hit = rng_.chance(p);
  if (hit) ++counters_.replies_lost;
  return hit;
}

bool Injector::reply_corrupted() {
  const Real p = plan_.node.bit_flip_prob;
  if (p <= 0.0) return false;
  const bool hit = rng_.chance(p);
  if (hit) ++counters_.replies_corrupted;
  return hit;
}

}  // namespace ecocap::fault
