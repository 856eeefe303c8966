#pragma once

#include <array>
#include <cstddef>
#include <span>
#include <stdexcept>

#include "dsp/types.hpp"

namespace ecocap::dsp {

/// Phase-continuous sinusoidal oscillator. Used by the reader transmitter to
/// synthesize the continuous body wave (CBW) and to hop between the resonant
/// and off-resonant FSK frequencies without phase discontinuities (a phase
/// jump would itself excite the PZT ring).
///
/// A block phasor NCO. Every kAnchorPeriod samples of the oscillator's own
/// count it anchors: the phase advances by kAnchorPeriod steps in one
/// addition and the anchor phasor A = exp(i phase) is taken from cos/sin.
/// Sample k after the anchor is Im(A P[k]) with P[k] = exp(i k step), a
/// table built once per frequency. set_frequency and reset_phase anchor at
/// the current phase. Samples within a period depend on nothing but the
/// anchor, so next(), generate() and add_to() under any block split give
/// the same bytes, and the output stays within about 1e-14 of sin(phase()).
class Oscillator {
 public:
  static constexpr std::size_t kAnchorPeriod = 64;

  /// @param fs sample rate in Hz
  /// @param frequency initial frequency in Hz
  Oscillator(Real fs, Real frequency);

  /// Change frequency; phase stays continuous. Re-anchors.
  void set_frequency(Real frequency);

  Real frequency() const { return frequency_; }

  /// Produce the next sample of amplitude `amplitude`.
  Real next(Real amplitude = 1.0);

  /// Produce `n` samples into a new buffer.
  Signal generate(std::size_t n, Real amplitude = 1.0);

  /// Produce `n` samples into a caller-provided buffer (resized to n).
  void generate(std::size_t n, Real amplitude, Signal& out);

  /// x[i] += next(amplitude) over the span, in order.
  void add_to(std::span<Real> x, Real amplitude);

  /// Phase of the next sample in radians, wrapped to [0, 2*pi) (a phase
  /// set by reset_phase reads back as given until the next sample).
  Real phase() const;

  /// Set the phase of the next sample. Re-anchors.
  void reset_phase(Real phase = 0.0);

  /// Bit-exact carried-state round trip: frequency, anchor phase, the
  /// place in the anchor period and the anchor phasor, so a resume between
  /// anchors continues the same bytes.
  template <class Self, class Ar>
  static void fields(Self& self, Ar& a) {
    a.field("osc.frequency", self.frequency_);
    a.field("osc.anchor_phase", self.anchor_phase_);
    a.field("osc.since_anchor", self.since_anchor_);
    a.field("osc.anchor_re", self.anchor_re_);
    a.field("osc.anchor_im", self.anchor_im_);
    if constexpr (Ar::kLoading) {
      if (self.since_anchor_ > kAnchorPeriod) {
        throw std::runtime_error(
            "checkpoint: osc.since_anchor past the anchor period");
      }
      self.set_rate();
    }
  }

 private:
  /// step_ and the phasor table from frequency_.
  void set_rate();
  /// Anchor at `phase`: the period restarts there.
  void anchor(Real phase);
  /// Anchor at the end of a completed period.
  void advance_period();
  /// op(x[i], sample) for the next x.size() samples.
  template <class Op>
  void run(std::span<Real> x, Real amplitude, Op op);

  Real fs_;
  Real frequency_;
  Real step_ = 0.0;
  std::array<Real, kAnchorPeriod> table_re_{};  // cos(k step)
  std::array<Real, kAnchorPeriod> table_im_{};  // sin(k step)
  Real anchor_phase_ = 0.0;
  Real anchor_re_ = 1.0;  // exp(i anchor_phase_)
  Real anchor_im_ = 0.0;
  std::size_t since_anchor_ = 0;
};

/// Convenience: a single tone of `n` samples at frequency f (Hz), fs (Hz).
Signal tone(Real fs, Real f, std::size_t n, Real amplitude = 1.0,
            Real phase0 = 0.0);

/// Linear chirp from f0 to f1 across n samples, used by the frequency-sweep
/// characterization experiments (Fig. 5).
Signal chirp(Real fs, Real f0, Real f1, std::size_t n, Real amplitude = 1.0);

}  // namespace ecocap::dsp
