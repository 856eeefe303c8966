#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <vector>

#include "channel/link_budget.hpp"
#include "channel/scatterers.hpp"
#include "channel/structures.hpp"
#include "dsp/biquad.hpp"
#include "dsp/filter_cache.hpp"
#include "dsp/oscillator.hpp"
#include "dsp/rng.hpp"
#include "dsp/types.hpp"
#include "wave/prism.hpp"
#include "wave/ray_tracer.hpp"

namespace ecocap::channel {

using dsp::Real;
using dsp::Signal;

/// Configuration of a waveform-level acoustic link through a structure.
struct ChannelConfig {
  Real fs = 2.0e6;                 // simulation sample rate (Hz)
  Real distance = 1.0;             // reader -> node path length (m)
  Real prism_angle_deg = 60.0;     // injection angle (0 = no prism)
  Real concrete_resonance = 230.0e3;  // Hz, center of the carrier band
  Real concrete_q = 10.0;          // resonator Q of the concrete+PZT path
  /// Acoustic noise floor at the receiving PZT, as an absolute sample
  /// standard deviation relative to a unit-amplitude carrier at 1 m.
  Real noise_sigma = 3.0e-3;
  /// Self-interference power ratio: CBW leakage + surface waves are ~10x
  /// stronger in amplitude than the backscatter at the reader RX (§3.4).
  Real self_interference_gain = 10.0;
  /// When true, convolve with ray-traced boundary-reflection taps instead
  /// of only the direct mode arrivals.
  bool use_multipath = false;
  int multipath_rays = 48;
  /// When true, keep the absolute propagation delay in the output instead
  /// of normalizing to the first arrival — required for time-of-flight
  /// ranging of nodes at unknown positions (§3.2's discovery problem).
  bool preserve_absolute_delay = false;
  /// Foreign objects inside the concrete (§3.5): when non-empty, the link
  /// gain is additionally scaled by the scatterer field's
  /// frequency-selective path gain at `carrier_for_scatterers`.
  std::vector<Scatterer> scatterers;
  Real carrier_for_scatterers = 230.0e3;
};

/// End-to-end acoustic channel through a concrete structure. Downlink takes
/// the reader's transmitted acoustic waveform and produces the waveform at
/// the node's PZT; uplink takes the node's backscatter emission and produces
/// the waveform at the reader's receiving PZT, including the CBW
/// self-interference (paper §3.2-3.4).
class ConcreteChannel {
 public:
  /// Owning construction: copies the structure and config in.
  ConcreteChannel(Structure structure, ChannelConfig config);

  /// Shared immutable snapshot construction: Monte-Carlo harnesses build
  /// one SystemConfig snapshot and alias its structure/channel members into
  /// every per-trial channel, so heavyweight fields (the scatterer list in
  /// particular) are never copied per trial.
  ConcreteChannel(std::shared_ptr<const Structure> structure,
                  std::shared_ptr<const ChannelConfig> config);

  /// Propagate the reader's acoustic output to the node, into a
  /// caller-provided buffer (resized to the input length). Applies:
  ///  * prism mode split (an early P copy + the main S copy when the
  ///    incident angle is below the first critical angle),
  ///  * the concrete/PZT band resonance ("FSK in, OOK out" physics),
  ///  * distance attenuation per the structure's range law,
  ///  * additive Gaussian acoustic noise.
  /// This is one block of a fresh DownlinkStream. `out` must not alias
  /// `tx_acoustic`.
  void downlink(std::span<const Real> tx_acoustic, dsp::Rng& rng,
                Signal& out) const;

  /// Propagate the node's backscatter emission to the reader RX into a
  /// caller-provided buffer, adding the CBW self-interference at
  /// `uplink_si_amplitude(rms)` of the propagated backscatter (§3.4's "10x
  /// stronger"). This is one block of a fresh UplinkStream; with
  /// `preserve_absolute_delay` the one-way S flight is prepended as
  /// silence. `out` must not alias `node_emission`.
  /// @param carrier_frequency frequency of the CBW for SI synthesis
  void uplink(std::span<const Real> node_emission, Real carrier_frequency,
              dsp::Rng& rng, Signal& out) const;

  /// The SI amplitude the uplink uses for an emission whose *propagated*
  /// (post path-gain, post resonance) waveform has the given RMS.
  Real uplink_si_amplitude(Real propagated_rms) const;

  /// The downlink as a block processor over carried state (tap delay line,
  /// biquad state, position). Feeding a waveform through `push_block` in
  /// pieces of any size produces exactly the bytes one push of the whole
  /// waveform produces, because every element is a per-sample recurrence
  /// over carried state and the noise draws continue the caller's RNG.
  class DownlinkStream {
   public:
    /// @param channel must outlive the stream
    explicit DownlinkStream(const ConcreteChannel& channel);

    /// Transform one block in place: x is the tx acoustic waveform on
    /// entry, the at-node waveform on exit. The AWGN draws come from `rng`.
    void push_block(Signal& x, dsp::Rng& rng);

    /// Bit-exact carried-state round trip (position, tap delay line, biquad
    /// state); the tap geometry is config, recomputed at construction.
    template <class Self, class Ar>
    static void fields(Self& self, Ar& a) {
      a.field("dls.pos", self.pos_);
      a.field("dls.hist", self.hist_);
      if (self.hist_.size() != self.max_shift_) {
        throw std::runtime_error(
            "checkpoint: downlink tap delay line length mismatch");
      }
      a.object(self.resonator_);
    }

   private:
    const ConcreteChannel* channel_;
    std::vector<std::size_t> shifts_;  // per-tap delays, samples
    std::vector<Real> amps_;           // per-tap amplitudes (taps order)
    std::size_t max_shift_ = 0;
    Signal hist_;  // last max_shift_ raw inputs (the tap delay line)
    Signal ext_;   // scratch: hist_ ++ current block
    dsp::Biquad resonator_;
    std::uint64_t pos_ = 0;
  };

  /// The uplink as a block processor over carried state (biquad, SI
  /// oscillator phase). The SI amplitude is a per-push argument: a live
  /// reader fixes it up front from its CBW drive level, the batch uplink
  /// derives it from the propagated RMS between the two halves.
  class UplinkStream {
   public:
    /// Draws the SI starting phase from `rng`: the uplink's first draw,
    /// before any noise. A random phase decorrelates the SI from the
    /// carrier snapshot the node reflected.
    UplinkStream(const ConcreteChannel& channel, Real carrier_frequency,
                 dsp::Rng& rng);

    /// Transform one block in place: x is the node emission on entry, the
    /// at-reader waveform on exit.
    void push_block(Signal& x, Real si_amplitude, dsp::Rng& rng) {
      propagate(x);
      add_si_noise(x, si_amplitude, rng);
    }

    /// The deterministic half: path gain, then resonance. The uplink path
    /// carries only the S-reflections back (the node radiates from inside
    /// the bulk; the prism mode split does not apply).
    void propagate(Signal& x);
    /// The stochastic half: SI carrier at `si_amplitude`, then AWGN.
    void add_si_noise(Signal& x, Real si_amplitude, dsp::Rng& rng);

    /// Bit-exact carried-state round trip (biquad, SI oscillator).
    template <class Self, class Ar>
    static void fields(Self& self, Ar& a) {
      a.object(self.resonator_);
      a.object(self.si_);
    }

   private:
    const ConcreteChannel* channel_;
    Real gain_;
    dsp::Biquad resonator_;
    dsp::Oscillator si_;
  };

  /// Amplitude scale of the direct path at the configured distance (the
  /// same quantity the link budget computes, normalized to TX amplitude 1),
  /// including any scatterer-field fading at the configured carrier.
  Real path_gain() const;

  /// Scatterer fading factor alone at frequency f (1.0 when no scatterers
  /// are configured). Exposed so a reader can implement the §3.5 carrier
  /// fine-tuning against the actual deployment.
  Real scatterer_gain(Real frequency) const;

  /// The mode tap set actually used (delay seconds, amplitude). Computed
  /// once at construction (the geometry is immutable) and shared by every
  /// downlink call, so ray tracing drops out of the per-trial loop.
  const std::vector<wave::Tap>& mode_taps() const { return mode_taps_; }

  const Structure& structure() const { return *structure_; }
  const ChannelConfig& config() const { return *config_; }

 private:
  /// Filter `x` in place through the band resonator whose carried state is
  /// `state` (a copy of the zero-state prototype), normalised to unit peak
  /// gain.
  void resonate(dsp::Biquad& state, Signal& x) const;
  std::vector<wave::Tap> compute_mode_taps() const;

  std::shared_ptr<const Structure> structure_;
  std::shared_ptr<const ChannelConfig> config_;
  wave::WavePrism prism_;
  std::optional<ScattererField> scatterer_field_;
  /// Designed once via the process-wide FilterCache; every stream copies
  /// the zero-state prototype instead of redesigning the biquad.
  std::shared_ptr<const dsp::FilterCache::ResonatorDesign> resonator_;
  std::vector<wave::Tap> mode_taps_;
};

}  // namespace ecocap::channel
