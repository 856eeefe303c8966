#pragma once

#include <cstdint>

#include "dsp/rng.hpp"
#include "dsp/types.hpp"
#include "phy/bits.hpp"

namespace ecocap::fault {

using dsp::Real;
using dsp::Signal;

/// Deterministic, seed-driven fault injection for the reader <-> capsule
/// pipeline (paper §5: the evaluation lives where things go wrong — cold
/// start brownouts, collision slots, self-interference, rebar scatter).
///
/// A FaultPlan is pure configuration; an Injector binds a plan to a
/// (base seed, trial index) pair and draws every fault decision from its
/// OWN splitmix64-derived stream. Two consequences:
///  * an empty plan is perfectly inert — no hook consumes a single RNG
///    draw, so the fault-free pipeline stays bit-identical to a build
///    without the fault layer at any ECOCAP_THREADS;
///  * fault realizations depend only on (plan, seed, trial), never on
///    which worker runs the trial, so faulted Monte-Carlo aggregates are
///    bit-reproducible across thread counts too.

/// Channel-layer impairments, applied to the propagated waveform.
struct ChannelFaultPlan {
  /// Probability that a leg (downlink or uplink pass) carries a burst-noise
  /// window: `burst_fraction` of the waveform gets `burst_sigma` of extra
  /// AWGN on top of the channel's own floor (machinery impact, §5 site
  /// noise).
  Real burst_prob = 0.0;
  Real burst_sigma = 0.05;
  Real burst_fraction = 0.15;
  /// Probability of a carrier dropout window: a contiguous
  /// `dropout_fraction` of the waveform is zeroed (reader PA brown-out /
  /// transducer decoupling).
  Real dropout_prob = 0.0;
  Real dropout_fraction = 0.2;
  /// Node clock drift: the capsule's RC timebase mis-runs by a uniform
  /// factor in [-ppm, +ppm], skewing its BLF and bitrate against the
  /// reader's nominal expectation.
  Real clock_drift_ppm = 0.0;
  /// Impulsive spikes from rebar scatter (§3.5): a Poisson process of
  /// `spike_rate_hz` isolated samples of amplitude `spike_amplitude`.
  Real spike_rate_hz = 0.0;
  Real spike_amplitude = 0.0;

  bool empty() const {
    return burst_prob <= 0.0 && dropout_prob <= 0.0 &&
           clock_drift_ppm <= 0.0 && spike_rate_hz <= 0.0;
  }
};

/// Node-layer impairments.
struct NodeFaultPlan {
  /// Probability that the node browns out mid-frame while backscattering:
  /// the emission truncates at a uniform position and the MCU loses state
  /// (the cold-start regime of Fig. 14 hitting during an interrogation).
  Real brownout_prob = 0.0;
  /// Extra storage-cap leakage, as a constant parasitic load current (A)
  /// on top of the MCU draw — ages the Fig. 14 charge curve.
  Real cap_leak_amps = 0.0;
  /// Probability that a scheduled uplink frame suffers a single bit flip
  /// in node memory before transmission. The flip lands anywhere in the
  /// encoded payload (which already carries its CRC), so the reader's CRC
  /// check catches it — the CRC-fail re-query path.
  Real bit_flip_prob = 0.0;

  bool empty() const {
    return brownout_prob <= 0.0 && cap_leak_amps <= 0.0 &&
           bit_flip_prob <= 0.0;
  }
};

/// Reader-layer impairments.
struct ReaderFaultPlan {
  /// ADC full-scale clip level: samples beyond +-level saturate (0 = off).
  /// Models the §3.4 regime where the 10x self-interference rides the
  /// backscatter into the converter's rails.
  Real adc_clip_level = 0.0;

  bool empty() const { return adc_clip_level <= 0.0; }
};

struct FaultPlan {
  ChannelFaultPlan channel;
  NodeFaultPlan node;
  ReaderFaultPlan reader;

  bool empty() const {
    return channel.empty() && node.empty() && reader.empty();
  }

  /// Canonical single-knob plan for sweeps: every impairment scales
  /// linearly with `intensity` in [0, 1]. intensity 0 is the empty plan;
  /// 1 is a hostile site (bursty noise, frequent dropouts, leaky caps).
  static FaultPlan at_intensity(Real intensity);

  /// Seismic-shaking plan (the scenario layer's ground-motion event kind):
  /// during shaking the structure rings with impulsive rebar scatter, the
  /// reader PA sees transient decoupling dropouts, and racked capsules
  /// brown out more often. `pga` is the instantaneous peak ground
  /// acceleration in m/s^2 (typical scenario range 0..~1); 0 is the empty
  /// plan.
  static FaultPlan seismic_shaking(Real pga);

  /// Field-wise maximum of two plans — the composition rule for
  /// overlapping scenario fault windows, where the harsher impairment of
  /// each kind wins. An impairment's shape fields (burst sigma and
  /// fraction, dropout fraction, spike amplitude) come only from the inputs
  /// where its rate is > 0, so max_of(p, empty) == max_of(empty, p) == p
  /// for every impairment p activates.
  static FaultPlan max_of(const FaultPlan& a, const FaultPlan& b);

  /// Checkpoint round trip of the plan's full field set. A checkpoint that
  /// carries the live plan can rebuild injectors with the exact fault
  /// configuration a mid-run `set_fault_plan` swapped in.
  template <class Self, class Ar>
  static void fields(Self& self, Ar& a) {
    a.field("fp.burst_prob", self.channel.burst_prob);
    a.field("fp.burst_sigma", self.channel.burst_sigma);
    a.field("fp.burst_fraction", self.channel.burst_fraction);
    a.field("fp.dropout_prob", self.channel.dropout_prob);
    a.field("fp.dropout_fraction", self.channel.dropout_fraction);
    a.field("fp.clock_drift_ppm", self.channel.clock_drift_ppm);
    a.field("fp.spike_rate_hz", self.channel.spike_rate_hz);
    a.field("fp.spike_amplitude", self.channel.spike_amplitude);
    a.field("fp.brownout_prob", self.node.brownout_prob);
    a.field("fp.cap_leak_amps", self.node.cap_leak_amps);
    a.field("fp.bit_flip_prob", self.node.bit_flip_prob);
    a.field("fp.adc_clip_level", self.reader.adc_clip_level);
  }
};

/// Per-trial fault source. Cheap to construct; all hooks are no-ops (zero
/// draws) when the plan is empty.
class Injector {
 public:
  /// Inert injector (empty plan).
  Injector() : Injector(FaultPlan{}, 0, 0) {}

  /// Bind `plan` to trial `trial` of an experiment seeded `base_seed`.
  /// The internal stream is salted so it never collides with the
  /// channel/node/protocol streams derived from the same base seed.
  Injector(const FaultPlan& plan, std::uint64_t base_seed,
           std::uint64_t trial = 0);

  bool active() const { return !plan_.empty(); }
  const FaultPlan& plan() const { return plan_; }

  /// Realized fault counts, for stats surfacing and tests.
  struct Counters {
    int bursts = 0;
    int dropouts = 0;
    int spikes = 0;
    int brownouts = 0;
    int bit_flips = 0;
    int clipped_samples = 0;
    int replies_lost = 0;
    int replies_corrupted = 0;
  };
  const Counters& counters() const { return counters_; }

  // --- channel layer (waveform domain) ------------------------------------
  /// Apply burst noise / dropout windows / rebar spikes to a propagated
  /// waveform in place. Used on both downlink and uplink legs.
  void corrupt_waveform(Signal& x, Real fs);

  /// Per-trial multiplicative timebase drift factor for the node's BLF and
  /// bitrate (1.0 when drift is not configured). Drawn once per injector so
  /// one trial's node is consistently fast or slow.
  Real clock_drift_factor();

  // --- node layer ---------------------------------------------------------
  /// True when this uplink frame browns out mid-transmission; when so,
  /// `brownout_cut` returns the surviving fraction in (0, 1).
  bool brownout_aborts_frame();
  Real brownout_cut();

  /// Parasitic storage-cap load (A); constant per plan, no draw.
  Real cap_leak_amps() const { return plan_.node.cap_leak_amps; }

  /// Flip one bit of an encoded frame payload with the configured
  /// probability (in node memory, after the CRC was computed — so the
  /// reader's CRC check fails).
  void corrupt_frame_bits(phy::Bits& payload);

  // --- reader layer -------------------------------------------------------
  /// Saturate samples at the configured ADC full-scale level.
  void clip_adc(Signal& x);

  // --- protocol-level counterparts ----------------------------------------
  /// The SNR-model inventory engine has no waveforms; dropout/brownout
  /// collapse into "the reader timed out waiting for the reply" and bit
  /// flips into "the reply failed CRC". One draw each per exchange attempt.
  bool reply_lost();
  bool reply_corrupted();

  /// Bit-exact round trip of the injector's *state* (RNG stream position,
  /// lazily drawn drift factor, realized-fault counters). The plan is
  /// config and must be re-established by the owner before load.
  template <class Self, class Ar>
  static void fields(Self& self, Ar& a) {
    a.field("inj.rng", self.rng_);
    a.field("inj.drift", self.drift_factor_);
    auto& c = self.counters_;
    a.field("inj.bursts", c.bursts);
    a.field("inj.dropouts", c.dropouts);
    a.field("inj.spikes", c.spikes);
    a.field("inj.brownouts", c.brownouts);
    a.field("inj.bit_flips", c.bit_flips);
    a.field("inj.clipped", c.clipped_samples);
    a.field("inj.replies_lost", c.replies_lost);
    a.field("inj.replies_corrupted", c.replies_corrupted);
  }

 private:
  FaultPlan plan_;
  dsp::Rng rng_;
  Real drift_factor_ = 0.0;  // lazily drawn; 0 marks "not yet drawn"
  Counters counters_;
};

}  // namespace ecocap::fault
