#pragma once

#include <span>

#include "dsp/workspace.hpp"
#include "phy/carrier.hpp"
#include "phy/pie.hpp"
#include "phy/protocol.hpp"
#include "phy/ring_effect.hpp"
#include "wave/prism.hpp"

namespace ecocap::reader {

using dsp::Real;
using dsp::Signal;

/// The reader's transmit chain (paper §5.1): PIE baseband -> carrier
/// modulation (FSK over the resonant/off-resonant pair, or plain OOK for
/// the Fig. 20 baseline) -> power amplifier -> 40 mm transmitting PZT disc
/// (whose mechanical resonance produces the ring effect) -> wave prism.
struct TransmitterConfig {
  phy::CarrierParams carrier;
  phy::PieParams pie;
  phy::DownlinkScheme scheme = phy::DownlinkScheme::kFskOffResonance;
  Real tx_voltage = 100.0;     // drive peak volts (the experiments' knob)
  Real max_voltage = 250.0;    // amplifier ceiling (Ciprian HVA limit)
  Real pzt_resonance = 230.0e3;
  Real pzt_q = 217.0;          // gives the ~0.3 ms ring tail of Fig. 7
  Real prism_angle_deg = 60.0; // default prism (0 = direct contact)
};

class Transmitter {
 public:
  explicit Transmitter(TransmitterConfig config = {});

  /// Continuous body wave of `duration` seconds (normalized acoustic
  /// amplitude 1.0 at the structure interface for tx_voltage volts) into a
  /// caller-provided buffer: the drive is generated in `out` and run
  /// through the PZT in place (no intermediate buffer).
  void continuous_wave(Real duration, Signal& out);

  /// Encode and transmit a protocol command into a caller-provided buffer
  /// (the acoustic output including the PZT ring behaviour); the PIE
  /// baseband scratch lives in a workspace lease.
  void transmit_command(const phy::Command& cmd, dsp::Workspace& ws,
                        Signal& out);

  /// Transmit raw PIE payload bits (diagnostics and PHY experiments) into
  /// a caller-provided buffer.
  void transmit_bits(const phy::Bits& payload, dsp::Workspace& ws,
                     Signal& out);

  /// The electrical modulated waveform before the PZT (for tests), into a
  /// caller-provided buffer.
  void modulated_baseband(const phy::Bits& payload, dsp::Workspace& ws,
                          Signal& out) const;

  const TransmitterConfig& config() const { return config_; }
  void set_tx_voltage(Real volts);

 private:
  TransmitterConfig config_;
  phy::RingingPzt pzt_;
};

}  // namespace ecocap::reader
