#pragma once

#include <cstddef>
#include <span>

#include "dsp/types.hpp"
#include "node/harvester.hpp"
#include "node/power_model.hpp"

namespace ecocap::node {

/// The harvester driven on its 1 ms step grid: incident samples fill 1 ms
/// chunks, and each full chunk steps the storage cap once with the chunk's
/// peak amplitude times the HRA gain as the rectifier input, against the
/// MCU standby draw while powered plus any parasitic load. The partial
/// chunk's peak and fill carry across `push` calls, so a stream split into
/// blocks of any size steps the cap exactly as the unsplit stream would.
class HarvestGrid {
 public:
  /// @param fs incident sample rate; must give a chunk of >= 1 sample
  HarvestGrid(const HarvesterConfig& harvester, const PowerModel& power,
              Real hra_gain, Real fs);

  /// Harvest `x`, stepping the cap at every chunk it completes.
  void push(std::span<const Real> x);

  /// Step the partial chunk, if any, with dt = its length / fs and start a
  /// fresh chunk — the end of one batch `EcoCapsule::receive` call.
  void flush();

  /// Constant parasitic load (A) on the storage cap on top of the MCU draw.
  /// Drains even while the MCU is off (a leak does not wait for boot).
  void set_extra_load_amps(Real amps) { extra_load_ = amps; }

  Harvester& harvester() { return harvester_; }
  const Harvester& harvester() const { return harvester_; }

  /// Bit-exact round trip of the partial chunk and the cap state, under
  /// the streaming node stage's checkpoint keys.
  template <class Self, class Ar>
  static void fields(Self& self, Ar& a) {
    a.field("ns.chunk_peak", self.peak_);
    a.field("ns.chunk_fill", self.fill_);
    a.object(self.harvester_);
  }

 private:
  void step();

  Harvester harvester_;
  Real hra_gain_;
  Real standby_load_;  // MCU standby draw off the LDO rail, amps
  Real fs_;
  std::size_t chunk_;  // 1 ms of samples
  Real extra_load_ = 0.0;
  Real peak_ = 0.0;
  std::size_t fill_ = 0;
};

}  // namespace ecocap::node
