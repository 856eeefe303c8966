#include "node/harvest_grid.hpp"

#include <cmath>
#include <stdexcept>

namespace ecocap::node {

HarvestGrid::HarvestGrid(const HarvesterConfig& harvester,
                         const PowerModel& power, Real hra_gain, Real fs)
    : harvester_(harvester),
      hra_gain_(hra_gain),
      standby_load_(power.standby().total() / harvester.ldo_output),
      fs_(fs),
      chunk_(fs > 0.0 ? static_cast<std::size_t>(fs / 1000.0) : 0) {
  if (chunk_ == 0) {
    throw std::invalid_argument("HarvestGrid: fs must give a >= 1 sample chunk");
  }
}

void HarvestGrid::push(std::span<const Real> x) {
  for (const Real v : x) {
    const Real a = std::abs(v);
    if (a > peak_) peak_ = a;
    if (++fill_ == chunk_) step();
  }
}

void HarvestGrid::flush() {
  if (fill_ > 0) step();
}

void HarvestGrid::step() {
  const Real load =
      (harvester_.mcu_powered() ? standby_load_ : 0.0) + extra_load_;
  harvester_.step(static_cast<Real>(fill_) / fs_, peak_ * hra_gain_, load);
  peak_ = 0.0;
  fill_ = 0;
}

}  // namespace ecocap::node
