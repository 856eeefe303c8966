#pragma once

#include <string>
#include <vector>

#include "wave/attenuation.hpp"
#include "wave/material.hpp"

namespace ecocap::channel {

using dsp::Real;

/// Kind of concrete structure (or water pool, for the PAB baseline) a link
/// runs through. The geometry class determines how energy spreads: narrow
/// walls act as waveguides and carry energy much further than thick columns
/// (the central Fig. 12 finding).
enum class StructureKind { kSlab, kColumn, kWall, kPool };

/// A test structure with its calibrated link parameters.
///
/// `effective_attenuation` and `coupling_voltage` are *effective* link
/// constants: they fold the material loss, geometric confinement and the
/// reader-to-structure coupling into the two parameters of the range law
///
///   d_max(V) = ln(V / coupling_voltage) / effective_attenuation
///
/// They are calibrated from the paper's measured Fig. 12 ranges (two points
/// per structure) because the full 3-D elastodynamics of each real structure
/// is exactly the hardware gate this reproduction substitutes; the *law*
/// (exponential decay + threshold) follows from the physics in wave/.
struct Structure {
  std::string name;
  StructureKind kind = StructureKind::kWall;
  wave::Material material;
  Real length = 1.0;       // m — maximum physical distance along the structure
  Real thickness = 0.15;   // m — across (diameter for columns, depth for pools)
  Real effective_attenuation = 0.4;  // Np/m amplitude decay of the CBW
  Real coupling_voltage = 30.0;      // V at which the power-up range is 0
  wave::Spreading spreading = wave::Spreading::kCylindrical;

  /// Is this an underwater (PAB) environment rather than concrete?
  bool is_pool() const { return kind == StructureKind::kPool; }
};

/// Waveform-level calibration of the range law: volts at the node PZT per
/// unit of channel output when the reader drives `tx_voltage`. The
/// transmitter emits normalized amplitude; this maps it to node volts.
inline Real volts_scale(const Structure& structure, Real tx_voltage) {
  return tx_voltage / structure.coupling_voltage * 0.5;
}

/// The paper's evaluation structures (§5.1) with parameters calibrated to
/// the Fig. 12 measurements (comments carry the anchor points).
namespace structures {

/// S1: 150 x 50 x 15 cm concrete slab. Anchor: 130 cm @ 50 V.
Structure s1_slab();

/// S2: 250 cm load-bearing column, 70 cm diameter.
/// Anchors: 56 cm @ 50 V, 235 cm @ 200 V.
Structure s2_column();

/// S3: 2000 x 2000 x 20 cm common wall.
/// Anchors: 134 cm @ 50 V, ~500 cm @ 200 V, ~6 m @ 250 V.
Structure s3_common_wall();

/// S4: 2000 x 2000 x 50 cm protective wall.
/// Anchors: 60 cm @ 50 V, 385 cm @ 200 V.
Structure s4_protective_wall();

/// PAB pool 1 (open pool). Anchors: 19 cm @ 50 V, 200 cm @ 200 V.
Structure pab_pool1();

/// PAB pool 2 (elongated corridor pool — the Fig. 12 anomaly: high coupling
/// loss but near-lossless guided propagation).
/// Anchors: 23 cm @ 84 V, 650 cm @ 125 V.
Structure pab_pool2();

/// All six in Fig. 12 order.
std::vector<Structure> figure12_structures();

/// A 15 cm test block of the given concrete (the §5.3 uplink experiments).
Structure test_block(const wave::Material& concrete, Real thickness = 0.15);

}  // namespace structures

}  // namespace ecocap::channel
