#pragma once

#include <map>
#include <string>
#include <vector>

#include "fault/fault.hpp"
#include "scenario/script.hpp"

namespace ecocap::scenario {

/// Aggregate outcome of one scenario run: a named scalar map plus a flat
/// timeline trace, both suitable for FNV-hashed golden pinning. Every field
/// is a pure function of the script, so two runs of the same script — at
/// any ECOCAP_THREADS, killed and resumed or not — produce bit-identical
/// outcomes.
struct ScenarioOutcome {
  std::string name;
  Mode mode = Mode::kStructural;
  /// False when the run stopped early at RunControl::stop_after_units (the
  /// simulated-crash hook); resume() finishes it.
  bool completed = true;
  /// Mode-specific aggregates (delivery ratios, stiffness, violations...).
  std::map<std::string, Real> scalars;
  /// Mode-specific timeline: structural = hourly combined health grade
  /// (0=A..5=F); mobile = per-stop [reachable, delivered, read_ok];
  /// multi-reader = per-scheme delivery ratio.
  std::vector<Real> trace;
  /// Structural mode: the distinct combined grades in first-seen order
  /// (e.g. "ABCD" for a progressive-damage scenario). Empty otherwise.
  std::string grade_path;
};

/// Crash-safety controls, orthogonal to the script (the script defines the
/// simulated world; this defines how the process runs it).
struct RunControl {
  /// Empty disables checkpointing. Structural mode checkpoints every
  /// `checkpoint_hours` of simulated time; mobile checkpoints after every
  /// route stop; multi-reader after every inventory slot.
  std::string checkpoint_path;
  Real checkpoint_hours = 6.0;
  /// Simulated crash: stop (with a final checkpoint) after this many units
  /// of progress — structural steps, mobile stops, or multi-reader slots.
  /// 0 runs to completion.
  std::size_t stop_after_units = 0;
};

/// Header every scenario checkpoint file starts with.
inline constexpr const char* kScenarioCheckpointHeader =
    "ecocap-scenario-checkpoint v2";

// -- pure timeline functions ------------------------------------------------
// These are THE scenario semantics: the runners evaluate them fresh from
// t_days every step, which is what makes killed-and-resumed runs replay the
// exact modifier sequence of uninterrupted ones.

/// Remaining stiffness fraction k/k0 at `t_days`: the product of every
/// seismic event's ramped permanent loss and every crack window's
/// continuously compounded growth. 1.0 before any event.
Real stiffness_at(const ScenarioScript& s, Real t_days);

/// Pedestrian arrival-rate multiplier: product of the factors of every
/// active surge window. 1.0 outside them.
Real occupancy_factor_at(const ScenarioScript& s, Real t_days);

/// Ground acceleration (m/s^2): sum over active seismic events of
/// pga * exp(-3 x), x the elapsed fraction of the shaking window.
Real ground_accel_at(const ScenarioScript& s, Real t_days);

/// Fault plan in force for a capsule poll at `t_days`: the field-wise max
/// of the worst active fault window's at_intensity plan and the seismic
/// shaking plan at the current ground acceleration. Empty outside windows.
fault::FaultPlan poll_fault_at(const ScenarioScript& s, Real t_days);

/// Structural letter grade from remaining stiffness: loss < 2% is A, < 5%
/// B, < 10% C, < 20% D, < 35% E, worse F — the modal-monitoring analogue
/// of the paper's Table 2 serviceability ladder.
char structural_grade(Real stiffness_factor);

/// Worse (later-alphabet) of two letter grades.
char worse_grade(char a, char b);

/// Deterministic scenario runner: dispatches on the script's mode.
class ScenarioEngine {
 public:
  explicit ScenarioEngine(ScenarioScript script, RunControl control = {});

  /// Run the scenario from the start.
  ScenarioOutcome run();

  /// Restore the checkpoint at RunControl::checkpoint_path and finish the
  /// run. Throws std::runtime_error when the file is missing, corrupt, or
  /// was written by a different script.
  ScenarioOutcome resume();

  const ScenarioScript& script() const { return script_; }

 private:
  ScenarioOutcome run_structural(bool from_checkpoint);

  ScenarioScript script_;
  RunControl control_;
};

}  // namespace ecocap::scenario
