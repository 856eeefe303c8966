// Scenario-engine regression suite: parses the shipped .scn scripts, pins
// each scenario's aggregate outcome against a golden vector in
// tests/golden/scenarios/, and drives the crash-safety contract — every
// mode's run must be bit-identical when run twice, and byte-identical when
// killed at the midpoint and resumed from its checkpoint. Behavioral pins
// assert the physics: progressive damage walks the health grades in order,
// a concert surge drives PAO to grade F, coordination beats uncoordinated
// readers, and a mobile route actually delivers readings.
//
// Regenerating after an intentional change:
//   ./test_scenario --regen              # rewrites tests/golden/scenarios/
// then commit the updated files with the change that caused them. The
// outcomes are single-stream deterministic, so they hold at any
// ECOCAP_THREADS (CI runs this suite at 1 and 8).

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "channel/snr_models.hpp"
#include "channel/structures.hpp"
#include "dsp/serialize.hpp"
#include "fault/fault.hpp"
#include "scenario/engine.hpp"
#include "scenario/script.hpp"

#include "golden_util.hpp"

#ifndef ECOCAP_SCENARIO_DIR
#error "ECOCAP_SCENARIO_DIR must point at the shipped scenarios/ directory"
#endif
#ifndef ECOCAP_GOLDEN_DIR
#error "ECOCAP_GOLDEN_DIR must point at tests/golden/scenarios"
#endif

namespace ecocap::scenario {
namespace {

ScenarioScript load_script(const std::string& file) {
  return ScenarioScript::load(std::string(ECOCAP_SCENARIO_DIR) + "/" + file);
}

/// Exact (bit-level) outcome equality: the determinism and kill/resume
/// contracts promise nothing weaker.
void expect_outcomes_identical(const ScenarioOutcome& a,
                               const ScenarioOutcome& b) {
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.grade_path, b.grade_path);
  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (std::size_t i = 0; i < a.trace.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.trace[i]),
              std::bit_cast<std::uint64_t>(b.trace[i]))
        << "trace[" << i << "] diverged";
  }
  ASSERT_EQ(a.scalars.size(), b.scalars.size());
  for (const auto& [key, value] : a.scalars) {
    const auto it = b.scalars.find(key);
    ASSERT_NE(it, b.scalars.end()) << "missing scalar " << key;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(value),
              std::bit_cast<std::uint64_t>(it->second))
        << "scalar " << key << " diverged";
  }
}

/// Golden pin: hash the trace, record every scalar plus a grade-path code
/// (base-6 digits, A=0..F=5, oldest grade most significant).
void check_scenario_golden(const std::string& name,
                           const ScenarioOutcome& out) {
  std::map<std::string, double> scalars(out.scalars.begin(),
                                        out.scalars.end());
  double path_code = 0.0;
  for (const char g : out.grade_path) path_code = path_code * 6.0 + (g - 'A');
  scalars["grade_path_code"] = path_code;
  golden::check_golden(ECOCAP_GOLDEN_DIR, name, out.trace, scalars);
}

std::string checkpoint_path(const std::string& tag) {
  return std::string(::testing::TempDir()) + "ecocap_scn_" + tag + ".ck";
}

/// Kill-at-midpoint contract: a run stopped (with a checkpoint) after
/// `midpoint` units and resumed must match the uninterrupted run bit for
/// bit.
void expect_kill_resume_identical(const ScenarioScript& script,
                                  std::size_t midpoint,
                                  const std::string& tag) {
  const ScenarioOutcome full = ScenarioEngine(script).run();

  RunControl control;
  control.checkpoint_path = checkpoint_path(tag);
  control.stop_after_units = midpoint;
  const ScenarioOutcome killed = ScenarioEngine(script, control).run();
  EXPECT_FALSE(killed.completed);

  RunControl resume_control;
  resume_control.checkpoint_path = control.checkpoint_path;
  const ScenarioOutcome resumed =
      ScenarioEngine(script, resume_control).resume();
  EXPECT_TRUE(resumed.completed);
  expect_outcomes_identical(full, resumed);
  std::remove(control.checkpoint_path.c_str());
}

// --- script parser ----------------------------------------------------------

TEST(ScenarioScript, ParsesGlobalsEventsAndComments) {
  const auto s = ScenarioScript::parse(
      "# a comment\n"
      "scenario demo\n"
      "mode structural\n"
      "days 3  # trailing comment\n"
      "seed 99\n"
      "event seismic at_day=1 pga=0.5 duration_hours=2 stiffness_loss=0.03\n"
      "event surge at_day=0.5 factor=8 duration_hours=1\n");
  EXPECT_EQ(s.name, "demo");
  EXPECT_EQ(s.mode, Mode::kStructural);
  EXPECT_EQ(s.days, 3.0);
  EXPECT_EQ(s.seed, 99u);
  ASSERT_EQ(s.seismic.size(), 1u);
  EXPECT_EQ(s.seismic[0].pga, 0.5);
  EXPECT_EQ(s.seismic[0].stiffness_loss, 0.03);
  ASSERT_EQ(s.surges.size(), 1u);
  EXPECT_EQ(s.surges[0].factor, 8.0);
}

TEST(ScenarioScript, RejectsUnknownDirectiveWithLineNumber) {
  try {
    ScenarioScript::parse("scenario x\nbogus 1\n");
    FAIL() << "expected parse failure";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("bogus"), std::string::npos);
  }
}

TEST(ScenarioScript, RejectsUnknownEventKeyAndMissingName) {
  EXPECT_THROW(
      ScenarioScript::parse("scenario x\nevent surge wat=1\n"),
      std::runtime_error);
  EXPECT_THROW(ScenarioScript::parse("days 2\n"), std::runtime_error);
  EXPECT_THROW(
      ScenarioScript::parse("scenario x\nmode mobile\n"),
      std::runtime_error);  // mobile without stops
}

TEST(ScenarioScript, ShippedScriptsParse) {
  EXPECT_EQ(load_script("seismic_retrofit.scn").mode, Mode::kStructural);
  EXPECT_EQ(load_script("concert_surge.scn").mode, Mode::kStructural);
  EXPECT_EQ(load_script("drive_by.scn").mode, Mode::kMobile);
  EXPECT_EQ(load_script("dual_reader.scn").mode, Mode::kMultiReader);
}

// --- pure timeline semantics ------------------------------------------------

TEST(ScenarioTimeline, StiffnessRampsAndCompounds) {
  ScenarioScript s;
  s.name = "t";
  s.seismic.push_back(SeismicEvent{1.0, 24.0, 0.5, 0.10});
  s.cracks.push_back(CrackEvent{3.0, 2.0, 0.05});
  EXPECT_EQ(stiffness_at(s, 0.5), 1.0);           // before anything
  EXPECT_NEAR(stiffness_at(s, 1.5), 0.95, 1e-12); // half the ramp
  EXPECT_NEAR(stiffness_at(s, 2.5), 0.90, 1e-12); // full seismic loss
  // Crack growth compounds on top and freezes at window end.
  const Real k5 = stiffness_at(s, 5.0);
  EXPECT_NEAR(k5, 0.90 * std::exp(2.0 * std::log(0.95)), 1e-12);
  EXPECT_EQ(stiffness_at(s, 6.0), k5);
  // Identity for an empty script — the bit-identity contract upstream.
  ScenarioScript empty;
  empty.name = "e";
  EXPECT_EQ(stiffness_at(empty, 10.0), 1.0);
  EXPECT_EQ(occupancy_factor_at(empty, 10.0), 1.0);
  EXPECT_EQ(ground_accel_at(empty, 10.0), 0.0);
  EXPECT_TRUE(poll_fault_at(empty, 10.0).empty());
}

TEST(ScenarioTimeline, GradesFollowStiffnessThresholds) {
  EXPECT_EQ(structural_grade(1.00), 'A');
  EXPECT_EQ(structural_grade(0.97), 'B');
  EXPECT_EQ(structural_grade(0.93), 'C');
  EXPECT_EQ(structural_grade(0.85), 'D');
  EXPECT_EQ(structural_grade(0.70), 'E');
  EXPECT_EQ(structural_grade(0.60), 'F');
  EXPECT_EQ(worse_grade('B', 'D'), 'D');
  EXPECT_EQ(worse_grade('C', 'A'), 'C');
}

TEST(ScenarioTimeline, PollFaultMergesWindowsAndShaking) {
  ScenarioScript s;
  s.name = "t";
  s.faults.push_back(FaultWindow{0.0, 24.0, 0.4});
  s.seismic.push_back(SeismicEvent{0.5, 12.0, 1.0, 0.0});
  const auto during = poll_fault_at(s, 0.6);
  const auto base = fault::FaultPlan::at_intensity(0.4);
  // Shaking adds impulsive scatter on top of the window's plan.
  EXPECT_GT(during.channel.spike_rate_hz, base.channel.spike_rate_hz);
  EXPECT_GE(during.node.brownout_prob, base.node.brownout_prob);
  EXPECT_TRUE(poll_fault_at(s, 2.0).empty());  // everything over
}

// --- fault-plan combinators -------------------------------------------------

/// Every field of a plan by key, read through the plan's own field list so
/// a field added later is compared too.
struct PlanFieldList {
  std::vector<std::pair<std::string, Real>> values;
  void field(std::string_view key, Real v) { values.emplace_back(key, v); }
};

std::vector<std::pair<std::string, Real>> plan_fields(
    const fault::FaultPlan& plan) {
  PlanFieldList list;
  fault::FaultPlan::fields(plan, list);
  return list.values;
}

TEST(FaultPlanCombinators, SeismicShakingScalesAndMaxOfIsFieldwise) {
  EXPECT_TRUE(fault::FaultPlan::seismic_shaking(0.0).empty());
  const auto weak = fault::FaultPlan::seismic_shaking(0.2);
  const auto strong = fault::FaultPlan::seismic_shaking(1.0);
  EXPECT_LT(weak.channel.spike_rate_hz, strong.channel.spike_rate_hz);
  EXPECT_LT(weak.node.brownout_prob, strong.node.brownout_prob);

  const auto site = fault::FaultPlan::at_intensity(0.5);
  const auto merged = fault::FaultPlan::max_of(site, strong);
  EXPECT_EQ(merged.channel.burst_prob, site.channel.burst_prob);
  EXPECT_EQ(merged.channel.spike_rate_hz, strong.channel.spike_rate_hz);
  EXPECT_EQ(merged.node.bit_flip_prob, site.node.bit_flip_prob);
  // max_of with the empty plan is the identity.
  const auto same = fault::FaultPlan::max_of(site, fault::FaultPlan{});
  EXPECT_EQ(same.channel.dropout_prob, site.channel.dropout_prob);
  EXPECT_EQ(same.node.cap_leak_amps, site.node.cap_leak_amps);

  // Field for field, in both argument orders: the empty plan's default
  // shapes never override an active impairment's, so a mild plan keeps its
  // own burst noise when shaking (which has no bursts) overlaps it.
  using fault::FaultPlan;
  const auto shaking = FaultPlan::seismic_shaking(0.8);
  for (const Real intensity : {0.1, 0.5}) {
    SCOPED_TRACE(intensity);
    const auto plan = FaultPlan::at_intensity(intensity);
    EXPECT_EQ(plan_fields(FaultPlan::max_of(plan, FaultPlan{})),
              plan_fields(plan));
    EXPECT_EQ(plan_fields(FaultPlan::max_of(FaultPlan{}, plan)),
              plan_fields(plan));

    auto expected = plan;
    auto& c = expected.channel;
    c.dropout_prob = std::max(c.dropout_prob, shaking.channel.dropout_prob);
    c.dropout_fraction =
        std::max(c.dropout_fraction, shaking.channel.dropout_fraction);
    c.spike_rate_hz = std::max(c.spike_rate_hz, shaking.channel.spike_rate_hz);
    c.spike_amplitude =
        std::max(c.spike_amplitude, shaking.channel.spike_amplitude);
    expected.node.brownout_prob =
        std::max(expected.node.brownout_prob, shaking.node.brownout_prob);
    EXPECT_EQ(plan_fields(FaultPlan::max_of(plan, shaking)),
              plan_fields(expected));
    EXPECT_EQ(plan_fields(FaultPlan::max_of(shaking, plan)),
              plan_fields(expected));
  }
}

// --- inter-reader interference model ----------------------------------------

TEST(ReaderInterference, RejectionGrowsWithOffsetAndSaturates) {
  channel::ReaderInterference m;
  EXPECT_EQ(m.carrier_rejection_db(0.0), 0.0);
  EXPECT_EQ(m.carrier_rejection_db(m.rx_notch_bw_hz), 0.0);
  const Real r1 = m.carrier_rejection_db(5.0e3);
  const Real r2 = m.carrier_rejection_db(50.0e3);
  EXPECT_GT(r1, 0.0);
  EXPECT_GT(r2, r1);
  EXPECT_EQ(m.carrier_rejection_db(1.0e9), m.max_rejection_db);
}

TEST(ReaderInterference, CirImprovesWithSeparationAndWorsensWithDepth) {
  channel::ReaderInterference m;
  const auto wall = channel::structures::s3_common_wall();
  const Real near_sep = m.cir_db(wall, 1.0, 2.0, 2000.0);
  const Real far_sep = m.cir_db(wall, 1.0, 8.0, 2000.0);
  EXPECT_GT(far_sep, near_sep);  // distant interferer attenuates more
  const Real shallow = m.cir_db(wall, 0.5, 6.0, 2000.0);
  const Real deep = m.cir_db(wall, 2.5, 6.0, 2000.0);
  EXPECT_GT(shallow, deep);  // deep node's backscatter is weaker
}

TEST(ReaderInterference, SinrCombinesPowerWise) {
  // Equal SNR and CIR cost exactly 3 dB; a dominant impairment wins.
  EXPECT_NEAR(channel::sinr_db(10.0, 10.0), 10.0 - 10.0 * std::log10(2.0),
              1e-9);
  EXPECT_NEAR(channel::sinr_db(30.0, 0.0), 0.0, 0.05);
  EXPECT_LT(channel::sinr_db(10.0, -5.0), -4.9);
}

// --- golden pins (one per shipped scenario) ---------------------------------

TEST(ScenarioGolden, SeismicRetrofit) {
  check_scenario_golden("seismic_retrofit",
                        ScenarioEngine(load_script("seismic_retrofit.scn")).run());
}

TEST(ScenarioGolden, ConcertSurge) {
  check_scenario_golden("concert_surge",
                        ScenarioEngine(load_script("concert_surge.scn")).run());
}

TEST(ScenarioGolden, DriveBy) {
  check_scenario_golden("drive_by",
                        ScenarioEngine(load_script("drive_by.scn")).run());
}

TEST(ScenarioGolden, DualReader) {
  check_scenario_golden("dual_reader",
                        ScenarioEngine(load_script("dual_reader.scn")).run());
}

// --- determinism ------------------------------------------------------------

TEST(ScenarioDeterminism, StructuralRunTwiceIsBitIdentical) {
  const auto script = load_script("seismic_retrofit.scn");
  expect_outcomes_identical(ScenarioEngine(script).run(),
                            ScenarioEngine(script).run());
}

TEST(ScenarioDeterminism, MobileRunTwiceIsBitIdentical) {
  const auto script = load_script("drive_by.scn");
  expect_outcomes_identical(ScenarioEngine(script).run(),
                            ScenarioEngine(script).run());
}

TEST(ScenarioDeterminism, MultiReaderRunTwiceIsBitIdentical) {
  const auto script = load_script("dual_reader.scn");
  expect_outcomes_identical(ScenarioEngine(script).run(),
                            ScenarioEngine(script).run());
}

// --- kill-at-midpoint resume ------------------------------------------------

TEST(ScenarioResume, StructuralKillAtMidpointResumesBitIdentical) {
  const auto script = load_script("seismic_retrofit.scn");
  const auto steps = static_cast<std::size_t>(script.days * 24.0 * 60.0 /
                                              script.step_minutes);
  expect_kill_resume_identical(script, steps / 2, "structural");
}

TEST(ScenarioResume, MobileKillMidRouteResumesBitIdentical) {
  const auto script = load_script("drive_by.scn");
  ASSERT_GE(script.route.size(), 3u);
  expect_kill_resume_identical(script, script.route.size() / 2, "mobile");
}

TEST(ScenarioResume, MultiReaderKillMidSchemeResumesBitIdentical) {
  const auto script = load_script("dual_reader.scn");
  // Land mid-scheme (not on a boundary) so the session state itself must
  // round-trip through the checkpoint.
  const auto midpoint =
      static_cast<std::size_t>(script.passes) * 3 / 2 + 1;
  expect_kill_resume_identical(script, midpoint, "multi_reader");
}

TEST(ScenarioResume, RejectsCheckpointFromDifferentScript) {
  auto script = load_script("dual_reader.scn");
  RunControl control;
  control.checkpoint_path = checkpoint_path("mismatch");
  control.stop_after_units = 5;
  EXPECT_FALSE(ScenarioEngine(script, control).run().completed);

  auto other = script;
  other.seed += 1;
  RunControl resume_control;
  resume_control.checkpoint_path = control.checkpoint_path;
  EXPECT_THROW(ScenarioEngine(other, resume_control).resume(),
               std::runtime_error);

  // The right script, but a record trails the checkpoint.
  const auto content = dsp::ser::read_file(control.checkpoint_path);
  ASSERT_TRUE(content.has_value());
  ASSERT_TRUE(dsp::ser::atomic_write_file(control.checkpoint_path,
                                          *content + "multi.extra 1\n"));
  EXPECT_THROW(ScenarioEngine(script, resume_control).resume(),
               std::runtime_error);
  std::remove(control.checkpoint_path.c_str());
}

// --- behavioral pins --------------------------------------------------------

TEST(ScenarioBehavior, SeismicScenarioWalksGradesInOrder) {
  const auto out = ScenarioEngine(load_script("seismic_retrofit.scn")).run();
  // The combined grade must visit A, B, C, D as a subsequence — the
  // progressive-damage story the scenario scripts.
  const std::string& path = out.grade_path;
  std::size_t pos = 0;
  for (const char g : std::string("ABCD")) {
    pos = path.find(g, pos);
    ASSERT_NE(pos, std::string::npos)
        << "grade path '" << path << "' never reaches " << g;
  }
  // Grades only ever get worse in this scenario (monotone damage, light
  // traffic): the path is exactly the sorted ladder prefix.
  for (std::size_t i = 1; i < path.size(); ++i) {
    EXPECT_GT(path[i], path[i - 1]) << "grade path '" << path << "' regressed";
  }
  EXPECT_LT(out.scalars.at("final_stiffness"), 0.85);
  // The modal assessor must independently flag the damage.
  EXPECT_EQ(out.scalars.at("modal_damaged"), 1.0);
  EXPECT_LT(out.scalars.at("modal_frequency_shift"), -0.02);
}

TEST(ScenarioBehavior, ConcertSurgeDrivesPaoToF) {
  const auto out = ScenarioEngine(load_script("concert_surge.scn")).run();
  // The surge must push the worst section past every Table 2 threshold
  // (HK grade F below 0.52 m^2/ped) and trip the PAO structural limit.
  EXPECT_LT(out.scalars.at("min_pao"), 0.52);
  EXPECT_NE(out.grade_path.find('F'), std::string::npos);
  EXPECT_GT(out.scalars.at("limit_violations"), 0.0);
  // The structure itself stays intact: damage comes from load, not cracks.
  EXPECT_EQ(out.scalars.at("final_stiffness"), 1.0);
}

TEST(ScenarioBehavior, CoordinationBeatsUncoordinatedReaders) {
  const auto out = ScenarioEngine(load_script("dual_reader.scn")).run();
  const Real unc = out.scalars.at("delivery_uncoordinated");
  EXPECT_GT(out.scalars.at("delivery_tdma"), unc);
  EXPECT_GT(out.scalars.at("delivery_lbt"), unc);
  // Coordination must actually deliver something meaningful.
  EXPECT_GT(out.scalars.at("delivery_tdma"), 0.25);
  EXPECT_GT(out.scalars.at("delivery_lbt"), 0.25);
}

TEST(ScenarioBehavior, DriveByRespectsPerStopLinkBudgets) {
  const auto script = load_script("drive_by.scn");
  const auto out = ScenarioEngine(script).run();
  int total_nodes = 0;
  for (const auto& stop : script.route) total_nodes += stop.nodes;
  // The power-starved stop must leave at least one capsule dark, but the
  // route as a whole must deliver.
  EXPECT_LT(out.scalars.at("reachable_nodes"),
            static_cast<Real>(total_nodes));
  EXPECT_GT(out.scalars.at("reachable_nodes"), 0.0);
  EXPECT_GT(out.scalars.at("delivered"), 0.0);
  EXPECT_GT(out.scalars.at("store_appends"), 0.0);
  // Every successful sensor read lands in the telemetry store exactly once.
  EXPECT_EQ(out.scalars.at("store_appends"), out.scalars.at("read_ok"));
}

}  // namespace
}  // namespace ecocap::scenario

int main(int argc, char** argv) {
  return ecocap::golden::golden_test_main(argc, argv);
}
