// Crash-safe checkpointing: bit-exact real serialization, the strict
// sequential Writer/Reader, atomic file replacement, RNG stream capture,
// kill-at-midpoint campaign resume (must be bit-identical to an
// uninterrupted run), and the long-campaign soak test under an active fault
// plan (quarantine entry/exit, staleness monotonicity, no workspace buffer
// leaks).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/workspace_pool.hpp"
#include "dsp/serialize.hpp"
#include "dsp/workspace.hpp"
#include "shm/monitor.hpp"

namespace ecocap {
namespace {

TEST(Serialize, FormatRealIsBitExact) {
  const dsp::Real cases[] = {0.0,
                             -0.0,
                             1.0 / 3.0,
                             -12345.6789,
                             5e-324,  // smallest subnormal
                             std::numeric_limits<dsp::Real>::max(),
                             std::numeric_limits<dsp::Real>::infinity(),
                             -std::numeric_limits<dsp::Real>::infinity()};
  for (const dsp::Real v : cases) {
    const dsp::Real back = dsp::ser::parse_real(dsp::ser::format_real(v));
    EXPECT_EQ(std::memcmp(&v, &back, sizeof v), 0)
        << "round trip changed bits of " << v;
  }
  const dsp::Real nan_back = dsp::ser::parse_real(
      dsp::ser::format_real(std::numeric_limits<dsp::Real>::quiet_NaN()));
  EXPECT_TRUE(std::isnan(nan_back));
  EXPECT_THROW(dsp::ser::parse_real("not-a-real"),
               std::runtime_error);
}

TEST(Serialize, WriterReaderRoundTripAndStrictness) {
  dsp::ser::Writer w("ser-test v1");
  w.u64("count", 42);
  w.i64("delta", -7);
  w.real("x", 0.1);
  w.str("name", "mid-span sensor");
  w.real_vec("vec", {1.0, -2.5, 3e-9});

  dsp::ser::Reader r(w.payload(), "ser-test v1");
  EXPECT_EQ(r.u64("count"), 42u);
  EXPECT_EQ(r.i64("delta"), -7);
  EXPECT_EQ(r.real("x"), 0.1);
  EXPECT_EQ(r.str("name"), "mid-span sensor");
  const std::vector<dsp::Real> vec = r.real_vec("vec");
  ASSERT_EQ(vec.size(), 3u);
  EXPECT_EQ(vec[0], 1.0);
  EXPECT_EQ(vec[1], -2.5);
  EXPECT_EQ(vec[2], 3e-9);
  EXPECT_TRUE(r.exhausted());

  // Wrong header: rejected up front.
  EXPECT_THROW(dsp::ser::Reader(w.payload(), "ser-test v2"),
               std::runtime_error);
  // Key mismatch: records must be consumed in order.
  dsp::ser::Reader wrong(w.payload(), "ser-test v1");
  EXPECT_THROW(wrong.u64("delta"), std::runtime_error);
  // Truncation: a half-written record throws instead of misparsing.
  dsp::ser::Reader trunc(w.payload().substr(0, w.payload().size() / 2),
                         "ser-test v1");
  trunc.u64("count");
  EXPECT_THROW({
    trunc.i64("delta");
    trunc.real("x");
    trunc.str("name");
    trunc.real_vec("vec");
  }, std::runtime_error);
}

/// A field list shaped like the library's: one template both directions run.
struct Sample {
  int i = 0;
  std::uint16_t u16 = 0;
  std::uint32_t u32 = 0;
  std::uint8_t u8 = 0;
  bool flag = false;
  std::uint64_t u64 = 0;
  dsp::Real x = 0.0;
  std::vector<std::uint64_t> words;
  std::map<std::uint16_t, dsp::Real> by_node;

  template <class Self, class Ar>
  static void fields(Self& self, Ar& a) {
    a.field("i", self.i);
    a.field("u16", self.u16);
    a.field("u32", self.u32);
    a.field("u8", self.u8);
    a.field("flag", self.flag);
    a.field("u64", self.u64);
    a.field("x", self.x);
    a.field("words", self.words);
    a.seq("nodes", self.by_node, [&](auto& node) {
      a.field("node", node.first);
      a.field("value", node.second);
    });
  }
};

TEST(Serialize, OneFieldListRoundTripsEveryType) {
  Sample s;
  s.i = -123456;
  s.u16 = 65535;
  s.u32 = 4000000000u;
  s.u8 = 200;
  s.flag = true;
  s.u64 = ~std::uint64_t{0};
  s.x = -1.0 / 3.0;
  s.words = {1, 2, 3};
  s.by_node = {{0x100, 0.5}, {0x101, -2.0}};
  dsp::ser::Writer w("fields v1");
  Sample::fields(std::as_const(s), w);

  Sample back;
  back.by_node = {{7, 7.0}};  // replaced, not merged
  dsp::ser::Reader r(w.payload(), "fields v1");
  Sample::fields(back, r);
  EXPECT_TRUE(r.exhausted());
  EXPECT_EQ(back.i, s.i);
  EXPECT_EQ(back.u16, s.u16);
  EXPECT_EQ(back.u32, s.u32);
  EXPECT_EQ(back.u8, s.u8);
  EXPECT_EQ(back.flag, s.flag);
  EXPECT_EQ(back.u64, s.u64);
  EXPECT_EQ(back.x, s.x);
  EXPECT_EQ(back.words, s.words);
  EXPECT_EQ(back.by_node, s.by_node);
}

/// Loads `value` written under `key` into a T; the error must name the key.
template <class T>
void expect_rejected(const std::string& key, const std::string& value) {
  dsp::ser::Writer w("narrow v1");
  w.kv(key, value);
  dsp::ser::Reader r(w.payload(), "narrow v1");
  T v{};
  try {
    r.field(key, v);
    ADD_FAILURE() << key << " = " << value << " loaded without error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(key), std::string::npos) << e.what();
  }
}

TEST(Serialize, FieldRangeChecksEveryIntegerWidth) {
  expect_rejected<int>("stats.rounds", "2147483648");
  expect_rejected<int>("stats.rounds", "-2147483649");
  expect_rejected<std::uint16_t>("reading.node", "65536");
  expect_rejected<std::uint32_t>("log.t_sec", "4294967296");
  expect_rejected<std::uint8_t>("reading.sensor", "256");
  expect_rejected<bool>("log.stale", "2");
  expect_rejected<std::uint64_t>("sr.polls", "-1");
  expect_rejected<std::uint64_t>("sr.polls", "18446744073709551616");
  expect_rejected<std::int64_t>("s.anomalies", "9223372036854775808");

  // Enumerators are checked against their declared range.
  dsp::ser::Writer w("narrow v1");
  w.i64("report.health", 6);
  dsp::ser::Reader r(w.payload(), "narrow v1");
  shm::HealthLevel h{};
  EXPECT_THROW(r.field("report.health", h, shm::HealthLevel::kA,
                       shm::HealthLevel::kF),
               std::runtime_error);
}

TEST(Serialize, CheckpointEnvelopeChecksFingerprintAndConsumption) {
  std::uint64_t seed = 7;
  const dsp::ser::Checkpoint envelope(
      "envelope-test v1",
      [&](dsp::ser::Writer& w) { w.field("config.seed", seed); });
  std::uint64_t cursor = 41;
  const auto body = [&](auto& a) { a.field("cursor", cursor); };
  const std::string payload = envelope.encode(body);
  EXPECT_EQ(payload, "envelope-test v1\nconfig.seed 7\ncursor 41\n");

  cursor = 0;
  envelope.decode(payload, body);
  EXPECT_EQ(cursor, 41u);

  EXPECT_THROW(envelope.decode(payload + "extra 1\n", body),
               std::runtime_error);
  seed = 8;  // the live config drifted: the fingerprint no longer matches
  EXPECT_THROW(envelope.decode(payload, body), std::runtime_error);

  EXPECT_THROW(dsp::ser::Checkpoint::read("no/such/checkpoint.ckpt"),
               std::runtime_error);
  EXPECT_THROW(dsp::ser::Checkpoint::write("no/such/dir/x.ckpt", payload),
               std::runtime_error);
}

TEST(Serialize, AtomicWriteLeavesNoTempBehind) {
  const std::string path = "test_checkpoint_atomic.txt";
  ASSERT_TRUE(dsp::ser::atomic_write_file(path, "first\n"));
  auto content = dsp::ser::read_file(path);
  ASSERT_TRUE(content.has_value());
  EXPECT_EQ(*content, "first\n");
  EXPECT_FALSE(dsp::ser::read_file(path + ".tmp").has_value());

  // Replacing an existing file is atomic too (no partial state).
  ASSERT_TRUE(dsp::ser::atomic_write_file(path, "second\n"));
  content = dsp::ser::read_file(path);
  ASSERT_TRUE(content.has_value());
  EXPECT_EQ(*content, "second\n");
  EXPECT_FALSE(dsp::ser::read_file(path + ".tmp").has_value());
  std::remove(path.c_str());
}

TEST(Serialize, RngRoundTripPreservesCachedVariate) {
  dsp::Rng rng(1234);
  // An odd number of gaussians leaves the normal distribution's spare
  // variate cached — the state the stream operators must carry over.
  for (int i = 0; i < 7; ++i) rng.gaussian();

  dsp::ser::Writer w("rng-test v1");
  w.rng("rng", rng);
  dsp::Rng restored(1);  // wrong seed on purpose; load overwrites it
  dsp::ser::Reader r(w.payload(), "rng-test v1");
  r.rng("rng", restored);

  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(rng.gaussian(), restored.gaussian());
    EXPECT_EQ(rng.uniform(), restored.uniform());
  }
}

// --- campaign-level checks ------------------------------------------------

shm::MonitoringCampaign::Config small_campaign(const std::string& checkpoint) {
  shm::MonitoringCampaign::Config cfg;
  cfg.days = 2.0;
  cfg.step_minutes = 5.0;
  cfg.capsule_poll_hours = 3.0;
  cfg.seed = 4242;
  cfg.retry.enabled = true;
  cfg.fault = fault::FaultPlan::at_intensity(0.5);
  cfg.supervisor.enabled = true;
  cfg.checkpoint_path = checkpoint;
  cfg.checkpoint_hours = 6.0;
  return cfg;
}

void expect_series_eq(const shm::TimeSeries& a, const shm::TimeSeries& b) {
  const auto av = a.values();
  const auto bv = b.values();
  ASSERT_EQ(av.size(), bv.size());
  for (std::size_t i = 0; i < av.size(); ++i) {
    EXPECT_EQ(av[i], bv[i]) << "series diverges at sample " << i;
  }
}

void expect_results_identical(const shm::CampaignResult& a,
                              const shm::CampaignResult& b) {
  expect_series_eq(a.acceleration, b.acceleration);
  expect_series_eq(a.stress, b.stress);
  expect_series_eq(a.stress_side, b.stress_side);
  expect_series_eq(a.humidity, b.humidity);
  expect_series_eq(a.temperature, b.temperature);
  expect_series_eq(a.pressure, b.pressure);
  expect_series_eq(a.pao, b.pao);

  ASSERT_EQ(a.minute_reports.size(), b.minute_reports.size());
  for (std::size_t i = 0; i < a.minute_reports.size(); ++i) {
    for (std::size_t s = 0; s < a.minute_reports[i].size(); ++s) {
      EXPECT_EQ(a.minute_reports[i][s].section, b.minute_reports[i][s].section);
      EXPECT_EQ(a.minute_reports[i][s].pedestrians,
                b.minute_reports[i][s].pedestrians);
      EXPECT_EQ(a.minute_reports[i][s].health, b.minute_reports[i][s].health);
      EXPECT_EQ(a.minute_reports[i][s].walking_speed,
                b.minute_reports[i][s].walking_speed);
    }
  }
  EXPECT_EQ(a.health_histogram, b.health_histogram);

  ASSERT_EQ(a.anomalies.size(), b.anomalies.size());
  for (std::size_t i = 0; i < a.anomalies.size(); ++i) {
    EXPECT_EQ(a.anomalies[i].start_day, b.anomalies[i].start_day);
    EXPECT_EQ(a.anomalies[i].end_day, b.anomalies[i].end_day);
    EXPECT_EQ(a.anomalies[i].peak_zscore, b.anomalies[i].peak_zscore);
  }
  EXPECT_EQ(a.limit_violations, b.limit_violations);

  ASSERT_EQ(a.capsule_readings.size(), b.capsule_readings.size());
  for (std::size_t i = 0; i < a.capsule_readings.size(); ++i) {
    EXPECT_EQ(a.capsule_readings[i].node_id, b.capsule_readings[i].node_id);
    EXPECT_EQ(a.capsule_readings[i].sensor_id, b.capsule_readings[i].sensor_id);
    EXPECT_EQ(a.capsule_readings[i].value, b.capsule_readings[i].value);
  }
  ASSERT_EQ(a.capsule_log.size(), b.capsule_log.size());
  for (std::size_t i = 0; i < a.capsule_log.size(); ++i) {
    EXPECT_EQ(a.capsule_log[i].reading.node_id, b.capsule_log[i].reading.node_id);
    EXPECT_EQ(a.capsule_log[i].reading.value, b.capsule_log[i].reading.value);
    EXPECT_EQ(a.capsule_log[i].stale, b.capsule_log[i].stale);
    EXPECT_EQ(a.capsule_log[i].age_hours, b.capsule_log[i].age_hours);
  }
  EXPECT_EQ(a.max_staleness_hours, b.max_staleness_hours);

  EXPECT_EQ(a.inventory_totals.rounds, b.inventory_totals.rounds);
  EXPECT_EQ(a.inventory_totals.slots, b.inventory_totals.slots);
  EXPECT_EQ(a.inventory_totals.read_ok, b.inventory_totals.read_ok);
  EXPECT_EQ(a.inventory_totals.retries, b.inventory_totals.retries);
  EXPECT_EQ(a.inventory_totals.timeouts, b.inventory_totals.timeouts);
  EXPECT_EQ(a.inventory_totals.giveups, b.inventory_totals.giveups);
  EXPECT_EQ(a.inventory_totals.backoff_slots, b.inventory_totals.backoff_slots);
  EXPECT_EQ(a.inventory_totals.deadline_trips,
            b.inventory_totals.deadline_trips);

  EXPECT_EQ(a.supervisor_totals.fallbacks, b.supervisor_totals.fallbacks);
  EXPECT_EQ(a.supervisor_totals.probes, b.supervisor_totals.probes);
  EXPECT_EQ(a.supervisor_totals.quarantines, b.supervisor_totals.quarantines);
  EXPECT_EQ(a.supervisor_totals.reintegrations,
            b.supervisor_totals.reintegrations);
  EXPECT_EQ(a.supervisor_totals.skipped_polls,
            b.supervisor_totals.skipped_polls);
  ASSERT_EQ(a.link_states.size(), b.link_states.size());
  for (const auto& [node, sa] : a.link_states) {
    const auto it = b.link_states.find(node);
    ASSERT_NE(it, b.link_states.end());
    EXPECT_EQ(sa.ladder_index, it->second.ladder_index);
    EXPECT_EQ(sa.ewma_success, it->second.ewma_success);
    EXPECT_EQ(sa.quarantined, it->second.quarantined);
    EXPECT_EQ(sa.fallbacks, it->second.fallbacks);
    EXPECT_EQ(sa.quarantines, it->second.quarantines);
  }
}

TEST(CampaignCheckpoint, KillAtMidpointResumeIsBitIdentical) {
  const std::string cp = "test_checkpoint_campaign.txt";
  std::remove(cp.c_str());

  // Reference: the uninterrupted run (no checkpointing at all).
  shm::MonitoringCampaign::Config full_cfg = small_campaign("");
  const shm::CampaignResult full = shm::MonitoringCampaign(full_cfg).run();
  ASSERT_TRUE(full.completed);
  ASSERT_GT(full.capsule_readings.size(), 0u);

  // Crash at the midpoint: a final checkpoint is written, the result is
  // flagged partial.
  shm::MonitoringCampaign::Config crash_cfg = small_campaign(cp);
  crash_cfg.stop_after_steps = (2 * 24 * 60 / 5) / 2;  // half the steps
  const shm::CampaignResult partial =
      shm::MonitoringCampaign(crash_cfg).run();
  EXPECT_FALSE(partial.completed);
  ASSERT_TRUE(dsp::ser::read_file(cp).has_value());

  // Resume to completion and compare every field of the result.
  shm::MonitoringCampaign::Config resume_cfg = small_campaign(cp);
  const shm::CampaignResult resumed =
      shm::MonitoringCampaign(resume_cfg).resume();
  EXPECT_TRUE(resumed.completed);
  expect_results_identical(full, resumed);
  std::remove(cp.c_str());
}

TEST(CampaignCheckpoint, ResumeRejectsMissingOrMismatchedCheckpoint) {
  const std::string cp = "test_checkpoint_mismatch.txt";
  std::remove(cp.c_str());

  // Missing file.
  shm::MonitoringCampaign::Config cfg = small_campaign(cp);
  EXPECT_THROW(shm::MonitoringCampaign(cfg).resume(), std::runtime_error);

  // Write a checkpoint, then try to resume with a different fingerprint.
  shm::MonitoringCampaign::Config crash_cfg = small_campaign(cp);
  crash_cfg.stop_after_steps = 24;
  shm::MonitoringCampaign(crash_cfg).run();
  ASSERT_TRUE(dsp::ser::read_file(cp).has_value());
  shm::MonitoringCampaign::Config other = small_campaign(cp);
  other.seed = 999;  // different campaign: the checkpoint must be rejected
  EXPECT_THROW(shm::MonitoringCampaign(other).resume(), std::runtime_error);

  // Trailing record after a complete checkpoint.
  const auto content = dsp::ser::read_file(cp);
  ASSERT_TRUE(content.has_value());
  ASSERT_TRUE(dsp::ser::atomic_write_file(cp, *content + "campaign.extra 1\n"));
  shm::MonitoringCampaign::Config trailing = small_campaign(cp);
  EXPECT_THROW(shm::MonitoringCampaign(trailing).resume(), std::runtime_error);

  // Corrupt file: truncate it mid-record.
  ASSERT_TRUE(
      dsp::ser::atomic_write_file(cp, content->substr(0, content->size() / 3)));
  shm::MonitoringCampaign::Config again = small_campaign(cp);
  EXPECT_THROW(shm::MonitoringCampaign(again).resume(), std::runtime_error);
  std::remove(cp.c_str());
}

// The long-campaign soak test of the issue: several days of supervised,
// fault-injected polling against depth-starved capsules. Asserts the
// supervisor actually exercises quarantine entry AND reintegration probing,
// that held (stale) readings age monotonically until refreshed, and that
// the workspace buffer pool balances its checkouts (no leaked buffers).
TEST(CampaignSoak, QuarantineLifecycleStalenessAndNoBufferLeaks) {
  const dsp::Workspace::Stats before =
      core::WorkspacePool::shared().total_stats();

  shm::MonitoringCampaign::Config cfg;
  cfg.days = 4.0;
  cfg.step_minutes = 5.0;
  cfg.capsule_poll_hours = 2.0;
  cfg.seed = 31337;
  // Starve the deep capsules: at 10 dB contact SNR the default ladder's
  // +6 dB floor cannot rescue the farthest nodes, so they must end up
  // quarantined with periodic reintegration probes.
  cfg.capsule_snr_at_contact_db = 10.0;
  cfg.retry.enabled = true;
  cfg.fault = fault::FaultPlan::at_intensity(0.3);
  cfg.supervisor.enabled = true;

  const shm::CampaignResult res = shm::MonitoringCampaign(cfg).run();
  ASSERT_TRUE(res.completed);

  // Quarantine lifecycle was exercised.
  EXPECT_GE(res.supervisor_totals.quarantines, 1);
  EXPECT_GE(res.supervisor_totals.reintegration_probes, 1);
  EXPECT_GT(res.supervisor_totals.skipped_polls, 0);
  EXPECT_GT(res.supervisor_totals.fallbacks, 0);
  // ...and it actually cost polls: some nodes went stale for hours.
  EXPECT_FALSE(res.max_staleness_hours.empty());

  // While a reading is held, its age grows strictly; a fresh reading
  // resets it to zero.
  std::map<std::pair<std::uint16_t, std::uint8_t>, shm::Real> last_age;
  for (const auto& entry : res.capsule_log) {
    const auto key =
        std::make_pair(entry.reading.node_id, entry.reading.sensor_id);
    if (entry.stale) {
      const auto it = last_age.find(key);
      if (it != last_age.end() && it->second > 0.0) {
        EXPECT_GT(entry.age_hours, it->second)
            << "staleness must grow while a reading is held (node "
            << entry.reading.node_id << ")";
      }
      EXPECT_GT(entry.age_hours, 0.0);
    } else {
      EXPECT_EQ(entry.age_hours, 0.0);
    }
    last_age[key] = entry.stale ? entry.age_hours : 0.0;
  }

  // No leaked workspace buffers: every checkout this campaign made was
  // returned to the pool.
  const dsp::Workspace::Stats after =
      core::WorkspacePool::shared().total_stats();
  EXPECT_EQ(after.checkouts - before.checkouts,
            after.returns - before.returns);
}

}  // namespace
}  // namespace ecocap
