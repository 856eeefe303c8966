// Fleet engine + telemetry store suite: store semantics (tiers, ring wrap,
// percentiles), sharded-fleet determinism across worker and shard counts,
// kill-and-resume from the per-shard checkpoint files, and the concurrent
// ingest/query stress the TSan CI job exercises (torn reads would break the
// value == f(node, t) invariant every stored word carries).

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <thread>
#include <vector>

#include "core/thread_pool.hpp"
#include "dsp/serialize.hpp"
#include "fleet/fleet_engine.hpp"
#include "fleet/telemetry_store.hpp"

namespace ecocap::fleet {
namespace {

TelemetryStore::Config small_store(std::size_t nodes, std::size_t raw = 8) {
  TelemetryStore::Config cfg;
  cfg.nodes = nodes;
  cfg.raw_capacity = raw;
  cfg.minute_capacity = 8;
  cfg.hour_capacity = 4;
  return cfg;
}

TEST(TelemetryStore, LatestRoundTripsExactly) {
  TelemetryStore store(small_store(2));
  EXPECT_FALSE(store.latest(0).has_value());
  store.append(0, 42, -55.25f);
  const auto r = store.latest(0);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->t_sec, 42u);
  EXPECT_EQ(r->value, -55.25f);
  EXPECT_FALSE(store.latest(1).has_value());
  EXPECT_EQ(store.total_appends(), 1u);
}

TEST(TelemetryStore, RawRingKeepsMostRecentWindow) {
  TelemetryStore store(small_store(1, /*raw=*/4));
  for (std::uint32_t t = 0; t < 10; ++t) {
    store.append(0, t, static_cast<float>(t));
  }
  std::vector<TelemetryStore::Reading> out;
  const std::size_t n =
      store.range(0, TelemetryStore::Tier::kRaw, 0, 100, out);
  ASSERT_EQ(n, 4u);  // capacity 4: entries 6..9 survive
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].t_sec, 6u + i);
    EXPECT_EQ(out[i].value, static_cast<float>(6 + i));
  }
}

TEST(TelemetryStore, RangeFiltersByTime) {
  TelemetryStore store(small_store(1, /*raw=*/16));
  for (std::uint32_t t = 0; t < 10; ++t) store.append(0, t * 10, 1.0f);
  std::vector<TelemetryStore::Reading> out;
  EXPECT_EQ(store.range(0, TelemetryStore::Tier::kRaw, 30, 60, out), 3u);
  for (const auto& r : out) {
    EXPECT_GE(r.t_sec, 30u);
    EXPECT_LT(r.t_sec, 60u);
  }
}

TEST(TelemetryStore, MinuteAndHourTiersDownsample) {
  TelemetryStore store(small_store(1, /*raw=*/256));
  // Two readings per minute for 3 minutes: minute means are (v0+v1)/2.
  for (std::uint32_t m = 0; m < 3; ++m) {
    store.append(0, m * 60 + 10, static_cast<float>(2 * m));
    store.append(0, m * 60 + 40, static_cast<float>(2 * m + 2));
  }
  store.flush(0);
  std::vector<TelemetryStore::Reading> minutes;
  ASSERT_EQ(store.range(0, TelemetryStore::Tier::kMinute, 0, 1000, minutes),
            3u);
  for (std::uint32_t m = 0; m < 3; ++m) {
    EXPECT_EQ(minutes[m].t_sec, m * 60);  // stamped at bucket start
    EXPECT_EQ(minutes[m].value, static_cast<float>(2 * m + 1));
  }
  std::vector<TelemetryStore::Reading> hours;
  ASSERT_EQ(store.range(0, TelemetryStore::Tier::kHour, 0, 4000, hours), 1u);
  EXPECT_EQ(hours[0].t_sec, 0u);
  EXPECT_EQ(hours[0].value, 3.0f);  // mean of 0,2,2,4,4,6
}

TEST(TelemetryStore, FlushIsIdempotentAndReopens) {
  TelemetryStore store(small_store(1));
  store.append(0, 5, 1.0f);
  store.flush(0);
  store.flush(0);  // no double entry
  std::vector<TelemetryStore::Reading> minutes;
  EXPECT_EQ(store.range(0, TelemetryStore::Tier::kMinute, 0, 100, minutes),
            1u);
  store.append(0, 65, 3.0f);
  store.flush(0);
  minutes.clear();
  EXPECT_EQ(store.range(0, TelemetryStore::Tier::kMinute, 0, 100, minutes),
            2u);
}

TEST(TelemetryStore, FleetPercentilesOverLatest) {
  TelemetryStore store(small_store(10));
  for (std::size_t n = 0; n < 5; ++n) {
    store.append(n, 1, static_cast<float>(n));  // 0..4; nodes 5..9 silent
  }
  std::vector<float> scratch;
  const auto h = store.fleet_percentiles(scratch);
  EXPECT_EQ(h.nodes_reporting, 5u);
  EXPECT_EQ(h.p50, 2.0f);
  EXPECT_EQ(h.max, 4.0f);
}

// ---------------------------------------------------------------------------
// Fleet engine determinism

FleetEngine::Config small_fleet(TelemetryStore* store = nullptr) {
  FleetEngine::Config cfg;
  cfg.structures = 10;
  cfg.seed = 77;
  cfg.telemetry = store;
  cfg.campaign.days = 0.25;
  cfg.campaign.step_minutes = 5.0;
  cfg.campaign.capsule_count = 2;
  cfg.campaign.capsule_poll_hours = 3.0;
  cfg.campaign.retry.enabled = true;
  return cfg;
}

TEST(FleetEngine, AggregatesBitIdenticalAcrossWorkerCounts) {
  std::string reference;
  for (const unsigned workers : {1u, 2u, 8u}) {
    core::ThreadPool pool(workers);
    FleetEngine engine(small_fleet(), pool);
    const FleetResult result = engine.run();
    EXPECT_TRUE(result.completed);
    EXPECT_EQ(result.structures_completed, 10u);
    if (reference.empty()) {
      reference = result.fingerprint();
      EXPECT_GT(result.totals.steps, 0u);
      EXPECT_GT(result.totals.readings, 0u);
    } else {
      EXPECT_EQ(result.fingerprint(), reference)
          << "fleet aggregates differ at " << workers << " workers";
    }
  }
}

TEST(FleetEngine, AggregatesBitIdenticalAcrossShardCounts) {
  core::ThreadPool pool(4);
  std::string reference;
  for (const std::size_t shards : {1u, 3u, 10u}) {
    auto cfg = small_fleet();
    cfg.shards = shards;
    FleetEngine engine(cfg, pool);
    const std::string fp = engine.run().fingerprint();
    if (reference.empty()) {
      reference = fp;
    } else {
      EXPECT_EQ(fp, reference)
          << "fleet aggregates differ at " << shards << " shards";
    }
  }
}

TEST(FleetEngine, TelemetryIngestMatchesSummaries) {
  auto cfg = small_fleet();
  TelemetryStore store(small_store(
      cfg.structures * FleetEngine::kNodesPerStructure, /*raw=*/128));
  cfg.telemetry = &store;
  core::ThreadPool pool(4);
  FleetEngine engine(cfg, pool);
  const FleetResult result = engine.run();
  EXPECT_EQ(store.total_appends(), result.totals.readings);
  // Every node reported, and its latest reading is a plausible stress.
  std::vector<float> scratch;
  const auto h = store.fleet_percentiles(scratch);
  EXPECT_EQ(h.nodes_reporting, store.nodes());
}

TEST(FleetEngine, RejectsUndersizedTelemetryStore) {
  auto cfg = small_fleet();
  TelemetryStore store(small_store(3));
  cfg.telemetry = &store;
  EXPECT_THROW(FleetEngine engine(std::move(cfg)), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Kill-and-resume via per-shard checkpoint files

class FleetCheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("fleet_ckpt_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::filesystem::path dir_;
};

TEST_F(FleetCheckpointTest, KillAndResumeReproducesUninterruptedRun) {
  core::ThreadPool pool(4);

  auto cfg = small_fleet();
  cfg.shards = 4;
  FleetEngine full(cfg, pool);
  const std::string uninterrupted = full.run().fingerprint();

  // Crash: every shard checkpoints after one completed structure and stops.
  auto crash_cfg = cfg;
  crash_cfg.checkpoint_dir = dir_.string();
  crash_cfg.stop_after_structures = 1;
  FleetEngine crashed(crash_cfg, pool);
  const FleetResult partial = crashed.run();
  EXPECT_FALSE(partial.completed);
  EXPECT_LT(partial.structures_completed, cfg.structures);

  // Resume: completed structures come from the checkpoint files, the rest
  // re-run; the merged aggregates must be byte-identical.
  auto resume_cfg = cfg;
  resume_cfg.checkpoint_dir = dir_.string();
  FleetEngine resumed(resume_cfg, pool);
  const FleetResult finished = resumed.resume();
  EXPECT_TRUE(finished.completed);
  EXPECT_EQ(finished.structures_completed, cfg.structures);
  EXPECT_EQ(finished.structures_resumed, partial.structures_completed);
  EXPECT_EQ(finished.fingerprint(), uninterrupted);
}

TEST_F(FleetCheckpointTest, ResumeAtDifferentWorkerCountIsStillIdentical) {
  auto cfg = small_fleet();
  cfg.shards = 5;
  cfg.checkpoint_dir = dir_.string();

  core::ThreadPool pool8(8);
  FleetEngine full(cfg, pool8);
  const std::string uninterrupted = full.run().fingerprint();

  auto crash_cfg = cfg;
  crash_cfg.stop_after_structures = 1;
  FleetEngine crashed(crash_cfg, pool8);
  ASSERT_FALSE(crashed.run().completed);

  // The shard partition is worker-count independent, so a 1-worker resume
  // picks up 8-worker checkpoints.
  core::ThreadPool pool1(1);
  FleetEngine resumed(cfg, pool1);
  EXPECT_EQ(resumed.resume().fingerprint(), uninterrupted);
}

TEST_F(FleetCheckpointTest, ResumeRejectsDifferentConfig) {
  auto cfg = small_fleet();
  cfg.shards = 2;
  cfg.checkpoint_dir = dir_.string();
  cfg.stop_after_structures = 1;
  core::ThreadPool pool(2);
  FleetEngine crashed(cfg, pool);
  ASSERT_FALSE(crashed.run().completed);

  auto other = cfg;
  other.stop_after_structures = 0;
  other.seed = cfg.seed + 1;
  FleetEngine resumed(other, pool);
  EXPECT_THROW(resumed.resume(), std::runtime_error);

  // Same config, but a record trails the shard's checkpoint.
  const std::string shard = (dir_ / "fleet_shard_0.ckpt").string();
  const auto content = dsp::ser::read_file(shard);
  ASSERT_TRUE(content.has_value());
  ASSERT_TRUE(dsp::ser::atomic_write_file(shard, *content + "s.extra 1\n"));
  auto same = cfg;
  same.stop_after_structures = 0;
  FleetEngine trailing(same, pool);
  EXPECT_THROW(trailing.resume(), std::runtime_error);
}

TEST_F(FleetCheckpointTest, ResumeWithoutCheckpointDirThrows) {
  FleetEngine engine(small_fleet());
  EXPECT_THROW(engine.resume(), std::runtime_error);
}

// ---------------------------------------------------------------------------
// Concurrent ingest/query stress (the TSan job runs this suite).
//
// Every stored word packs (t, value) with value = expected(node, t), so any
// torn read, missed publication, or cross-node bleed shows up as a value
// that fails the invariant — while writers lap the rings under the readers.

float expected(std::size_t node, std::uint32_t t) {
  return static_cast<float>((node * 131 + t) % 8191);
}

TEST(TelemetryStoreStress, ConcurrentIngestAndQueryKeepReadingsConsistent) {
  constexpr std::size_t kWriters = 4;
  constexpr std::size_t kNodesPerWriter = 8;
  constexpr std::size_t kNodes = kWriters * kNodesPerWriter;
  constexpr std::uint32_t kAppends = 20000;

  TelemetryStore store(small_store(kNodes, /*raw=*/16));
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> violations{0};
  std::atomic<std::uint64_t> observed{0};

  const auto check = [&](std::size_t node,
                         const TelemetryStore::Reading& r) {
    observed.fetch_add(1, std::memory_order_relaxed);
    if (r.value != expected(node, r.t_sec)) {
      violations.fetch_add(1, std::memory_order_relaxed);
    }
  };

  std::vector<std::thread> readers;
  for (int q = 0; q < 3; ++q) {
    readers.emplace_back([&, q] {
      std::vector<TelemetryStore::Reading> window;
      std::vector<float> scratch;
      std::size_t node = static_cast<std::size_t>(q);
      // do-while: at least one full pass even if the writers win every
      // scheduling race (single-core hosts), so the readers always
      // exercise the query path against live or final state.
      do {
        node = (node + 7) % kNodes;
        if (const auto r = store.latest(node)) check(node, *r);
        window.clear();
        store.range(node, TelemetryStore::Tier::kRaw, 0, 0xfffffffeu,
                    window);
        for (const auto& r : window) check(node, r);
        store.fleet_percentiles(scratch);
      } while (!stop.load(std::memory_order_acquire));
    });
  }

  std::vector<std::thread> writers;
  for (std::size_t w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (std::uint32_t t = 0; t < kAppends; ++t) {
        for (std::size_t i = 0; i < kNodesPerWriter; ++i) {
          const std::size_t node = w * kNodesPerWriter + i;
          store.append(node, t, expected(node, t));
        }
      }
      for (std::size_t i = 0; i < kNodesPerWriter; ++i) {
        store.flush(w * kNodesPerWriter + i);
      }
    });
  }

  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  // Final main-thread sweep over the quiescent store: every node's latest
  // reading and retained raw window must satisfy the invariant too.
  std::vector<TelemetryStore::Reading> window;
  for (std::size_t node = 0; node < kNodes; ++node) {
    const auto r = store.latest(node);
    ASSERT_TRUE(r.has_value());
    check(node, *r);
    window.clear();
    store.range(node, TelemetryStore::Tier::kRaw, 0, 0xfffffffeu, window);
    EXPECT_FALSE(window.empty());
    for (const auto& rd : window) check(node, rd);
  }

  EXPECT_EQ(violations.load(), 0u);
  EXPECT_GE(observed.load(), static_cast<std::uint64_t>(kNodes));
  EXPECT_EQ(store.total_appends(),
            static_cast<std::uint64_t>(kWriters) * kNodesPerWriter * kAppends);
}

TEST(TelemetryStoreStress, QueriesDuringFleetIngestSeeConsistentState) {
  auto cfg = small_fleet();
  cfg.structures = 12;
  TelemetryStore store(small_store(
      cfg.structures * FleetEngine::kNodesPerStructure, /*raw=*/64));
  cfg.telemetry = &store;

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> served{0};
  std::vector<std::thread> readers;
  for (int q = 0; q < 2; ++q) {
    readers.emplace_back([&] {
      std::vector<TelemetryStore::Reading> window;
      std::vector<float> scratch;
      std::size_t node = 0;
      do {  // at least one pass even if ingest finishes first
        node = (node + 11) % store.nodes();
        (void)store.latest(node);
        window.clear();
        store.range(node, TelemetryStore::Tier::kMinute, 0, 0xfffffffeu,
                    window);
        store.fleet_percentiles(scratch);
        served.fetch_add(1, std::memory_order_relaxed);
      } while (!stop.load(std::memory_order_acquire));
    });
  }

  core::ThreadPool pool(4);
  FleetEngine engine(cfg, pool);
  const FleetResult result = engine.run();
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  EXPECT_TRUE(result.completed);
  EXPECT_EQ(store.total_appends(), result.totals.readings);
  EXPECT_GT(served.load(), 0u);

  // And the concurrent-query run didn't perturb the aggregates.
  core::ThreadPool pool1(1);
  auto quiet_cfg = cfg;
  quiet_cfg.telemetry = nullptr;
  FleetEngine quiet(quiet_cfg, pool1);
  EXPECT_EQ(quiet.run().fingerprint(), result.fingerprint());
}

}  // namespace
}  // namespace ecocap::fleet
