// Format pin for the checkpoint files of every resumable runner. Each
// payload below is produced at a fixed small configuration and kill point,
// and its byte length and FNV-1a-64 digest are checked against
// tests/golden/checkpoint_digests.txt. A change to any checkpointed key,
// order or encoding fails here, so files written by an older build keep
// resuming on a newer one.
//
// Regenerating after an intentional format change (which must also bump
// the affected header's version tag):
//   ./test_checkpoint_pin --regen    # rewrites tests/golden/checkpoint_digests.txt

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/thread_pool.hpp"
#include "dsp/serialize.hpp"
#include "fleet/fleet_engine.hpp"
#include "scenario/engine.hpp"
#include "scenario/script.hpp"
#include "shm/monitor.hpp"
#include "stream/streaming_reader.hpp"

#include "golden_util.hpp"

#ifndef ECOCAP_GOLDEN_DIR
#error "ECOCAP_GOLDEN_DIR must point at tests/golden"
#endif
#ifndef ECOCAP_SCENARIO_DIR
#error "ECOCAP_SCENARIO_DIR must point at scenarios/"
#endif

namespace ecocap {
namespace {

std::uint64_t fnv1a64(const std::string& bytes) {
  std::uint64_t h = golden::kFnvOffset;
  for (const char c : bytes) golden::fnv_byte(h, static_cast<std::uint8_t>(c));
  return h;
}

std::string temp_path(const std::string& name) {
  return std::string(::testing::TempDir()) + "ecocap_pin_" + name;
}

std::string slurp(const std::string& path) {
  const auto content = dsp::ser::read_file(path);
  EXPECT_TRUE(content.has_value()) << "no checkpoint at " << path;
  return content.value_or("");
}

/// 2-day supervised, fault-injected campaign killed at the end of day 1.
std::string campaign_payload() {
  const std::string path = temp_path("campaign.ckpt");
  std::remove(path.c_str());
  shm::MonitoringCampaign::Config cfg;
  cfg.days = 2.0;
  cfg.step_minutes = 5.0;
  cfg.capsule_poll_hours = 3.0;
  cfg.seed = 4242;
  cfg.retry.enabled = true;
  cfg.fault = fault::FaultPlan::at_intensity(0.5);
  cfg.supervisor.enabled = true;
  cfg.checkpoint_path = path;
  cfg.checkpoint_hours = 6.0;
  cfg.stop_after_steps = 24 * 60 / 5;
  EXPECT_FALSE(shm::MonitoringCampaign(cfg).run().completed);
  std::string payload = slurp(path);
  std::remove(path.c_str());
  return payload;
}

fleet::FleetEngine::Config small_fleet() {
  fleet::FleetEngine::Config cfg;
  cfg.structures = 3;
  cfg.shards = 1;
  cfg.seed = 77;
  cfg.campaign.days = 0.25;
  cfg.campaign.step_minutes = 5.0;
  cfg.campaign.capsule_count = 2;
  cfg.campaign.capsule_poll_hours = 3.0;
  cfg.campaign.retry.enabled = true;
  return cfg;
}

/// The single shard of a 3-structure fleet, killed after 2 structures.
std::string fleet_shard_payload() {
  const std::filesystem::path dir = temp_path("fleet");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  auto cfg = small_fleet();
  cfg.checkpoint_dir = dir.string();
  cfg.stop_after_structures = 2;
  core::ThreadPool pool(1);
  EXPECT_FALSE(fleet::FleetEngine(cfg, pool).run().completed);
  std::string payload = slurp((dir / "fleet_shard_0.ckpt").string());
  std::filesystem::remove_all(dir);
  return payload;
}

std::string fleet_fingerprint() {
  core::ThreadPool pool(1);
  return fleet::FleetEngine(small_fleet(), pool).run().fingerprint();
}

std::string streaming_reader_payload() {
  reader::StreamingReaderConfig config;
  config.stream.system = core::default_system();
  config.stream.block_size = 256;
  config.stream.threaded = false;
  config.poll_interval_s = 0.05;
  config.warmup_s = 0.5;
  reader::StreamingReader daemon(config);
  daemon.run_polls(4);
  return daemon.checkpoint();
}

std::string scenario_payload(const std::string& file, std::size_t stop_after) {
  const auto script =
      scenario::ScenarioScript::load(std::string(ECOCAP_SCENARIO_DIR) + "/" +
                                     file);
  scenario::RunControl control;
  control.checkpoint_path = temp_path(file + ".ckpt");
  control.stop_after_units = stop_after;
  std::remove(control.checkpoint_path.c_str());
  EXPECT_FALSE(scenario::ScenarioEngine(script, control).run().completed);
  std::string payload = slurp(control.checkpoint_path);
  std::remove(control.checkpoint_path.c_str());
  return payload;
}

std::string digest_path() {
  return std::string(ECOCAP_GOLDEN_DIR) + "/checkpoint_digests.txt";
}

/// name -> "<length> <digest>".
std::map<std::string, std::string> load_digests() {
  std::map<std::string, std::string> pins;
  std::ifstream f(digest_path());
  std::string line;
  while (std::getline(f, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream in(line);
    std::string name, length, digest;
    in >> name >> length >> digest;
    pins[name] = length + " " + digest;
  }
  return pins;
}

std::string summary(const std::string& payload) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%zu %016" PRIx64, payload.size(),
                fnv1a64(payload));
  return buf;
}

TEST(CheckpointPin, PayloadBytesUnchanged) {
  const std::vector<std::pair<std::string, std::string>> payloads{
      {"campaign_day1", campaign_payload()},
      {"fleet_shard", fleet_shard_payload()},
      {"fleet_fingerprint", fleet_fingerprint()},
      {"streaming_reader_poll4", streaming_reader_payload()},
      {"scenario_drive_by", scenario_payload("drive_by.scn", 2)},
      {"scenario_dual_reader", scenario_payload("dual_reader.scn", 61)},
  };
  for (const auto& [name, payload] : payloads) {
    EXPECT_FALSE(payload.empty()) << name;
  }

  if (golden::g_regen) {
    std::ofstream f(digest_path());
    ASSERT_TRUE(f) << "cannot write " << digest_path();
    f << "# Checkpoint payloads pinned by tests/test_checkpoint_pin.cpp;\n"
         "# regenerate with `test_checkpoint_pin --regen`. Per line: name,\n"
         "# byte length, FNV-1a-64 digest of the bytes.\n";
    for (const auto& [name, payload] : payloads) {
      f << name << " " << summary(payload) << "\n";
    }
    SUCCEED() << "regenerated " << digest_path();
    return;
  }

  const auto pins = load_digests();
  ASSERT_EQ(pins.size(), payloads.size()) << "missing or stale "
                                          << digest_path();
  for (const auto& [name, payload] : payloads) {
    const auto it = pins.find(name);
    ASSERT_NE(it, pins.end()) << "no pin for " << name;
    EXPECT_EQ(it->second, summary(payload))
        << name << ": checkpoint bytes drifted from the pinned format";
  }
}

}  // namespace
}  // namespace ecocap

int main(int argc, char** argv) {
  return ecocap::golden::golden_test_main(argc, argv);
}
