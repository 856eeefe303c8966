#include "fleet/fleet_engine.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <stdexcept>
#include <utility>

#include "dsp/rng.hpp"
#include "dsp/serialize.hpp"

namespace ecocap::fleet {

namespace {

constexpr const char* kCheckpointHeader = "ecocap-fleet-checkpoint v1";
constexpr const char* kAggregatesHeader = "ecocap-fleet-aggregates v1";

template <class Summary, class Ar>
void summary_fields(Summary& s, Ar& a) {
  a.field("s.steps", s.steps);
  a.field("s.readings", s.readings);
  a.field("s.capsule_reads", s.capsule_reads);
  a.field("s.limit_violations", s.limit_violations);
  a.field("s.anomalies", s.anomalies);
  for (auto& c : s.health_counts) a.field("s.health", c);
  a.field("s.stress_sum", s.stress_sum);
  a.field("s.peak_acceleration", s.peak_acceleration);
  a.field("s.worst_pao", s.worst_pao);
}

/// Contiguous structure block [lo, hi) owned by `shard` of `shards`.
std::pair<std::size_t, std::size_t> shard_range(std::size_t structures,
                                                std::size_t shards,
                                                std::size_t shard) {
  const std::size_t base = structures / shards;
  const std::size_t rem = structures % shards;
  const std::size_t lo = shard * base + std::min(shard, rem);
  return {lo, lo + base + (shard < rem ? 1 : 0)};
}

}  // namespace

void StructureSummary::merge(const StructureSummary& other) {
  steps += other.steps;
  readings += other.readings;
  capsule_reads += other.capsule_reads;
  limit_violations += other.limit_violations;
  anomalies += other.anomalies;
  for (std::size_t i = 0; i < health_counts.size(); ++i) {
    health_counts[i] += other.health_counts[i];
  }
  stress_sum += other.stress_sum;
  peak_acceleration = std::max(peak_acceleration, other.peak_acceleration);
  worst_pao = std::min(worst_pao, other.worst_pao);
}

std::string FleetResult::fingerprint() const {
  dsp::ser::Writer w(kAggregatesHeader);
  w.field("fleet.completed", completed);
  w.field("fleet.structures", structures.size());
  summary_fields(totals, w);
  for (const StructureSummary& s : structures) summary_fields(s, w);
  return w.payload();
}

FleetEngine::FleetEngine(Config config, core::ThreadPool& pool)
    : config_(std::move(config)), pool_(&pool) {
  if (config_.structures == 0) {
    throw std::invalid_argument("FleetEngine: structures must be > 0");
  }
  if (config_.checkpoint_every == 0) {
    throw std::invalid_argument("FleetEngine: checkpoint_every must be > 0");
  }
  if (config_.telemetry != nullptr &&
      config_.telemetry->nodes() < config_.structures * kNodesPerStructure) {
    throw std::invalid_argument(
        "FleetEngine: telemetry store is smaller than the fleet");
  }
}

FleetEngine::FleetEngine(Config config)
    : FleetEngine(std::move(config), core::ThreadPool::shared()) {}

std::size_t FleetEngine::shard_count() const {
  if (config_.shards > 0) return std::min(config_.shards, config_.structures);
  return std::min<std::size_t>(config_.structures, 32);
}

std::string FleetEngine::shard_path(std::size_t shard) const {
  return config_.checkpoint_dir + "/fleet_shard_" + std::to_string(shard) +
         ".ckpt";
}

StructureSummary FleetEngine::run_structure(std::size_t s) const {
  shm::MonitoringCampaign::Config c = config_.campaign;
  c.seed = dsp::trial_seed(config_.seed, s);
  c.checkpoint_path.clear();  // fleet checkpoints at structure granularity
  c.stop_after_steps = 0;
  c.record_series = config_.record_series;

  StructureSummary sum;
  TelemetryStore* sink = config_.telemetry;
  const std::size_t node_base = s * kNodesPerStructure;
  const shm::MonitoringCampaign::StepHook user_hook = config_.campaign.on_step;
  c.on_step = [&sum, sink, node_base, &user_hook](
                  std::size_t step, Real t_days,
                  const shm::WeatherSample& weather,
                  const shm::BridgeState& state) {
    const auto t_sec = static_cast<std::uint32_t>(t_days * 86400.0 + 0.5);
    for (std::size_t i = 0; i < kNodesPerStructure; ++i) {
      const auto& sec = state.sections[i];
      if (sink != nullptr) {
        sink->append(node_base + i, t_sec,
                     static_cast<float>(sec.stress_mpa));
      }
      sum.worst_pao = std::min(sum.worst_pao, sec.pao);
    }
    sum.readings += kNodesPerStructure;
    sum.steps += 1;
    const auto& mid = state.sections[2];
    sum.stress_sum += mid.stress_mpa;
    sum.peak_acceleration =
        std::max(sum.peak_acceleration, std::abs(mid.vertical_acceleration));
    if (user_hook) user_hook(step, t_days, weather, state);
  };

  shm::MonitoringCampaign campaign(c);
  const shm::CampaignResult res = campaign.run();
  sum.limit_violations = res.limit_violations;
  sum.anomalies = static_cast<std::int64_t>(res.anomalies.size());
  sum.capsule_reads = static_cast<std::uint64_t>(
      std::max(res.inventory_totals.read_ok, 0));
  for (const auto& [section, by_letter] : res.health_histogram) {
    for (const auto& [letter, count] : by_letter) {
      const int idx = letter - 'A';
      if (idx >= 0 && idx < static_cast<int>(sum.health_counts.size())) {
        sum.health_counts[static_cast<std::size_t>(idx)] += count;
      }
    }
  }
  if (sink != nullptr) {
    for (std::size_t i = 0; i < kNodesPerStructure; ++i) {
      sink->flush(node_base + i);
    }
  }
  return sum;
}

FleetResult FleetEngine::run() { return run_impl(false); }

FleetResult FleetEngine::resume() {
  if (config_.checkpoint_dir.empty()) {
    throw std::runtime_error("fleet resume: Config::checkpoint_dir is empty");
  }
  return run_impl(true);
}

FleetResult FleetEngine::run_impl(bool from_checkpoint) {
  const std::size_t shards = shard_count();
  const bool checkpointing = !config_.checkpoint_dir.empty();

  FleetResult result;
  result.structures.resize(config_.structures);
  std::vector<std::uint8_t> structure_done(config_.structures, 0);
  std::vector<std::uint8_t> shard_stopped(shards, 0);
  std::vector<std::uint64_t> shard_resumed(shards, 0);

  pool_->parallel_for(shards, [&](std::size_t k) {
    const auto [lo, hi] = shard_range(config_.structures, shards, k);
    std::size_t done = 0;  // completed prefix length within this shard

    const std::string path = shard_path(k);
    const dsp::ser::Checkpoint checkpoint(
        kCheckpointHeader, [&](dsp::ser::Writer& w) {
          const shm::MonitoringCampaign::Config& c = config_.campaign;
          w.field("fp.structures", config_.structures);
          w.field("fp.shards", shards);
          w.field("fp.seed", config_.seed);
          w.field("fp.days", c.days);
          w.field("fp.step_minutes", c.step_minutes);
          w.field("fp.capsule_count", c.capsule_count);
          w.field("fp.poll_hours", c.capsule_poll_hours);
          w.field("fp.supervised", c.supervisor.enabled);
          w.field("fp.record_series", config_.record_series);
          w.field("shard.index", k);
        });
    const auto state = [&](auto& a) {
      a.field("shard.completed", done);
      if (done > hi - lo) {
        throw std::runtime_error("fleet resume: corrupt completed count in " +
                                 path);
      }
      for (std::size_t i = 0; i < done; ++i) {
        summary_fields(result.structures[lo + i], a);
      }
    };
    // Shards without a checkpoint file start fresh.
    if (from_checkpoint && std::filesystem::exists(path)) {
      checkpoint.load(path, state);
      std::fill_n(structure_done.begin() + static_cast<std::ptrdiff_t>(lo),
                  done, 1);
      shard_resumed[k] = done;
    }

    std::size_t completed_this_run = 0;
    for (std::size_t s = lo + done; s < hi; ++s) {
      if (config_.stop_after_structures > 0 &&
          completed_this_run >= config_.stop_after_structures) {
        // Simulated crash: leave a final checkpoint and stop this shard.
        shard_stopped[k] = 1;
        if (checkpointing) checkpoint.save(path, state);
        return;
      }
      result.structures[s] = run_structure(s);
      structure_done[s] = 1;
      ++done;
      ++completed_this_run;
      if (checkpointing && (done % config_.checkpoint_every == 0 || s + 1 == hi)) {
        checkpoint.save(path, state);
      }
    }
  });

  // Streaming merge in ascending structure order: the one fold order every
  // thread/shard count shares, so the Real sums associate identically.
  for (std::size_t s = 0; s < config_.structures; ++s) {
    if (structure_done[s] == 0) continue;
    result.totals.merge(result.structures[s]);
    ++result.structures_completed;
  }
  for (std::size_t k = 0; k < shards; ++k) {
    result.structures_resumed += shard_resumed[k];
    if (shard_stopped[k] != 0) result.completed = false;
  }
  return result;
}

}  // namespace ecocap::fleet
