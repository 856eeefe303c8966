#include "reader/inventory.hpp"

#include <algorithm>
#include <stdexcept>

namespace ecocap::reader {

void RetryPolicy::validate() const {
  if (max_retries < 0) {
    throw std::invalid_argument("RetryPolicy: max_retries must be >= 0");
  }
  if (backoff_base_slots <= 0) {
    throw std::invalid_argument(
        "RetryPolicy: backoff_base_slots must be > 0");
  }
  if (backoff_max_slots < backoff_base_slots) {
    throw std::invalid_argument(
        "RetryPolicy: backoff_max_slots must be >= backoff_base_slots");
  }
  if (giveup_budget < 0) {
    throw std::invalid_argument("RetryPolicy: giveup_budget must be >= 0");
  }
  if (!(slot_timeout_s > 0.0)) {
    throw std::invalid_argument("RetryPolicy: slot_timeout_s must be > 0");
  }
}

InventoryEngine::InventoryEngine(Config config, std::uint64_t seed)
    : config_(config), rng_(seed) {
  config_.retry.validate();
  if (config_.slot_budget < 0) {
    throw std::invalid_argument(
        "InventoryEngine: slot_budget must be >= 0 (0 = unlimited)");
  }
}

bool InventoryEngine::frame_survives(const InventoriedNode& n,
                                     std::size_t bits) {
  const double ber =
      channel::fm0_ber(n.snr_db, config_.ber_penalty_db);
  // Independent bit flips: the frame survives when no bit flips (flipped
  // frames either fail CRC or, for bare RN16s, break the handshake).
  const double p_ok = std::pow(1.0 - ber, static_cast<double>(bits));
  return rng_.chance(p_ok);
}

bool InventoryEngine::exchange_with_retry(const InventoriedNode& n,
                                          std::size_t bits,
                                          InventoryStats& stats) {
  const RetryPolicy& policy = config_.retry;
  // Legacy fast path: exactly one frame_survives draw, no extra state.
  // (An attached injector with an empty plan also lands here in effect —
  // its protocol hooks consume zero draws — but branching early keeps the
  // draw sequence trivially identical to the pre-fault-layer engine.)
  if (!policy.enabled && fault_ == nullptr) return frame_survives(n, bits);

  int backoff = policy.backoff_base_slots;
  for (int attempt = 0;; ++attempt) {
    // Classify this attempt: a lost reply reads as a reader-side timeout
    // (the slot_timeout_s wait elapses with no FM0 preamble); a corrupted
    // one as a CRC / handshake failure. Injector faults stack on top of
    // the SNR-derived bit-error survival draw.
    const bool lost = fault_ != nullptr && fault_->reply_lost();
    bool corrupted = false;
    if (!lost) {
      corrupted = (fault_ != nullptr && fault_->reply_corrupted()) ||
                  !frame_survives(n, bits);
    }
    if (!lost && !corrupted) return true;
    if (lost) {
      ++stats.timeouts;
    } else {
      ++stats.crc_fails;
    }
    // Give-up transitions: policy off, per-exchange retries exhausted, the
    // session-wide budget spent, or the next backoff would blow the slot
    // watchdog (the deadline trip is charged by the round loop).
    if (!policy.enabled || attempt >= policy.max_retries ||
        retry_budget_ <= 0 ||
        (config_.slot_budget > 0 &&
         stats.slots + stats.backoff_slots + backoff > config_.slot_budget)) {
      return false;
    }
    // Retry transition: wait out the backoff window, then re-query.
    --retry_budget_;
    ++stats.retries;
    stats.backoff_slots += backoff;
    backoff = std::min(backoff * 2, policy.backoff_max_slots);
  }
}

InventoryResult InventoryEngine::run(std::vector<InventoriedNode>& nodes) {
  InventoryResult result;
  std::vector<bool> done(nodes.size(), false);
  retry_budget_ = config_.retry.giveup_budget;
  bool deadline_hit = false;
  const auto budget_spent = [&] {
    return config_.slot_budget > 0 &&
           result.stats.slots + result.stats.backoff_slots >=
               config_.slot_budget;
  };

  for (int round = 0; round < config_.max_rounds && !deadline_hit; ++round) {
    if (std::all_of(done.begin(), done.end(), [](bool d) { return d; })) break;
    ++result.stats.rounds;

    // Query starts the round on every node that still needs inventorying;
    // already-read nodes are told to sit out (modelled by skipping them —
    // the Gen2 analog is the inventoried-flag/session mechanism).
    const int slots = 1 << config_.q;
    std::vector<std::optional<node::UplinkFrame>> pending(nodes.size());
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      if (done[i]) continue;
      pending[i] = nodes[i].firmware->handle_command(
          phy::Command{phy::QueryCommand{config_.q}}, nodes[i].environment);
    }

    for (int slot = 0; slot < slots; ++slot) {
      if (budget_spent()) {
        // Watchdog: the round's slot deadline is gone; cut the session
        // short and let the un-read nodes count as give-ups.
        deadline_hit = true;
        break;
      }
      ++result.stats.slots;
      if (slot > 0) {
        for (std::size_t i = 0; i < nodes.size(); ++i) {
          if (done[i]) continue;
          pending[i] = nodes[i].firmware->handle_command(
              phy::Command{phy::QueryRepCommand{}}, nodes[i].environment);
        }
      }

      // Who answered this slot?
      std::vector<std::size_t> responders;
      for (std::size_t i = 0; i < nodes.size(); ++i) {
        if (!done[i] && pending[i].has_value()) responders.push_back(i);
      }
      for (auto& p : pending) p.reset();

      if (responders.empty()) {
        ++result.stats.empty_slots;
        continue;
      }
      if (responders.size() > 1) {
        // Colliding FM0 frames are mutually unintelligible; every collided
        // node stays un-acked and retries next round (fresh Query).
        ++result.stats.collisions;
        continue;
      }

      ++result.stats.singleton_slots;
      const std::size_t idx = responders.front();
      InventoriedNode& n = nodes[idx];

      // RN16 must survive the uplink for the ACK to echo it correctly.
      if (!exchange_with_retry(n, phy::rn16_response_bits(), result.stats)) {
        continue;
      }
      const std::uint16_t rn16 = n.firmware->current_rn16();
      const auto id_frame = n.firmware->handle_command(
          phy::Command{phy::AckCommand{rn16}}, n.environment);
      if (!id_frame ||
          !exchange_with_retry(n, phy::id_response_bits(), result.stats)) {
        continue;
      }
      const auto id = phy::parse_id_response(id_frame->payload);
      if (!id) continue;
      ++result.stats.acked;
      result.inventoried_ids.push_back(id->node_id);

      for (std::uint8_t sensor : config_.sensors_to_read) {
        const auto data_frame = n.firmware->handle_command(
            phy::Command{phy::ReadCommand{rn16, sensor}}, n.environment);
        if (!data_frame) continue;
        if (!exchange_with_retry(n, phy::data_response_bits(), result.stats)) {
          ++result.stats.read_failed;
          continue;
        }
        const auto data = phy::parse_data_response(data_frame->payload);
        if (!data) {
          ++result.stats.read_failed;
          continue;
        }
        ++result.stats.read_ok;
        result.readings.push_back(SensorReading{
            id->node_id, data->sensor_id, phy::from_milli(data->milli_value)});
      }
      done[idx] = true;
    }
  }
  if (deadline_hit) ++result.stats.deadline_trips;
  result.stats.giveups =
      static_cast<int>(std::count(done.begin(), done.end(), false));
  return result;
}

std::vector<std::uint16_t> InventoryEngine::assign_blfs(
    std::vector<InventoriedNode>& nodes, double base_blf, double step) {
  std::vector<std::uint16_t> assigned;
  double blf = base_blf;
  for (auto& n : nodes) {
    // Re-inventory each node alone (administrative channel), then SetBlf.
    std::vector<InventoriedNode> single{n};
    Config solo_cfg;
    solo_cfg.q = 0;
    solo_cfg.max_rounds = 2;
    solo_cfg.ber_penalty_db = config_.ber_penalty_db;
    InventoryEngine solo(solo_cfg, rng_.next_u64());
    const InventoryResult r = solo.run(single);
    if (r.inventoried_ids.empty()) continue;
    const std::uint16_t rn16 = n.firmware->current_rn16();
    n.firmware->handle_command(
        phy::Command{phy::SetBlfCommand{
            rn16, static_cast<std::uint16_t>(blf / 100.0)}},
        n.environment);
    if (n.firmware->config().blf == blf) {
      assigned.push_back(n.firmware->config().node_id);
    }
    blf += step;
  }
  return assigned;
}

}  // namespace ecocap::reader
