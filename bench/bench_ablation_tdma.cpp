// Ablation — §3.4 TDMA slotted ALOHA: inventory efficiency vs the slot
// exponent Q for different node populations. Too few slots collide; too
// many waste air time. SHM tolerates the latency either way ("degradation
// takes days rather than seconds"). The per-(n, Q) trial average runs on
// the parallel trial engine with counter-derived seeds, so the numbers are
// bit-identical at any ECOCAP_THREADS.

#include <cstdio>
#include <memory>
#include <vector>

#include "bench_json.hpp"
#include "core/trial_runner.hpp"
#include "reader/inventory.hpp"

using namespace ecocap;

namespace {

struct TdmaStats {
  long rounds = 0;
  long slots = 0;
  long collisions = 0;
  long empty = 0;
  long inventoried = 0;
};

/// One independent inventory pass: n fresh nodes, one engine, one run.
TdmaStats run_pass(int n, std::uint8_t q, dsp::Rng& rng) {
  std::vector<std::unique_ptr<node::Firmware>> fw;
  std::vector<reader::InventoriedNode> nodes;
  for (int i = 0; i < n; ++i) {
    node::FirmwareConfig fc;
    fc.node_id = static_cast<std::uint16_t>(i + 1);
    fw.push_back(std::make_unique<node::Firmware>(fc, rng.next_u64()));
    fw.back()->power_on();
    reader::InventoriedNode in;
    in.firmware = fw.back().get();
    in.snr_db = 25.0;
    nodes.push_back(in);
  }
  reader::InventoryEngine::Config cfg;
  cfg.q = q;
  cfg.max_rounds = 40;
  reader::InventoryEngine engine(cfg, rng.next_u64());
  const auto r = engine.run(nodes);
  TdmaStats s;
  s.rounds = r.stats.rounds;
  s.slots = r.stats.slots;
  s.collisions = r.stats.collisions;
  s.empty = r.stats.empty_slots;
  s.inventoried = static_cast<long>(r.inventoried_ids.size());
  return s;
}

}  // namespace

int main() {
  bench::BenchJson out("ablation_tdma");
  const core::TrialRunner runner(core::ThreadPool::shared(),
                                 /*block_size=*/2);
  std::size_t total_trials = 0;
  std::vector<double> series_n, series_q, series_inventoried;

  std::printf("# Ablation — slotted-ALOHA inventory vs Q (2^Q slots/round)\n");
  std::printf("nodes,q,rounds,slots,collisions,empty,inventoried\n");
  for (int n : {4, 10, 20}) {
    for (std::uint8_t q = 0; q <= 6; ++q) {
      const int trials = 10;
      const std::uint64_t seed =
          0x7d3a000u + static_cast<std::uint64_t>(n) * 64 + q;
      const TdmaStats sum = runner.run<TdmaStats>(
          trials, seed,
          [&](std::size_t, dsp::Rng& rng, TdmaStats& acc) {
            const TdmaStats s = run_pass(n, q, rng);
            acc.rounds += s.rounds;
            acc.slots += s.slots;
            acc.collisions += s.collisions;
            acc.empty += s.empty;
            acc.inventoried += s.inventoried;
          },
          [](TdmaStats& into, const TdmaStats& from) {
            into.rounds += from.rounds;
            into.slots += from.slots;
            into.collisions += from.collisions;
            into.empty += from.empty;
            into.inventoried += from.inventoried;
          });
      total_trials += trials;
      std::printf("%d,%d,%.1f,%.1f,%.1f,%.1f,%.1f\n", n, q,
                  static_cast<double>(sum.rounds) / trials,
                  static_cast<double>(sum.slots) / trials,
                  static_cast<double>(sum.collisions) / trials,
                  static_cast<double>(sum.empty) / trials,
                  static_cast<double>(sum.inventoried) / trials);
      series_n.push_back(n);
      series_q.push_back(q);
      series_inventoried.push_back(static_cast<double>(sum.inventoried) /
                                   trials);
    }
  }
  std::printf("# sweet spot: 2^Q ~ node count (classic slotted-ALOHA);\n");
  std::printf("#   collisions dominate below it, empty slots above it\n");

  out.set_trials(total_trials);
  out.series("nodes", series_n);
  out.series("q", series_q);
  out.series("inventoried", series_inventoried);
  out.write();
  return 0;
}
