// Golden-vector regression suite: pins fixed-seed slices of the five tier-1
// figure harnesses (Fig. 15 BER, Fig. 16 SNR-vs-bitrate, Fig. 17
// throughput, Table 2 health levels, TDMA ablation) against checked-in
// vectors in tests/golden/. Each vector records an FNV-1a hash over the bit
// patterns of the computed series plus a few key scalars, so ANY
// bit-level drift in the fault-free pipeline fails loudly here before it
// shows up as a mysterious BENCH_*.json diff in CI.
//
// Regenerating after an intentional change:
//   ./test_golden_vectors --regen        # rewrites tests/golden/*.json
// then commit the updated files with the change that caused them.
// The vectors are generated with the library's thread-count-independent
// Monte-Carlo engines, so they hold at any ECOCAP_THREADS.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "baseline/pab.hpp"
#include "channel/snr_models.hpp"
#include "core/ber_harness.hpp"
#include "core/trial_runner.hpp"
#include "reader/inventory.hpp"
#include "shm/health.hpp"
#include "wave/material.hpp"

#include "golden_util.hpp"

#ifndef ECOCAP_GOLDEN_DIR
#error "ECOCAP_GOLDEN_DIR must point at tests/golden"
#endif

namespace ecocap {
namespace {

/// Thin wrapper binding the shared golden plumbing (tests/golden_util.hpp)
/// to this suite's vector directory.
void check_golden(const std::string& name, const std::vector<double>& series,
                  const std::map<std::string, double>& scalars) {
  golden::check_golden(ECOCAP_GOLDEN_DIR, name, series, scalars);
}

// --- the five tier-1 slices -------------------------------------------------

TEST(GoldenVectors, Fig15BerVsSnr) {
  // One mid-curve point per decoder with the bench's exact seed formula
  // (42 + 10*snr at snr = 6 dB, 100k bits).
  core::BerConfig cfg;
  cfg.snr_db = 6.0;
  cfg.total_bits = 100000;
  cfg.seed = 42 + 60;
  cfg.decoder = core::UplinkDecoder::kMlFm0;
  const auto ml = core::fm0_ber_monte_carlo(cfg);
  cfg.decoder = core::UplinkDecoder::kHardDecision;
  const auto hard = core::fm0_ber_monte_carlo(cfg);
  check_golden("fig15_ber_vs_snr",
               {ml.ber(), hard.ber(), static_cast<double>(ml.bits),
                static_cast<double>(hard.bits)},
               {{"ml_ber_6db", ml.ber()}, {"hard_ber_6db", hard.ber()}});
}

TEST(GoldenVectors, Fig16SnrVsBitrate) {
  const auto eco =
      channel::UplinkSnrModel::ecocapsule(wave::materials::normal_concrete());
  const auto pab = baseline::PabSystem().snr_model();
  const auto u2b = baseline::U2bSystem().snr_model();
  std::vector<double> series;
  for (const double kbps : {1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 10.0, 12.0, 13.0,
                            14.0, 15.0}) {
    series.push_back(eco.snr_db(kbps * 1000.0));
    series.push_back(pab.snr_db(kbps * 1000.0));
    series.push_back(u2b.snr_db(kbps * 1000.0));
  }
  check_golden("fig16_snr_vs_bitrate", series,
               {{"eco_snr_at_1kbps", eco.snr_db(1000.0)},
                {"eco_snr_at_13kbps", eco.snr_db(13000.0)}});
}

TEST(GoldenVectors, Fig17Throughput) {
  std::vector<double> series;
  std::map<std::string, double> scalars;
  for (const auto& m : wave::materials::table1_concretes()) {
    const auto best =
        channel::max_throughput(channel::UplinkSnrModel::ecocapsule(m));
    series.push_back(best.throughput);
    series.push_back(best.best_bitrate);
    scalars["throughput_" + m.name] = best.throughput;
  }
  check_golden("fig17_throughput", series, scalars);
}

TEST(GoldenVectors, Table2HealthLevels) {
  std::vector<double> series;
  const shm::Region regions[] = {
      shm::Region::kUnitedStates, shm::Region::kHongKong,
      shm::Region::kBangkok, shm::Region::kManila};
  for (const auto r : regions) {
    for (const double t : shm::pao_thresholds(r)) series.push_back(t);
  }
  for (const double pao : {4.0, 3.0, 2.0, 1.2, 0.7, 0.4}) {
    series.push_back(
        static_cast<double>(shm::grade_pao(pao, shm::Region::kHongKong)));
  }
  check_golden(
      "table2_health_levels", series,
      {{"hk_grade_at_0p7",
        static_cast<double>(shm::grade_pao(0.7, shm::Region::kHongKong))}});
}

TEST(GoldenVectors, AblationTdma) {
  // One representative (10 nodes, q = 3) cell of the ablation sweep on the
  // parallel trial engine (block decomposition fixed, so the totals are
  // identical at any thread count).
  struct Acc {
    long slots = 0;
    long collisions = 0;
    long inventoried = 0;
  };
  const core::TrialRunner runner(core::ThreadPool::shared(),
                                 /*block_size=*/2);
  const Acc acc = runner.run<Acc>(
      10, /*base_seed=*/0x7d3a,
      [](std::size_t, dsp::Rng& rng, Acc& a) {
        std::vector<std::unique_ptr<node::Firmware>> fw;
        std::vector<reader::InventoriedNode> nodes;
        for (int i = 0; i < 10; ++i) {
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
        cfg.q = 3;
        cfg.max_rounds = 40;
        reader::InventoryEngine engine(cfg, rng.next_u64());
        const auto r = engine.run(nodes);
        a.slots += r.stats.slots;
        a.collisions += r.stats.collisions;
        a.inventoried += static_cast<long>(r.inventoried_ids.size());
      },
      [](Acc& into, const Acc& from) {
        into.slots += from.slots;
        into.collisions += from.collisions;
        into.inventoried += from.inventoried;
      });
  check_golden("ablation_tdma",
               {static_cast<double>(acc.slots),
                static_cast<double>(acc.collisions),
                static_cast<double>(acc.inventoried)},
               {{"inventoried", static_cast<double>(acc.inventoried)},
                {"collisions", static_cast<double>(acc.collisions)}});
}

}  // namespace
}  // namespace ecocap

int main(int argc, char** argv) {
  return ecocap::golden::golden_test_main(argc, argv);
}
