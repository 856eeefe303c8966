// dsp::Rng's written-down transforms.
//
//  - uniform/index/poisson are the arithmetic libstdc++ runs for the
//    matching <random> distributions on mt19937_64, so those draws kept
//    their bytes when Rng stopped wrapping <random>;
//  - the Gaussian is a 256-layer Ziggurat: an independent scalar
//    reference, written here from the specification (the recurrence in
//    tools/gen_ziggurat_tables.py), rebuilds the checked-in tables and
//    reproduces pinned draws;
//  - the Gaussian's moments and tails over 1e7 draws.

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

#include "dsp/rng.hpp"

namespace ecocap::dsp {
namespace {

constexpr std::uint64_t kSeeds[] = {1, 17, 0xdec0, 0x9e3779b97f4a7c15ULL};

#if defined(__GLIBCXX__) && defined(_GLIBCXX_RELEASE) && _GLIBCXX_RELEASE >= 11
constexpr bool kLibstdcxxReference = true;
#else
constexpr bool kLibstdcxxReference = false;
#endif

constexpr int kReferenceDraws = 1000000;

TEST(RngLibstdcxx, UniformMatchesUniformRealDistribution) {
  if (!kLibstdcxxReference) GTEST_SKIP() << "needs libstdc++ >= 11";
  for (const std::uint64_t seed : kSeeds) {
    Rng rng(seed);
    std::mt19937_64 engine(seed);
    std::uniform_real_distribution<double> ref(0.0, 1.0);
    for (int i = 0; i < kReferenceDraws; ++i) {
      const double want = ref(engine);
      const double got = rng.uniform();
      ASSERT_EQ(std::bit_cast<std::uint64_t>(got),
                std::bit_cast<std::uint64_t>(want))
          << "seed " << seed << " draw " << i;
    }
  }
}

TEST(RngLibstdcxx, IndexMatchesUniformIntDistribution) {
  if (!kLibstdcxxReference) GTEST_SKIP() << "needs libstdc++ >= 11";
  // Powers of two, the firmware's RN16 range, and ranges close to 2^64
  // where Lemire's rejection fires often.
  constexpr std::uint64_t kRanges[] = {1,       2,          3,
                                       7,       1000,       0x10000,
                                       1ULL << 40, (1ULL << 63) + 1,
                                       ~0ULL - 2};
  for (const std::uint64_t seed : kSeeds) {
    Rng rng(seed);
    std::mt19937_64 engine(seed);
    for (int i = 0; i < kReferenceDraws; ++i) {
      const std::uint64_t n = kRanges[i % std::size(kRanges)];
      const std::uint64_t want =
          std::uniform_int_distribution<std::uint64_t>(0, n - 1)(engine);
      ASSERT_EQ(rng.index(n), want)
          << "seed " << seed << " draw " << i << " n " << n;
    }
  }
}

TEST(RngLibstdcxx, PoissonMatchesPoissonDistribution) {
  if (!kLibstdcxxReference) GTEST_SKIP() << "needs libstdc++ >= 11";
  // Both sides of the mean-12 switch, as the pedestrian model (surges
  // push the mean into the hundreds) and the spike injector use them.
  constexpr double kMeans[] = {0.0,  0.05, 0.7,   3.0,   11.999,
                               12.0, 40.0, 310.5, 1300.0};
  for (const std::uint64_t seed : kSeeds) {
    Rng rng(seed);
    std::mt19937_64 engine(seed);
    for (int i = 0; i < kReferenceDraws; ++i) {
      const double mean = kMeans[i % std::size(kMeans)];
      // A zero mean is outside the distribution's domain (the library
      // asserts mean > 0 in debug mode); the multiplication branch
      // still defines it as 0 after one draw.
      const int want =
          mean > 0.0 ? std::poisson_distribution<int>(mean)(engine)
                     : (static_cast<void>(engine()), 0);
      ASSERT_EQ(rng.poisson(mean), want)
          << "seed " << seed << " draw " << i << " mean " << mean;
    }
  }
}

TEST(RngLibstdcxx, NextU64IsTheEngineWord) {
  for (const std::uint64_t seed : kSeeds) {
    Rng rng(seed);
    std::mt19937_64 engine(seed);
    for (int i = 0; i < 1000; ++i) ASSERT_EQ(rng.next_u64(), engine());
  }
}

// --- the Ziggurat, from the specification ----------------------------------

/// A scalar Ziggurat written from the recurrence alone: its own tables,
/// its own bit slicing, its own tail and wedge loops.
class ReferenceZiggurat {
 public:
  static constexpr int kLayers = 256;
  static constexpr double kR = 3.6541528853610088;

  ReferenceZiggurat() {
    const auto f = [](double t) { return std::exp(-0.5 * t * t); };
    const double v = kR * f(kR) + std::sqrt(kPi / 2) *
                                      std::erfc(kR / std::sqrt(2.0));
    std::array<double, kLayers + 1> x{};
    x[0] = v / f(kR);
    x[1] = kR;
    for (int i = 1; i < kLayers - 1; ++i) {
      x[i + 1] = std::sqrt(-2 * std::log(v / x[i] + f(x[i])));
    }
    x[kLayers] = 0.0;
    for (int i = 0; i < kLayers; ++i) {
      k[i] = static_cast<std::uint64_t>(std::floor(0x1p53 * x[i + 1] / x[i]));
      w[i] = x[i] * 0x1p-53;
    }
    fx[0] = f(kR);
    for (int i = 1; i < kLayers; ++i) fx[i] = f(x[i]);
    fx[kLayers] = 1.0;
  }

  double draw(std::mt19937_64& engine) {
    const auto unit = [&engine] {
      const double u = std::ldexp(static_cast<double>(engine()), -64);
      return u < 1.0 ? u : std::nextafter(1.0, 0.0);
    };
    for (;;) {
      const std::uint64_t word = engine();
      const int layer = static_cast<int>(word % 256);
      const bool negative = ((word >> 8) & 1) != 0;
      const std::uint64_t j = word >> 11;
      const double xj = static_cast<double>(j) * w[layer];
      if (j < k[layer]) return negative ? -xj : xj;
      if (layer == 0) {
        ++tail_draws;
        double a, b;
        do {
          a = -std::log1p(-unit()) / kR;
          b = -std::log1p(-unit());
        } while (b + b <= a * a);
        return negative ? -(kR + a) : kR + a;
      }
      ++wedge_tries;
      if (fx[layer] + (fx[layer + 1] - fx[layer]) * unit() <
          std::exp(-xj * xj / 2)) {
        return negative ? -xj : xj;
      }
    }
  }

  std::array<std::uint64_t, kLayers> k{};
  std::array<double, kLayers> w{};
  std::array<double, kLayers + 1> fx{};
  std::uint64_t tail_draws = 0;
  std::uint64_t wedge_tries = 0;
};

std::uint64_t fnv1a(std::uint64_t h, double v) {
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(v);
  for (int i = 0; i < 8; ++i) {
    h ^= (bits >> (8 * i)) & 0xff;
    h *= 0x100000001b3ULL;
  }
  return h;
}

TEST(RngZiggurat, ReferenceRebuildsTheCheckedInTables) {
  const ReferenceZiggurat ref;
  for (int i = 0; i < ReferenceZiggurat::kLayers; ++i) {
    EXPECT_EQ(ref.k[i], detail::kZigK[i]) << "K[" << i << "]";
    EXPECT_EQ(std::bit_cast<std::uint64_t>(ref.w[i]),
              std::bit_cast<std::uint64_t>(detail::kZigW[i]))
        << "W[" << i << "]";
  }
  for (int i = 0; i <= ReferenceZiggurat::kLayers; ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(ref.fx[i]),
              std::bit_cast<std::uint64_t>(detail::kZigF[i]))
        << "F[" << i << "]";
  }
}

TEST(RngZiggurat, ReferenceReproducesPinnedDraws) {
  // The first draws of seed 1, then an FNV-1a digest over 2^20 draws per
  // seed: enough to cross every layer, thousands of wedges and hundreds
  // of tail draws.
  constexpr std::array<std::uint64_t, 8> kFirst = {
      0xbfcd2d4a49c77100ULL, 0x3fd09ca04c27201eULL, 0xbfe3a68c6a3bfe86ULL,
      0x3f9f06fed09d2188ULL, 0xbfe79e8e8aab223fULL, 0x3ffc5cf830f398ecULL,
      0xbfe1d263bb8718d7ULL, 0xbfcbf437380dc7feULL};
  constexpr std::array<std::uint64_t, 2> kDigest = {0xee99e28d3e00a92eULL,
                                                    0x86c8950d3e547b44ULL};
  constexpr std::array<std::uint64_t, 2> kDigestSeeds = {1, 0xdec0};
  constexpr int kDraws = 1 << 20;

  ReferenceZiggurat ref;
  std::mt19937_64 engine(1);
  Rng rng(1);
  for (std::size_t i = 0; i < kFirst.size(); ++i) {
    const double want = ref.draw(engine);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(want), kFirst[i])
        << "reference draw " << i << " = " << std::hexfloat << want;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(rng.gaussian()), kFirst[i])
        << "Rng draw " << i;
  }

  for (std::size_t s = 0; s < kDigestSeeds.size(); ++s) {
    ReferenceZiggurat r;
    std::mt19937_64 e(kDigestSeeds[s]);
    Rng g(kDigestSeeds[s]);
    std::uint64_t h_ref = 0xcbf29ce484222325ULL;
    std::uint64_t h_rng = h_ref;
    for (int i = 0; i < kDraws; ++i) {
      h_ref = fnv1a(h_ref, r.draw(e));
      h_rng = fnv1a(h_rng, g.gaussian());
    }
    EXPECT_EQ(h_ref, kDigest[s]) << "seed " << kDigestSeeds[s] << std::hex
                                 << " reference digest 0x" << h_ref;
    EXPECT_EQ(h_rng, kDigest[s]) << "seed " << kDigestSeeds[s];
    EXPECT_GT(r.tail_draws, 100u);
    EXPECT_GT(r.wedge_tries, 1000u);
  }
}

TEST(RngZiggurat, BlockFillEqualsScalarDraws) {
  Rng block(5);
  Rng scalar(5);
  std::vector<Real> x(1021, 0.25);
  block.add_gaussian(x, 0.3);
  for (std::size_t i = 0; i < x.size(); ++i) {
    const Real want = 0.25 + scalar.gaussian(0.3);
    ASSERT_EQ(std::bit_cast<std::uint64_t>(x[i]),
              std::bit_cast<std::uint64_t>(want))
        << i;
  }
}

TEST(RngZiggurat, MomentsAndTailsOverTenMillionDraws) {
  // Bounds are five standard errors of each estimator at N = 1e7:
  // mean sqrt(1/N), variance sqrt(2/N), kurtosis sqrt(24/N), and a tail
  // probability p sqrt(p/N).
  constexpr int kN = 10000000;
  Rng rng(0x51ab);
  double s1 = 0.0, s2 = 0.0, s4 = 0.0;
  std::uint64_t over3 = 0, over4 = 0, over_r = 0;
  for (int i = 0; i < kN; ++i) {
    const double g = rng.gaussian();
    const double g2 = g * g;
    s1 += g;
    s2 += g2;
    s4 += g2 * g2;
    const double a = std::abs(g);
    over3 += a > 3.0;
    over4 += a > 4.0;
    over_r += a > ReferenceZiggurat::kR;
  }
  const double n = kN;
  const double mean = s1 / n;
  const double var = s2 / n - mean * mean;
  const double kurt = (s4 / n) / (var * var);
  EXPECT_NEAR(mean, 0.0, 5 * std::sqrt(1 / n));
  EXPECT_NEAR(var, 1.0, 5 * std::sqrt(2 / n));
  EXPECT_NEAR(kurt, 3.0, 5 * std::sqrt(24 / n));
  const auto tail = [](double t) { return std::erfc(t / std::sqrt(2.0)); };
  const auto bound = [n](double p) { return 5 * std::sqrt(p / n); };
  EXPECT_NEAR(over3 / n, tail(3.0), bound(tail(3.0)));
  EXPECT_NEAR(over4 / n, tail(4.0), bound(tail(4.0)));
  // Beyond R every draw comes from the tail sampler.
  const double p_r = tail(ReferenceZiggurat::kR);
  EXPECT_NEAR(over_r / n, p_r, bound(p_r));
}

}  // namespace
}  // namespace ecocap::dsp
