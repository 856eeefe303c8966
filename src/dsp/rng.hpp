#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <istream>
#include <ostream>
#include <span>

#include "dsp/types.hpp"

namespace ecocap::dsp {

namespace kernels {
struct KernelTable;
}  // namespace kernels

/// SplitMix64 finalizer: a bijective avalanche mix over 64-bit words. Used
/// to derive well-separated seeds from (base seed, counter) pairs without
/// any sequential state, so seed derivation itself is parallel-safe.
constexpr std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Counter-derived seed for trial `trial_index` of an experiment seeded with
/// `base_seed`. Two mixing rounds keep nearby (seed, index) pairs far apart
/// in seed space; the result depends only on the pair, never on execution
/// order, which is what makes sharded Monte-Carlo sweeps bit-identical
/// regardless of thread count.
constexpr std::uint64_t trial_seed(std::uint64_t base_seed,
                                   std::uint64_t trial_index) {
  return splitmix64(splitmix64(base_seed) ^
                    splitmix64(trial_index + 0x5851f42d4c957f2dULL));
}

namespace detail {
/// Ziggurat tables of Rng::gaussian, 256 layers (src/dsp/ziggurat_tables.cpp,
/// generated by tools/gen_ziggurat_tables.py): accept threshold on the
/// 53-bit draw, draw-to-abscissa scale, and f(x) = exp(-x^2/2) at each
/// layer edge.
extern const std::uint64_t kZigK[256];
extern const double kZigW[256];
extern const double kZigF[257];

/// MT19937-64 (Matsumoto & Nishimura 2000; the parameters the C++
/// standard gives std::mt19937_64): 312 state words, the twist's middle
/// offset, its matrix and the split between the upper 33 and lower 31
/// bits of a word.
inline constexpr std::size_t kMtN = 312;
inline constexpr std::size_t kMtM = 156;
inline constexpr std::uint64_t kMtMatrixA = 0xb5026f5aa96619e9ULL;
inline constexpr std::uint64_t kMtUpperMask = 0xffffffff80000000ULL;
inline constexpr std::uint64_t kMtLowerMask = 0x000000007fffffffULL;

/// Tempering masks: bits kept by the second and third tempering steps.
inline constexpr std::uint64_t kMtTemperD = 0x5555555555555555ULL;
inline constexpr std::uint64_t kMtTemperB = 0x71d67fffeda60000ULL;
inline constexpr std::uint64_t kMtTemperC = 0xfff7eee000000000ULL;

/// -x when bit 8 of `u` is set, else x: the bit becomes the sign bit, so
/// no branch on a coin flip has to be predicted.
inline Real negate_if_bit8(Real x, std::uint64_t u) {
  return std::bit_cast<Real>(std::bit_cast<std::uint64_t>(x) ^
                             ((u & 0x100) << 55));
}

/// The output word of state word `x`.
constexpr std::uint64_t mt_temper(std::uint64_t x) {
  x ^= (x >> 29) & kMtTemperD;
  x ^= (x << 17) & kMtTemperB;
  x ^= (x << 37) & kMtTemperC;
  return x ^ (x >> 43);
}
}  // namespace detail

/// Deterministic random source for all stochastic models (noise, traffic,
/// slot selection). Every experiment seeds its own Rng so runs are exactly
/// reproducible; nothing in the library touches global random state.
///
/// The engine is a written-down MT19937-64 whose words are exactly those
/// of std::mt19937_64: seeding in rng.cpp, tempering above, and the twist
/// on the kernel tables (kernels_scalar.cpp is the canonical loop). The
/// transforms on top are written down too rather than taken from
/// <random>, whose distributions are implementation-defined:
///  - gaussian: a 256-layer Ziggurat (Marsaglia & Tsang 2000) on one
///    64-bit word: bits 0-7 pick the layer, bit 8 the sign, bits 11-63
///    are the 53-bit abscissa draw. libm is called only on the wedge and
///    tail paths (about 1 draw in 100).
///  - uniform: double(word) * 2^-64, clamped below 1.
///  - index: Lemire's multiply-shift with rejection on a 128-bit product.
///  - poisson: multiplication of uniforms below mean 12, Devroye's
///    rejection method above.
/// uniform, index and poisson are the arithmetic libstdc++ (GCC 11-13)
/// runs for the matching <random> distributions on this engine, so those
/// draws keep the bytes they had when Rng wrapped <random>.
class Rng {
 public:
  explicit Rng(std::uint64_t seed);

  /// Next raw 64-bit engine word.
  std::uint64_t next_u64() {
    if (index_ >= detail::kMtN) twist();
    return detail::mt_temper(state_[index_++]);
  }

  /// Standard-normal variate.
  Real gaussian() {
    const std::uint64_t u = next_u64();
    const std::uint64_t layer = u & 0xff;
    const std::uint64_t m = u >> 11;
    if (m < detail::kZigK[layer]) {
      const Real x = static_cast<Real>(m) * detail::kZigW[layer];
      return detail::negate_if_bit8(x, u);
    }
    return gaussian_slow(u);
  }

  /// Normal variate with the given standard deviation.
  Real gaussian(Real sigma) { return sigma * gaussian(); }

  /// x[i] += gaussian(sigma) over the span, in order. Runs of fast-path
  /// draws and the twist go through the active kernel table; the result
  /// is the per-sample loop's, bit for bit, on every table.
  void add_gaussian(std::span<Real> x, Real sigma);

  /// add_gaussian on the given kernel table, so tables can be compared.
  void add_gaussian(std::span<Real> x, Real sigma,
                    const kernels::KernelTable& k);

  /// Uniform in [0, 1).
  Real uniform() {
    const Real u = static_cast<Real>(next_u64()) * 0x1p-64;
    return u < 1.0 ? u : 0x1.fffffffffffffp-1;
  }

  /// Uniform in [lo, hi).
  Real uniform(Real lo, Real hi) { return lo + (hi - lo) * uniform(); }

  /// Uniform integer in [0, n); n = 0 stands for 2^64 (one raw word).
  std::uint64_t index(std::uint64_t n);

  /// Bernoulli trial with success probability p.
  bool chance(Real p) { return uniform() < p; }

  /// Poisson variate with the given mean.
  int poisson(Real mean);

  /// Checkpoint text of the generator state (the engine's; the transforms
  /// carry none): the 312 state words in decimal, then the index of the
  /// next word, separated by single spaces. This is the text libstdc++'s
  /// `os << std::mt19937_64` writes, whatever the stream's flags, fill or
  /// width (none of which save changes, apart from consuming the width).
  void save(std::ostream& os) const;

  /// Reads save's text up to the end of the line. A loaded Rng continues
  /// the exact draw sequence of the saved one. Fewer than 312 words, an
  /// index above 312, a token that is not a decimal word, or anything
  /// after the index sets failbit and leaves the Rng unchanged.
  void load(std::istream& is);

 private:
  /// Regenerate all 312 state words and restart at index 0.
  void twist();

  /// Wedge and tail of the Ziggurat for a word that missed the fast
  /// accept.
  Real gaussian_slow(std::uint64_t u);

  std::array<std::uint64_t, detail::kMtN> state_;
  std::size_t index_;
};

/// Fresh per-trial Rng for Monte-Carlo sweeps: trial `trial_index` of an
/// experiment seeded with `base_seed` always gets the same stream, so a
/// sweep can be sharded across any number of workers and still reproduce
/// the single-threaded run bit for bit.
inline Rng trial_rng(std::uint64_t base_seed, std::uint64_t trial_index) {
  return Rng(trial_seed(base_seed, trial_index));
}

}  // namespace ecocap::dsp
