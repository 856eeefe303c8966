// Scalar-vs-SIMD equivalence for the runtime-dispatched kernel layer.
//
// The contract (dsp/kernels/kernels.hpp): elementwise maps and the
// canonical striped/block-scan forms are *bit-identical* across every
// table, so these tests compare raw double bit patterns, not tolerances.
// Only the comparison against the old sequential reference (a different
// summation order) is toleranced.

#include <gtest/gtest.h>

#include <cmath>
#include <algorithm>
#include <cstring>
#include <random>
#include <vector>

#include "dsp/biquad.hpp"
#include "dsp/decimate.hpp"
#include "dsp/envelope.hpp"
#include "dsp/kernels/kernels.hpp"
#include "dsp/rng.hpp"

namespace ecocap::dsp::kernels {
namespace {

// Lengths chosen to exercise empty input, sub-block tails, exact block
// multiples, and long buffers; offsets shift the data off 32-byte
// alignment so unaligned SIMD loads are covered.
const std::size_t kLengths[] = {0, 1, 3, 7, 8, 9, 31, 64, 257, 1000, 1023};
const std::size_t kOffsets[] = {0, 1, 3};

Signal random_signal(std::size_t n, std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<Real> dist(-1.0, 1.0);
  Signal out(n);
  for (Real& v : out) v = dist(rng);
  return out;
}

bool bit_equal(Real a, Real b) {
  return std::memcmp(&a, &b, sizeof(Real)) == 0;
}

/// Every non-scalar table that can run on this machine.
std::vector<const KernelTable*> simd_tables() {
  std::vector<const KernelTable*> out;
  for (Isa isa : {Isa::kAvx2, Isa::kNeon}) {
    if (available(isa)) out.push_back(&table(isa));
  }
  return out;
}

TEST(KernelDispatch, IsaNamesParse) {
  Isa isa;
  ASSERT_TRUE(isa_from_name("scalar", isa));
  EXPECT_EQ(isa, Isa::kScalar);
  ASSERT_TRUE(isa_from_name("avx2", isa));
  EXPECT_EQ(isa, Isa::kAvx2);
  ASSERT_TRUE(isa_from_name("neon", isa));
  EXPECT_EQ(isa, Isa::kNeon);
  ASSERT_TRUE(isa_from_name("auto", isa));
  EXPECT_TRUE(available(isa));  // auto always names a runnable table
  EXPECT_FALSE(isa_from_name("sse9", isa));
  EXPECT_FALSE(isa_from_name("", isa));
  EXPECT_FALSE(isa_from_name(nullptr, isa));
}

TEST(KernelDispatch, ScalarAlwaysAvailable) {
  EXPECT_TRUE(available(Isa::kScalar));
  EXPECT_EQ(scalar_table().isa, Isa::kScalar);
  EXPECT_TRUE(available(active_isa()));
}

TEST(KernelDispatch, UnavailableIsaFallsBackToScalar) {
  for (Isa isa : {Isa::kAvx2, Isa::kNeon}) {
    if (!available(isa)) {
      EXPECT_EQ(table(isa).isa, Isa::kScalar);
    } else {
      EXPECT_EQ(table(isa).isa, isa);
    }
  }
}

TEST(KernelEquivalence, DotBitIdenticalAcrossTables) {
  const KernelTable& ref = scalar_table();
  for (const KernelTable* t : simd_tables()) {
    for (std::size_t n : kLengths) {
      for (std::size_t off : kOffsets) {
        const Signal a = random_signal(n + off, 17u + static_cast<std::uint32_t>(n));
        const Signal b = random_signal(n + off, 91u + static_cast<std::uint32_t>(n));
        const Real rs = ref.dot(a.data() + off, b.data() + off, n);
        const Real rv = t->dot(a.data() + off, b.data() + off, n);
        EXPECT_TRUE(bit_equal(rs, rv))
            << isa_name(t->isa) << " dot n=" << n << " off=" << off;
      }
    }
  }
}

TEST(KernelEquivalence, DotMatchesSequentialSumWithinTolerance) {
  // The striped order is a different (but fixed) summation order than the
  // naive sequential loop; agreement is to rounding, not bitwise. This is
  // the documented "tolerance mode" for reductions.
  const Signal a = random_signal(1023, 5);
  const Signal b = random_signal(1023, 6);
  Real seq = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) seq += a[i] * b[i];
  const Real striped = scalar_table().dot(a.data(), b.data(), a.size());
  EXPECT_NEAR(striped, seq, 1e-12 * static_cast<Real>(a.size()));
}

TEST(KernelEquivalence, CorrelateValidBitIdenticalAcrossTables) {
  const KernelTable& ref = scalar_table();
  for (const KernelTable* t : simd_tables()) {
    for (std::size_t nh : {1u, 5u, 32u, 129u}) {
      const std::size_t nx = nh + 100;
      const Signal x = random_signal(nx, 23);
      const Signal h = random_signal(nh, 29);
      Signal out_s(nx - nh + 1), out_v(nx - nh + 1);
      ref.correlate_valid(x.data(), nx, h.data(), nh, out_s.data());
      t->correlate_valid(x.data(), nx, h.data(), nh, out_v.data());
      for (std::size_t k = 0; k < out_s.size(); ++k) {
        ASSERT_TRUE(bit_equal(out_s[k], out_v[k]))
            << isa_name(t->isa) << " nh=" << nh << " k=" << k;
      }
    }
  }
}

TEST(KernelEquivalence, OnepoleAndEnvelopeBitIdenticalAcrossTables) {
  const KernelTable& ref = scalar_table();
  const Real alpha = 0.125;
  for (const KernelTable* t : simd_tables()) {
    for (std::size_t n : kLengths) {
      for (std::size_t off : kOffsets) {
        const Signal x = random_signal(n + off, 7u + static_cast<std::uint32_t>(n));
        Signal ys(n), yv(n);
        Real ss = 0.25, sv = 0.25;
        ref.onepole(x.data() + off, ys.data(), n, alpha, &ss);
        t->onepole(x.data() + off, yv.data(), n, alpha, &sv);
        ASSERT_TRUE(bit_equal(ss, sv)) << isa_name(t->isa) << " n=" << n;
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_TRUE(bit_equal(ys[i], yv[i]))
              << isa_name(t->isa) << " onepole n=" << n << " i=" << i;
        }
        ss = sv = 0.5;
        ref.envelope(x.data() + off, ys.data(), n, alpha, &ss);
        t->envelope(x.data() + off, yv.data(), n, alpha, &sv);
        ASSERT_TRUE(bit_equal(ss, sv)) << isa_name(t->isa) << " n=" << n;
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_TRUE(bit_equal(ys[i], yv[i]))
              << isa_name(t->isa) << " envelope n=" << n << " i=" << i;
        }
      }
    }
  }
}

TEST(KernelEquivalence, BiquadMatchesSeedRecurrenceExactly) {
  // The biquad kernel must be bit-identical to the seed per-sample direct
  // form I — across every table (SIMD tables reuse the scalar recurrence).
  const BiquadCoeffs c{0.2, 0.3, 0.1, -0.5, 0.25};
  const Signal x = random_signal(1000, 11);
  Signal seed_y(x.size());
  Real x1 = 0.0, x2 = 0.0, y1 = 0.0, y2 = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const Real yi =
        c.b0 * x[i] + c.b1 * x1 + c.b2 * x2 - c.a1 * y1 - c.a2 * y2;
    x2 = x1;
    x1 = x[i];
    y2 = y1;
    y1 = yi;
    seed_y[i] = yi;
  }
  std::vector<const KernelTable*> tables = simd_tables();
  tables.push_back(&scalar_table());
  for (const KernelTable* t : tables) {
    Signal y(x.size());
    BiquadState s;
    t->biquad(x.data(), y.data(), x.size(), c, s);
    for (std::size_t i = 0; i < x.size(); ++i) {
      ASSERT_TRUE(bit_equal(seed_y[i], y[i])) << isa_name(t->isa) << " " << i;
    }
    EXPECT_TRUE(bit_equal(s.y1, y1));
    EXPECT_TRUE(bit_equal(s.y2, y2));
  }
}

TEST(KernelEquivalence, BiquadInPlaceMatchesOutOfPlace) {
  const BiquadCoeffs c{0.2, 0.3, 0.1, -0.5, 0.25};
  Signal x = random_signal(333, 13);
  Signal y(x.size());
  BiquadState s1, s2;
  active().biquad(x.data(), y.data(), x.size(), c, s1);
  active().biquad(x.data(), x.data(), x.size(), c, s2);  // in place
  for (std::size_t i = 0; i < x.size(); ++i) {
    ASSERT_TRUE(bit_equal(x[i], y[i])) << i;
  }
}

TEST(KernelEquivalence, BiquadCascadeMatchesSequentialSections) {
  const BiquadCoeffs cs[2] = {{0.2, 0.3, 0.1, -0.5, 0.25},
                              {0.7, -0.1, 0.05, 0.3, -0.2}};
  const Signal x = random_signal(500, 19);
  Signal y_cascade(x.size());
  BiquadState st_cascade[2];
  biquad_cascade(x.data(), y_cascade.data(), x.size(), cs, st_cascade, 2);
  Signal mid(x.size()), y_seq(x.size());
  BiquadState st_seq[2];
  active().biquad(x.data(), mid.data(), x.size(), cs[0], st_seq[0]);
  active().biquad(mid.data(), y_seq.data(), x.size(), cs[1], st_seq[1]);
  for (std::size_t i = 0; i < x.size(); ++i) {
    ASSERT_TRUE(bit_equal(y_cascade[i], y_seq[i])) << i;
  }
}

TEST(KernelEquivalence, FdtdRowsBitIdenticalAcrossTables) {
  const std::size_t nx = 67;  // odd width -> SIMD tail path exercised
  const KernelTable& ref = scalar_table();
  for (const KernelTable* t : simd_tables()) {
    for (bool with_forces : {false, true}) {
      // Three rows of every field; the kernels update the middle row.
      auto mk = [&](std::uint32_t seed) { return random_signal(3 * nx, seed); };
      Signal vx_s = mk(1), vy_s = mk(2), sxx = mk(3), syy = mk(4), sxy = mk(5);
      Signal rho = mk(6), lambda = mk(7), mu = mk(8);
      for (Real& v : rho) v = std::abs(v) + 0.5;
      Signal fx_s = mk(9), fy_s = mk(10);
      Signal vx_v = vx_s, vy_v = vy_s, fx_v = fx_s, fy_v = fy_s;

      auto velocity_args = [&](Signal& vx, Signal& vy, Signal& fx,
                               Signal& fy) {
        FdtdVelocityRowArgs a{};
        a.vx = vx.data() + nx;
        a.vy = vy.data() + nx;
        a.sxx = sxx.data() + nx;
        a.sxy = sxy.data() + nx;
        a.sxy_dn = sxy.data();
        a.syy = syy.data() + nx;
        a.syy_up = syy.data() + 2 * nx;
        a.rho = rho.data() + nx;
        a.fx = with_forces ? fx.data() + nx : nullptr;
        a.fy = with_forces ? fy.data() + nx : nullptr;
        a.i0 = 1;
        a.i1 = nx - 1;
        a.dt = 1e-7;
        a.inv_dx = 500.0;
        return a;
      };
      const auto as = velocity_args(vx_s, vy_s, fx_s, fy_s);
      ref.fdtd_velocity_row(as);
      const auto av = velocity_args(vx_v, vy_v, fx_v, fy_v);
      t->fdtd_velocity_row(av);
      for (std::size_t i = 0; i < 3 * nx; ++i) {
        ASSERT_TRUE(bit_equal(vx_s[i], vx_v[i]))
            << isa_name(t->isa) << " vx i=" << i << " forces=" << with_forces;
        ASSERT_TRUE(bit_equal(vy_s[i], vy_v[i]))
            << isa_name(t->isa) << " vy i=" << i << " forces=" << with_forces;
        ASSERT_TRUE(bit_equal(fx_s[i], fx_v[i]))
            << isa_name(t->isa) << " fx i=" << i << " forces=" << with_forces;
      }
      if (with_forces) {
        // Consumed entries must be zeroed by the pass itself.
        for (std::size_t i = 1; i + 1 < nx; ++i) {
          EXPECT_EQ(fx_v[nx + i], 0.0);
          EXPECT_EQ(fy_v[nx + i], 0.0);
        }
      }

      Signal sxx_s = mk(11), syy_s = mk(12), sxy_s = mk(13);
      Signal sxx_v = sxx_s, syy_v = syy_s, sxy_v = sxy_s;
      auto stress_args = [&](Signal& osxx, Signal& osyy, Signal& osxy) {
        FdtdStressRowArgs a{};
        a.sxx = osxx.data() + nx;
        a.syy = osyy.data() + nx;
        a.sxy = osxy.data() + nx;
        a.vx = vx_s.data() + nx;
        a.vx_up = vx_s.data() + 2 * nx;
        a.vy = vy_s.data() + nx;
        a.vy_dn = vy_s.data();
        a.lambda = lambda.data() + nx;
        a.mu = mu.data() + nx;
        a.i0 = 1;
        a.i1 = nx - 1;
        a.dt = 1e-7;
        a.inv_dx = 500.0;
        return a;
      };
      const auto ss = stress_args(sxx_s, syy_s, sxy_s);
      ref.fdtd_stress_row(ss);
      const auto sv = stress_args(sxx_v, syy_v, sxy_v);
      t->fdtd_stress_row(sv);
      for (std::size_t i = 0; i < 3 * nx; ++i) {
        ASSERT_TRUE(bit_equal(sxx_s[i], sxx_v[i]))
            << isa_name(t->isa) << " sxx i=" << i;
        ASSERT_TRUE(bit_equal(syy_s[i], syy_v[i]))
            << isa_name(t->isa) << " syy i=" << i;
        ASSERT_TRUE(bit_equal(sxy_s[i], sxy_v[i]))
            << isa_name(t->isa) << " sxy i=" << i;
      }
    }
  }
}

TEST(KernelUsers, OnePoleOutParamDoesNotAllocateAtSteadyState) {
  OnePoleLowpass lp(1.0e6, 10.0e3);
  const Signal x = random_signal(4096, 31);
  Signal out;
  lp.process(x, out);  // first call sizes the buffer
  const Real* stable = out.data();
  for (int pass = 0; pass < 8; ++pass) {
    lp.process(x, out);
    EXPECT_EQ(out.data(), stable) << "buffer reallocated on pass " << pass;
  }
}

TEST(KernelUsers, EnvelopeDetectorBatchMatchesKernel) {
  EnvelopeDetector det(1.0e6, 20.0e3);
  const Signal x = random_signal(1000, 37);
  Signal batch;
  det.process(x, batch);
  det.reset();
  Signal direct(x.size());
  Real state = 0.0;
  active().envelope(x.data(), direct.data(), x.size(),
                    1.0 - std::exp(-kTwoPi * 20.0e3 / 1.0e6), &state);
  for (std::size_t i = 0; i < x.size(); ++i) {
    ASSERT_TRUE(bit_equal(batch[i], direct[i])) << i;
  }
}

TEST(KernelUsers, LowpassDecimateBitIdenticalAcrossTables) {
  // Each kept output of the decimating low-pass is one dot over a
  // zero-padded rail and the reversed taps; recomputing that dot with the
  // scalar table and every runnable SIMD table must give the same bits.
  std::vector<const KernelTable*> tables = simd_tables();
  tables.push_back(&scalar_table());
  for (const std::size_t taps : {129UL, 16UL}) {
    const Signal h = random_signal(taps, 41);
    const Signal rev(h.rbegin(), h.rend());
    const std::size_t lead = taps - 1 - (taps - 1) / 2;
    for (const std::size_t n : {100UL, 5001UL}) {
      const Signal re = random_signal(n, 43);
      const Signal im = random_signal(n, 47);
      ComplexSignal z(n);
      for (std::size_t i = 0; i < n; ++i) z[i] = Complex(re[i], im[i]);
      for (const std::size_t m : {1UL, 62UL}) {
        Workspace ws;
        ComplexSignal got;
        lowpass_decimate(h, z, m, ws, got);
        ASSERT_EQ(got.size(), (n + m - 1) / m);
        for (const Signal* src : {&re, &im}) {
          Signal rail(n + taps - 1, 0.0);
          std::copy(src->begin(), src->end(), rail.begin() + lead);
          for (const KernelTable* t : tables) {
            for (std::size_t k = 0; k < got.size(); ++k) {
              const Real want = t->dot(rail.data() + k * m, rev.data(), taps);
              const Real have =
                  (src == &re) ? got[k].real() : got[k].imag();
              ASSERT_TRUE(bit_equal(want, have))
                  << isa_name(t->isa) << " taps=" << taps << " n=" << n
                  << " m=" << m << " k=" << k;
            }
          }
        }
      }
    }
  }
}

TEST(KernelEquivalence, MtTwistBitIdenticalAcrossTables) {
  std::vector<std::uint64_t> ref(dsp::detail::kMtN);
  std::uint64_t seed = 0x7a157;
  for (std::uint64_t& w : ref) w = seed = dsp::splitmix64(seed);
  for (const KernelTable* t : simd_tables()) {
    std::vector<std::uint64_t> scalar_state = ref;
    // One word of slack in front: the SIMD table must not need alignment.
    std::vector<std::uint64_t> simd_buf(dsp::detail::kMtN + 1);
    std::copy(ref.begin(), ref.end(), simd_buf.begin() + 1);
    for (int twist = 0; twist < 1000; ++twist) {
      scalar_table().mt_twist(scalar_state.data());
      t->mt_twist(simd_buf.data() + 1);
      ASSERT_TRUE(std::equal(scalar_state.begin(), scalar_state.end(),
                             simd_buf.begin() + 1))
          << isa_name(t->isa) << " twist " << twist;
    }
  }
}

TEST(KernelUsers, GaussianFillBitIdenticalAcrossTables) {
  // Rng::add_gaussian on every runnable table, in blocks of each size,
  // from each engine index 308..312 so runs cross the twist, must give
  // the per-sample Rng::gaussian() loop's samples and leave the engine on
  // the same next word. The reference draws are sorted by the path their
  // first word takes, so the wedge and the layer-0 tail are known to run.
  constexpr dsp::Real kSigma = 0.75;
  constexpr std::size_t kDraws = 1 << 18;  // per start index
  const std::size_t kBlocks[] = {1, 3, 4, 5, 7, 64, 65, 256, 1021};
  std::vector<const KernelTable*> tables = simd_tables();
  tables.push_back(&scalar_table());

  const auto start_at = [](std::size_t index) {
    dsp::Rng rng(0xf111);
    for (std::size_t i = 0; i < index; ++i) rng.next_u64();
    return rng;
  };
  Signal init(kDraws);
  for (std::size_t i = 0; i < kDraws; ++i) {
    init[i] = 0.001 * static_cast<dsp::Real>(i % 97) - 0.05;
  }

  std::size_t fast = 0, wedge = 0, tail = 0;
  for (std::size_t index = 308; index <= dsp::detail::kMtN; ++index) {
    dsp::Rng ref_rng = start_at(index);
    Signal want = init;
    for (dsp::Real& v : want) {
      dsp::Rng probe = ref_rng;
      const std::uint64_t u = probe.next_u64();
      if ((u >> 11) < dsp::detail::kZigK[u & 0xff]) {
        ++fast;
      } else if ((u & 0xff) == 0) {
        ++tail;
      } else {
        ++wedge;
      }
      v += kSigma * ref_rng.gaussian();
    }
    const std::uint64_t want_next = ref_rng.next_u64();

    for (const KernelTable* t : tables) {
      for (const std::size_t block : kBlocks) {
        dsp::Rng rng = start_at(index);
        Signal got = init;
        for (std::size_t i = 0; i < kDraws; i += block) {
          const std::size_t n = std::min(block, kDraws - i);
          rng.add_gaussian(std::span<dsp::Real>(got.data() + i, n), kSigma,
                           *t);
        }
        const auto diff =
            std::mismatch(got.begin(), got.end(), want.begin(), bit_equal);
        ASSERT_EQ(diff.first, got.end())
            << isa_name(t->isa) << " index " << index << " block " << block
            << " first differing sample " << (diff.first - got.begin());
        ASSERT_EQ(rng.next_u64(), want_next)
            << isa_name(t->isa) << " index " << index << " block " << block;
      }
    }
  }
  EXPECT_GE(fast + wedge + tail, 1000000u);
  EXPECT_GT(wedge, 1000u);
  EXPECT_GT(tail, 10u);
}

}  // namespace
}  // namespace ecocap::dsp::kernels
