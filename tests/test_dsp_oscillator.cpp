// The block phasor NCO behind dsp::Oscillator: the same bytes from next(),
// generate() and add_to() under any block split, sin(phase) to 1e-12
// through FSK hops, and checkpoints that resume between anchors.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "channel/concrete_channel.hpp"
#include "core/link_simulator.hpp"
#include "dsp/oscillator.hpp"
#include "dsp/rng.hpp"
#include "dsp/serialize.hpp"
#include "stream/stream_stages.hpp"

namespace ecocap::dsp {
namespace {

constexpr Real kFs = 2.0e6;
constexpr Real kFOn = 230.0e3;
constexpr Real kFOff = 180.0e3;

/// FSK hop schedule: the frequency to hold from sample `at` onwards.
struct Hop {
  std::size_t at;
  Real frequency;
};

const std::vector<Hop>& hops() {
  static const std::vector<Hop> h = {
      {0, kFOn}, {3001, kFOff}, {4500, kFOn}, {9999, kFOff}, {12345, kFOn}};
  return h;
}

Real frequency_at(std::size_t pos) {
  Real f = kFOn;
  for (const Hop& h : hops()) {
    if (h.at <= pos) f = h.frequency;
  }
  return f;
}

/// Samples [0, n) produced `block` at a time by `produce(osc, len, out)`,
/// with the frequency hopped at the schedule's sample indices.
template <class Produce>
std::vector<Real> run_split(std::size_t n, std::size_t block,
                            Produce&& produce) {
  Oscillator osc(kFs, kFOn);
  std::vector<Real> out(n);
  std::size_t pos = 0;
  while (pos < n) {
    if (osc.frequency() != frequency_at(pos)) {
      osc.set_frequency(frequency_at(pos));
    }
    std::size_t len = std::min(block, n - pos);
    for (const Hop& h : hops()) {
      if (h.at > pos && h.at < pos + len) len = h.at - pos;
    }
    produce(osc, std::span<Real>(out.data() + pos, len));
    pos += len;
  }
  return out;
}

TEST(Nco, NextGenerateAndBlockSplitsGiveIdenticalBytes) {
  constexpr std::size_t kN = 20000;
  constexpr Real kAmp = 0.7;
  const std::vector<Real> ref =
      run_split(kN, 1, [](Oscillator& o, std::span<Real> s) {
        for (Real& v : s) v = o.next(kAmp);
      });
  for (const std::size_t block : {1u, 7u, 64u, 65u, 256u, 1021u}) {
    const std::vector<Real> gen =
        run_split(kN, block, [](Oscillator& o, std::span<Real> s) {
          Signal b;
          o.generate(s.size(), kAmp, b);
          std::copy(b.begin(), b.end(), s.begin());
        });
    const std::vector<Real> add =
        run_split(kN, block, [](Oscillator& o, std::span<Real> s) {
          std::fill(s.begin(), s.end(), 0.0);
          o.add_to(s, kAmp);
        });
    for (std::size_t i = 0; i < kN; ++i) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(gen[i]),
                std::bit_cast<std::uint64_t>(ref[i]))
          << "generate, block " << block << " at " << i;
      // 0.0 + v: equal in value (a -0.0 sample would come back +0.0).
      ASSERT_EQ(add[i], ref[i]) << "add_to, block " << block << " at " << i;
    }
  }
}

TEST(Nco, TracksSinOfPhaseThroughFskHops) {
  // 1e7 samples; the frequency hops every 1000-3000 samples so anchors
  // land at every offset from a hop.
  constexpr std::size_t kN = 10000000;
  Oscillator osc(kFs, kFOn);
  Rng hop_rng(7);
  std::size_t next_hop = 1000;
  Real worst = 0.0;
  for (std::size_t i = 0; i < kN; ++i) {
    if (i == next_hop) {
      osc.set_frequency(osc.frequency() == kFOn ? kFOff : kFOn);
      next_hop += 1000 + hop_rng.index(2001);
    }
    const Real want = std::sin(osc.phase());
    worst = std::max(worst, std::abs(osc.next() - want));
  }
  EXPECT_LE(worst, 1e-12);
  EXPECT_GT(worst, 0.0);  // samples between anchors come from the table
}

TEST(Nco, ResetPhaseReanchors) {
  Oscillator osc(kFs, kFOn);
  for (int i = 0; i < 30; ++i) osc.next();
  osc.reset_phase(1.25);
  EXPECT_EQ(osc.next(2.0), 2.0 * std::sin(1.25));
}

/// Checkpoint `a` into a fresh `b`, then check both continue with the
/// same `n` samples.
template <class T, class Make, class Step>
void expect_resume_identical(T& a, Make&& make, Step&& step, std::size_t n) {
  ser::Writer w("nco-test v1");
  w.object(a);
  T b = make();
  ser::Reader r(w.payload(), "nco-test v1");
  r.object(b);
  r.finish();
  const Signal want = step(a, n);
  const Signal got = step(b, n);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got[i]),
              std::bit_cast<std::uint64_t>(want[i]))
        << "sample " << i;
  }
}

TEST(Nco, CheckpointBetweenAnchorsResumesByteIdentically) {
  Oscillator a(kFs, kFOn);
  for (int i = 0; i < 100; ++i) a.next();  // 36 samples past an anchor
  a.set_frequency(kFOff);
  for (int i = 0; i < 21; ++i) a.next();
  expect_resume_identical(
      a, [] { return Oscillator(kFs, kFOn); },
      [](Oscillator& o, std::size_t n) { return o.generate(n, 0.5); }, 1000);
}

TEST(Nco, TxStageResumesBetweenAnchors) {
  const reader::TransmitterConfig cfg;
  stream::TxStage a(cfg);
  Signal scratch;
  a.fill_block(1000, scratch);  // 1000 = 15 * 64 + 40
  expect_resume_identical(
      a, [&cfg] { return stream::TxStage(cfg); },
      [](stream::TxStage& s, std::size_t n) {
        Signal out;
        s.fill_block(n, out);
        return out;
      },
      777);
}

TEST(Nco, UplinkSiResumesBetweenAnchors) {
  using UplinkStream = channel::ConcreteChannel::UplinkStream;
  const core::SystemConfig system = core::default_system();
  const channel::ConcreteChannel channel(system.structure, system.channel);
  Rng phase_a(11);
  UplinkStream a(channel, kFOn, phase_a);
  Rng noise(12);
  Signal x(300, 0.0);
  a.push_block(x, 0.05, noise);  // 300 = 4 * 64 + 44

  ser::Writer w("nco-test v1");
  w.object(a);
  w.field("noise", noise);
  Rng phase_b(99);
  UplinkStream b(channel, kFOn, phase_b);
  Rng noise_b(0);
  ser::Reader r(w.payload(), "nco-test v1");
  r.object(b);
  r.field("noise", noise_b);
  r.finish();

  Signal xa(500, 0.0);
  Signal xb(500, 0.0);
  a.push_block(xa, 0.05, noise);
  b.push_block(xb, 0.05, noise_b);
  for (std::size_t i = 0; i < xa.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(xb[i]),
              std::bit_cast<std::uint64_t>(xa[i]))
        << "sample " << i;
  }
}

}  // namespace
}  // namespace ecocap::dsp
