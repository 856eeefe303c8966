// Micro-benchmarks (google-benchmark) for the hot paths that the Monte
// Carlo experiment harnesses lean on: FFT, FIR filtering (direct vs the
// overlap-save FFT path), correlation, zero-phase filtering, FM0 Viterbi
// decode, the envelope detector, the waveform-level concrete channel, and
// threaded FDTD stepping.
//
// Besides the google-benchmark table, main() times the headline
// direct-vs-FFT and 1-vs-N-thread comparisons with a plain chrono loop and
// writes them to BENCH_micro_dsp.json (schema in docs/benchmarks.md), so
// the perf trajectory of this PR's kernels is machine-readable.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.hpp"
#include "channel/concrete_channel.hpp"
#include "core/ber_harness.hpp"
#include "core/link_simulator.hpp"
#include "core/thread_pool.hpp"
#include "core/workspace_pool.hpp"
#include "dsp/correlate.hpp"
#include "dsp/decimate.hpp"
#include "dsp/envelope.hpp"
#include "dsp/fast_convolve.hpp"
#include "dsp/fft.hpp"
#include "dsp/fir.hpp"
#include "dsp/kernels/kernels.hpp"
#include "dsp/oscillator.hpp"
#include "dsp/rng.hpp"
#include "wave/fdtd.hpp"
#include "phy/carrier.hpp"
#include "phy/fm0.hpp"
#include "reader/receiver.hpp"

using namespace ecocap;

static void BM_Fft(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const dsp::Signal x = dsp::tone(1.0e6, 230.0e3, n, 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dsp::magnitude_spectrum(x));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_Fft)->Arg(1 << 12)->Arg(1 << 15)->Arg(1 << 17);

static void BM_FirFilterScalar(benchmark::State& state) {
  // The seed's per-sample delay-line path (also today's direct fallback).
  const dsp::Signal h = dsp::design_lowpass(1.0e6, 50.0e3, 129);
  const dsp::Signal x = dsp::tone(1.0e6, 30.0e3, 1 << 15, 1.0);
  dsp::FirFilter f(h);
  for (auto _ : state) {
    dsp::Signal out(x.size());
    for (std::size_t i = 0; i < x.size(); ++i) out[i] = f.process(x[i]);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(x.size()));
}
BENCHMARK(BM_FirFilterScalar);

static void BM_FirFilter(benchmark::State& state) {
  // Batch path: dispatches to overlap-save FFT convolution at this size.
  const dsp::Signal h = dsp::design_lowpass(1.0e6, 50.0e3, 129);
  const dsp::Signal x = dsp::tone(1.0e6, 30.0e3, 1 << 15, 1.0);
  dsp::FirFilter f(h);
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.process(x));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(x.size()));
}
BENCHMARK(BM_FirFilter);

static void BM_FilterZeroPhase(benchmark::State& state) {
  const auto taps = static_cast<std::size_t>(state.range(0));
  const dsp::Signal h = dsp::design_lowpass(1.0e6, 50.0e3, taps);
  const dsp::Signal x = dsp::tone(1.0e6, 30.0e3, 1 << 15, 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dsp::filter_zero_phase(h, x));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(x.size()));
}
BENCHMARK(BM_FilterZeroPhase)->Arg(15)->Arg(129)->Arg(513);

static void BM_CorrelateDirect(benchmark::State& state) {
  const dsp::Signal x = dsp::tone(1.0e6, 30.0e3, 1 << 15, 1.0);
  const dsp::Signal h = dsp::tone(1.0e6, 30.0e3, 512, 1.0);
  for (auto _ : state) {
    // Inline brute-force sliding dot product (the seed path).
    const std::size_t out_len = x.size() - h.size() + 1;
    dsp::Signal out(out_len, 0.0);
    for (std::size_t k = 0; k < out_len; ++k) {
      dsp::Real acc = 0.0;
      for (std::size_t i = 0; i < h.size(); ++i) acc += x[k + i] * h[i];
      out[k] = acc;
    }
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(x.size()));
}
BENCHMARK(BM_CorrelateDirect);

static void BM_CorrelateFft(benchmark::State& state) {
  const dsp::Signal x = dsp::tone(1.0e6, 30.0e3, 1 << 15, 1.0);
  const dsp::Signal h = dsp::tone(1.0e6, 30.0e3, 512, 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dsp::correlate_valid_fft(x, h));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(x.size()));
}
BENCHMARK(BM_CorrelateFft);

static void BM_Fm0Decode(benchmark::State& state) {
  dsp::Rng rng(1);
  const phy::Bits bits = phy::random_bits(256, rng);
  const dsp::Signal x = phy::fm0_encode(bits, 32.0, 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(phy::fm0_decode(x, 32.0, bits.size()));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 256);
}
BENCHMARK(BM_Fm0Decode);

static void BM_Envelope(benchmark::State& state) {
  const dsp::Signal x = dsp::tone(2.0e6, 230.0e3, 1 << 16, 1.0);
  dsp::EnvelopeDetector det(2.0e6, 20.0e3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(det.process(x));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(x.size()));
}
BENCHMARK(BM_Envelope);

static void BM_ConcreteChannelDownlink(benchmark::State& state) {
  channel::ChannelConfig cfg;
  cfg.distance = 0.5;
  const channel::ConcreteChannel ch(channel::structures::s3_common_wall(),
                                    cfg);
  const dsp::Signal x = dsp::tone(cfg.fs, 230.0e3, 1 << 16, 1.0);
  dsp::Rng rng(2);
  dsp::Signal y;
  for (auto _ : state) {
    ch.downlink(x, rng, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(x.size()));
}
BENCHMARK(BM_ConcreteChannelDownlink);

static void BM_ConcreteChannelUplink(benchmark::State& state) {
  channel::ChannelConfig cfg;
  cfg.distance = 0.5;
  const channel::ConcreteChannel ch(channel::structures::s3_common_wall(),
                                    cfg);
  const dsp::Signal x = dsp::tone(cfg.fs, 230.0e3, 1 << 16, 0.01);
  dsp::Rng rng(3);
  dsp::Signal y;
  for (auto _ : state) {
    ch.uplink(x, 230.0e3, rng, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(x.size()));
}
BENCHMARK(BM_ConcreteChannelUplink);

static void BM_FdtdStep(benchmark::State& state) {
  core::ThreadPool serial(1);
  wave::ElasticFdtd::Config cfg;
  cfg.nx = static_cast<std::size_t>(state.range(0));
  cfg.ny = cfg.nx;
  cfg.pool = &serial;
  wave::ElasticFdtd sim(wave::materials::reference_concrete(), cfg);
  sim.add_force(cfg.nx / 2, cfg.ny / 2, 1, 1.0);
  for (auto _ : state) {
    sim.step();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(cfg.nx * cfg.ny));
}
BENCHMARK(BM_FdtdStep)->Arg(128)->Arg(256);

static void BM_FdtdStepThreads(benchmark::State& state) {
  core::ThreadPool pool(static_cast<unsigned>(state.range(1)));
  wave::ElasticFdtd::Config cfg;
  cfg.nx = static_cast<std::size_t>(state.range(0));
  cfg.ny = cfg.nx;
  cfg.pool = &pool;
  wave::ElasticFdtd sim(wave::materials::reference_concrete(), cfg);
  sim.add_force(cfg.nx / 2, cfg.ny / 2, 1, 1.0);
  for (auto _ : state) {
    sim.step();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(cfg.nx * cfg.ny));
}
BENCHMARK(BM_FdtdStepThreads)->Args({256, 1})->Args({256, 2})->Args({256, 4});

static void BM_BerTrial(benchmark::State& state) {
  core::BerConfig cfg;
  cfg.snr_db = 8.0;
  cfg.total_bits = 4096;
  for (auto _ : state) {
    cfg.seed++;
    benchmark::DoNotOptimize(core::fm0_ber_monte_carlo(cfg));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 4096);
}
BENCHMARK(BM_BerTrial);

namespace {

/// Nanoseconds per call, growing the iteration count until the measurement
/// window is long enough to trust.
template <typename F>
double time_ns(F&& f, double min_seconds = 0.05) {
  using clock = std::chrono::steady_clock;
  f();  // warm up caches and any lazy design
  std::size_t iters = 1;
  while (true) {
    const auto t0 = clock::now();
    for (std::size_t i = 0; i < iters; ++i) f();
    const double s = std::chrono::duration<double>(clock::now() - t0).count();
    if (s >= min_seconds) return s * 1e9 / static_cast<double>(iters);
    const double grow = (s > 1e-9) ? min_seconds / s * 1.2 : 8.0;
    iters = std::max(iters + 1, static_cast<std::size_t>(
                                    static_cast<double>(iters) * grow));
  }
}

/// Per-kernel roofline block: for each primitive in the SIMD kernel layer,
/// the seed-style sequential loop vs the dispatched kernel table, in
/// ns/element, plus the analytic traffic (bytes/element) and arithmetic
/// (flops/element) so the ratio against machine peak is computable offline.
/// Schema in docs/benchmarks.md. `simd_isa` records which table `active()`
/// resolved to (0 scalar, 1 avx2, 2 neon) so CI can gate speedups only on
/// SIMD-capable hosts.
void record_roofline_metrics(ecocap::bench::BenchJson& json) {
  const dsp::kernels::KernelTable& kt = dsp::kernels::active();
  json.metric("simd_isa", static_cast<double>(kt.isa));
  json.metric("hw_threads",
              static_cast<double>(std::thread::hardware_concurrency()));

  const auto per_elem = [&](const char* name, double seed_ns, double simd_ns,
                            double elems, double bytes, double flops) {
    json.metric(std::string("kern_") + name + "_seed_ns_per_elem",
                seed_ns / elems);
    json.metric(std::string("kern_") + name + "_simd_ns_per_elem",
                simd_ns / elems);
    json.metric(std::string("kern_") + name + "_speedup", seed_ns / simd_ns);
    json.metric(std::string("kern_") + name + "_bytes_per_elem", bytes);
    json.metric(std::string("kern_") + name + "_flops_per_elem", flops);
  };

  // Dot product, 4096 points (L1-resident: measures the compute ceiling).
  {
    const dsp::Signal a = dsp::tone(1.0e6, 31.0e3, 4096, 1.0);
    const dsp::Signal b = dsp::tone(1.0e6, 47.0e3, 4096, 1.0);
    const double seed_ns = time_ns([&] {
      dsp::Real acc = 0.0;
      for (std::size_t i = 0; i < a.size(); ++i) acc += a[i] * b[i];
      benchmark::DoNotOptimize(acc);
    });
    const double simd_ns = time_ns([&] {
      dsp::Real acc = kt.dot(a.data(), b.data(), a.size());
      benchmark::DoNotOptimize(acc);
    });
    per_elem("dot", seed_ns, simd_ns, 4096.0, 16.0, 2.0);
  }

  // FIR direct path: 129 reversed taps slid over 8k samples — the
  // FirFilter batch shape below the FFT-dispatch threshold. One "element"
  // is one multiply-accumulate lane crossing, out_len * taps of them.
  {
    const dsp::Signal x = dsp::tone(1.0e6, 30.0e3, 8192, 1.0);
    const dsp::Signal h = dsp::design_lowpass(1.0e6, 50.0e3, 129);
    const std::size_t out_len = x.size() - h.size() + 1;
    dsp::Signal out(out_len);
    const double seed_ns = time_ns([&] {
      for (std::size_t k = 0; k < out_len; ++k) {
        dsp::Real acc = 0.0;
        for (std::size_t i = 0; i < h.size(); ++i) acc += x[k + i] * h[i];
        out[k] = acc;
      }
      benchmark::DoNotOptimize(out);
    });
    const double simd_ns = time_ns([&] {
      kt.correlate_valid(x.data(), x.size(), h.data(), h.size(), out.data());
      benchmark::DoNotOptimize(out);
    });
    const double macs = static_cast<double>(out_len * h.size());
    per_elem("fir", seed_ns, simd_ns, macs, 16.0, 2.0);
  }

  // Correlation at the preamble-search shape (512-tap template, 32k
  // capture), same element definition.
  {
    const dsp::Signal x = dsp::tone(1.0e6, 30.0e3, 1 << 15, 1.0);
    const dsp::Signal h = dsp::tone(1.0e6, 30.0e3, 512, 1.0);
    const std::size_t out_len = x.size() - h.size() + 1;
    dsp::Signal out(out_len);
    const double seed_ns = time_ns([&] {
      for (std::size_t k = 0; k < out_len; ++k) {
        dsp::Real acc = 0.0;
        for (std::size_t i = 0; i < h.size(); ++i) acc += x[k + i] * h[i];
        out[k] = acc;
      }
      benchmark::DoNotOptimize(out);
    });
    const double simd_ns = time_ns([&] {
      kt.correlate_valid(x.data(), x.size(), h.data(), h.size(), out.data());
      benchmark::DoNotOptimize(out);
    });
    const double macs = static_cast<double>(out_len * h.size());
    per_elem("correlate", seed_ns, simd_ns, macs, 16.0, 2.0);
  }

  // Biquad over 64k samples: a serial recurrence, so the "kernel win" is
  // state-in-locals vs the seed's member-state per-sample call, not SIMD.
  {
    const dsp::Signal x = dsp::tone(1.0e6, 30.0e3, 1 << 16, 1.0);
    dsp::Signal y(x.size());
    const dsp::kernels::BiquadCoeffs c{0.2, 0.3, 0.1, -0.5, 0.25};
    const double seed_ns = time_ns([&] {
      dsp::Real x1 = 0.0, x2 = 0.0, y1 = 0.0, y2 = 0.0;
      volatile dsp::Real* sink = y.data();  // forbid loop fusion with state
      for (std::size_t i = 0; i < x.size(); ++i) {
        const dsp::Real yi =
            c.b0 * x[i] + c.b1 * x1 + c.b2 * x2 - c.a1 * y1 - c.a2 * y2;
        x2 = x1;
        x1 = x[i];
        y2 = y1;
        y1 = yi;
        sink[i] = yi;
      }
      benchmark::DoNotOptimize(y);
    });
    const double simd_ns = time_ns([&] {
      dsp::kernels::BiquadState s;
      kt.biquad(x.data(), y.data(), x.size(), c, s);
      benchmark::DoNotOptimize(y);
    });
    per_elem("biquad", seed_ns, simd_ns, static_cast<double>(x.size()), 16.0,
             9.0);
  }

  // One-pole low-pass over 64k samples: seed per-sample RC recurrence vs
  // the block-scan kernel (4 lanes from the block-entry state).
  {
    const dsp::Signal x = dsp::tone(1.0e6, 30.0e3, 1 << 16, 1.0);
    dsp::Signal y(x.size());
    const dsp::Real alpha = 0.125;
    const double seed_ns = time_ns([&] {
      dsp::Real state = 0.0;
      for (std::size_t i = 0; i < x.size(); ++i) {
        state += alpha * (x[i] - state);
        y[i] = state;
      }
      benchmark::DoNotOptimize(y);
    });
    const double simd_ns = time_ns([&] {
      dsp::Real state = 0.0;
      kt.onepole(x.data(), y.data(), x.size(), alpha, &state);
      benchmark::DoNotOptimize(y);
    });
    per_elem("onepole", seed_ns, simd_ns, static_cast<double>(x.size()), 16.0,
             9.0);
  }

  // Envelope (rectify + RC) over 64k samples.
  {
    const dsp::Signal x = dsp::tone(2.0e6, 230.0e3, 1 << 16, 1.0);
    dsp::Signal y(x.size());
    const dsp::Real alpha = 0.0609;
    const double seed_ns = time_ns([&] {
      dsp::Real state = 0.0;
      for (std::size_t i = 0; i < x.size(); ++i) {
        state += alpha * (std::abs(x[i]) - state);
        y[i] = state;
      }
      benchmark::DoNotOptimize(y);
    });
    const double simd_ns = time_ns([&] {
      dsp::Real state = 0.0;
      kt.envelope(x.data(), y.data(), x.size(), alpha, &state);
      benchmark::DoNotOptimize(y);
    });
    per_elem("envelope", seed_ns, simd_ns, static_cast<double>(x.size()),
             16.0, 10.0);
  }

  // FDTD stencil rows, 1024 columns x 64 rows (the per-band working shape).
  // Seed-style indexed loops (the pre-kernel update_*_rows bodies) vs the
  // kernel row functions.
  {
    const std::size_t nx = 1024, rows = 64;
    const std::size_t n = nx * (rows + 2);
    std::vector<dsp::Real> vx(n, 0.01), vy(n, 0.02), sxx(n, 0.5), syy(n, 0.4),
        sxy(n, 0.3), rho(n, 2400.0), lambda(n, 1.1e10), mu(n, 9.0e9);
    const dsp::Real dt = 1e-7, inv_dx = 500.0;
    const double vel_seed_ns = time_ns([&] {
      for (std::size_t iy = 1; iy <= rows; ++iy) {
        for (std::size_t ix = 1; ix + 1 < nx; ++ix) {
          const std::size_t i = iy * nx + ix;
          const dsp::Real dsxx_dx = (sxx[i] - sxx[i - 1]) * inv_dx;
          const dsp::Real dsxy_dy = (sxy[i] - sxy[i - nx]) * inv_dx;
          const dsp::Real dsxy_dx = (sxy[i + 1] - sxy[i]) * inv_dx;
          const dsp::Real dsyy_dy = (syy[i + nx] - syy[i]) * inv_dx;
          const dsp::Real inv_rho = 1.0 / rho[i];
          vx[i] += dt * inv_rho * (dsxx_dx + dsxy_dy);
          vy[i] += dt * inv_rho * (dsxy_dx + dsyy_dy);
        }
      }
      benchmark::DoNotOptimize(vx);
    });
    const double vel_simd_ns = time_ns([&] {
      for (std::size_t iy = 1; iy <= rows; ++iy) {
        dsp::kernels::FdtdVelocityRowArgs a{};
        a.vx = vx.data() + iy * nx;
        a.vy = vy.data() + iy * nx;
        a.sxx = sxx.data() + iy * nx;
        a.sxy = sxy.data() + iy * nx;
        a.sxy_dn = sxy.data() + (iy - 1) * nx;
        a.syy = syy.data() + iy * nx;
        a.syy_up = syy.data() + (iy + 1) * nx;
        a.rho = rho.data() + iy * nx;
        a.i0 = 1;
        a.i1 = nx - 1;
        a.dt = dt;
        a.inv_dx = inv_dx;
        kt.fdtd_velocity_row(a);
      }
      benchmark::DoNotOptimize(vx);
    });
    const double cells = static_cast<double>(rows * (nx - 2));
    per_elem("fdtd_velocity", vel_seed_ns, vel_simd_ns, cells, 96.0, 17.0);

    const double str_seed_ns = time_ns([&] {
      for (std::size_t iy = 1; iy <= rows; ++iy) {
        for (std::size_t ix = 1; ix + 1 < nx; ++ix) {
          const std::size_t i = iy * nx + ix;
          const dsp::Real dvx_dx = (vx[i + 1] - vx[i]) * inv_dx;
          const dsp::Real dvy_dy = (vy[i] - vy[i - nx]) * inv_dx;
          const dsp::Real l = lambda[i];
          const dsp::Real m = mu[i];
          sxx[i] += dt * ((l + 2.0 * m) * dvx_dx + l * dvy_dy);
          syy[i] += dt * (l * dvx_dx + (l + 2.0 * m) * dvy_dy);
          const dsp::Real dvx_dy = (vx[i + nx] - vx[i]) * inv_dx;
          const dsp::Real dvy_dx = (vy[i] - vy[i - 1]) * inv_dx;
          sxy[i] += dt * m * (dvx_dy + dvy_dx);
        }
      }
      benchmark::DoNotOptimize(sxx);
    });
    const double str_simd_ns = time_ns([&] {
      for (std::size_t iy = 1; iy <= rows; ++iy) {
        dsp::kernels::FdtdStressRowArgs a{};
        a.sxx = sxx.data() + iy * nx;
        a.syy = syy.data() + iy * nx;
        a.sxy = sxy.data() + iy * nx;
        a.vx = vx.data() + iy * nx;
        a.vx_up = vx.data() + (iy + 1) * nx;
        a.vy = vy.data() + iy * nx;
        a.vy_dn = vy.data() + (iy - 1) * nx;
        a.lambda = lambda.data() + iy * nx;
        a.mu = mu.data() + iy * nx;
        a.i0 = 1;
        a.i1 = nx - 1;
        a.dt = dt;
        a.inv_dx = inv_dx;
        kt.fdtd_stress_row(a);
      }
      benchmark::DoNotOptimize(sxx);
    });
    per_elem("fdtd_stress", str_seed_ns, str_simd_ns, cells, 112.0, 20.0);
  }
}

/// Headline direct-vs-FFT and 1-vs-N-thread comparisons for the JSON
/// trajectory. These are the acceptance numbers: the google-benchmark table
/// above is for humans, this block is for machines.
void record_headline_metrics(ecocap::bench::BenchJson& json) {
  // 129-tap FIR over a 32k buffer: seed per-sample delay line vs the
  // overlap-save FFT batch path.
  {
    const dsp::Signal h = dsp::design_lowpass(1.0e6, 50.0e3, 129);
    const dsp::Signal x = dsp::tone(1.0e6, 30.0e3, 1 << 15, 1.0);
    dsp::FirFilter scalar_f(h);
    const double direct_ns = time_ns([&] {
      dsp::Signal out(x.size());
      for (std::size_t i = 0; i < x.size(); ++i) out[i] = scalar_f.process(x[i]);
      benchmark::DoNotOptimize(out);
    });
    dsp::FirFilter batch_f(h);
    const double fft_ns = time_ns([&] {
      benchmark::DoNotOptimize(batch_f.process(x));
    });
    json.metric("fir_129tap_32k_direct_ns", direct_ns);
    json.metric("fir_129tap_32k_fft_ns", fft_ns);
    json.metric("fir_129tap_32k_speedup", direct_ns / fft_ns);
  }

  // Zero-phase filtering, same design point.
  {
    const dsp::Signal h = dsp::design_lowpass(1.0e6, 50.0e3, 129);
    const dsp::Signal x = dsp::tone(1.0e6, 30.0e3, 1 << 15, 1.0);
    const double direct_ns = time_ns([&] {
      benchmark::DoNotOptimize(dsp::convolve_full_direct(x, h));
    });
    const double fft_ns = time_ns([&] {
      benchmark::DoNotOptimize(dsp::filter_zero_phase(h, x));
    });
    json.metric("zero_phase_129tap_32k_direct_ns", direct_ns);
    json.metric("zero_phase_129tap_32k_fft_ns", fft_ns);
    json.metric("zero_phase_129tap_32k_speedup", direct_ns / fft_ns);
  }

  // Valid correlation of a 512-sample template against a 32k capture (the
  // FM0 preamble search shape).
  {
    const dsp::Signal x = dsp::tone(1.0e6, 30.0e3, 1 << 15, 1.0);
    const dsp::Signal h = dsp::tone(1.0e6, 30.0e3, 512, 1.0);
    const double direct_ns = time_ns([&] {
      const std::size_t out_len = x.size() - h.size() + 1;
      dsp::Signal out(out_len, 0.0);
      for (std::size_t k = 0; k < out_len; ++k) {
        dsp::Real acc = 0.0;
        for (std::size_t i = 0; i < h.size(); ++i) acc += x[k + i] * h[i];
        out[k] = acc;
      }
      benchmark::DoNotOptimize(out);
    });
    const double fft_ns = time_ns([&] {
      benchmark::DoNotOptimize(dsp::correlate_valid_fft(x, h));
    });
    json.metric("correlate_512tmpl_32k_direct_ns", direct_ns);
    json.metric("correlate_512tmpl_32k_fft_ns", fft_ns);
    json.metric("correlate_512tmpl_32k_speedup", direct_ns / fft_ns);
  }

  // Channel noise as the stream stages add it: one 256-sample block per
  // call on the active table (twists included, amortised), and the
  // engine's twist alone per state word.
  {
    dsp::Rng rng(5);
    dsp::Signal x(256, 0.0);
    json.metric("awgn_256_ns_per_sample", time_ns([&] {
                  rng.add_gaussian(x, 0.01);
                  benchmark::DoNotOptimize(x.data());
                  benchmark::ClobberMemory();
                }) / 256.0);
    std::vector<std::uint64_t> mt(dsp::detail::kMtN);
    for (std::size_t i = 0; i < mt.size(); ++i) mt[i] = rng.next_u64();
    const dsp::kernels::KernelTable& kt = dsp::kernels::active();
    json.metric("mt_twist_ns_per_word", time_ns([&] {
                  kt.mt_twist(mt.data());
                  benchmark::DoNotOptimize(mt.data());
                  benchmark::ClobberMemory();
                }) / static_cast<double>(dsp::detail::kMtN));
  }

  // Waveform-level uplink through the cached-resonator channel.
  {
    channel::ChannelConfig cfg;
    cfg.distance = 0.5;
    const channel::ConcreteChannel ch(channel::structures::s3_common_wall(),
                                      cfg);
    const dsp::Signal x = dsp::tone(cfg.fs, 230.0e3, 1 << 16, 0.01);
    dsp::Rng rng(3);
    dsp::Signal y;
    json.metric("uplink_65536_ns", time_ns([&] {
                  ch.uplink(x, 230.0e3, rng, y);
                  benchmark::DoNotOptimize(y.data());
                }));
  }

  // Receiver decode sub-stages on one synthesized uplink window (32-bit
  // FM0 frame at 1 kbps on a 4 kHz BLF, 230 kHz carrier, fs = 2 MHz):
  // carrier estimate, downconvert plus decimating low-pass (mirroring
  // Receiver::to_baseband at the default config), and the FM0 back end
  // (dc-block, phase alignment, subcarrier phase search, ML decoding),
  // timed as the full decode minus the two front-end stages.
  {
    const reader::Receiver receiver;
    const reader::ReceiverConfig& rc = receiver.config();
    dsp::Rng rng(7);
    const phy::Bits payload = phy::random_bits(32, rng);
    const dsp::Signal switching =
        phy::fm0_encode_frame(payload, rc.uplink, rc.fs);
    dsp::Oscillator osc(rc.fs, 230.0e3);
    const dsp::Signal carrier = osc.generate(switching.size() + 20000);
    phy::BackscatterParams bp;
    bp.f_blf = rc.blf;
    dsp::Signal rx = phy::backscatter_modulate(carrier, switching, rc.fs, bp);
    for (dsp::Real& v : rx) v += 0.05 * rng.gaussian();

    dsp::Workspace ws;
    const dsp::Real f_c = dsp::estimate_tone_frequency(
        rx, rc.fs, rc.carrier_search_lo, rc.carrier_search_hi, ws);
    const double carrier_ns = time_ns([&] {
      benchmark::DoNotOptimize(dsp::estimate_tone_frequency(
          rx, rc.fs, rc.carrier_search_lo, rc.carrier_search_hi, ws));
    });
    const dsp::Signal h = dsp::design_lowpass(
        rc.fs, std::max(2.5 * rc.uplink.bitrate + rc.blf, 8.0e3),
        rc.lowpass_taps);
    const auto factor = static_cast<std::size_t>(
        rc.fs / std::max({8.0 * rc.blf, 16.0 * rc.uplink.bitrate, 8.0e3}));
    dsp::ComplexSignal mixed, base;
    const double baseband_ns = time_ns([&] {
      dsp::mix_down(rx, rc.fs, f_c, mixed);
      dsp::lowpass_decimate(h, mixed, factor, ws, base);
      benchmark::DoNotOptimize(base.data());
    });
    const double decode_ns = time_ns([&] {
      benchmark::DoNotOptimize(receiver.decode(rx, payload.size(), ws));
    });
    json.metric("decode_carrier_us", carrier_ns * 1e-3);
    json.metric("decode_baseband_us", baseband_ns * 1e-3);
    json.metric("decode_fm0_us",
                std::max(decode_ns - carrier_ns - baseband_ns, 0.0) * 1e-3);
  }

  // End-to-end interrogation through the zero-copy stage pipeline: the
  // workspace stats hook counts heap allocations per uplink_once() trial
  // with pooling off (the allocate-per-checkout "before" behaviour) and on
  // (steady-state reuse), plus the interrogation rate in both modes.
  {
    core::SystemConfig cfg = core::default_system();
    cfg.channel.distance = 0.10;
    cfg.channel.noise_sigma = 1e-4;
    const core::SystemSnapshot snapshot =
        std::make_shared<const core::SystemConfig>(cfg);
    dsp::Rng prng(5);
    const phy::Bits payload = phy::random_bits(32, prng);
    core::WorkspacePool& pool = core::WorkspacePool::shared();

    std::uint64_t trial = 0;
    const auto one_trial = [&] {
      core::LinkSimulator sim(snapshot, dsp::trial_seed(cfg.seed, trial++));
      benchmark::DoNotOptimize(sim.uplink_once(payload));
    };
    const auto allocs_per_trial = [&] {
      // Average the stats over a few trials AFTER a warm-up trial has
      // populated the pool (steady state is what the harnesses run in).
      constexpr std::size_t kTrials = 5;
      one_trial();
      pool.reset_stats();
      for (std::size_t i = 0; i < kTrials; ++i) one_trial();
      const dsp::Workspace::Stats s = pool.total_stats();
      return static_cast<double>(s.heap_allocations) /
             static_cast<double>(kTrials);
    };

    pool.set_pooling(false);
    pool.clear();
    const double allocs_before = allocs_per_trial();
    const double before_ns = time_ns(one_trial, 0.2);

    pool.set_pooling(true);
    pool.clear();
    const double allocs_after = allocs_per_trial();
    const double after_ns = time_ns(one_trial, 0.2);

    json.metric("e2e_interrogate_allocs_per_trial_unpooled", allocs_before);
    json.metric("e2e_interrogate_allocs_per_trial_pooled", allocs_after);
    json.metric("e2e_interrogate_alloc_reduction",
                allocs_before / std::max(allocs_after, 1.0));
    json.metric("e2e_interrogate_unpooled_per_sec", 1e9 / before_ns);
    json.metric("e2e_interrogate_pooled_per_sec", 1e9 / after_ns);
    json.metric("e2e_interrogate_speedup", before_ns / after_ns);
  }

  // FDTD stepping, 256x256, serial vs a 4-worker pool. On a single
  // hardware core the threaded number degrades to ~1x — the JSON records
  // whatever this host can actually deliver.
  {
    const auto fdtd_ns = [](unsigned workers) {
      core::ThreadPool pool(workers);
      wave::ElasticFdtd::Config cfg;
      cfg.nx = 256;
      cfg.ny = 256;
      cfg.pool = &pool;
      wave::ElasticFdtd sim(wave::materials::reference_concrete(), cfg);
      sim.add_force(128, 128, 1, 1.0);
      return time_ns([&] { sim.step(); });
    };
    const double t1 = fdtd_ns(1);
    const double t4 = fdtd_ns(4);
    json.metric("fdtd_256_step_1t_ns", t1);
    json.metric("fdtd_256_step_4t_ns", t4);
    json.metric("fdtd_256_step_speedup_4t", t1 / t4);
  }
}

}  // namespace

int main(int argc, char** argv) {
  ecocap::bench::BenchJson json("micro_dsp");
  record_roofline_metrics(json);
  record_headline_metrics(json);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  json.write();
  return 0;
}
