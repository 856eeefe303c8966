// Runtime dispatch for the SIMD kernel layer. One table per ISA is linked
// in (per-TU -m flags, see CMakeLists.txt); this unit picks the active one
// once at first use from CPUID, with ECOCAP_SIMD as the override knob. No
// SIMD instruction can execute before the CPU check: the per-ISA functions
// live in their own translation units and are only reached through the
// table pointers resolved here.

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "dsp/kernels/kernels_detail.hpp"

namespace ecocap::dsp::kernels {

namespace detail {
namespace {

const KernelTable kScalarTable = {
    Isa::kScalar,        scalar::dot,
    scalar::correlate_valid, scalar::biquad,
    scalar::onepole,     scalar::envelope,
    scalar::fdtd_velocity_row, scalar::fdtd_stress_row,
    scalar::mt_twist,    scalar::gaussian_fast,
};

#if defined(ECOCAP_KERNELS_AVX2)
const KernelTable kAvx2Table = {
    Isa::kAvx2,        avx2::dot,
    avx2::correlate_valid, avx2::biquad,
    avx2::onepole,     avx2::envelope,
    avx2::fdtd_velocity_row, avx2::fdtd_stress_row,
    avx2::mt_twist,    avx2::gaussian_fast,
};
#endif

#if defined(ECOCAP_KERNELS_NEON) && defined(__aarch64__)
const KernelTable kNeonTable = {
    Isa::kNeon,        neon::dot,
    neon::correlate_valid,
    // A biquad is a serial recurrence; the canonical scalar loop IS the
    // NEON implementation.
    scalar::biquad,
    neon::onepole,     neon::envelope,
    neon::fdtd_velocity_row, neon::fdtd_stress_row,
    // No NEON body of the engine loops has run on an AArch64 host yet;
    // the canonical scalar loops stand in until one can be tested.
    scalar::mt_twist,    scalar::gaussian_fast,
};
#endif

/// Best table this build + CPU combination can run.
Isa best_isa() {
#if defined(ECOCAP_KERNELS_AVX2)
  if (available(Isa::kAvx2)) return Isa::kAvx2;
#endif
#if defined(ECOCAP_KERNELS_NEON) && defined(__aarch64__)
  if (available(Isa::kNeon)) return Isa::kNeon;
#endif
  return Isa::kScalar;
}

/// Resolve the startup table: ECOCAP_SIMD when set and valid, else the best
/// available ISA. Unavailable or unrecognized requests fall back to scalar
/// with a stderr note so a pinned CI value stays portable across runners.
const KernelTable* resolve_active() {
  if (const char* env = std::getenv("ECOCAP_SIMD")) {
    Isa want;
    if (!isa_from_name(env, want)) {
      std::fprintf(stderr,
                   "ecocap: unrecognized ECOCAP_SIMD=\"%s\" "
                   "(scalar|avx2|neon|auto); using scalar kernels\n",
                   env);
      return &kScalarTable;
    }
    if (!available(want)) {
      std::fprintf(stderr,
                   "ecocap: ECOCAP_SIMD=%s unavailable on this build/CPU; "
                   "using scalar kernels\n",
                   isa_name(want));
      return &kScalarTable;
    }
    return &table(want);
  }
  return &table(best_isa());
}

}  // namespace
}  // namespace detail

const char* isa_name(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return "scalar";
    case Isa::kAvx2:
      return "avx2";
    case Isa::kNeon:
      return "neon";
  }
  return "unknown";
}

const KernelTable& scalar_table() { return detail::kScalarTable; }

bool available(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return true;
    case Isa::kAvx2:
#if defined(ECOCAP_KERNELS_AVX2) && (defined(__x86_64__) || defined(__i386__))
      return __builtin_cpu_supports("avx2") != 0;
#else
      return false;
#endif
    case Isa::kNeon:
#if defined(ECOCAP_KERNELS_NEON) && defined(__aarch64__)
      return true;  // AdvSIMD is architecturally mandatory on AArch64
#else
      return false;
#endif
  }
  return false;
}

const KernelTable& table(Isa isa) {
  switch (isa) {
#if defined(ECOCAP_KERNELS_AVX2)
    case Isa::kAvx2:
      if (available(Isa::kAvx2)) return detail::kAvx2Table;
      break;
#endif
#if defined(ECOCAP_KERNELS_NEON) && defined(__aarch64__)
    case Isa::kNeon:
      if (available(Isa::kNeon)) return detail::kNeonTable;
      break;
#endif
    default:
      break;
  }
  return detail::kScalarTable;
}

const KernelTable& active() {
  // Magic-static init is thread-safe; the decision is made exactly once.
  static const KernelTable* resolved = detail::resolve_active();
  return *resolved;
}

Isa active_isa() { return active().isa; }

bool isa_from_name(const char* name, Isa& out) {
  if (name == nullptr) return false;
  if (std::strcmp(name, "scalar") == 0) {
    out = Isa::kScalar;
    return true;
  }
  if (std::strcmp(name, "avx2") == 0) {
    out = Isa::kAvx2;
    return true;
  }
  if (std::strcmp(name, "neon") == 0) {
    out = Isa::kNeon;
    return true;
  }
  if (std::strcmp(name, "auto") == 0) {
    out = detail::best_isa();
    return true;
  }
  return false;
}

void biquad_cascade(const Real* x, Real* y, std::size_t n,
                    const BiquadCoeffs* coeffs, BiquadState* states,
                    std::size_t sections) {
  if (sections == 0 || n == 0) return;
  const KernelTable& k = active();
  k.biquad(x, y, n, coeffs[0], states[0]);
  for (std::size_t s = 1; s < sections; ++s) {
    k.biquad(y, y, n, coeffs[s], states[s]);
  }
}

}  // namespace ecocap::dsp::kernels
