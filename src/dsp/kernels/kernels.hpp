#pragma once

#include <cstddef>
#include <cstdint>

#include "dsp/types.hpp"

namespace ecocap::dsp::kernels {

/// Runtime-dispatched SIMD kernel layer for the DSP/FDTD hot loops.
///
/// Every Monte-Carlo interrogation spends its time in a handful of inner
/// loops: FIR dot products, valid-mode template correlation, the resonator
/// biquad, the envelope detector's rectify+RC pass, and the elastic FDTD
/// stencil updates. This layer provides one implementation table per
/// instruction set (AVX2 on x86-64, NEON on AArch64, and a canonical
/// pragma-vectorizable scalar fallback) and selects one at startup from
/// CPUID, overridable with the ECOCAP_SIMD environment variable.
///
/// ## Determinism contract
///
/// Results must not depend on which table ran, so golden vectors stay valid
/// on any host:
///
///  * **Elementwise maps** (the FDTD velocity/stress stencils, rectify) are
///    computed with exactly the scalar expression's operation order and no
///    FMA contraction — bit-identical across tables by construction.
///  * **Reductions** (dot, correlate) use a *canonical striped order*: eight
///    interleaved partial sums over index residues mod 8, combined as
///    t[k] = s[k] + s[k+4] then ((t0 + t1) + (t2 + t3)), with the remainder
///    added sequentially. The scalar table implements the identical order,
///    so scalar and SIMD agree bit-for-bit. This order differs from a naive
///    sequential sum; callers that migrate to it accept a one-time, golden-
///    regenerated drift and validate against a sequential reference under
///    the documented tolerance (see docs/benchmarks.md, "tolerance mode").
///  * **Recurrences**: the biquad keeps the exact direct-form-I update of
///    the seed implementation (bit-identical). The one-pole low-pass and
///    the envelope detector use a canonical *block-scan* form (blocks of 4
///    with precomputed decay powers) whose lane arithmetic is replicated
///    exactly by the scalar table — again bit-identical across tables, and
///    toleranced against the sequential RC recurrence.
///  * **The random engine** (dsp::Rng's MT19937-64 twist and its Ziggurat
///    fast path) is integer arithmetic plus one exact conversion and a
///    separate multiply and add per sample — bit-identical across tables,
///    and to the per-sample Rng::gaussian() loop.
///
/// ## Dispatch
///
/// `active()` resolves once (thread-safe) to the best table the CPU
/// supports. `ECOCAP_SIMD=scalar|avx2|neon|auto` overrides; requesting an
/// unavailable ISA falls back to scalar with a stderr note rather than
/// crashing, so a pinned CI value is portable across runners.

enum class Isa {
  kScalar = 0,
  kAvx2 = 1,
  kNeon = 2,
};

/// Human-readable table name ("scalar", "avx2", "neon").
const char* isa_name(Isa isa);

/// RBJ biquad coefficients, already normalized by a0.
struct BiquadCoeffs {
  Real b0, b1, b2, a1, a2;
};

/// Direct-form-I delay state. Layout matches the seed Biquad members.
struct BiquadState {
  Real x1 = 0.0, x2 = 0.0, y1 = 0.0, y2 = 0.0;
};

/// One row of the staggered-grid velocity update (Virieux P-SV). All
/// pointers address the row base (ix = 0); the kernel touches columns
/// [i0, i1) only. `fx`/`fy` are the pending body-force rows: when non-null
/// the kernel adds them to the stress gradients and zeroes the consumed
/// entries (folding the per-step force clear into this pass); when null the
/// force term is omitted entirely, which is bit-identical because the
/// velocity fields never hold negative zero (they start at +0 and IEEE-754
/// round-to-nearest addition cannot produce -0 from +0 operands).
struct FdtdVelocityRowArgs {
  Real* vx;
  Real* vy;
  const Real* sxx;     // row iy
  const Real* sxy;     // row iy
  const Real* sxy_dn;  // row iy-1
  const Real* syy;     // row iy
  const Real* syy_up;  // row iy+1
  const Real* rho;     // row iy
  Real* fx;            // row iy, nullable
  Real* fy;            // row iy, nullable
  std::size_t i0, i1;  // column range [i0, i1)
  Real dt;
  Real inv_dx;
};

/// One row of the stress update. Same row-base pointer convention.
struct FdtdStressRowArgs {
  Real* sxx;
  Real* syy;
  Real* sxy;
  const Real* vx;      // row iy
  const Real* vx_up;   // row iy+1
  const Real* vy;      // row iy
  const Real* vy_dn;   // row iy-1
  const Real* lambda;  // row iy
  const Real* mu;      // row iy
  std::size_t i0, i1;
  Real dt;
  Real inv_dx;
};

/// One implementation of every hot primitive. Function pointers so the
/// dispatch decision is one load; each pointed-to loop is branch-free over
/// the data.
struct KernelTable {
  Isa isa;

  /// Canonical striped dot product sum(a[i]*b[i]), i in [0, n).
  Real (*dot)(const Real* a, const Real* b, std::size_t n);

  /// Valid-mode correlation out[k] = dot(x + k, h, nh) for
  /// k in [0, nx - nh]; requires nx >= nh >= 1.
  void (*correlate_valid)(const Real* x, std::size_t nx, const Real* h,
                          std::size_t nh, Real* out);

  /// Direct-form-I biquad over a buffer; `y` may equal `x` (each sample is
  /// read before it is written). Bit-identical to the seed per-sample path.
  void (*biquad)(const Real* x, Real* y, std::size_t n,
                 const BiquadCoeffs& c, BiquadState& s);

  /// One-pole RC low-pass y[i] = p*y[i-1] + alpha*u[i] in canonical
  /// block-scan form; `state` holds y[-1] and receives y[n-1].
  void (*onepole)(const Real* x, Real* y, std::size_t n, Real alpha,
                  Real* state);

  /// Envelope magnitude: the one-pole scan over |x[i]| (full-wave rectify
  /// fused into the load). Same state convention as onepole.
  void (*envelope)(const Real* x, Real* y, std::size_t n, Real alpha,
                   Real* state);

  /// FDTD stencil rows (pure elementwise maps — bit-identical everywhere).
  void (*fdtd_velocity_row)(const FdtdVelocityRowArgs& a);
  void (*fdtd_stress_row)(const FdtdStressRowArgs& a);

  /// MT19937-64 twist: regenerate the 312 state words in place. `mt`
  /// needs no alignment.
  void (*mt_twist)(std::uint64_t* mt);

  /// Ziggurat fast path of dsp::Rng: for i in [0, min(avail, n)) while
  /// the tempered word u = temper(state[i]) takes the fast accept,
  /// x[i] += sigma * (+/-)(u >> 11) * W[u & 0xff] (sign from bit 8).
  /// Returns how many leading samples it filled, one state word each; the
  /// word at the returned index, if below avail and n, missed the accept.
  std::size_t (*gaussian_fast)(const std::uint64_t* state, std::size_t avail,
                               Real* x, std::size_t n, Real sigma);
};

/// The canonical scalar table (always available).
const KernelTable& scalar_table();

/// True when `isa`'s table exists in this build *and* the CPU can run it.
bool available(Isa isa);

/// Table for a specific ISA; falls back to scalar when unavailable.
const KernelTable& table(Isa isa);

/// The startup-dispatched table: ECOCAP_SIMD override when set, else the
/// best available ISA. Resolved once; stable for the process lifetime.
const KernelTable& active();

/// ISA of `active()`.
Isa active_isa();

/// Parse an ECOCAP_SIMD value ("scalar", "avx2", "neon", "auto"). Returns
/// true and writes `out` on a recognized name ("auto" reports the best
/// available ISA); false on anything else.
bool isa_from_name(const char* name, Isa& out);

/// Convenience: run a cascade of biquad sections over a buffer through the
/// active table. Section 0 reads `x` into `y`; later sections run in place
/// on `y`.
void biquad_cascade(const Real* x, Real* y, std::size_t n,
                    const BiquadCoeffs* coeffs, BiquadState* states,
                    std::size_t sections);

}  // namespace ecocap::dsp::kernels
