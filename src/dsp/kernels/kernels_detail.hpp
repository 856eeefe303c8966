#pragma once

// Internal declarations shared between the kernel dispatch unit and the
// per-ISA translation units. Not part of the public kernels.hpp API.
//
// Each ISA's functions live in their own TU so only that TU is compiled
// with the matching -m flags; the dispatcher never calls into a table whose
// ISA the CPU lacks, so no illegal instruction can execute before the CPUID
// check. All kernel TUs are built with -ffp-contract=off so no compiler may
// fuse a multiply-add and break the cross-table bit-identity contract.

#include "dsp/kernels/kernels.hpp"

namespace ecocap::dsp::kernels::detail {

namespace scalar {
Real dot(const Real* a, const Real* b, std::size_t n);
void correlate_valid(const Real* x, std::size_t nx, const Real* h,
                     std::size_t nh, Real* out);
void biquad(const Real* x, Real* y, std::size_t n, const BiquadCoeffs& c,
            BiquadState& s);
void onepole(const Real* x, Real* y, std::size_t n, Real alpha, Real* state);
void envelope(const Real* x, Real* y, std::size_t n, Real alpha, Real* state);
void fdtd_velocity_row(const FdtdVelocityRowArgs& a);
void fdtd_stress_row(const FdtdStressRowArgs& a);
void mt_twist(std::uint64_t* mt);
std::size_t gaussian_fast(const std::uint64_t* state, std::size_t avail,
                          Real* x, std::size_t n, Real sigma);
/// One word of the MT19937-64 twist: the new x[i] from x[i] (upper bits),
/// x[i+1] (lower bits) and x[i+m], indices mod n.
std::uint64_t mt_word(std::uint64_t cur, std::uint64_t next, std::uint64_t far);
}  // namespace scalar

#if defined(__x86_64__) || defined(__i386__)
namespace avx2 {
Real dot(const Real* a, const Real* b, std::size_t n);
void correlate_valid(const Real* x, std::size_t nx, const Real* h,
                     std::size_t nh, Real* out);
void biquad(const Real* x, Real* y, std::size_t n, const BiquadCoeffs& c,
            BiquadState& s);
void onepole(const Real* x, Real* y, std::size_t n, Real alpha, Real* state);
void envelope(const Real* x, Real* y, std::size_t n, Real alpha, Real* state);
void fdtd_velocity_row(const FdtdVelocityRowArgs& a);
void fdtd_stress_row(const FdtdStressRowArgs& a);
void mt_twist(std::uint64_t* mt);
std::size_t gaussian_fast(const std::uint64_t* state, std::size_t avail,
                          Real* x, std::size_t n, Real sigma);
}  // namespace avx2
#endif

#if defined(__aarch64__)
namespace neon {
Real dot(const Real* a, const Real* b, std::size_t n);
void correlate_valid(const Real* x, std::size_t nx, const Real* h,
                     std::size_t nh, Real* out);
void onepole(const Real* x, Real* y, std::size_t n, Real alpha, Real* state);
void envelope(const Real* x, Real* y, std::size_t n, Real alpha, Real* state);
void fdtd_velocity_row(const FdtdVelocityRowArgs& a);
void fdtd_stress_row(const FdtdStressRowArgs& a);
}  // namespace neon
#endif

}  // namespace ecocap::dsp::kernels::detail
