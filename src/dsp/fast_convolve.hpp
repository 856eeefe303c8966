#pragma once

#include <cstddef>
#include <span>

#include "dsp/types.hpp"

namespace ecocap::dsp {

/// Fast-convolution kernel layer. Every waveform-length hot path (FIR
/// filtering, zero-phase filtering, template correlation) routes through
/// these primitives, which pick between the direct O(N·M) form and
/// overlap-save FFT convolution from a cost model over (signal length, tap
/// count).
///
/// The FFT path packs two real overlap-save blocks into one complex FFT
/// (block A in the real part, block B in the imaginary part); because the
/// kernel is real, Y = H·X separates back into the two block outputs as the
/// real and imaginary parts of the inverse transform, so real signals cost
/// one forward + one inverse FFT per *two* blocks.

/// Cost-model dispatch: true when the overlap-save FFT path is estimated
/// cheaper than the direct form for an x-length-n signal and m-tap kernel.
bool use_fft_convolution(std::size_t n, std::size_t m);

/// Full linear convolution y[k] = sum_j h[j]·x[k-j], k in [0, n+m-1).
/// Empty x or h yields an empty result. Dispatches direct vs FFT.
Signal convolve_full(std::span<const Real> x, std::span<const Real> h);

/// Direct-form full convolution (reference path; always exact).
Signal convolve_full_direct(std::span<const Real> x, std::span<const Real> h);

/// Overlap-save FFT full convolution (packed real blocks).
Signal convolve_full_fft(std::span<const Real> x, std::span<const Real> h);

/// Valid-mode correlation out[k] = sum_i x[k+i]·h[i] via the FFT path
/// (convolution with the reversed template). Same contract as
/// correlate_valid: empty result when h is empty or longer than x.
Signal correlate_valid_fft(std::span<const Real> x, std::span<const Real> h);

}  // namespace ecocap::dsp
