// FIR filter design (windowed-sinc) and application.
//
// Designs are type-I linear-phase (odd length, symmetric taps); the
// application helpers compensate the group delay so filtered output is
// time-aligned with the input, which every downstream correlation-based
// metric in this library relies on.
#pragma once

#include <cstddef>
#include <functional>
#include <span>
#include <vector>

#include "dsp/window.h"

namespace ivc::dsp {

// Windowed-sinc low-pass. `cutoff_hz` in (0, fs/2). Odd `num_taps`.
std::vector<double> design_fir_lowpass(std::size_t num_taps, double cutoff_hz,
                                       double sample_rate_hz,
                                       window_kind window = window_kind::kaiser,
                                       double kaiser_beta = 8.6);

// Full linear convolution (output length = signal + taps - 1). Uses FFT
// convolution above a size threshold, direct convolution below it.
std::vector<double> convolve(std::span<const double> signal,
                             std::span<const double> taps);

// Filters and removes the (num_taps-1)/2 group delay, returning a signal
// the same length as the input. Requires odd-length symmetric taps for the
// alignment to be exact.
std::vector<double> filter_zero_delay(std::span<const double> signal,
                                      std::span<const double> taps);

// Complex magnitude response of an FIR filter at `freq_hz`.
double fir_response_at(std::span<const double> taps, double freq_hz,
                       double sample_rate_hz);

// Applies an arbitrary frequency-domain gain to a real signal: the signal
// is FFT'd, each bin is scaled by gain(|f|), and the result inverse
// transformed. `gain` is evaluated on [0, fs/2]; negative-frequency bins
// mirror their positive counterparts, keeping the output real. Zero-phase,
// no delay; ideal for modelling measured magnitude responses (air
// absorption, enclosures, speaker response).
std::vector<double> apply_magnitude_response(
    std::span<const double> signal, double sample_rate_hz,
    const std::function<double(double)>& gain);

}  // namespace ivc::dsp
