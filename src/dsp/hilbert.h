// Analytic signal and envelope extraction.
//
// The defense correlates low-frequency traces against the squared voice
// envelope (smoothed_envelope). analytic_signal() is the textbook form
// that envelope()'s faster quadrature path is checked against.
#pragma once

#include <complex>
#include <span>
#include <vector>

namespace ivc::dsp {

// Analytic signal via the FFT method: X(f) doubled for positive
// frequencies, zeroed for negative ones.
std::vector<std::complex<double>> analytic_signal(std::span<const double> input);

// Instantaneous amplitude |analytic(x)| = sqrt(x² + h²). The quadrature
// h comes from one half-size real inverse transform (-j·X on the
// interior bins, DC and Nyquist zeroed) rather than the full complex
// inverse analytic_signal() runs; the two agree to rounding.
std::vector<double> envelope(std::span<const double> input);

// Envelope additionally smoothed by a low-pass at `smooth_hz`
// (2nd-order Butterworth, applied forward only).
std::vector<double> smoothed_envelope(std::span<const double> input,
                                      double sample_rate_hz, double smooth_hz);

}  // namespace ivc::dsp
