// Analysis/synthesis window functions.
#pragma once

#include <cstddef>
#include <vector>

namespace ivc::dsp {

enum class window_kind {
  rectangular,
  hann,
  hamming,
  blackman,
  blackman_harris,
  kaiser,
};

// Builds an n-point symmetric window. `kaiser_beta` is only used for
// window_kind::kaiser. Throws std::invalid_argument for n == 0.
std::vector<double> make_window(window_kind kind, std::size_t n,
                                double kaiser_beta = 8.6);

// Periodic variant (denominator n instead of n-1), appropriate for STFT
// analysis with overlap-add.
std::vector<double> make_periodic_window(window_kind kind, std::size_t n,
                                         double kaiser_beta = 8.6);

// Zeroth-order modified Bessel function of the first kind, used by the
// Kaiser window; exposed for testing.
double bessel_i0(double x);

// Kaiser beta that yields approximately `attenuation_db` of stop-band
// rejection in FIR design (Kaiser's empirical formula).
double kaiser_beta_for_attenuation(double attenuation_db);

// Estimated FIR length for a Kaiser-window design achieving
// `attenuation_db` rejection with a transition band of `transition_hz`
// at sample rate `sample_rate_hz`. Always returns an odd value >= 3.
std::size_t kaiser_length_for_design(double attenuation_db,
                                     double transition_hz,
                                     double sample_rate_hz);

}  // namespace ivc::dsp
