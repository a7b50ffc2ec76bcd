// Correlation statistics and cross-correlation.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace ivc::dsp {

// Pearson correlation coefficient in [-1, 1]. Returns 0 when either input
// has (numerically) zero variance. Sizes must match and be >= 2.
double pearson_correlation(std::span<const double> a, std::span<const double> b);

// Full normalized cross-correlation between a and b over all lags in
// [-(b.size()-1), a.size()-1]; entry i corresponds to lag i-(b.size()-1).
// Normalization is by the product of the signals' L2 norms, so a perfect
// scaled copy peaks at 1.
std::vector<double> normalized_cross_correlation(std::span<const double> a,
                                                 std::span<const double> b);

struct alignment {
  std::ptrdiff_t lag = 0;   // samples by which b must shift to align with a
  double peak = 0.0;        // normalized correlation at that lag
};

// Lag of maximum |cross-correlation| and its normalized value.
alignment best_alignment(std::span<const double> a, std::span<const double> b);

// Pearson correlation after shifting b by the lag of maximum |cross-
// correlation| within +/-max_lag samples. Used to score demodulated
// commands against the reference voice without assuming exact time
// alignment.
//
// Only the searched lags [max(-max_lag, -(b.size()-1)),
// min(max_lag, a.size()-1)] are computed: blocks of b are correlated
// against the matching a-segments in the frequency domain at a transform
// size set by the lag span alone (2048 for +/-320 lags), and their
// spectra are summed before one inverse. The first maximum of |xc| in
// ascending lag order wins; when either input is silent
// (sqrt(Σa²·Σb²) <= 1e-300) the lowest lag in range does. The returned
// value is pearson_correlation() on the overlap at that lag.
double aligned_correlation(std::span<const double> a, std::span<const double> b,
                           std::size_t max_lag);

}  // namespace ivc::dsp
