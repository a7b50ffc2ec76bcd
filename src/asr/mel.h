// Mel scale and triangular filterbank.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace ivc::asr {

// Hz ↔ mel (O'Shaughnessy's formula, the HTK convention).
double hz_to_mel(double hz);
double mel_to_hz(double mel);

// Triangular filterbank: `num_filters` rows over `num_bins` linear
// frequency bins spanning [0, sample_rate/2], covering [low_hz, high_hz].
struct mel_filterbank {
  std::vector<std::vector<double>> weights;  // [filter][bin]
  std::vector<double> center_hz;
  // Half-open nonzero column range per filter. Triangles are sparse
  // (each covers a small slice of the bins), and skipping exact-zero
  // weights is arithmetic-identical, so apply_to() only walks the support.
  // Empty (e.g. a hand-assembled bank) means "walk every bin".
  std::vector<std::pair<std::size_t, std::size_t>> support;

  std::size_t num_filters() const { return weights.size(); }

  // Applies the bank to a power spectrum (size must equal num_bins),
  // writing the band energies into `out` (resized to num_filters()).
  void apply_to(const std::vector<double>& power_spectrum,
                std::vector<double>& out) const;
};

mel_filterbank make_mel_filterbank(std::size_t num_filters,
                                   std::size_t num_bins,
                                   double sample_rate_hz, double low_hz,
                                   double high_hz);

}  // namespace ivc::asr
