#include "asr/mel.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace ivc::asr {

double hz_to_mel(double hz) { return 2595.0 * std::log10(1.0 + hz / 700.0); }

double mel_to_hz(double mel) {
  return 700.0 * (std::pow(10.0, mel / 2595.0) - 1.0);
}

void mel_filterbank::apply_to(const std::vector<double>& power_spectrum,
                              std::vector<double>& out) const {
  expects(!weights.empty(), "mel_filterbank::apply: empty bank");
  expects(power_spectrum.size() == weights.front().size(),
          "mel_filterbank::apply: spectrum size mismatch");
  const bool sparse = support.size() == weights.size();
  out.resize(weights.size());
  for (std::size_t m = 0; m < weights.size(); ++m) {
    const std::size_t lo = sparse ? support[m].first : 0;
    const std::size_t hi = sparse ? support[m].second : power_spectrum.size();
    const double* w = weights[m].data();
    double acc = 0.0;
    for (std::size_t k = lo; k < hi; ++k) {
      acc += w[k] * power_spectrum[k];
    }
    out[m] = acc;
  }
}

mel_filterbank make_mel_filterbank(std::size_t num_filters,
                                   std::size_t num_bins,
                                   double sample_rate_hz, double low_hz,
                                   double high_hz) {
  expects(num_filters >= 2, "make_mel_filterbank: need >= 2 filters");
  expects(num_bins >= num_filters,
          "make_mel_filterbank: need more bins than filters");
  expects(low_hz >= 0.0 && high_hz > low_hz &&
              high_hz <= sample_rate_hz / 2.0,
          "make_mel_filterbank: need 0 <= low < high <= fs/2");

  const double mel_lo = hz_to_mel(low_hz);
  const double mel_hi = hz_to_mel(high_hz);
  // num_filters + 2 equally spaced mel points define the triangles.
  std::vector<double> edges_hz(num_filters + 2);
  for (std::size_t i = 0; i < edges_hz.size(); ++i) {
    const double mel = mel_lo + (mel_hi - mel_lo) * static_cast<double>(i) /
                                    static_cast<double>(num_filters + 1);
    edges_hz[i] = mel_to_hz(mel);
  }

  const double bin_hz = (sample_rate_hz / 2.0) / static_cast<double>(num_bins - 1);
  mel_filterbank bank;
  bank.weights.assign(num_filters, std::vector<double>(num_bins, 0.0));
  bank.center_hz.resize(num_filters);
  bank.support.assign(num_filters, {0, 0});
  for (std::size_t m = 0; m < num_filters; ++m) {
    const double left = edges_hz[m];
    const double center = edges_hz[m + 1];
    const double right = edges_hz[m + 2];
    bank.center_hz[m] = center;
    std::size_t lo = num_bins;
    std::size_t hi = 0;
    for (std::size_t k = 0; k < num_bins; ++k) {
      const double f = static_cast<double>(k) * bin_hz;
      if (f > left && f < center) {
        bank.weights[m][k] = (f - left) / (center - left);
      } else if (f >= center && f < right) {
        bank.weights[m][k] = (right - f) / (right - center);
      }
      if (bank.weights[m][k] != 0.0) {
        lo = std::min(lo, k);
        hi = k + 1;
      }
    }
    bank.support[m] = lo < hi ? std::pair<std::size_t, std::size_t>{lo, hi}
                              : std::pair<std::size_t, std::size_t>{0, 0};
  }
  return bank;
}

}  // namespace ivc::asr
