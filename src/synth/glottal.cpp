#include "synth/glottal.h"

#include <cmath>

#include "common/constants.h"
#include "common/error.h"

namespace ivc::synth {

std::vector<double> glottal_source(std::span<const double> f0_hz,
                                   double sample_rate_hz,
                                   const glottal_config& config,
                                   ivc::rng& rng) {
  expects(!f0_hz.empty(), "glottal_source: contour must be non-empty");
  expects(sample_rate_hz > 0.0, "glottal_source: sample rate must be > 0");
  expects(config.open_quotient > 0.0 && config.close_quotient > 0.0 &&
              config.open_quotient + config.close_quotient <= 1.0,
          "glottal_source: open+close quotients must fit in one period");

  std::vector<double> out(f0_hz.size(), 0.0);
  std::size_t i = 0;
  while (i < out.size()) {
    const double f0 = f0_hz[i];
    if (f0 <= 0.0) {
      ++i;
      continue;
    }
    // One period with jitter/shimmer applied.
    const double f0_jittered =
        std::max(30.0, f0 * (1.0 + rng.normal(0.0, config.jitter)));
    const auto period =
        std::max<std::size_t>(2, static_cast<std::size_t>(
                                     std::llround(sample_rate_hz / f0_jittered)));
    const double amp = std::max(0.0, 1.0 + rng.normal(0.0, config.shimmer));
    const auto n1 =
        static_cast<std::size_t>(config.open_quotient * static_cast<double>(period));
    const auto n2 = n1 + static_cast<std::size_t>(config.close_quotient *
                                                  static_cast<double>(period));
    for (std::size_t k = 0; k < period && i + k < out.size(); ++k) {
      double g = 0.0;
      if (k < n1 && n1 > 0) {
        g = 0.5 * (1.0 - std::cos(pi * static_cast<double>(k) /
                                  static_cast<double>(n1)));
      } else if (k < n2 && n2 > n1) {
        g = std::cos(0.5 * pi * static_cast<double>(k - n1) /
                     static_cast<double>(n2 - n1));
      }
      out[i + k] = amp * g;
    }
    i += period;
  }

  // Differentiate: the radiated glottal flow derivative is what excites
  // the vocal tract (removes the DC pedestal, brightens the spectrum).
  double prev = 0.0;
  for (double& v : out) {
    const double cur = v;
    v = cur - prev;
    prev = cur;
  }
  return out;
}

}  // namespace ivc::synth
