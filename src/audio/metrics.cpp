#include "audio/metrics.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace ivc::audio {

double rms(std::span<const double> x) {
  expects(!x.empty(), "rms: input must be non-empty");
  double acc = 0.0;
  for (const double v : x) {
    acc += v * v;
  }
  return std::sqrt(acc / static_cast<double>(x.size()));
}

double peak(std::span<const double> x) {
  expects(!x.empty(), "peak: input must be non-empty");
  double p = 0.0;
  for (const double v : x) {
    p = std::max(p, std::abs(v));
  }
  return p;
}

double amplitude_skewness(std::span<const double> x) {
  expects(x.size() >= 3, "amplitude_skewness: need at least 3 samples");
  double mean = 0.0;
  for (const double v : x) {
    mean += v;
  }
  mean /= static_cast<double>(x.size());
  double m2 = 0.0;
  double m3 = 0.0;
  for (const double v : x) {
    const double d = v - mean;
    m2 += d * d;
    m3 += d * d * d;
  }
  m2 /= static_cast<double>(x.size());
  m3 /= static_cast<double>(x.size());
  if (m2 <= 1e-300) {
    return 0.0;
  }
  return m3 / std::pow(m2, 1.5);
}

}  // namespace ivc::audio
