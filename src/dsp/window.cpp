#include "dsp/window.h"

#include <cmath>
#include <cstddef>

#include "common/constants.h"
#include "common/error.h"

namespace ivc::dsp {
namespace {

// Evaluates one sample of the requested window with the given phase
// denominator (n-1 for symmetric, n for periodic).
double window_sample(window_kind kind, std::size_t i, double denom,
                     double kaiser_beta) {
  if (denom <= 0.0) {
    return 1.0;  // single-sample window
  }
  const double x = static_cast<double>(i) / denom;  // in [0, 1]
  switch (kind) {
    case window_kind::rectangular:
      return 1.0;
    case window_kind::hann:
      return 0.5 - 0.5 * std::cos(two_pi * x);
    case window_kind::hamming:
      return 0.54 - 0.46 * std::cos(two_pi * x);
    case window_kind::blackman:
      return 0.42 - 0.5 * std::cos(two_pi * x) + 0.08 * std::cos(2.0 * two_pi * x);
    case window_kind::blackman_harris:
      return 0.35875 - 0.48829 * std::cos(two_pi * x) +
             0.14128 * std::cos(2.0 * two_pi * x) -
             0.01168 * std::cos(3.0 * two_pi * x);
    case window_kind::kaiser: {
      const double t = 2.0 * x - 1.0;  // in [-1, 1]
      return bessel_i0(kaiser_beta * std::sqrt(std::max(0.0, 1.0 - t * t))) /
             bessel_i0(kaiser_beta);
    }
  }
  return 1.0;
}

std::vector<double> make_window_impl(window_kind kind, std::size_t n,
                                     double denom, double kaiser_beta) {
  expects(n > 0, "make_window: window length must be > 0");
  std::vector<double> w(n);
  for (std::size_t i = 0; i < n; ++i) {
    w[i] = window_sample(kind, i, denom, kaiser_beta);
  }
  return w;
}

}  // namespace

double bessel_i0(double x) {
  // Power-series evaluation; converges quickly for the |x| <= ~700 range
  // used by Kaiser windows (beta rarely exceeds 25).
  const double half = x / 2.0;
  double sum = 1.0;
  double term = 1.0;
  for (int k = 1; k < 64; ++k) {
    term *= (half / k) * (half / k);
    sum += term;
    if (term < sum * 1e-18) {
      break;
    }
  }
  return sum;
}

double kaiser_beta_for_attenuation(double attenuation_db) {
  expects(attenuation_db > 0.0,
          "kaiser_beta_for_attenuation: attenuation must be > 0 dB");
  if (attenuation_db > 50.0) {
    return 0.1102 * (attenuation_db - 8.7);
  }
  if (attenuation_db >= 21.0) {
    const double d = attenuation_db - 21.0;
    return 0.5842 * std::pow(d, 0.4) + 0.07886 * d;
  }
  return 0.0;  // rectangular window suffices below 21 dB
}

std::size_t kaiser_length_for_design(double attenuation_db,
                                     double transition_hz,
                                     double sample_rate_hz) {
  expects(transition_hz > 0.0 && sample_rate_hz > 0.0,
          "kaiser_length_for_design: transition and sample rate must be > 0");
  const double delta_omega = two_pi * transition_hz / sample_rate_hz;
  const double n = (attenuation_db - 8.0) / (2.285 * delta_omega);
  auto len = static_cast<std::size_t>(std::ceil(n)) + 1;
  if (len < 3) {
    len = 3;
  }
  if (len % 2 == 0) {
    ++len;  // odd length keeps a symmetric type-I linear-phase filter
  }
  return len;
}

std::vector<double> make_window(window_kind kind, std::size_t n,
                                double kaiser_beta) {
  return make_window_impl(kind, n, static_cast<double>(n) - 1.0, kaiser_beta);
}

std::vector<double> make_periodic_window(window_kind kind, std::size_t n,
                                         double kaiser_beta) {
  return make_window_impl(kind, n, static_cast<double>(n), kaiser_beta);
}

}  // namespace ivc::dsp
