#include "dsp/hilbert.h"

#include <algorithm>
#include <cmath>
#include <gtest/gtest.h>

#include "common/constants.h"
#include "common/rng.h"
#include "dsp/goertzel.h"
#include "dsp/spectrum.h"

namespace ivc::dsp {
namespace {

TEST(hilbert, analytic_signal_of_cosine_is_complex_exponential) {
  const double fs = 8'000.0;
  const std::size_t n = 4'096;
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = std::cos(two_pi * 500.0 * static_cast<double>(i) / fs);
  }
  const auto a = analytic_signal(x);
  // Interior samples: |a| == 1, imag == sin.
  for (std::size_t i = 200; i < n - 200; ++i) {
    EXPECT_NEAR(std::abs(a[i]), 1.0, 0.01);
    EXPECT_NEAR(a[i].imag(),
                std::sin(two_pi * 500.0 * static_cast<double>(i) / fs), 0.02);
  }
}

TEST(hilbert, envelope_of_am_tone_tracks_modulation) {
  const double fs = 48'000.0;
  const std::size_t n = 48'000;
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i) / fs;
    const double env = 1.0 + 0.5 * std::sin(two_pi * 5.0 * t);
    x[i] = env * std::cos(two_pi * 8'000.0 * t);
  }
  const auto env = envelope(x);
  for (std::size_t i = 2'000; i < n - 2'000; ++i) {
    const double t = static_cast<double>(i) / fs;
    EXPECT_NEAR(env[i], 1.0 + 0.5 * std::sin(two_pi * 5.0 * t), 0.03);
  }
}

TEST(hilbert, envelope_matches_analytic_signal_magnitude) {
  ivc::rng rng{7};
  for (const std::size_t n : {1, 2, 3, 1'000, 4'096, 10'917}) {
    std::vector<double> x(n);
    for (auto& v : x) {
      v = rng.normal();
    }
    const auto a = analytic_signal(x);
    const auto env = envelope(x);
    ASSERT_EQ(env.size(), n);
    double peak = 0.0;
    for (const auto& v : a) {
      peak = std::max(peak, std::abs(v));
    }
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(env[i], std::abs(a[i]), 1e-12 * peak) << "n " << n;
    }
  }
}

TEST(hilbert, smoothed_envelope_removes_ripple) {
  const double fs = 16'000.0;
  std::vector<double> x(16'000);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = std::sin(two_pi * 200.0 * static_cast<double>(i) / fs);
  }
  const auto env = smoothed_envelope(x, fs, 20.0);
  // Steady tone: smoothed envelope settles near 1.
  for (std::size_t i = 8'000; i < 15'000; ++i) {
    EXPECT_NEAR(env[i], 1.0, 0.05);
  }
}

TEST(hilbert, rejects_bad_arguments) {
  EXPECT_THROW(analytic_signal({}), std::invalid_argument);
  EXPECT_THROW(envelope({}), std::invalid_argument);
  const std::vector<double> x(64, 0.0);
  EXPECT_THROW(smoothed_envelope(x, 8'000.0, 5'000.0), std::invalid_argument);
}

}  // namespace
}  // namespace ivc::dsp
