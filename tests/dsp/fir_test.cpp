#include "dsp/fir.h"

#include <cmath>
#include <gtest/gtest.h>

#include "common/constants.h"
#include "common/rng.h"
#include "dsp/goertzel.h"

namespace ivc::dsp {
namespace {

TEST(fir, lowpass_passband_and_stopband) {
  const auto taps = design_fir_lowpass(201, 1'000.0, 16'000.0);
  EXPECT_NEAR(fir_response_at(taps, 0.0, 16'000.0), 1.0, 0.01);
  EXPECT_NEAR(fir_response_at(taps, 500.0, 16'000.0), 1.0, 0.01);
  EXPECT_NEAR(fir_response_at(taps, 1'000.0, 16'000.0), 0.5, 0.05);
  EXPECT_LT(fir_response_at(taps, 2'000.0, 16'000.0), 1e-3);
  EXPECT_LT(fir_response_at(taps, 6'000.0, 16'000.0), 1e-3);
}

TEST(fir, taps_are_symmetric_linear_phase) {
  const auto taps = design_fir_lowpass(101, 1'000.0, 16'000.0);
  for (std::size_t i = 0; i < taps.size(); ++i) {
    EXPECT_NEAR(taps[i], taps[taps.size() - 1 - i], 1e-14);
  }
}

TEST(fir, convolve_matches_manual_small_case) {
  const std::vector<double> sig{1.0, 2.0, 3.0};
  const std::vector<double> taps{1.0, -1.0};
  const auto out = convolve(sig, taps);
  ASSERT_EQ(out.size(), 4u);
  EXPECT_NEAR(out[0], 1.0, 1e-12);
  EXPECT_NEAR(out[1], 1.0, 1e-12);
  EXPECT_NEAR(out[2], 1.0, 1e-12);
  EXPECT_NEAR(out[3], -3.0, 1e-12);
}

TEST(fir, fft_and_direct_convolution_agree) {
  ivc::rng rng{11};
  std::vector<double> sig(3'000);
  std::vector<double> taps(129);
  for (auto& v : sig) {
    v = rng.normal();
  }
  for (auto& v : taps) {
    v = rng.normal();
  }
  // Force both paths by exploiting the threshold: large product uses FFT.
  const auto fft_out = convolve(sig, taps);
  // Direct reference.
  std::vector<double> direct(sig.size() + taps.size() - 1, 0.0);
  for (std::size_t i = 0; i < sig.size(); ++i) {
    for (std::size_t j = 0; j < taps.size(); ++j) {
      direct[i + j] += sig[i] * taps[j];
    }
  }
  ASSERT_EQ(fft_out.size(), direct.size());
  for (std::size_t i = 0; i < direct.size(); ++i) {
    EXPECT_NEAR(fft_out[i], direct[i], 1e-8);
  }
}

TEST(fir, filter_zero_delay_preserves_alignment) {
  // A slow sine passed through a low-pass must come out nearly in phase.
  const double fs = 8'000.0;
  std::vector<double> sig(4'000);
  for (std::size_t i = 0; i < sig.size(); ++i) {
    sig[i] = std::sin(two_pi * 100.0 * static_cast<double>(i) / fs);
  }
  const auto taps = design_fir_lowpass(401, 500.0, fs);
  const auto out = filter_zero_delay(sig, taps);
  ASSERT_EQ(out.size(), sig.size());
  // Compare mid-section (edges have transients).
  for (std::size_t i = 1'000; i < 3'000; ++i) {
    EXPECT_NEAR(out[i], sig[i], 0.01);
  }
}

TEST(fir, apply_magnitude_response_scales_tones_independently) {
  const double fs = 16'000.0;
  std::vector<double> sig(8'192);
  for (std::size_t i = 0; i < sig.size(); ++i) {
    const double t = static_cast<double>(i);
    sig[i] = std::sin(two_pi * 1'000.0 * t / fs) +
             std::sin(two_pi * 3'000.0 * t / fs);
  }
  const auto out = apply_magnitude_response(sig, fs, [](double f) {
    return f < 2'000.0 ? 1.0 : 0.25;
  });
  EXPECT_NEAR(goertzel_amplitude(out, fs, 1'000.0), 1.0, 0.02);
  EXPECT_NEAR(goertzel_amplitude(out, fs, 3'000.0), 0.25, 0.02);
}

TEST(fir, design_rejects_bad_arguments) {
  EXPECT_THROW(design_fir_lowpass(100, 1'000.0, 16'000.0),
               std::invalid_argument);  // even taps
  EXPECT_THROW(design_fir_lowpass(101, 9'000.0, 16'000.0),
               std::invalid_argument);  // cutoff >= fs/2
  EXPECT_THROW(filter_zero_delay(std::vector<double>{1.0, 2.0},
                                 std::vector<double>{1.0, 1.0}),
               std::invalid_argument);  // even-length taps
}

}  // namespace
}  // namespace ivc::dsp
