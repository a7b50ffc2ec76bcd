#include "dsp/biquad.h"

#include <cmath>
#include <gtest/gtest.h>

#include "common/constants.h"
#include "dsp/goertzel.h"

namespace ivc::dsp {
namespace {

TEST(biquad, lowpass_response_at_key_frequencies) {
  const auto lp = butterworth_lowpass(4, 1'000.0, 16'000.0);
  EXPECT_NEAR(lp.response_at(0.0, 16'000.0), 1.0, 1e-6);
  // -3 dB at the cutoff, by construction.
  EXPECT_NEAR(lp.response_at(1'000.0, 16'000.0), 1.0 / std::sqrt(2.0), 1e-3);
  // 4th order: -24 dB/octave.
  const double octave_up = lp.response_at(2'000.0, 16'000.0);
  EXPECT_NEAR(20.0 * std::log10(octave_up), -24.0, 1.5);
}

TEST(biquad, highpass_response_mirrors_lowpass) {
  const auto hp = butterworth_highpass(4, 1'000.0, 16'000.0);
  EXPECT_LT(hp.response_at(100.0, 16'000.0), 0.01);
  EXPECT_NEAR(hp.response_at(1'000.0, 16'000.0), 1.0 / std::sqrt(2.0), 1e-3);
  EXPECT_NEAR(hp.response_at(6'000.0, 16'000.0), 1.0, 0.01);
}

TEST(biquad, odd_orders_produce_first_order_section) {
  const auto lp = butterworth_lowpass(5, 1'000.0, 16'000.0);
  EXPECT_EQ(lp.sections().size(), 3u);  // 2 biquads + 1 first-order
  EXPECT_NEAR(lp.response_at(1'000.0, 16'000.0), 1.0 / std::sqrt(2.0), 1e-3);
}

TEST(biquad, designs_are_stable_across_orders_and_cutoffs) {
  for (const std::size_t order : {1u, 2u, 3u, 4u, 6u, 8u}) {
    for (const double fc : {20.0, 100.0, 1'000.0, 7'000.0}) {
      EXPECT_TRUE(butterworth_lowpass(order, fc, 16'000.0).is_stable())
          << "lp order=" << order << " fc=" << fc;
      EXPECT_TRUE(butterworth_highpass(order, fc, 16'000.0).is_stable())
          << "hp order=" << order << " fc=" << fc;
    }
  }
}

TEST(biquad, bandpass_passes_center_rejects_edges) {
  const auto bp = butterworth_bandpass(2, 500.0, 2'000.0, 16'000.0);
  EXPECT_LT(bp.response_at(50.0, 16'000.0), 0.02);
  EXPECT_GT(bp.response_at(1'000.0, 16'000.0), 0.9);
  EXPECT_LT(bp.response_at(7'000.0, 16'000.0), 0.02);
}

TEST(biquad, process_attenuates_stopband_tone) {
  const double fs = 16'000.0;
  const auto lp = butterworth_lowpass(6, 1'000.0, fs);
  std::vector<double> sig(8'000);
  for (std::size_t i = 0; i < sig.size(); ++i) {
    sig[i] = std::sin(two_pi * 4'000.0 * static_cast<double>(i) / fs);
  }
  const auto out = lp.process(sig);
  // Measure on the tail (past the transient).
  const std::span<const double> tail{out.data() + 4'000, 4'000};
  EXPECT_LT(goertzel_amplitude(tail, fs, 4'000.0), 1e-3);
}

TEST(biquad, rejects_bad_designs) {
  EXPECT_THROW(butterworth_lowpass(0, 1'000.0, 16'000.0),
               std::invalid_argument);
  EXPECT_THROW(butterworth_lowpass(4, 9'000.0, 16'000.0),
               std::invalid_argument);
  EXPECT_THROW(butterworth_bandpass(2, 3'000.0, 1'000.0, 16'000.0),
               std::invalid_argument);
}

}  // namespace
}  // namespace ivc::dsp
