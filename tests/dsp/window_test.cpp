#include "dsp/window.h"

#include <cmath>
#include <gtest/gtest.h>

namespace ivc::dsp {
namespace {

TEST(window, symmetric_windows_are_symmetric) {
  for (const auto kind :
       {window_kind::hann, window_kind::hamming, window_kind::blackman,
        window_kind::blackman_harris, window_kind::kaiser}) {
    const auto w = make_window(kind, 65);
    for (std::size_t i = 0; i < w.size(); ++i) {
      EXPECT_NEAR(w[i], w[w.size() - 1 - i], 1e-12) << static_cast<int>(kind);
    }
  }
}

TEST(window, hann_endpoints_are_zero_and_center_is_one) {
  const auto w = make_window(window_kind::hann, 33);
  EXPECT_NEAR(w.front(), 0.0, 1e-12);
  EXPECT_NEAR(w.back(), 0.0, 1e-12);
  EXPECT_NEAR(w[16], 1.0, 1e-12);
}

TEST(window, rectangular_is_all_ones) {
  const auto w = make_window(window_kind::rectangular, 10);
  for (const double v : w) {
    EXPECT_DOUBLE_EQ(v, 1.0);
  }
}

TEST(window, values_lie_in_unit_interval) {
  for (const auto kind :
       {window_kind::hann, window_kind::hamming, window_kind::blackman,
        window_kind::blackman_harris, window_kind::kaiser}) {
    for (const double v : make_window(kind, 101)) {
      EXPECT_GE(v, -1e-12);
      EXPECT_LE(v, 1.0 + 1e-12);
    }
  }
}

TEST(window, periodic_hann_satisfies_cola_at_half_overlap) {
  // hann periodic windows at 50% hop sum to a constant.
  const std::size_t n = 64;
  const auto w = make_periodic_window(window_kind::hann, n);
  for (std::size_t i = 0; i < n / 2; ++i) {
    EXPECT_NEAR(w[i] + w[i + n / 2], 1.0, 1e-12);
  }
}

TEST(window, bessel_i0_known_values) {
  EXPECT_NEAR(bessel_i0(0.0), 1.0, 1e-15);
  EXPECT_NEAR(bessel_i0(1.0), 1.2660658777520084, 1e-12);
  EXPECT_NEAR(bessel_i0(5.0), 27.239871823604442, 1e-9);
}

TEST(window, kaiser_beta_formula_regions) {
  EXPECT_DOUBLE_EQ(kaiser_beta_for_attenuation(15.0), 0.0);
  EXPECT_NEAR(kaiser_beta_for_attenuation(60.0), 0.1102 * (60.0 - 8.7), 1e-12);
  const double beta30 = kaiser_beta_for_attenuation(30.0);
  EXPECT_GT(beta30, 0.0);
  EXPECT_LT(beta30, kaiser_beta_for_attenuation(50.0));
}

TEST(window, kaiser_length_grows_with_attenuation_and_sharpness) {
  const auto a = kaiser_length_for_design(60.0, 1000.0, 48'000.0);
  const auto b = kaiser_length_for_design(90.0, 1000.0, 48'000.0);
  const auto c = kaiser_length_for_design(60.0, 200.0, 48'000.0);
  EXPECT_GT(b, a);
  EXPECT_GT(c, a);
  EXPECT_EQ(a % 2, 1u);
}

TEST(window, zero_length_throws) {
  EXPECT_THROW(make_window(window_kind::hann, 0), std::invalid_argument);
}

TEST(window, single_sample_window_is_one) {
  const auto w = make_window(window_kind::blackman, 1);
  ASSERT_EQ(w.size(), 1u);
  EXPECT_DOUBLE_EQ(w[0], 1.0);
}

}  // namespace
}  // namespace ivc::dsp
