#include "dsp/fft_plan.h"

#include <cmath>
#include <gtest/gtest.h>

#include "common/constants.h"
#include "common/rng.h"

namespace ivc::dsp {
namespace {

// O(n^2) reference DFT (ground truth for every fast path under test).
// The angle index k·i is reduced mod n so the reference stays accurate
// at the largest sizes.
std::vector<cplx> reference_dft(const std::vector<cplx>& x) {
  const std::size_t n = x.size();
  std::vector<cplx> out(n);
  for (std::size_t k = 0; k < n; ++k) {
    cplx acc{0.0, 0.0};
    for (std::size_t i = 0; i < n; ++i) {
      const double angle = -two_pi * static_cast<double>((k * i) % n) /
                           static_cast<double>(n);
      acc += x[i] * cplx{std::cos(angle), std::sin(angle)};
    }
    out[k] = acc;
  }
  return out;
}

std::vector<cplx> reference_dft(const std::vector<double>& x) {
  return reference_dft(std::vector<cplx>(x.begin(), x.end()));
}

std::vector<double> random_signal(std::size_t n, std::uint64_t seed) {
  ivc::rng rng{seed};
  std::vector<double> x(n);
  for (double& v : x) {
    v = rng.normal();
  }
  return x;
}

// Half spectrum of x through the shared plan for its (power-of-two) size.
std::vector<cplx> plan_rfft(const std::vector<double>& x) {
  const auto plan = get_fft_plan(x.size());
  std::vector<cplx> half(plan->num_real_bins());
  plan->rfft(x, half);
  return half;
}

std::vector<double> plan_irfft(const std::vector<cplx>& half, std::size_t n) {
  const auto plan = get_fft_plan(n);
  std::vector<double> out(n);
  std::vector<cplx> work(plan->workspace_size());
  plan->irfft(half, out, work);
  return out;
}

TEST(fft_plan, next_pow2_covers_edges) {
  EXPECT_EQ(next_pow2(0), 1u);
  EXPECT_EQ(next_pow2(1), 1u);
  EXPECT_EQ(next_pow2(2), 2u);
  EXPECT_EQ(next_pow2(3), 4u);
  EXPECT_EQ(next_pow2(1024), 1024u);
  EXPECT_EQ(next_pow2(1025), 2048u);
}

TEST(fft_plan, is_pow2_matches_definition) {
  EXPECT_FALSE(is_pow2(0));
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(64));
  EXPECT_FALSE(is_pow2(48));
}

TEST(fft_plan, bin_frequency_maps_positive_and_negative) {
  EXPECT_DOUBLE_EQ(bin_frequency_hz(0, 8, 8000.0), 0.0);
  EXPECT_DOUBLE_EQ(bin_frequency_hz(1, 8, 8000.0), 1000.0);
  EXPECT_DOUBLE_EQ(bin_frequency_hz(4, 8, 8000.0), 4000.0);
  EXPECT_DOUBLE_EQ(bin_frequency_hz(5, 8, 8000.0), -3000.0);
  EXPECT_DOUBLE_EQ(bin_frequency_hz(7, 8, 8000.0), -1000.0);
  EXPECT_THROW(bin_frequency_hz(8, 8, 8000.0), std::invalid_argument);
}

TEST(fft_plan, rejects_non_pow2_sizes) {
  EXPECT_THROW((fft_plan{12}), std::invalid_argument);
  EXPECT_THROW(get_fft_plan(0), std::invalid_argument);
  EXPECT_THROW(get_fft_plan(48), std::invalid_argument);
}

TEST(fft_plan, rfft_matches_reference_dft_at_pow2_lengths) {
  for (const std::size_t n : {1u, 2u, 4u, 8u, 64u, 256u, 1024u}) {
    const std::vector<double> x = random_signal(n, 7 + n);
    const std::vector<cplx> ref = reference_dft(x);
    const std::vector<cplx> half = plan_rfft(x);
    ASSERT_EQ(half.size(), n / 2 + 1) << "n=" << n;
    for (std::size_t k = 0; k < half.size(); ++k) {
      EXPECT_NEAR(half[k].real(), ref[k].real(), 1e-8) << "n=" << n;
      EXPECT_NEAR(half[k].imag(), ref[k].imag(), 1e-8) << "n=" << n;
    }
  }
}

TEST(fft_plan, rfft_irfft_round_trips_at_pow2_lengths) {
  for (const std::size_t n : {1u, 2u, 8u, 128u, 1024u}) {
    const std::vector<double> x = random_signal(n, 100 + n);
    const std::vector<double> back = plan_irfft(plan_rfft(x), n);
    ASSERT_EQ(back.size(), n) << "n=" << n;
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(back[i], x[i], 1e-9) << "n=" << n << " i=" << i;
    }
  }
}

TEST(fft_plan, planned_complex_transform_matches_reference_dft) {
  ivc::rng rng{5};
  const std::size_t n = 512;
  std::vector<cplx> x(n);
  for (auto& v : x) {
    v = cplx{rng.normal(), rng.normal()};
  }
  const std::vector<cplx> expected = reference_dft(x);
  const auto plan = get_fft_plan(n);
  std::vector<cplx> data = x;
  plan->forward(data);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(std::abs(data[i] - expected[i]), 0.0, 1e-9);
  }
  // And the inverse round-trips.
  plan->inverse(data);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(std::abs(data[i] - x[i]), 0.0, 1e-10);
  }
}

TEST(fft_plan, plan_cache_shares_one_plan_per_size) {
  const auto a = get_fft_plan(256);
  const auto b = get_fft_plan(256);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(a->size(), 256u);
  EXPECT_EQ(a->num_real_bins(), 129u);
  EXPECT_NE(a.get(), get_fft_plan(512).get());
}

TEST(fft_plan, member_rfft_needs_no_allocation_buffers_of_exact_size) {
  const std::size_t n = 64;
  const auto plan = get_fft_plan(n);
  const std::vector<double> x = random_signal(n, 9);
  std::vector<cplx> out(plan->num_real_bins());
  plan->rfft(x, out);
  const std::vector<cplx> expected = reference_dft(x);
  for (std::size_t k = 0; k < out.size(); ++k) {
    EXPECT_NEAR(std::abs(out[k] - expected[k]), 0.0, 1e-9);
  }
  // irfft with a caller-owned workspace recovers the signal.
  std::vector<double> back(n);
  std::vector<cplx> work(plan->workspace_size());
  plan->irfft(out, back, work);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(back[i], x[i], 1e-10);
  }
  // Size mismatches are rejected rather than silently misread.
  std::vector<cplx> short_out(3);
  EXPECT_THROW(plan->rfft(x, short_out), std::invalid_argument);
  std::vector<cplx> no_work;
  EXPECT_THROW(plan->irfft(out, back, no_work), std::invalid_argument);
}

TEST(fft_plan, sine_lands_in_expected_half_spectrum_bin) {
  const std::size_t n = 256;
  const std::size_t k = 10;
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = std::sin(two_pi * static_cast<double>(k * i) / n);
  }
  const std::vector<cplx> half = plan_rfft(x);
  EXPECT_NEAR(std::abs(half[k]), n / 2.0, 1e-9);
  EXPECT_NEAR(std::abs(half[k + 3]), 0.0, 1e-9);
}

}  // namespace
}  // namespace ivc::dsp
