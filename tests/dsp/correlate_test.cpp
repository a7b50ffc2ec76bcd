#include "dsp/correlate.h"

#include <cmath>
#include <cstdint>
#include <gtest/gtest.h>
#include <limits>
#include <tuple>

#include "common/constants.h"
#include "common/rng.h"
#include "dsp/biquad.h"

namespace ivc::dsp {
namespace {

TEST(correlate, pearson_of_identical_signals_is_one) {
  ivc::rng rng{1};
  std::vector<double> x(500);
  for (auto& v : x) {
    v = rng.normal();
  }
  EXPECT_NEAR(pearson_correlation(x, x), 1.0, 1e-12);
}

TEST(correlate, pearson_is_scale_and_offset_invariant) {
  ivc::rng rng{2};
  std::vector<double> x(500);
  std::vector<double> y(500);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = rng.normal();
    y[i] = 3.0 * x[i] + 7.0;
  }
  EXPECT_NEAR(pearson_correlation(x, y), 1.0, 1e-12);
  for (auto& v : y) {
    v = -v;
  }
  EXPECT_NEAR(pearson_correlation(x, y), -1.0, 1e-12);
}

TEST(correlate, pearson_of_independent_noise_is_small) {
  ivc::rng rng{3};
  std::vector<double> x(20'000);
  std::vector<double> y(20'000);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = rng.normal();
    y[i] = rng.normal();
  }
  EXPECT_LT(std::abs(pearson_correlation(x, y)), 0.05);
}

TEST(correlate, pearson_zero_variance_returns_zero) {
  const std::vector<double> x(100, 1.0);
  const std::vector<double> y{std::vector<double>(100, 2.0)};
  EXPECT_DOUBLE_EQ(pearson_correlation(x, y), 0.0);
}

TEST(correlate, best_alignment_finds_known_shift) {
  ivc::rng rng{4};
  std::vector<double> base(1'000);
  for (auto& v : base) {
    v = rng.normal();
  }
  // a = base delayed by 37 samples.
  std::vector<double> a(1'200, 0.0);
  for (std::size_t i = 0; i < base.size(); ++i) {
    a[i + 37] = base[i];
  }
  const alignment al = best_alignment(a, base);
  EXPECT_EQ(al.lag, 37);
  EXPECT_NEAR(al.peak, 1.0, 0.05);
}

TEST(correlate, aligned_correlation_tolerates_lag) {
  ivc::rng rng{5};
  std::vector<double> base(2'000);
  for (auto& v : base) {
    v = rng.normal();
  }
  std::vector<double> shifted(2'000, 0.0);
  for (std::size_t i = 0; i + 25 < base.size(); ++i) {
    shifted[i + 25] = base[i];
  }
  EXPECT_GT(aligned_correlation(shifted, base, 50), 0.95);
  // Without enough slack the alignment fails to reach the true lag.
  EXPECT_LT(aligned_correlation(shifted, base, 3), 0.5);
}

// Seeded low-passed noise: a broad correlation peak, like the defense's
// band-limited traces.
std::vector<double> band_limited_noise(std::size_t n, std::uint64_t seed) {
  ivc::rng rng{seed};
  std::vector<double> x(n);
  for (auto& v : x) {
    v = rng.normal();
  }
  return butterworth_lowpass(4, 400.0, 16'000.0).process(x);
}

// Two cuts of one band-limited base with a[i] = b[i - shift] (a lags b
// by `shift` samples), plus independent noise on a.
struct shifted_pair {
  std::vector<double> a;
  std::vector<double> b;
};

shifted_pair make_shifted_pair(std::size_t len_a, std::size_t len_b,
                               std::ptrdiff_t shift, std::uint64_t seed) {
  const std::size_t pad = 4'000;
  const std::vector<double> base =
      band_limited_noise(len_a + len_b + 2 * pad, seed);
  ivc::rng rng{seed + 100};
  shifted_pair p;
  for (std::size_t i = 0; i < len_a; ++i) {
    const auto j = static_cast<std::ptrdiff_t>(pad + i) - shift;
    p.a.push_back(base[static_cast<std::size_t>(j)] + 0.05 * rng.normal());
  }
  for (std::size_t i = 0; i < len_b; ++i) {
    p.b.push_back(base[pad + i]);
  }
  return p;
}

struct reference_alignment {
  std::ptrdiff_t lag = 0;
  double value = 0.0;
};

// The rule aligned_correlation() keeps, derived from the full normalized
// cross-correlation: the first maximum of |xc| within +/-max_lag, then
// Pearson on the overlap at that lag.
reference_alignment reference_aligned(std::span<const double> a,
                                      std::span<const double> b,
                                      std::ptrdiff_t max_lag) {
  const std::vector<double> xc = normalized_cross_correlation(a, b);
  const auto zero = static_cast<std::ptrdiff_t>(b.size()) - 1;
  reference_alignment ref;
  double best_abs = -1.0;
  for (std::ptrdiff_t lag = -max_lag; lag <= max_lag; ++lag) {
    const std::ptrdiff_t idx = zero + lag;
    if (idx < 0 || idx >= static_cast<std::ptrdiff_t>(xc.size())) {
      continue;
    }
    if (std::abs(xc[static_cast<std::size_t>(idx)]) > best_abs) {
      best_abs = std::abs(xc[static_cast<std::size_t>(idx)]);
      ref.lag = lag;
    }
  }
  std::span<const double> sa = a;
  std::span<const double> sb = b;
  if (ref.lag >= 0) {
    sa = sa.subspan(static_cast<std::size_t>(ref.lag));
  } else {
    sb = sb.subspan(static_cast<std::size_t>(-ref.lag));
  }
  const std::size_t overlap = std::min(sa.size(), sb.size());
  ref.value = overlap < 2 ? 0.0
                          : pearson_correlation(sa.subspan(0, overlap),
                                                sb.subspan(0, overlap));
  return ref;
}

void expect_matches_reference(const shifted_pair& p, std::size_t max_lag,
                              std::ptrdiff_t shift) {
  const reference_alignment ref =
      reference_aligned(p.a, p.b, static_cast<std::ptrdiff_t>(max_lag));
  // The added noise may move a short pair's peak by one sample.
  EXPECT_LE(std::abs(ref.lag - shift), 1);
  // Same lag, same Pearson computation: bit-identical.
  EXPECT_EQ(aligned_correlation(p.a, p.b, max_lag), ref.value)
      << "shift " << shift << ", max_lag " << max_lag;
  EXPECT_GT(ref.value, 0.9);
}

TEST(correlate, aligned_correlation_matches_full_correlation_argmax) {
  // +/-320 lags: 2048-point blocks of 1408 b-samples, so 4000 samples
  // span three blocks.
  for (const std::ptrdiff_t shift : {-300, -57, -1, 0, 1, 13, 250, 320}) {
    const auto seed = static_cast<std::uint64_t>(shift + 400);
    expect_matches_reference(make_shifted_pair(4'000, 4'000, shift, seed),
                             320, shift);
  }
}

TEST(correlate, aligned_correlation_handles_unequal_lengths) {
  for (const auto& [len_a, len_b, shift] :
       {std::tuple<std::size_t, std::size_t, std::ptrdiff_t>{3'000, 1'700, 120},
        {3'000, 1'700, -200},
        {1'700, 3'000, 90},
        {1'700, 3'000, -310}}) {
    const auto seed = static_cast<std::uint64_t>(shift + 400);
    expect_matches_reference(make_shifted_pair(len_a, len_b, shift, seed), 320,
                             shift);
  }
}

TEST(correlate, aligned_correlation_clamps_max_lag_to_the_lengths) {
  // max_lag beyond both lengths searches every lag with any overlap.
  const shifted_pair p = make_shifted_pair(300, 200, 40, 31);
  expect_matches_reference(p, 1'000, 40);
  EXPECT_EQ(aligned_correlation(p.a, p.b, 1'000),
            aligned_correlation(p.a, p.b, 5'000));
  EXPECT_EQ(aligned_correlation(p.a, p.b, 1'000),
            aligned_correlation(p.a, p.b,
                                std::numeric_limits<std::size_t>::max()));
  const shifted_pair q = make_shifted_pair(200, 300, -60, 32);
  expect_matches_reference(q, 300, -60);
}

TEST(correlate, aligned_correlation_spans_blocks_at_wide_lags) {
  // +/-2500 lags: 16384-point blocks of 11384 b-samples, two blocks.
  expect_matches_reference(make_shifted_pair(16'000, 16'000, 2'100, 41),
                           2'500, 2'100);
  expect_matches_reference(make_shifted_pair(16'000, 14'000, -2'400, 42),
                           2'500, -2'400);
}

TEST(correlate, aligned_correlation_reaches_the_extreme_lags_from_any_sample) {
  // One spike in b at p; echoes in a at lag +320 and -320, the louder
  // one winning. Sweeping p across a's ends and the 1408-sample block
  // edges checks that neither end of the lag range wraps or drops a
  // term.
  const std::size_t len_b = 3'000;
  std::vector<std::size_t> spikes{len_b - 1};
  for (std::size_t p = 320; p < len_b; p += 37) {
    spikes.push_back(p);
  }
  for (const std::size_t edge : {1'408, 2'816}) {
    for (std::size_t p = edge - 8; p <= edge + 8; ++p) {
      spikes.push_back(p);
    }
  }
  for (const bool high_wins : {true, false}) {
    for (const std::size_t p : spikes) {
      std::vector<double> a(len_b + 320, 0.0);
      std::vector<double> b(len_b, 0.0);
      b[p] = 1.0;
      a[p + 320] = high_wins ? 1.0 : 0.9;
      a[p - 320] = high_wins ? 0.9 : 1.0;
      const reference_alignment ref = reference_aligned(a, b, 320);
      EXPECT_EQ(ref.lag, high_wins ? 320 : -320);
      EXPECT_EQ(aligned_correlation(a, b, 320), ref.value) << "spike at " << p;
    }
  }
}

TEST(correlate, aligned_correlation_of_silence_is_zero) {
  const std::vector<double> zeros(1'000, 0.0);
  const std::vector<double> noise = band_limited_noise(1'000, 51);
  EXPECT_EQ(aligned_correlation(zeros, noise, 320), 0.0);
  EXPECT_EQ(aligned_correlation(noise, zeros, 320), 0.0);
  EXPECT_EQ(aligned_correlation(zeros, zeros, 320), 0.0);
}

TEST(correlate, cross_correlation_peak_normalized_copy_is_one) {
  ivc::rng rng{6};
  std::vector<double> x(512);
  for (auto& v : x) {
    v = rng.normal();
  }
  const auto xc = normalized_cross_correlation(x, x);
  // Zero lag lives at index size-1.
  EXPECT_NEAR(xc[x.size() - 1], 1.0, 1e-9);
  for (const double v : xc) {
    EXPECT_LE(std::abs(v), 1.0 + 1e-9);
  }
}

TEST(correlate, rejects_bad_arguments) {
  const std::vector<double> x(10, 1.0);
  const std::vector<double> y(9, 1.0);
  EXPECT_THROW(pearson_correlation(x, y), std::invalid_argument);
  EXPECT_THROW(normalized_cross_correlation({}, x), std::invalid_argument);
}

}  // namespace
}  // namespace ivc::dsp

// ------------------------------------------------------------------------
// Goertzel
#include "dsp/goertzel.h"

namespace ivc::dsp {
namespace {

TEST(goertzel, unit_sine_measures_unit_amplitude) {
  const double fs = 16'000.0;
  std::vector<double> x(16'000);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = std::sin(two_pi * 1'000.0 * static_cast<double>(i) / fs);
  }
  EXPECT_NEAR(goertzel_amplitude(x, fs, 1'000.0), 1.0, 1e-3);
  EXPECT_NEAR(goertzel_power(x, fs, 1'000.0), 0.5, 1e-3);
}

TEST(goertzel, off_frequency_measures_near_zero) {
  const double fs = 16'000.0;
  std::vector<double> x(16'000);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = std::sin(two_pi * 1'000.0 * static_cast<double>(i) / fs);
  }
  EXPECT_LT(goertzel_amplitude(x, fs, 3'000.0), 1e-3);
}

TEST(goertzel, scales_quadratically_in_power) {
  const double fs = 16'000.0;
  std::vector<double> x(8'000);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = 0.5 * std::sin(two_pi * 2'000.0 * static_cast<double>(i) / fs);
  }
  EXPECT_NEAR(goertzel_power(x, fs, 2'000.0), 0.125, 1e-3);
}

TEST(goertzel, dc_component) {
  const std::vector<double> x(1'000, 0.7);
  EXPECT_NEAR(goertzel_amplitude(x, 16'000.0, 0.0), 0.7, 1e-6);
}

TEST(goertzel, rejects_out_of_range_frequency) {
  const std::vector<double> x(100, 1.0);
  EXPECT_THROW(goertzel_power(x, 16'000.0, 9'000.0), std::invalid_argument);
}

}  // namespace
}  // namespace ivc::dsp
