#include <cmath>
#include <gtest/gtest.h>

#include "audio/generate.h"
#include "audio/metrics.h"
#include "audio/ops.h"
#include "common/rng.h"

namespace ivc::audio {
namespace {

TEST(ops, gain_scales_linearly) {
  const buffer b{{1.0, -0.5}, 8'000.0};
  const buffer g = gain(b, 2.0);
  EXPECT_DOUBLE_EQ(g.samples[0], 2.0);
}

TEST(ops, normalize_peak_and_rms) {
  const buffer t = tone(1'000.0, 0.2, 16'000.0, 0.2);
  const buffer p = normalize_peak(t, 1.0);
  EXPECT_NEAR(peak(p.samples), 1.0, 1e-9);
  const buffer r = normalize_rms(t, 0.5);
  EXPECT_NEAR(rms(r.samples), 0.5, 1e-9);
}

TEST(ops, normalize_silence_is_noop) {
  const buffer z{std::vector<double>(100, 0.0), 8'000.0};
  EXPECT_EQ(normalize_peak(z, 1.0).samples, z.samples);
  EXPECT_EQ(normalize_rms(z, 1.0).samples, z.samples);
}

TEST(ops, mix_pads_shorter_signal) {
  const buffer a{{1.0, 1.0, 1.0}, 8'000.0};
  const buffer b{{2.0}, 8'000.0};
  const buffer m = mix(a, b);
  ASSERT_EQ(m.size(), 3u);
  EXPECT_DOUBLE_EQ(m.samples[0], 3.0);
  EXPECT_DOUBLE_EQ(m.samples[1], 1.0);
}

TEST(ops, mix_into_covers_full_length_by_tiling) {
  // A noise bed one rounding-sample short must not leave a silent tail:
  // the source repeats cyclically until dst is covered.
  buffer dst{{1.0, 1.0, 1.0, 1.0, 1.0}, 8'000.0};
  const buffer src{{0.25, 0.5}, 8'000.0};
  mix_into(dst, src);
  EXPECT_DOUBLE_EQ(dst.samples[0], 1.25);
  EXPECT_DOUBLE_EQ(dst.samples[1], 1.5);
  EXPECT_DOUBLE_EQ(dst.samples[2], 1.25);
  EXPECT_DOUBLE_EQ(dst.samples[3], 1.5);
  EXPECT_DOUBLE_EQ(dst.samples[4], 1.25);  // tail covered, not silent
}

TEST(ops, mix_into_equal_length_matches_mix) {
  buffer dst{{1.0, -2.0}, 8'000.0};
  const buffer src{{0.5, 0.25}, 8'000.0};
  const buffer expected = mix(dst, src);
  mix_into(dst, src);
  EXPECT_EQ(dst.samples, expected.samples);
}

TEST(ops, mix_into_rejects_bad_inputs) {
  buffer dst{{1.0}, 8'000.0};
  EXPECT_THROW(mix_into(dst, buffer{{1.0}, 16'000.0}), std::invalid_argument);
}

TEST(ops, mix_at_offsets_addend) {
  const buffer a{std::vector<double>(10, 0.0), 10.0};
  const buffer b{{1.0, 1.0}, 10.0};
  const buffer m = mix_at(a, b, 0.5);  // 5 samples at 10 Hz
  EXPECT_DOUBLE_EQ(m.samples[4], 0.0);
  EXPECT_DOUBLE_EQ(m.samples[5], 1.0);
  EXPECT_DOUBLE_EQ(m.samples[6], 1.0);
}

TEST(ops, mix_rejects_rate_mismatch) {
  const buffer a{{1.0}, 8'000.0};
  const buffer b{{1.0}, 16'000.0};
  EXPECT_THROW(mix(a, b), std::invalid_argument);
}

TEST(ops, remove_dc_centers_signal) {
  const buffer b{{1.0, 2.0, 3.0}, 8'000.0};
  const buffer c = remove_dc(b);
  EXPECT_NEAR(c.samples[0] + c.samples[1] + c.samples[2], 0.0, 1e-12);
}

TEST(ops, fade_ramps_edges) {
  buffer b{std::vector<double>(1'000, 1.0), 1'000.0};
  const buffer f = fade(b, 0.1, 0.1);
  EXPECT_NEAR(f.samples[0], 0.0, 1e-12);
  EXPECT_NEAR(f.samples[50], 0.5, 0.02);
  EXPECT_DOUBLE_EQ(f.samples[500], 1.0);
  EXPECT_NEAR(f.samples[999], 0.0, 0.02);
}

TEST(ops, pad_adds_silence_both_sides) {
  const buffer b{{1.0}, 10.0};
  const buffer p = pad(b, 0.2, 0.3);
  ASSERT_EQ(p.size(), 1u + 2u + 3u);
  EXPECT_DOUBLE_EQ(p.samples[2], 1.0);
  EXPECT_DOUBLE_EQ(p.samples[0], 0.0);
  EXPECT_DOUBLE_EQ(p.samples[5], 0.0);
}

TEST(metrics, rms_and_peak_of_sine) {
  const buffer t = tone(100.0, 1.0, 8'000.0, 1.0);
  EXPECT_NEAR(rms(t.samples), 1.0 / std::sqrt(2.0), 1e-3);
  EXPECT_NEAR(peak(t.samples), 1.0, 1e-6);
}

TEST(metrics, skewness_of_symmetric_signal_is_zero) {
  const buffer t = tone(100.0, 1.0, 8'000.0, 1.0);
  EXPECT_NEAR(amplitude_skewness(t.samples), 0.0, 0.01);
}

TEST(metrics, skewness_detects_squared_component) {
  // v + 0.3 v^2 has positive skew for a symmetric v.
  const buffer t = tone(100.0, 1.0, 8'000.0, 1.0);
  std::vector<double> skewed(t.size());
  for (std::size_t i = 0; i < t.size(); ++i) {
    skewed[i] = t.samples[i] + 0.3 * t.samples[i] * t.samples[i];
  }
  EXPECT_GT(amplitude_skewness(skewed), 0.2);
}

}  // namespace
}  // namespace ivc::audio
