#include "audio/buffer.h"

#include <gtest/gtest.h>

namespace ivc::audio {
namespace {

TEST(buffer, duration_follows_rate) {
  const buffer b{std::vector<double>(8'000, 0.0), 16'000.0};
  EXPECT_DOUBLE_EQ(b.duration_s(), 0.5);
  EXPECT_EQ(b.size(), 8'000u);
  EXPECT_FALSE(b.empty());
}

TEST(buffer, constructor_rejects_nonpositive_rate) {
  EXPECT_THROW(buffer(std::vector<double>(10), 0.0), std::invalid_argument);
  EXPECT_THROW(buffer(std::vector<double>(10), -48'000.0),
               std::invalid_argument);
}

TEST(buffer, silence_has_requested_length_and_zeros) {
  const buffer s = silence(0.25, 16'000.0);
  EXPECT_EQ(s.size(), 4'000u);
  for (const double v : s.samples) {
    EXPECT_DOUBLE_EQ(v, 0.0);
  }
}

TEST(buffer, concat_joins_in_order) {
  const buffer a{{1.0, 2.0}, 8'000.0};
  const buffer b{{3.0}, 8'000.0};
  const std::vector<buffer> parts{a, b};
  const buffer joined = concat(parts);
  ASSERT_EQ(joined.size(), 3u);
  EXPECT_DOUBLE_EQ(joined.samples[0], 1.0);
  EXPECT_DOUBLE_EQ(joined.samples[2], 3.0);
}

TEST(buffer, concat_rejects_rate_mismatch) {
  const buffer a{{1.0}, 8'000.0};
  const buffer b{{2.0}, 16'000.0};
  const std::vector<buffer> parts{a, b};
  EXPECT_THROW(concat(parts), std::invalid_argument);
}

TEST(buffer, slice_clamps_to_bounds) {
  buffer b{std::vector<double>(16'000, 1.0), 16'000.0};
  const buffer s = slice(b, 0.75, 1.0);  // asks past the end
  EXPECT_EQ(s.size(), 4'000u);
  const buffer empty_tail = slice(b, 2.0, 0.5);
  EXPECT_EQ(empty_tail.size(), 0u);
}

TEST(buffer, cut_takes_a_sample_range) {
  const buffer b{{0.0, 1.0, 2.0, 3.0, 4.0}, 8'000.0};
  const buffer c = cut(b, 1, 4);
  EXPECT_EQ(c.samples, (std::vector<double>{1.0, 2.0, 3.0}));
  EXPECT_EQ(c.sample_rate_hz, 8'000.0);
  EXPECT_EQ(cut(b, 5, 5).size(), 0u);
  EXPECT_THROW(cut(b, 3, 2), std::invalid_argument);
  EXPECT_THROW(cut(b, 4, 6), std::invalid_argument);
}

TEST(buffer, validate_rejects_empty) {
  const buffer b;
  EXPECT_THROW(validate(b, "test"), std::invalid_argument);
}

}  // namespace
}  // namespace ivc::audio
