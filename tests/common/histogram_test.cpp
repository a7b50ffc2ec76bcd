#include "common/histogram.h"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <vector>

#include "common/json_min.h"
#include "common/rng.h"

namespace ivc {
namespace {

TEST(histogram, empty_reads_as_zero) {
  const log_histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0.0);
  EXPECT_EQ(h.max(), 0.0);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.quantile(0.5), 0.0);
}

TEST(histogram, single_value_pins_every_quantile) {
  log_histogram h;
  h.record(3.5e-3);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_DOUBLE_EQ(h.min(), 3.5e-3);
  EXPECT_DOUBLE_EQ(h.max(), 3.5e-3);
  EXPECT_DOUBLE_EQ(h.mean(), 3.5e-3);
  // Quantiles clamp to the observed range, so they are exact here.
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 3.5e-3);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 3.5e-3);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 3.5e-3);
}

TEST(histogram, quantiles_track_a_known_distribution) {
  log_histogram h;
  ivc::rng rng{5};
  std::vector<double> values;
  for (int i = 0; i < 20'000; ++i) {
    const double v = rng.uniform(1e-3, 1.0);  // 1 ms .. 1 s
    values.push_back(v);
    h.record(v);
  }
  // Uniform on [1e-3, 1]: p50 ≈ 0.5, p95 ≈ 0.95. Log bins are ~15% wide,
  // so accept 20%.
  EXPECT_NEAR(h.quantile(0.50), 0.5, 0.1);
  EXPECT_NEAR(h.quantile(0.95), 0.95, 0.19);
  EXPECT_GE(h.quantile(0.99), h.quantile(0.50));
  EXPECT_DOUBLE_EQ(h.quantile(1.0), h.max());
}

TEST(histogram, out_of_range_values_clamp_into_edge_bins) {
  log_histogram h;
  h.record(0.0);      // below the lowest edge
  h.record(-1.0);     // negative clamps to 0
  h.record(1e6);      // above the highest edge
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.min(), 0.0);
  EXPECT_EQ(h.max(), 1e6);
  EXPECT_LE(h.quantile(0.3), h.quantile(0.99));
}

TEST(histogram, merge_equals_recording_everything_in_one) {
  log_histogram a;
  log_histogram b;
  log_histogram all;
  ivc::rng rng{6};
  for (int i = 0; i < 2'000; ++i) {
    const double v = rng.uniform(1e-5, 1e-1);
    (i % 2 == 0 ? a : b).record(v);
    all.record(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
  EXPECT_DOUBLE_EQ(a.mean(), all.mean());
  for (const double q : {0.1, 0.5, 0.9, 0.99}) {
    EXPECT_DOUBLE_EQ(a.quantile(q), all.quantile(q));
  }
}

TEST(histogram, merge_into_empty_copies) {
  log_histogram a;
  log_histogram b;
  b.record(2e-3);
  b.record(4e-3);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.min(), 2e-3);
  EXPECT_DOUBLE_EQ(a.max(), 4e-3);
}

TEST(histogram, custom_config_sizes_bins_and_still_tracks_quantiles) {
  histogram_config cfg;
  cfg.lo_edge = 1e-3;
  cfg.hi_edge = 10.0;
  cfg.bins_per_decade = 8;
  log_histogram h{cfg};
  EXPECT_EQ(h.num_bins(), 32u);  // 4 decades x 8 bins
  ivc::rng rng{9};
  for (int i = 0; i < 5'000; ++i) {
    h.record(rng.uniform(1e-2, 1.0));
  }
  EXPECT_NEAR(h.quantile(0.5), 0.5, 0.15);
  EXPECT_GE(h.quantile(0.99), h.quantile(0.5));
}

// Regression: merging histograms with different binning used to add
// bin-by-bin anyway — misfiling every sample and reading other.bins_
// out of bounds when `other` had fewer bins. Now it is a precondition.
TEST(histogram, merge_rejects_mismatched_configs) {
  histogram_config small;
  small.lo_edge = 1e-3;
  small.hi_edge = 1.0;
  small.bins_per_decade = 4;
  log_histogram a;
  log_histogram b{small};
  b.record(0.5);
  EXPECT_THROW(a.merge(b), std::invalid_argument);
  EXPECT_THROW(b.merge(a), std::invalid_argument);
  // Same custom config on both sides merges fine.
  log_histogram c{small};
  c.record(0.25);
  c.merge(b);
  EXPECT_EQ(c.count(), 2u);
}

TEST(histogram, reset_preserves_the_binning_config) {
  histogram_config cfg;
  cfg.lo_edge = 1e-4;
  cfg.hi_edge = 1.0;
  cfg.bins_per_decade = 4;
  log_histogram h{cfg};
  h.record(0.1);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.config(), cfg);
  log_histogram other{cfg};
  other.record(0.2);
  h.merge(other);  // still mergeable after reset
  EXPECT_EQ(h.count(), 1u);
}

TEST(histogram, snapshot_restore_round_trips_exactly) {
  log_histogram h;
  ivc::rng rng{17};
  for (int i = 0; i < 5'000; ++i) {
    h.record(rng.uniform(1e-6, 10.0));
  }
  h.record(0.0);    // clamps into the low edge bin
  h.record(1e9);    // clamps into the high edge bin

  log_histogram back;
  back.restore(h.snapshot());
  EXPECT_EQ(back.count(), h.count());
  EXPECT_EQ(back.min(), h.min());
  EXPECT_EQ(back.max(), h.max());
  EXPECT_EQ(back.mean(), h.mean());
  for (const double q : {0.0, 0.1, 0.5, 0.9, 0.95, 0.99, 1.0}) {
    EXPECT_EQ(back.quantile(q), h.quantile(q)) << q;
  }
  // The restored histogram keeps living: identical records afterwards
  // keep the two bit-identical (what evict→rehydrate→keep-serving needs).
  h.record(2.5e-3);
  back.record(2.5e-3);
  EXPECT_EQ(back.quantile(0.5), h.quantile(0.5));
  // And it still merges with fleet histograms of the same binning.
  log_histogram fleet;
  fleet.merge(back);
  EXPECT_EQ(fleet.count(), h.count());
}

TEST(histogram, snapshot_restore_of_empty_histogram) {
  const log_histogram h;
  log_histogram back;
  back.record(1.0);  // restore must clear pre-existing counts
  back.restore(h.snapshot());
  EXPECT_EQ(back.count(), 0u);
  EXPECT_EQ(back.quantile(0.5), 0.0);
}

TEST(histogram, snapshot_is_sparse_and_text_round_trips) {
  // A histogram with two occupied bins snapshots to two (index, count)
  // pairs — and survives the json text writer's full-precision doubles.
  log_histogram h;
  h.record(1e-3);
  h.record(1e-3);
  h.record(0.5);
  const json::value snap = json::parse(json::write(h.snapshot()));
  EXPECT_EQ(snap.find("bins")->items().size(), 4u);
  log_histogram back;
  back.restore(snap);
  EXPECT_EQ(back.count(), 3u);
  EXPECT_EQ(back.mean(), h.mean());
  EXPECT_EQ(back.quantile(0.5), h.quantile(0.5));
}

TEST(histogram, restore_rejects_mismatched_configs) {
  histogram_config cfg;
  cfg.bins_per_decade = 4;
  const log_histogram theirs{cfg};
  log_histogram mine;  // default binning
  EXPECT_THROW(mine.restore(theirs.snapshot()), std::invalid_argument);
  // Corrupt bin indices cannot scribble out of bounds either.
  json::value snap = mine.snapshot();
  json::object o = snap.members();
  for (auto& [key, val] : o) {
    if (key == "bins") {
      val = json::value{
          json::array{json::value{1e9}, json::value{1.0}}};
    }
  }
  EXPECT_THROW(mine.restore(json::value{o}), std::invalid_argument);
}

TEST(histogram, restore_rejects_non_integer_bin_pairs) {
  // A bin index or count that is not a non-negative integer would be an
  // undefined double -> integer cast; the decoder throws instead.
  const log_histogram h;
  const auto with_bins = [&h](double index, double count) {
    json::object o = h.snapshot().members();
    for (auto& [key, val] : o) {
      if (key == "bins") {
        val = json::value{json::array{json::value{index}, json::value{count}}};
      }
    }
    return json::value{std::move(o)};
  };
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(), -1.0,
                           0.5, 1e300}) {
    log_histogram back;
    EXPECT_THROW(back.restore(with_bins(bad, 1.0)), std::invalid_argument)
        << "bin index " << bad;
    EXPECT_THROW(back.restore(with_bins(3.0, bad)), std::invalid_argument)
        << "bin count " << bad;
  }
  log_histogram back;
  EXPECT_NO_THROW(back.restore(with_bins(3.0, 2.0)));
  EXPECT_EQ(json::write(*back.snapshot().find("bins")), "[3,2]");
}

}  // namespace
}  // namespace ivc
