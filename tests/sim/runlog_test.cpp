#include "sim/runlog.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>

#include "bench_util.h"
#include "common/json_field.h"

namespace ivc::sim {
namespace {

class runlog_test : public ::testing::Test {
 protected:
  void TearDown() override { std::remove(path.c_str()); }
  const std::string path = "runlog_test.jsonl";
};

run_record sample_record(double rate) {
  run_record r;
  r.figure = "F-R9";
  r.grid_signature = "ambient_db*phrase|27|0011223344556677";
  r.seed = 91;
  r.trials = 3;
  r.metrics = {{"fpr", rate}, {"held_out_accuracy", 0.97}};
  return r;
}

TEST_F(runlog_test, append_then_read_round_trips) {
  run_record r = sample_record(0.125);
  // Awkward characters must survive the JSONL encoding.
  r.figure = "F-R9 \"genuine\", side\n";
  append_run_record(path, r);

  const std::vector<run_record> records = read_run_log(path);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].figure, r.figure);
  EXPECT_EQ(records[0].grid_signature, r.grid_signature);
  EXPECT_EQ(records[0].seed, 91u);
  EXPECT_EQ(records[0].trials, 3u);
  EXPECT_FALSE(records[0].timestamp.empty());  // stamped on append
  ASSERT_EQ(records[0].metrics.size(), 2u);
  EXPECT_EQ(records[0].metrics[0].first, "fpr");
  EXPECT_DOUBLE_EQ(records[0].metrics[0].second, 0.125);
}

TEST_F(runlog_test, append_is_append_only) {
  append_run_record(path, sample_record(0.1));
  append_run_record(path, sample_record(0.2));
  EXPECT_EQ(read_run_log(path).size(), 2u);
}

TEST_F(runlog_test, torn_lines_are_skipped) {
  append_run_record(path, sample_record(0.1));
  {
    std::ofstream out{path, std::ios::app};
    out << "{\"figure\": \"torn";  // no closing quote/brace
  }
  EXPECT_EQ(read_run_log(path).size(), 1u);
}

TEST_F(runlog_test, crash_mid_append_leaves_intact_prefix_readable) {
  // A process dying inside append_run_record leaves the log ending in a
  // partial record. Simulate every possible tear point: truncate the
  // trailing line one byte at a time and require the reader to return
  // exactly the intact records every time — never a crash, never a
  // phantom record, never losing the good prefix.
  append_run_record(path, sample_record(0.1));
  append_run_record(path, sample_record(0.2));
  append_run_record(path, sample_record(0.3));

  std::string full;
  {
    std::ifstream in{path, std::ios::binary};
    full.assign(std::istreambuf_iterator<char>{in},
                std::istreambuf_iterator<char>{});
  }
  // Start of the final record: one past the newline that ends record 2.
  const std::size_t last_line =
      full.rfind('\n', full.size() - 2) + 1;
  ASSERT_GT(last_line, 0u);
  ASSERT_LT(last_line, full.size());

  for (std::size_t cut = last_line; cut < full.size() - 1; ++cut) {
    {
      std::ofstream out{path, std::ios::binary | std::ios::trunc};
      out.write(full.data(), static_cast<std::streamsize>(cut));
    }
    const std::vector<run_record> records = read_run_log(path);
    ASSERT_EQ(records.size(), 2u) << "tear at byte " << cut;
    EXPECT_DOUBLE_EQ(records[0].metrics[0].second, 0.1);
    EXPECT_DOUBLE_EQ(records[1].metrics[0].second, 0.2);
  }
  // The complete file still reads all three.
  {
    std::ofstream out{path, std::ios::binary | std::ios::trunc};
    out.write(full.data(), static_cast<std::streamsize>(full.size()));
  }
  EXPECT_EQ(read_run_log(path).size(), 3u);
}

TEST_F(runlog_test, non_finite_metrics_keep_their_record) {
  run_record r = sample_record(0.1);
  r.metrics = {{"fpr", 0.1},
               {"combined_eer", std::numeric_limits<double>::quiet_NaN()},
               {"tiny", 4.9406564584124654e-324},
               {"gain_db", std::numeric_limits<double>::infinity()}};
  append_run_record(path, r);
  append_run_record(path, sample_record(0.2));

  const std::vector<run_record> records = read_run_log(path);
  ASSERT_EQ(records.size(), 2u);
  const auto& metrics = records[0].metrics;
  ASSERT_EQ(metrics.size(), 4u);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    EXPECT_EQ(metrics[i].first, r.metrics[i].first);
  }
  // Finite values bit-exact, non-finite ones back as NaN.
  EXPECT_EQ(std::bit_cast<std::uint64_t>(metrics[0].second),
            std::bit_cast<std::uint64_t>(0.1));
  EXPECT_TRUE(std::isnan(metrics[1].second));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(metrics[2].second),
            std::bit_cast<std::uint64_t>(r.metrics[2].second));
  EXPECT_TRUE(std::isnan(metrics[3].second));
}

TEST_F(runlog_test, bad_trials_line_is_skipped_like_a_foreign_line) {
  append_run_record(path, sample_record(0.1));
  {
    std::ofstream out{path, std::ios::app};
    out << R"({"figure":"F-R9","seed":"91","trials":-3,"metrics":{}})"
        << "\n"
        << R"({"figure":"F-R9","seed":"91","trials":1e300,"metrics":{}})"
        << "\n"
        << R"({"figure":"F-R9","seed":"91","trials":0.5,"metrics":{}})"
        << "\n";
  }
  append_run_record(path, sample_record(0.3));
  const std::vector<run_record> records = read_run_log(path);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_DOUBLE_EQ(records[0].metrics[0].second, 0.1);
  EXPECT_DOUBLE_EQ(records[1].metrics[0].second, 0.3);
}

TEST_F(runlog_test, jsonl_reader_skips_torn_array_and_blank_lines) {
  {
    std::ofstream out{path};
    out << R"({"t_s":1})" << "\n"
        << "\n"
        << R"([1,2,3])" << "\n"
        << R"({"t_s":2})" << "\n"
        << R"({"t_s":3,"resident":)";  // torn last line, no newline
  }
  const std::vector<json::value> objects = read_jsonl_objects(path);
  ASSERT_EQ(objects.size(), 2u);
  EXPECT_DOUBLE_EQ(json::num(objects[0], "t_s"), 1.0);
  EXPECT_DOUBLE_EQ(json::num(objects[1], "t_s"), 2.0);
  EXPECT_TRUE(read_jsonl_objects("no_such_series.jsonl").empty());
}

TEST_F(runlog_test, json_report_with_a_nan_metric_parses) {
  const std::string report_path = "runlog_test_report.json";
  bench::json_report report{"F-R8", "defense ROC"};
  report.set_seed(0x9e37'79b9'7f4a'7c15ULL);
  report.set_trials(2);
  result_table t{{"distance_m"}, {"rate"}};
  t.add_row({{"1"}, {1.0}, {std::numeric_limits<double>::quiet_NaN()}});
  report.add_table("curve", t);
  report.add_metric("combined_eer", std::numeric_limits<double>::quiet_NaN());
  report.add_metric("auc", 0.75);
  ASSERT_TRUE(report.write(report_path));

  std::ifstream in{report_path};
  const std::string text{std::istreambuf_iterator<char>{in},
                         std::istreambuf_iterator<char>{}};
  std::remove(report_path.c_str());
  const json::value doc = json::parse(text);
  EXPECT_EQ(json::str(doc, "seed"), "11400714819323198485");
  EXPECT_EQ(json::u64(doc, "trials"), 2u);
  const json::value& metrics = json::field(doc, "metrics");
  EXPECT_TRUE(json::field(metrics, "combined_eer").is_null());
  EXPECT_DOUBLE_EQ(json::num(metrics, "auc"), 0.75);
  const json::value& curve = json::field(json::field(doc, "tables"), "curve");
  EXPECT_TRUE(json::arr(json::arr(curve, "rows")[0], "metrics")[0].is_null());
}

TEST_F(runlog_test, missing_file_reads_empty) {
  EXPECT_TRUE(read_run_log("no_such_runlog.jsonl").empty());
}

TEST(runlog_signature, tracks_grid_shape_not_metrics) {
  result_table a{{"ambient_db"}, {"rate"}};
  a.add_row({{"30"}, {30.0}, {0.1}});
  result_table b{{"ambient_db"}, {"rate"}};
  b.add_row({{"30"}, {30.0}, {0.9}});  // same grid, different result
  EXPECT_EQ(grid_signature(a), grid_signature(b));

  result_table c{{"ambient_db"}, {"rate"}};
  c.add_row({{"50"}, {50.0}, {0.1}});  // different swept point
  EXPECT_NE(grid_signature(a), grid_signature(c));
}

TEST(runlog_diff, latest_run_diffs_against_previous_same_key) {
  std::vector<run_record> records;
  records.push_back(sample_record(0.30));
  run_record other = sample_record(0.5);
  other.figure = "F-R10";  // distinct key, interleaved
  records.push_back(other);
  records.push_back(sample_record(0.20));
  records.push_back(sample_record(0.10));

  const std::vector<run_diff> diffs = diff_latest_runs(records);
  ASSERT_EQ(diffs.size(), 2u);  // same-key records collapse

  // First-seen key order.
  EXPECT_EQ(diffs[0].latest.figure, "F-R9");
  EXPECT_EQ(diffs[0].occurrences, 3u);
  ASSERT_TRUE(diffs[0].has_previous);
  // Latest against the *previous* record, not the first.
  ASSERT_EQ(diffs[0].deltas.size(), 2u);
  EXPECT_EQ(diffs[0].deltas[0].name, "fpr");
  EXPECT_DOUBLE_EQ(diffs[0].deltas[0].latest, 0.10);
  EXPECT_DOUBLE_EQ(diffs[0].deltas[0].previous, 0.20);

  EXPECT_EQ(diffs[1].latest.figure, "F-R10");
  EXPECT_EQ(diffs[1].occurrences, 1u);
  EXPECT_FALSE(diffs[1].has_previous);
}

TEST(runlog_diff, records_with_different_seeds_do_not_collide) {
  run_record a = sample_record(0.1);
  run_record b = sample_record(0.2);
  b.seed = 92;
  const std::vector<run_diff> diffs = diff_latest_runs({a, b});
  ASSERT_EQ(diffs.size(), 2u);
  EXPECT_FALSE(diffs[0].has_previous);
  EXPECT_FALSE(diffs[1].has_previous);
}

TEST(runlog_diff, records_with_different_trial_counts_do_not_collide) {
  // A --trials 1 CI smoke and the full default run sweep the same grid
  // with the same seed, but they are not the same experiment.
  run_record smoke = sample_record(0.1);
  smoke.trials = 1;
  const std::vector<run_diff> diffs =
      diff_latest_runs({sample_record(0.3), smoke});
  ASSERT_EQ(diffs.size(), 2u);
  EXPECT_FALSE(diffs[0].has_previous);
  EXPECT_FALSE(diffs[1].has_previous);
}

TEST_F(runlog_test, large_seeds_round_trip_exactly) {
  run_record r = sample_record(0.1);
  r.seed = 0x9e37'79b9'7f4a'7c15ULL;  // above 2^53: breaks via a double
  append_run_record(path, r);
  const std::vector<run_record> records = read_run_log(path);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].seed, 0x9e37'79b9'7f4a'7c15ULL);
}

}  // namespace
}  // namespace ivc::sim
