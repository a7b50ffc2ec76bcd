#include "sim/experiment.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/json_field.h"
#include "sim/sweep.h"

namespace ivc::sim {
namespace {

attack_scenario quick_mono(double distance) {
  attack_scenario sc;
  sc.rig = attack::monolithic_rig(18.7);
  sc.command_id = "mute_yourself";  // shortest command, fastest tests
  sc.distance_m = distance;
  return sc;
}

// ------------------------------------------------------------------ grid

TEST(experiment_grid, cartesian_enumerates_cross_product_row_major) {
  const grid g = grid::cartesian(
      {distance_axis({1.0, 2.0, 3.0}), power_axis({5.0, 10.0})});
  ASSERT_EQ(g.size(), 6u);
  // Last axis fastest-varying.
  EXPECT_EQ(g.value_indices(0), (std::vector<std::size_t>{0, 0}));
  EXPECT_EQ(g.value_indices(1), (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(g.value_indices(2), (std::vector<std::size_t>{1, 0}));
  EXPECT_EQ(g.value_indices(5), (std::vector<std::size_t>{2, 1}));
  EXPECT_EQ(g.coords(3), (std::vector<double>{2.0, 10.0}));
  EXPECT_EQ(g.labels(5), (std::vector<std::string>{"3", "10"}));

  // The scenario at a point carries every axis mutation.
  const attack_scenario sc = g.scenario_at(5, quick_mono(9.0));
  EXPECT_DOUBLE_EQ(sc.distance_m, 3.0);
  EXPECT_DOUBLE_EQ(sc.rig.total_power_w, 10.0);
}

TEST(experiment_grid, zipped_advances_axes_together) {
  const grid g = grid::zipped(
      {distance_axis({1.0, 2.0}), ambient_axis({30.0, 50.0})});
  ASSERT_EQ(g.size(), 2u);
  EXPECT_EQ(g.value_indices(1), (std::vector<std::size_t>{1, 1}));
  const attack_scenario sc = g.scenario_at(1, quick_mono(9.0));
  EXPECT_DOUBLE_EQ(sc.distance_m, 2.0);
  EXPECT_DOUBLE_EQ(sc.environment.ambient_spl_db, 50.0);
}

TEST(experiment_grid, zipped_rejects_mismatched_lengths) {
  EXPECT_THROW(
      grid::zipped({distance_axis({1.0, 2.0}), power_axis({5.0})}),
      std::invalid_argument);
}

TEST(experiment_grid, session_mutability_tracks_axes) {
  EXPECT_TRUE(grid::cartesian({distance_axis({1.0}), power_axis({5.0})})
                  .session_mutable());
  // Carrier changes force a rig rebuild: no session fast path.
  EXPECT_FALSE(grid::cartesian({distance_axis({1.0}), carrier_axis({30e3})})
                   .session_mutable());
}

TEST(experiment_grid, custom_axis_extends_the_vocabulary) {
  axis chunks = custom_axis(
      "chunks", {axis_point{"4", 4.0,
                            [](attack_scenario& sc) {
                              sc.rig.splitter.num_chunks = 4;
                            },
                            nullptr},
                 axis_point{"16", 16.0,
                            [](attack_scenario& sc) {
                              sc.rig.splitter.num_chunks = 16;
                            },
                            nullptr}});
  const grid g = grid::cartesian({chunks});
  attack_scenario base = quick_mono(2.0);
  base.rig = attack::long_range_rig();
  EXPECT_EQ(g.scenario_at(0, base).rig.splitter.num_chunks, 4u);
  EXPECT_EQ(g.scenario_at(1, base).rig.splitter.num_chunks, 16u);
}

// ---------------------------------------------------------------- engine

TEST(experiment_engine, deterministic_at_any_thread_count) {
  const grid g = grid::cartesian(
      {distance_axis({1.5, 6.0}), power_axis({5.0, 18.7})});
  run_config cfg;
  cfg.trials_per_point = 2;
  cfg.seed = 2'024;

  cfg.num_threads = 1;
  const result_table serial = engine{cfg}.run(quick_mono(2.0), g);
  cfg.num_threads = 4;
  const result_table threaded = engine{cfg}.run(quick_mono(2.0), g);

  EXPECT_EQ(serial, threaded);  // bit-identical rows, labels, metrics
  ASSERT_EQ(serial.size(), 4u);
  // Close + strong beats far + weak.
  EXPECT_GE(serial.metric(1, "rate"), serial.metric(2, "rate"));
}

TEST(experiment_engine, scenario_path_is_deterministic_too) {
  // A carrier axis disables the session fast path; determinism must hold
  // on the session-per-point path as well.
  const grid g = grid::cartesian({carrier_axis({30e3, 36e3})});
  run_config cfg;
  cfg.trials_per_point = 2;
  cfg.num_threads = 1;
  const result_table serial = engine{cfg}.run(quick_mono(2.0), g);
  cfg.num_threads = 3;
  const result_table threaded = engine{cfg}.run(quick_mono(2.0), g);
  EXPECT_EQ(serial, threaded);
}

TEST(experiment_engine, matches_legacy_sweep_seeding) {
  // run_over promises the legacy serial sweeps' seeding: same session,
  // trial indices accumulating across points, so row p equals a direct
  // estimate at trial base p·T.
  const attack_session session{quick_mono(1.0), 108};
  const std::vector<double> distances{1.5, 10.0};
  constexpr std::size_t trials = 3;
  run_config cfg;
  cfg.trials_per_point = trials;
  const result_table table = engine{cfg}.run_over(
      session, grid::cartesian({distance_axis(distances)}));
  ASSERT_EQ(table.size(), 2u);
  for (std::size_t i = 0; i < table.size(); ++i) {
    attack_session probe = session;
    probe.set_distance(distances[i]);
    const success_estimate direct =
        estimate_success(probe, trials, i * trials);
    const success_estimate row = table.estimate(i);
    EXPECT_EQ(row.successes, direct.successes);
    EXPECT_DOUBLE_EQ(row.mean_intelligibility, direct.mean_intelligibility);
  }
}

TEST(experiment_engine, custom_trial_evaluator_redefines_success) {
  const grid g = grid::cartesian({distance_axis({1.5})});
  run_config cfg;
  cfg.trials_per_point = 3;
  cfg.num_threads = 1;
  const result_table t = engine{cfg}.run(
      quick_mono(1.5), g, [](const trial_result& r) {
        return trial_outcome{r.capture.size() > 0, 1.0};
      });
  EXPECT_DOUBLE_EQ(t.metric(0, "rate"), 1.0);
  EXPECT_DOUBLE_EQ(t.metric(0, "mean_score"), 1.0);
  EXPECT_DOUBLE_EQ(t.metric(0, "trials"), 3.0);
}

TEST(experiment_engine, run_trial_means_averages_per_point) {
  const grid g = grid::cartesian(
      {distance_axis({1.5, 6.0}), power_axis({5.0, 18.7})});
  run_config cfg;
  cfg.trials_per_point = 2;
  cfg.seed = 2'025;
  const trial_metrics_evaluator eval = [](const trial_result& r) {
    return std::vector<double>{r.success ? 1.0 : 0.0, r.intelligibility};
  };

  cfg.num_threads = 1;
  const result_table serial = engine{cfg}.run_trial_means(
      quick_mono(2.0), g, {"success", "intel"}, eval);
  cfg.num_threads = 4;
  const result_table threaded = engine{cfg}.run_trial_means(
      quick_mono(2.0), g, {"success", "intel"}, eval);
  EXPECT_EQ(serial, threaded);  // bit-identical at any thread count
  ASSERT_EQ(serial.size(), 4u);

  // This grid is session-mutable, so engine::run takes the SAME fast
  // path (one prototype seeded config_.seed, trial indices p*trials+t)
  // as run_trial_means: the noise streams match bit for bit, and the
  // success means must equal the reported rates exactly — a structural
  // invariant, not a lucky draw.
  const result_table rates = engine{cfg}.run(quick_mono(2.0), g);
  for (std::size_t p = 0; p < serial.size(); ++p) {
    EXPECT_DOUBLE_EQ(serial.metric(p, "success"), rates.metric(p, "rate"));
  }
}

TEST(experiment_engine, run_metrics_maps_points_to_columns) {
  const grid g = grid::cartesian({power_axis({2.0, 4.0, 8.0})});
  run_config cfg;
  cfg.num_threads = 2;
  const result_table t = engine{cfg}.run_metrics(
      quick_mono(2.0), g, {"power_squared", "seed_is_nonzero", "point"},
      [](const attack_scenario& sc, std::uint64_t point_seed,
         std::size_t point) {
        return std::vector<double>{
            sc.rig.total_power_w * sc.rig.total_power_w,
            point_seed != 0 ? 1.0 : 0.0, static_cast<double>(point)};
      });
  ASSERT_EQ(t.size(), 3u);
  EXPECT_DOUBLE_EQ(t.metric(1, "power_squared"), 16.0);
  EXPECT_DOUBLE_EQ(t.metric(2, "power_squared"), 64.0);
  EXPECT_DOUBLE_EQ(t.metric(0, "seed_is_nonzero"), 1.0);
  EXPECT_DOUBLE_EQ(t.metric(2, "point"), 2.0);
}

// --------------------------------------------------------------- writers

result_table sample_table() {
  result_table t{{"distance_m"}, {"rate", "ci_low"}};
  t.add_row({{"1.5"}, {1.5}, {0.625, 0.3000000000000000444}});
  t.add_row({{"7.25"}, {7.25}, {1.0 / 3.0, 0.0}});
  return t;
}

std::string csv_of(const result_table& t) {
  std::ostringstream out;
  t.write_csv(out);
  return out.str();
}

std::string json_of(const result_table& t) {
  return json::write(t.to_json_value());
}

// Labels with a comma, quotes, and a newline — the fields RFC 4180
// quoting exists for. A device or command label with a comma used to
// shift every column to its right.
result_table awkward_table() {
  result_table t{{"device", "command"}, {"rate"}};
  t.add_row({{"Echo, 2nd gen", "say \"hello\""}, {0.0, 1.0}, {0.5}});
  t.add_row({{"phone\nline2", ","}, {1.0, 2.0}, {0.25}});
  return t;
}

TEST(experiment_results, csv_writes_full_precision) {
  std::istringstream in{csv_of(sample_table())};
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  // Header carries the coord columns the table promises.
  EXPECT_EQ(line, "distance_m,distance_m:coord,rate,ci_low");
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "1.5,1.5,0.625,0.30000000000000004");
}

TEST(experiment_results, csv_quotes_awkward_labels_per_rfc4180) {
  const std::string csv = csv_of(awkward_table());
  // Comma-bearing label is quoted, embedded quotes double.
  EXPECT_NE(csv.find("\"Echo, 2nd gen\""), std::string::npos);
  EXPECT_NE(csv.find("\"say \"\"hello\"\"\""), std::string::npos);
  // A line break inside a label stays inside its quoted field.
  EXPECT_NE(csv.find("\"phone\nline2\",1,\",\",2,0.25\n"),
            std::string::npos);
}

TEST(experiment_results, json_round_trips_awkward_labels) {
  const result_table t = awkward_table();
  const json::value doc = json::parse(json_of(t));
  const json::array& rows = json::arr(doc, "rows");
  ASSERT_EQ(rows.size(), t.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const json::array& labels = json::arr(rows[i], "labels");
    ASSERT_EQ(labels.size(), 2u);
    EXPECT_EQ(labels[0].string(), t.at(i).labels[0]);
    EXPECT_EQ(labels[1].string(), t.at(i).labels[1]);
  }
}

TEST(experiment_results, json_contains_names_and_exact_values) {
  const result_table t = sample_table();
  const json::value doc = json::parse(json_of(t));
  EXPECT_EQ(json::arr(doc, "axis_names")[0].string(), "distance_m");
  const json::array& metric_names = json::arr(doc, "metric_names");
  ASSERT_EQ(metric_names.size(), 2u);
  EXPECT_EQ(metric_names[1].string(), "ci_low");
  const json::array& rows = json::arr(doc, "rows");
  ASSERT_EQ(rows.size(), t.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    // Bit-exact, not approximately equal.
    EXPECT_EQ(json::to_samples(json::field(rows[i], "coords")),
              t.at(i).coords);
    EXPECT_EQ(json::to_samples(json::field(rows[i], "metrics")),
              t.at(i).metrics);
  }
}

TEST(experiment_results, json_writes_non_finite_metrics_as_null) {
  result_table t{{"distance_m"}, {"rate", "level_db"}};
  t.add_row({{"1"}, {1.0},
             {std::numeric_limits<double>::quiet_NaN(),
              -std::numeric_limits<double>::infinity()}});
  const json::value doc = json::parse(json_of(t));
  const json::array& metrics =
      json::arr(json::arr(doc, "rows")[0], "metrics");
  ASSERT_EQ(metrics.size(), 2u);
  EXPECT_TRUE(metrics[0].is_null());
  EXPECT_TRUE(metrics[1].is_null());
}

TEST(experiment_results, csv_file_writer_produces_readable_file) {
  const result_table t = sample_table();
  const std::string csv_path = "experiment_test_table.csv";
  t.write_csv_file(csv_path);
  std::ifstream csv{csv_path};
  ASSERT_TRUE(csv.good());
  std::string header;
  std::getline(csv, header);
  EXPECT_EQ(header, "distance_m,distance_m:coord,rate,ci_low");
  std::remove(csv_path.c_str());
}

TEST(experiment_results, metric_lookup_rejects_unknown_names) {
  const result_table t = sample_table();
  EXPECT_THROW(t.metric(0, "no_such_metric"), std::invalid_argument);
  EXPECT_THROW(t.at(5), std::out_of_range);
}

}  // namespace
}  // namespace ivc::sim
