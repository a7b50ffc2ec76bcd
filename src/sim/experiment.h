// Declarative experiment engine.
//
// Every result in the paper is a grid of trials over scenario axes —
// distance, power, carrier, device, ambient, voice, command — on both
// sides of the ROC: attack captures (detection / success rates) and
// genuine captures (false positives). Instead of each figure
// hand-rolling its sweep loop, an experiment is declared as a `grid` of
// `axis` values over a base scenario and handed to the `engine`, which:
//
//   * executes grid points on a thread pool (common/parallel.h),
//     splitting a point's trials across the pool when the grid alone
//     cannot fill it (single-point range scans),
//   * seeds every point and trial deterministically from the run seed
//     and the point index — results are bit-identical at any thread
//     count and any trial split,
//   * uses a fast path when every axis can mutate a prepared session in
//     place (distance/power/device on the attack side; ambient/
//     distance/level/device on the genuine side), so the expensive
//     build happens once per run instead of once per point,
//   * collects results into a typed `result_table` with success rates,
//     Wilson intervals, a CSV writer and a JSON form built for
//     json::write, so benches stop formatting by hand.
//
// The axis/grid machinery is templated over (scenario, session) pairs:
// `axis`/`grid` sweep `attack_scenario`/`attack_session`,
// `genuine_axis`/`genuine_grid` sweep `genuine_scenario`/
// `genuine_session`. New axes need no engine changes: `custom_axis`
// takes arbitrary per-value setter callbacks over the scenario (and
// optionally the session).
#pragma once

#include <cstdint>
#include <cstdio>
#include <functional>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "common/error.h"
#include "sim/scenario.h"
#include "sim/sweep.h"

namespace ivc::json {
class value;
}  // namespace ivc::json

namespace ivc::sim {

// ------------------------------------------------------------------ axes

// One value of one axis: a display label, a numeric coordinate for
// plotting/CSV, the scenario mutation it stands for, and — when the
// mutation is cheap on a live session — the session fast-path mutation.
template <class Scenario, class Session>
struct basic_axis_point {
  std::string label;
  double value = 0.0;
  std::function<void(Scenario&)> apply;
  std::function<void(Session&)> apply_session;  // optional
};

template <class Scenario, class Session>
struct basic_axis {
  std::string name;
  std::vector<basic_axis_point<Scenario, Session>> points;

  // True when every point can mutate a prepared session in place.
  bool session_mutable() const {
    for (const basic_axis_point<Scenario, Session>& p : points) {
      if (!p.apply_session) {
        return false;
      }
    }
    return !points.empty();
  }
};

using axis_point = basic_axis_point<attack_scenario, attack_session>;
using axis = basic_axis<attack_scenario, attack_session>;
using genuine_axis_point = basic_axis_point<genuine_scenario, genuine_session>;
using genuine_axis = basic_axis<genuine_scenario, genuine_session>;

axis distance_axis(const std::vector<double>& distances_m);
axis power_axis(const std::vector<double>& powers_w);
axis carrier_axis(const std::vector<double>& carriers_hz);
axis ambient_axis(const std::vector<double>& ambient_spl_db);
axis device_axis(const std::vector<mic::device_profile>& devices);

// Genuine-side vocabulary (the F-R9 false-positive grids). Ambient,
// distance and talker level mutate a prepared genuine_session in place;
// phrase re-renders the rendition, so it is scenario-only.
genuine_axis genuine_ambient_axis(const std::vector<double>& ambient_spl_db);
genuine_axis genuine_distance_axis(const std::vector<double>& distances_m);
genuine_axis genuine_level_axis(const std::vector<double>& levels_db_spl);
genuine_axis genuine_phrase_axis(const std::vector<std::string>& phrase_ids);

// Extension point: any named list of labelled scenario mutations, on
// either side. (Concrete overloads, not a template: callers pass braced
// initializer lists, which cannot deduce the scenario type.)
axis custom_axis(std::string name, std::vector<axis_point> points);
genuine_axis custom_axis(std::string name,
                         std::vector<genuine_axis_point> points);

// ------------------------------------------------------------------ grid

// An ordered set of experiment points over one or more axes. Cartesian
// grids enumerate the cross product (last axis fastest-varying, like
// nested loops); zipped grids advance all axes together.
template <class Scenario, class Session>
class basic_grid {
 public:
  using axis_type = basic_axis<Scenario, Session>;

  static basic_grid cartesian(std::vector<axis_type> axes) {
    return basic_grid{std::move(axes), true};
  }
  static basic_grid zipped(std::vector<axis_type> axes) {
    return basic_grid{std::move(axes), false};
  }

  std::size_t size() const { return num_points_; }
  const std::vector<axis_type>& axes() const { return axes_; }

  // Per-axis value index of a grid point.
  std::vector<std::size_t> value_indices(std::size_t point) const {
    expects(point < num_points_, "grid: point index out of range");
    std::vector<std::size_t> indices(axes_.size());
    if (cartesian_) {
      // Last axis fastest-varying, like nested loops.
      std::size_t rest = point;
      for (std::size_t a = axes_.size(); a-- > 0;) {
        const std::size_t n = axes_[a].points.size();
        indices[a] = rest % n;
        rest /= n;
      }
    } else {
      for (std::size_t a = 0; a < axes_.size(); ++a) {
        indices[a] = point;
      }
    }
    return indices;
  }

  // Label / numeric coordinate per axis at a grid point.
  std::vector<std::string> labels(std::size_t point) const {
    const std::vector<std::size_t> indices = value_indices(point);
    std::vector<std::string> labels(axes_.size());
    for (std::size_t a = 0; a < axes_.size(); ++a) {
      labels[a] = axes_[a].points[indices[a]].label;
    }
    return labels;
  }

  std::vector<double> coords(std::size_t point) const {
    const std::vector<std::size_t> indices = value_indices(point);
    std::vector<double> coords(axes_.size());
    for (std::size_t a = 0; a < axes_.size(); ++a) {
      coords[a] = axes_[a].points[indices[a]].value;
    }
    return coords;
  }

  // The base scenario with every axis mutation for `point` applied.
  Scenario scenario_at(std::size_t point, const Scenario& base) const {
    const std::vector<std::size_t> indices = value_indices(point);
    Scenario sc = base;
    for (std::size_t a = 0; a < axes_.size(); ++a) {
      axes_[a].points[indices[a]].apply(sc);
    }
    return sc;
  }

  // True when every axis is session-mutable (engine fast path).
  bool session_mutable() const {
    for (const axis_type& a : axes_) {
      if (!a.session_mutable()) {
        return false;
      }
    }
    return true;
  }

  void mutate_session(std::size_t point, Session& session) const {
    const std::vector<std::size_t> indices = value_indices(point);
    for (std::size_t a = 0; a < axes_.size(); ++a) {
      const basic_axis_point<Scenario, Session>& p =
          axes_[a].points[indices[a]];
      expects(static_cast<bool>(p.apply_session),
              "grid: axis '" + axes_[a].name + "' is not session-mutable");
      p.apply_session(session);
    }
  }

 private:
  basic_grid(std::vector<axis_type> axes, bool cartesian)
      : axes_{std::move(axes)}, cartesian_{cartesian} {
    expects(!axes_.empty(), "grid: need at least one axis");
    for (const axis_type& a : axes_) {
      expects(!a.points.empty(), "grid: axis '" + a.name + "' has no values");
      for (const basic_axis_point<Scenario, Session>& p : a.points) {
        expects(static_cast<bool>(p.apply),
                "grid: axis '" + a.name + "' has a point without apply()");
      }
    }
    if (cartesian_) {
      num_points_ = 1;
      for (const axis_type& a : axes_) {
        num_points_ *= a.points.size();
      }
    } else {
      num_points_ = axes_.front().points.size();
      for (const axis_type& a : axes_) {
        expects(a.points.size() == num_points_,
                "grid::zipped: axes must have equal lengths");
      }
    }
  }

  std::vector<axis_type> axes_;
  bool cartesian_ = true;
  std::size_t num_points_ = 0;
};

using grid = basic_grid<attack_scenario, attack_session>;
using genuine_grid = basic_grid<genuine_scenario, genuine_session>;

// --------------------------------------------------------------- results

// A rectangular result set: one row per grid point, axis columns
// (label + numeric coordinate) followed by named metric columns.
class result_table {
 public:
  struct row {
    std::vector<std::string> labels;   // one per axis
    std::vector<double> coords;        // one per axis
    std::vector<double> metrics;       // one per metric column
    bool operator==(const row&) const = default;
  };

  result_table() = default;
  result_table(std::vector<std::string> axis_names,
               std::vector<std::string> metric_names);

  const std::vector<std::string>& axis_names() const { return axis_names_; }
  const std::vector<std::string>& metric_names() const {
    return metric_names_;
  }
  const std::vector<row>& rows() const { return rows_; }
  std::size_t size() const { return rows_.size(); }
  const row& at(std::size_t index) const { return rows_.at(index); }

  // Metric lookup by column name; throws for unknown names.
  double metric(std::size_t row_index, const std::string& name) const;
  // Reconstructs the success estimate from the standard engine columns.
  success_estimate estimate(std::size_t row_index) const;

  void add_row(row r);  // validates column counts

  // CSV: per axis a label column and a "<axis>:coord" numeric column,
  // then the metric columns. Fields are quoted per RFC 4180 ('"'
  // doubling) and doubles written at full precision ("%.17g").
  void write_csv(std::ostream& out) const;
  void write_csv_file(const std::string& path) const;

  // JSON object {axis_names, metric_names, rows:[{labels, coords,
  // metrics}]}; json::parse reads every finite value back bit-exactly,
  // and a non-finite one is null (json::number_or_null).
  json::value to_json_value() const;

  // Fixed-width human-readable table (what benches print).
  void print(std::FILE* out = stdout) const;

  bool operator==(const result_table&) const = default;

 private:
  std::vector<std::string> axis_names_;
  std::vector<std::string> metric_names_;
  std::vector<row> rows_;
};

// ---------------------------------------------------------------- engine

struct run_config {
  std::size_t trials_per_point = 8;
  std::uint64_t seed = 42;
  // 0 = one thread per hardware thread.
  std::size_t num_threads = 0;
};

// Verdict of one trial under a custom evaluator.
struct trial_outcome {
  bool success = false;
  double score = 0.0;
};
using trial_evaluator = std::function<trial_outcome(const trial_result&)>;

// The default evaluator: recognizer success, scored by intelligibility.
trial_outcome default_outcome(const trial_result& r);

// Genuine-side evaluator: judges one genuine capture (e.g. "the defense
// false-alarmed on it").
using genuine_trial_evaluator =
    std::function<trial_outcome(const audio::buffer& capture)>;

// Per-trial metric vector (one value per metric column); the engine
// reports per-point means. Rates are means of 0/1 indicators.
using trial_metrics_evaluator =
    std::function<std::vector<double>(const trial_result&)>;

// Names of the standard success-experiment metric columns, in order:
// rate, ci_low, ci_high, mean_score, successes, trials.
const std::vector<std::string>& success_metric_names();

class engine {
 public:
  explicit engine(run_config config = {});
  const run_config& config() const { return config_; }

  // Standard success-rate experiment: per grid point, builds (or
  // mutates) a session, runs `trials_per_point` trials, and records
  // rate / Wilson CI / mean score. The default evaluator scores
  // recognizer success and intelligibility; pass `eval` to redefine
  // what counts as success (e.g. "the defense detected the capture").
  result_table run(const attack_scenario& base, const grid& g,
                   const trial_evaluator& eval = default_outcome) const;

  // Fast path over a caller-prepared session; every grid axis must be
  // session-mutable. Point p runs trial indices p·T + t, so row p equals
  // estimate_success(session at p, T, p·T) bit for bit.
  result_table run_over(const attack_session& prototype, const grid& g,
                        const trial_evaluator& eval = default_outcome) const;

  // Per-point means of per-trial metric vectors (the F-R10 shape: one
  // row per cancellation accuracy, columns for residual trace, defense
  // verdicts, attack success). Uses the session fast path when the grid
  // allows it.
  result_table run_trial_means(const attack_scenario& base, const grid& g,
                               std::vector<std::string> metric_names,
                               const trial_metrics_evaluator& eval) const;

  // Genuine-side success grid (the F-R9 false-positive measurement):
  // per point, builds (or mutates) a genuine_session and evaluates
  // `trials_per_point` captures. Point seeds fold every axis — ambient
  // included — into the per-trial noise streams, and results are
  // bit-identical at any thread count.
  result_table run_genuine(const genuine_scenario& base, const genuine_grid& g,
                           const genuine_trial_evaluator& eval) const;

  // Fully custom per-point measurement (leakage figures, range scans):
  // `eval` receives the point's scenario, a deterministic per-point
  // seed, and the grid point index (for per-point side tables), and
  // returns one value per metric name.
  using point_evaluator = std::function<std::vector<double>(
      const attack_scenario&, std::uint64_t point_seed,
      std::size_t point_index)>;
  result_table run_metrics(const attack_scenario& base, const grid& g,
                           std::vector<std::string> metric_names,
                           const point_evaluator& eval) const;

  // Genuine-side counterpart of run_metrics (the F-R13 room ablation).
  using genuine_point_evaluator = std::function<std::vector<double>(
      const genuine_scenario&, std::uint64_t point_seed,
      std::size_t point_index)>;
  result_table run_genuine_metrics(const genuine_scenario& base,
                                   const genuine_grid& g,
                                   std::vector<std::string> metric_names,
                                   const genuine_point_evaluator& eval) const;

 private:
  run_config config_;
};

}  // namespace ivc::sim
