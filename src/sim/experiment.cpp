#include "sim/experiment.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <type_traits>
#include <utility>

#include "common/error.h"
#include "common/json_min.h"
#include "common/parallel.h"

namespace ivc::sim {
namespace {

std::string format_value(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%g", v);
  return std::string{buf};
}

// splitmix64 finalizer: decorrelates per-point session seeds.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t point) {
  std::uint64_t z = seed + (point + 1) * 0x9e37'79b9'7f4a'7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58'476d'1ce4'e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d0'49bb'1331'11ebULL;
  return z ^ (z >> 31);
}

// rate / CI / mean score over one point's trial outcomes.
std::vector<double> summarize(const std::vector<trial_outcome>& outcomes) {
  std::size_t successes = 0;
  double score = 0.0;
  for (const trial_outcome& o : outcomes) {
    if (o.success) {
      ++successes;
    }
    score += o.score;
  }
  const double n = static_cast<double>(outcomes.size());
  const interval ci = wilson_interval(successes, outcomes.size());
  return {static_cast<double>(successes) / n, ci.low, ci.high, score / n,
          static_cast<double>(successes), n};
}

// Per-metric means over one point's per-trial metric vectors.
std::vector<double> means(const std::vector<std::vector<double>>& trials) {
  std::vector<double> sums(trials.front().size(), 0.0);
  for (const std::vector<double>& trial : trials) {
    for (std::size_t m = 0; m < sums.size(); ++m) {
      sums[m] += trial[m];
    }
  }
  for (double& m : sums) {
    m /= static_cast<double>(trials.size());
  }
  return sums;
}

// Wraps a per-trial or per-point metric evaluator with the check that
// it fills every metric column.
template <class Eval>
auto width_checked(std::size_t num_metrics, const Eval& eval) {
  return [num_metrics, &eval](const auto&... args) {
    std::vector<double> metrics = eval(args...);
    ensures(metrics.size() == num_metrics,
            "engine: evaluator returned wrong metric count");
    return metrics;
  };
}

// One table row per grid point, in grid order.
template <class Grid>
result_table grid_table(const Grid& g, std::vector<std::string> metric_names,
                        std::vector<std::vector<double>> metrics) {
  std::vector<std::string> axis_names;
  for (const auto& a : g.axes()) {
    axis_names.push_back(a.name);
  }
  result_table table{std::move(axis_names), std::move(metric_names)};
  for (std::size_t p = 0; p < g.size(); ++p) {
    table.add_row(
        result_table::row{g.labels(p), g.coords(p), std::move(metrics[p])});
  }
  return table;
}

// How many chunks to split each point's trials into. 1 when the grid
// alone covers the pool; more when few points would leave threads idle
// (the max_attack_range_m-style single-point scan). Outcomes are
// indexed by (point, trial) and trial seeding ignores the split, so any
// chunking gives bit-identical results.
std::size_t chunks_per_point(std::size_t points, std::size_t trials,
                             std::size_t num_threads) {
  const std::size_t pool =
      num_threads == 0 ? default_thread_count() : num_threads;
  if (points == 0 || points >= pool) {
    return 1;
  }
  return std::min(trials, (pool + points - 1) / points);
}

// Where point p's trials run, and the trial index its first trial
// takes. From a prepared prototype (the fast path): a task-private copy
// mutated to the point, trial indices p·T + t, the legacy serial
// sweeps' numbering.
template <class Scenario, class Session>
std::pair<Session, std::uint64_t> point_session(
    const basic_grid<Scenario, Session>& g, std::size_t p,
    const Session& prototype, const run_config& cfg) {
  Session session = prototype;
  g.mutate_session(p, session);
  return {std::move(session), p * cfg.trials_per_point};
}

// From a base scenario (the per-point path): the point's own session,
// seeded from the point index so every axis lands in the trial noise
// streams, trial indices t. Attack points share one victim per run —
// the run-seed enrollment unless the caller pinned one — so the
// template cache makes the per-point builds pay synthesis + rig only.
std::pair<attack_session, std::uint64_t> point_session(
    const grid& g, std::size_t p, const attack_scenario& base,
    const run_config& cfg) {
  attack_scenario sc = g.scenario_at(p, base);
  if (sc.enrollment_seed == 0) {
    sc.enrollment_seed = cfg.seed ^ 0x5eedu;
  }
  return {attack_session{sc, mix_seed(cfg.seed, p)}, 0};
}

std::pair<genuine_session, std::uint64_t> point_session(
    const genuine_grid& g, std::size_t p, const genuine_scenario& base,
    const run_config& cfg) {
  return {genuine_session{g.scenario_at(p, base), mix_seed(cfg.seed, p)}, 0};
}

// The prototype the fast path copies. A genuine one renders its voice
// and warms its field cache first, so copies only re-propagate when
// their point mutates placement.
attack_session prototype_session(const attack_scenario& base,
                                 std::uint64_t seed) {
  return attack_session{base, seed};
}

genuine_session prototype_session(const genuine_scenario& base,
                                  std::uint64_t seed) {
  genuine_session session{base, seed};
  session.prepare();
  return session;
}

// The one trial loop under run, run_over, run_trial_means and
// run_genuine: `source` is a prototype session or a base scenario
// (point_session), and outcomes[p][t] = eval(trial t of point p). Work
// is split into (point × trial-chunk) tasks filling disjoint slots, so
// the outcomes are bit-identical at any thread count and any split.
template <class Grid, class Source, class Eval>
auto grid_trials(const run_config& cfg, const Grid& g, const Source& source,
                 const Eval& eval) {
  using session_type = decltype(point_session(g, 0, source, cfg).first);
  using outcome = std::decay_t<decltype(eval(
      std::declval<const session_type&>().run_trial(0)))>;
  const std::size_t trials = cfg.trials_per_point;
  const std::size_t chunks =
      chunks_per_point(g.size(), trials, cfg.num_threads);
  const std::size_t chunk_len = (trials + chunks - 1) / chunks;
  std::vector<std::vector<outcome>> outcomes(g.size(),
                                             std::vector<outcome>(trials));
  parallel_for(g.size() * chunks, cfg.num_threads, [&](std::size_t w) {
    const std::size_t p = w / chunks;
    const std::size_t t_lo = (w % chunks) * chunk_len;
    const std::size_t t_hi = std::min(trials, t_lo + chunk_len);
    if (t_lo >= t_hi) {
      return;
    }
    const auto [session, first] = point_session(g, p, source, cfg);
    for (std::size_t t = t_lo; t < t_hi; ++t) {
      outcomes[p][t] = eval(session.run_trial(first + t));
    }
  });
  return outcomes;
}

// The success columns over a trial grid.
template <class Grid, class Source, class Eval>
result_table success_table(const run_config& cfg, const Grid& g,
                           const Source& source, const Eval& eval) {
  const auto outcomes = grid_trials(cfg, g, source, eval);
  std::vector<std::vector<double>> rows;
  for (const std::vector<trial_outcome>& point : outcomes) {
    rows.push_back(summarize(point));
  }
  return grid_table(g, success_metric_names(), std::move(rows));
}

// run_metrics and run_genuine_metrics: one evaluator call per point.
template <class Grid, class Scenario, class Eval>
result_table point_metrics(const run_config& cfg, const Grid& g,
                           const Scenario& base,
                           std::vector<std::string> metric_names,
                           const Eval& eval) {
  expects(!metric_names.empty(), "engine: need metric names");
  const auto checked = width_checked(metric_names.size(), eval);
  std::vector<std::vector<double>> rows(g.size());
  parallel_for(g.size(), cfg.num_threads, [&](std::size_t p) {
    rows[p] = checked(g.scenario_at(p, base), mix_seed(cfg.seed, p), p);
  });
  return grid_table(g, std::move(metric_names), std::move(rows));
}

// RFC 4180: quote a CSV field when it contains a comma, a quote, or a
// line break; embedded quotes double.
std::string csv_field(const std::string& s) {
  if (s.find_first_of(",\"\n\r") == std::string::npos) {
    return s;
  }
  std::string out;
  out.reserve(s.size() + 2);
  out += '"';
  for (const char c : s) {
    if (c == '"') {
      out += '"';
    }
    out += c;
  }
  out += '"';
  return out;
}

std::string csv_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return std::string{buf};
}

json::value json_strings(const std::vector<std::string>& strings) {
  json::array a;
  for (const std::string& s : strings) {
    a.emplace_back(s);
  }
  return json::value{std::move(a)};
}

json::value json_numbers(const std::vector<double>& numbers) {
  json::array a;
  for (const double v : numbers) {
    a.push_back(json::number_or_null(v));
  }
  return json::value{std::move(a)};
}

}  // namespace

trial_outcome default_outcome(const trial_result& r) {
  return trial_outcome{r.success, r.intelligibility};
}

// -------------------------------------------------------------------- axes

axis distance_axis(const std::vector<double>& distances_m) {
  axis a{"distance_m", {}};
  for (const double d : distances_m) {
    a.points.push_back(axis_point{
        format_value(d), d,
        [d](attack_scenario& sc) { sc.distance_m = d; },
        [d](attack_session& s) { s.set_distance(d); }});
  }
  return a;
}

axis power_axis(const std::vector<double>& powers_w) {
  axis a{"power_w", {}};
  for (const double p : powers_w) {
    a.points.push_back(axis_point{
        format_value(p), p,
        [p](attack_scenario& sc) { sc.rig.total_power_w = p; },
        [p](attack_session& s) { s.set_total_power(p); }});
  }
  return a;
}

axis carrier_axis(const std::vector<double>& carriers_hz) {
  axis a{"carrier_hz", {}};
  for (const double hz : carriers_hz) {
    a.points.push_back(axis_point{
        format_value(hz), hz,
        [hz](attack_scenario& sc) { sc.rig.modulator.carrier_hz = hz; },
        nullptr});
  }
  return a;
}

axis ambient_axis(const std::vector<double>& ambient_spl_db) {
  axis a{"ambient_db", {}};
  for (const double spl : ambient_spl_db) {
    a.points.push_back(axis_point{
        format_value(spl), spl,
        [spl](attack_scenario& sc) { sc.environment.ambient_spl_db = spl; },
        nullptr});
  }
  return a;
}

axis device_axis(const std::vector<mic::device_profile>& devices) {
  axis a{"device", {}};
  for (std::size_t i = 0; i < devices.size(); ++i) {
    const mic::device_profile d = devices[i];
    a.points.push_back(axis_point{
        d.name, static_cast<double>(i),
        [d](attack_scenario& sc) { sc.device = d; },
        [d](attack_session& s) { s.set_device(d); }});
  }
  return a;
}

axis custom_axis(std::string name, std::vector<axis_point> points) {
  return axis{std::move(name), std::move(points)};
}

genuine_axis custom_axis(std::string name,
                         std::vector<genuine_axis_point> points) {
  return genuine_axis{std::move(name), std::move(points)};
}

// ------------------------------------------------------------ genuine axes

genuine_axis genuine_ambient_axis(const std::vector<double>& ambient_spl_db) {
  genuine_axis a{"ambient_db", {}};
  for (const double spl : ambient_spl_db) {
    a.points.push_back(genuine_axis_point{
        format_value(spl), spl,
        [spl](genuine_scenario& sc) { sc.environment.ambient_spl_db = spl; },
        [spl](genuine_session& s) { s.set_ambient(spl); }});
  }
  return a;
}

genuine_axis genuine_distance_axis(const std::vector<double>& distances_m) {
  genuine_axis a{"distance_m", {}};
  for (const double d : distances_m) {
    a.points.push_back(genuine_axis_point{
        format_value(d), d,
        [d](genuine_scenario& sc) { sc.distance_m = d; },
        [d](genuine_session& s) { s.set_distance(d); }});
  }
  return a;
}

genuine_axis genuine_level_axis(const std::vector<double>& levels_db_spl) {
  genuine_axis a{"level_db", {}};
  for (const double level : levels_db_spl) {
    a.points.push_back(genuine_axis_point{
        format_value(level), level,
        [level](genuine_scenario& sc) { sc.level_db_spl_at_1m = level; },
        [level](genuine_session& s) { s.set_level(level); }});
  }
  return a;
}

genuine_axis genuine_phrase_axis(const std::vector<std::string>& phrase_ids) {
  genuine_axis a{"phrase", {}};
  for (std::size_t i = 0; i < phrase_ids.size(); ++i) {
    const std::string id = phrase_ids[i];
    a.points.push_back(genuine_axis_point{
        id, static_cast<double>(i),
        [id](genuine_scenario& sc) { sc.phrase_id = id; }, nullptr});
  }
  return a;
}

// ----------------------------------------------------------------- results

result_table::result_table(std::vector<std::string> axis_names,
                           std::vector<std::string> metric_names)
    : axis_names_{std::move(axis_names)},
      metric_names_{std::move(metric_names)} {}

double result_table::metric(std::size_t row_index,
                            const std::string& name) const {
  const row& r = rows_.at(row_index);
  for (std::size_t m = 0; m < metric_names_.size(); ++m) {
    if (metric_names_[m] == name) {
      return r.metrics[m];
    }
  }
  throw std::invalid_argument{"result_table: unknown metric '" + name + "'"};
}

success_estimate result_table::estimate(std::size_t row_index) const {
  success_estimate est;
  est.rate = metric(row_index, "rate");
  est.ci_low = metric(row_index, "ci_low");
  est.ci_high = metric(row_index, "ci_high");
  est.mean_intelligibility = metric(row_index, "mean_score");
  est.successes = static_cast<std::size_t>(metric(row_index, "successes"));
  est.trials = static_cast<std::size_t>(metric(row_index, "trials"));
  return est;
}

void result_table::add_row(row r) {
  expects(r.labels.size() == axis_names_.size() &&
              r.coords.size() == axis_names_.size(),
          "result_table: row axis width mismatch");
  expects(r.metrics.size() == metric_names_.size(),
          "result_table: row metric width mismatch");
  rows_.push_back(std::move(r));
}

void result_table::write_csv(std::ostream& out) const {
  bool first = true;
  const auto cell = [&](const std::string& text) {
    out << (first ? "" : ",") << csv_field(text);
    first = false;
  };
  for (const std::string& a : axis_names_) {
    cell(a);
    cell(a + ":coord");
  }
  for (const std::string& m : metric_names_) {
    cell(m);
  }
  out << "\n";
  for (const row& r : rows_) {
    first = true;
    for (std::size_t a = 0; a < r.labels.size(); ++a) {
      cell(r.labels[a]);
      cell(csv_number(r.coords[a]));
    }
    for (const double m : r.metrics) {
      cell(csv_number(m));
    }
    out << "\n";
  }
}

void result_table::write_csv_file(const std::string& path) const {
  std::ofstream out{path};
  ensures(out.good(), "result_table: cannot open '" + path + "'");
  write_csv(out);
}

json::value result_table::to_json_value() const {
  json::array rows;
  for (const row& r : rows_) {
    rows.emplace_back(json::object{{"labels", json_strings(r.labels)},
                                   {"coords", json_numbers(r.coords)},
                                   {"metrics", json_numbers(r.metrics)}});
  }
  return json::value{json::object{{"axis_names", json_strings(axis_names_)},
                                  {"metric_names", json_strings(metric_names_)},
                                  {"rows", json::value{std::move(rows)}}}};
}

void result_table::print(std::FILE* out) const {
  const auto at_least = [](std::size_t w, std::size_t min_width) {
    return w > min_width ? w : min_width;
  };
  std::vector<std::size_t> widths(axis_names_.size());
  for (std::size_t a = 0; a < axis_names_.size(); ++a) {
    widths[a] = at_least(axis_names_[a].size(), 10);
    for (const row& r : rows_) {
      widths[a] = at_least(r.labels[a].size(), widths[a]);
    }
  }
  for (std::size_t a = 0; a < axis_names_.size(); ++a) {
    std::fprintf(out, " %*s", static_cast<int>(widths[a]),
                 axis_names_[a].c_str());
  }
  for (const std::string& name : metric_names_) {
    std::fprintf(out, " %*s", static_cast<int>(at_least(name.size(), 10)),
                 name.c_str());
  }
  std::fprintf(out, "\n");
  for (const row& r : rows_) {
    for (std::size_t a = 0; a < r.labels.size(); ++a) {
      std::fprintf(out, " %*s", static_cast<int>(widths[a]),
                   r.labels[a].c_str());
    }
    for (std::size_t m = 0; m < r.metrics.size(); ++m) {
      std::fprintf(out, " %*.4g",
                   static_cast<int>(at_least(metric_names_[m].size(), 10)),
                   r.metrics[m]);
    }
    std::fprintf(out, "\n");
  }
}

// ------------------------------------------------------------------ engine

const std::vector<std::string>& success_metric_names() {
  static const std::vector<std::string> names{
      "rate", "ci_low", "ci_high", "mean_score", "successes", "trials"};
  return names;
}

engine::engine(run_config config) : config_{config} {
  expects(config_.trials_per_point > 0,
          "engine: trials_per_point must be > 0");
}

result_table engine::run(const attack_scenario& base, const grid& g,
                         const trial_evaluator& eval) const {
  if (g.session_mutable()) {
    return run_over(prototype_session(base, config_.seed), g, eval);
  }
  return success_table(config_, g, base, eval);
}

result_table engine::run_over(const attack_session& prototype, const grid& g,
                              const trial_evaluator& eval) const {
  expects(g.session_mutable(),
          "engine::run_over: every axis must be session-mutable");
  return success_table(config_, g, prototype, eval);
}

result_table engine::run_trial_means(const attack_scenario& base,
                                     const grid& g,
                                     std::vector<std::string> metric_names,
                                     const trial_metrics_evaluator& eval)
    const {
  expects(!metric_names.empty(), "engine: need metric names");
  const auto checked = width_checked(metric_names.size(), eval);
  const auto outcomes =
      g.session_mutable()
          ? grid_trials(config_, g, prototype_session(base, config_.seed),
                        checked)
          : grid_trials(config_, g, base, checked);
  std::vector<std::vector<double>> rows;
  for (const std::vector<std::vector<double>>& point : outcomes) {
    rows.push_back(means(point));
  }
  return grid_table(g, std::move(metric_names), std::move(rows));
}

result_table engine::run_genuine(const genuine_scenario& base,
                                 const genuine_grid& g,
                                 const genuine_trial_evaluator& eval) const {
  if (g.session_mutable()) {
    return success_table(config_, g, prototype_session(base, config_.seed),
                         eval);
  }
  return success_table(config_, g, base, eval);
}

result_table engine::run_metrics(const attack_scenario& base, const grid& g,
                                 std::vector<std::string> metric_names,
                                 const point_evaluator& eval) const {
  return point_metrics(config_, g, base, std::move(metric_names), eval);
}

result_table engine::run_genuine_metrics(
    const genuine_scenario& base, const genuine_grid& g,
    std::vector<std::string> metric_names,
    const genuine_point_evaluator& eval) const {
  return point_metrics(config_, g, base, std::move(metric_names), eval);
}

}  // namespace ivc::sim
