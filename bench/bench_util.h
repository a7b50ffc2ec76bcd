// Shared helpers for the experiment binaries. Each bench prints the
// rows/series of one paper table or figure in a fixed-width layout that
// is stable for diffing across runs, and — with `--json <path>` — also
// emits a machine-readable report (result tables + scalar metrics) for
// tracking the perf/accuracy trajectory across PRs. Every JSON report
// additionally appends a (figure, grid signature, seed)-keyed record to
// the append-only run log (sim/runlog.h), so results accumulate across
// commits instead of overwriting each other.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/json_min.h"
#include "sim/experiment.h"
#include "sim/runlog.h"

namespace ivc::bench {

inline void banner(const char* id, const char* title) {
  std::printf("================================================================\n");
  std::printf("%s — %s\n", id, title);
  std::printf("================================================================\n");
}

inline void note(const char* fmt, ...) {
  std::va_list args;
  va_start(args, fmt);
  std::printf("  ");
  std::vprintf(fmt, args);
  std::printf("\n");
  va_end(args);
}

inline void rule() {
  std::printf("----------------------------------------------------------------\n");
}

// Common bench flags:
//   --json <path>    write a machine-readable report
//   --runlog <path>  append the run record here (default: runlog.jsonl,
//                    written whenever --json is given)
//   --threads <n>    experiment-engine thread count (0 = all hardware)
//   --trials <n>     override the figure's trials-per-point
struct options {
  std::string json_path;
  std::string runlog_path;  // explicit --runlog; empty = default behavior
  std::size_t threads = 0;
  std::size_t trials = 0;
};

inline options parse_options(int argc, char** argv) {
  // Negative or garbage counts fall back to 0 (= the figure default /
  // all hardware threads) instead of wrapping to SIZE_MAX.
  const auto count_arg = [](const char* s) {
    const long long v = std::atoll(s);
    return v > 0 ? static_cast<std::size_t>(v) : std::size_t{0};
  };
  options opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json" && i + 1 < argc) {
      opts.json_path = argv[++i];
    } else if (arg == "--runlog" && i + 1 < argc) {
      opts.runlog_path = argv[++i];
    } else if (arg == "--threads" && i + 1 < argc) {
      opts.threads = count_arg(argv[++i]);
    } else if (arg == "--trials" && i + 1 < argc) {
      opts.trials = count_arg(argv[++i]);
    }
  }
  return opts;
}

class stopwatch {
 public:
  stopwatch() : start_{std::chrono::steady_clock::now()} {}
  double elapsed_s() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

// Wall time of `reps` runs of `fn`, best of three passes so a stray
// scheduler hiccup does not pollute the perf trajectory.
template <typename Fn>
double time_reps(std::size_t reps, Fn&& fn) {
  double best = std::numeric_limits<double>::infinity();
  for (int pass = 0; pass < 3; ++pass) {
    const stopwatch clock;
    for (std::size_t r = 0; r < reps; ++r) {
      fn();
    }
    best = std::min(best, clock.elapsed_s());
  }
  return best;
}

// Machine-readable figure report: named result tables plus scalar
// metrics (wall time, derived summaries), written as one JSON object —
// and, through write(options), appended to the run log keyed by
// (figure, grid signature, seed).
class json_report {
 public:
  json_report(std::string figure_id, std::string title)
      : figure_id_{std::move(figure_id)}, title_{std::move(title)} {}

  // The experiment's run seed and trials-per-point; both are part of
  // the run-log key so trend diffs only ever compare runs of the
  // identical experiment (a --trials 1 smoke is not the full run).
  void set_seed(std::uint64_t seed) { seed_ = seed; }
  void set_trials(std::uint64_t trials) { trials_ = trials; }

  // Explicit run-key signature for reports whose experiment is not a
  // swept result_table (the serving harness): names the protocol
  // so the run-log key changes when the measurement protocol does.
  // Prepended before any table signatures.
  void set_signature(std::string signature) {
    signature_ = std::move(signature);
  }

  void add_table(const std::string& name, const sim::result_table& table) {
    tables_.emplace_back(name, table.to_json_value());
    grid_signatures_.emplace_back(name, sim::grid_signature(table));
  }
  void add_metric(const std::string& name, double value) {
    metrics_.emplace_back(name, value);
  }

  // Writes when `path` is non-empty (i.e. --json was passed).
  bool write(const std::string& path) const {
    if (path.empty()) {
      return false;
    }
    std::ofstream out{path};
    if (!out.good()) {
      std::fprintf(stderr, "json_report: cannot open %s\n", path.c_str());
      return false;
    }
    // Seed as a string: 64-bit identities corrupt when a JSON reader
    // rounds them through a double (same rationale as sim/runlog.cpp).
    const json::value doc{json::object{
        {"figure", json::value{figure_id_}},
        {"title", json::value{title_}},
        {"seed", json::value{std::to_string(seed_)}},
        {"trials", json::value{static_cast<double>(trials_)}},
        {"metrics", sim::metrics_object(metrics_)},
        {"tables", json::value{tables_}}}};
    out << json::write(doc) << "\n";
    return out.good();
  }

  // Writes the JSON report (when --json was passed) and appends the run
  // record to the run log: to --runlog when given, else to the default
  // "runlog.jsonl" whenever a JSON report was requested.
  bool write(const options& opts) const {
    const bool wrote = write(opts.json_path);
    std::string log_path = opts.runlog_path;
    if (log_path.empty() && !opts.json_path.empty()) {
      log_path = "runlog.jsonl";
    }
    if (!log_path.empty()) {
      sim::append_run_record(log_path, run_record());
    }
    return wrote;
  }

  // The (figure, grid, seed)-keyed record this report stands for. The
  // grid signature concatenates every added table's signature, so a
  // report with several tables still keys on the full swept shape.
  sim::run_record run_record() const {
    sim::run_record record;
    record.figure = figure_id_;
    record.seed = seed_;
    record.trials = trials_;
    record.grid_signature = signature_;
    for (const auto& [name, signature] : grid_signatures_) {
      if (!record.grid_signature.empty()) {
        record.grid_signature += ';';
      }
      record.grid_signature += name + "=" + signature;
    }
    record.metrics = metrics_;
    return record;
  }

 private:
  std::string figure_id_;
  std::string title_;
  std::string signature_;
  std::uint64_t seed_ = 0;
  std::uint64_t trials_ = 0;
  json::object tables_;  // name -> result_table::to_json_value()
  std::vector<std::pair<std::string, std::string>> grid_signatures_;
  std::vector<std::pair<std::string, double>> metrics_;
};

}  // namespace ivc::bench
