// Append-only experiment run log.
//
// Every `--json` bench appends one JSONL record keyed by (figure, grid
// signature, seed, trials per point): the scalar metrics of that run,
// stamped with a UTC timestamp. Because the key pins the swept grid,
// the seed, and the trial count, two records with the same key
// measured the same experiment — diffing
// their metrics across commits is the cross-PR trend tracking the
// ROADMAP asks for. The aggregator (`diff_latest_runs`, surfaced by the
// `runlog_report` tool) collapses each key to its latest record and
// reports the metric deltas against the previous run of that key.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/json_min.h"
#include "sim/experiment.h"

namespace ivc::sim {

struct run_record {
  std::string figure;          // e.g. "F-R10"
  std::string grid_signature;  // from grid_signature(); any stable id works
  std::uint64_t seed = 0;      // the experiment's run seed
  std::uint64_t trials = 0;    // trials per point (0 = not trial-based)
  std::string timestamp;       // ISO-8601 UTC; append fills it when empty
  // Scalar metrics in insertion order (what json_report::add_metric saw).
  std::vector<std::pair<std::string, double>> metrics;
};

// Stable signature of a swept grid: axis names and every row's labels,
// compressed to "<axes>|<rows>|<hash>". Independent of metric values,
// so runs of the same experiment share a signature however the results
// moved.
std::string grid_signature(const result_table& table);

// The identity two comparable runs share:
// "figure|grid_signature|seed|trials". Trials are part of the key: a
// --trials 1 CI smoke and a full default run sweep the same grid with
// the same seed but are NOT the same experiment.
std::string run_key(const run_record& record);

// Appends one JSONL line to `path`, creating the file when missing.
// Fills record.timestamp (in the written line only) when empty; a
// non-finite metric is written as null. Throws when the file cannot be
// opened.
void append_run_record(const std::string& path, const run_record& record);

// Reads every record in file order, a null metric as NaN. Returns an
// empty vector for a missing file; skips torn and foreign lines (a
// torn write must not poison the whole log).
std::vector<run_record> read_run_log(const std::string& path);

// The one JSONL reader (run logs, fleet-sampler series): every line
// that parses as a JSON object, in file order. Blank lines, lines that
// fail to parse (a write torn by a killed run) and lines that are not
// objects are skipped. A missing file reads as empty.
std::vector<json::value> read_jsonl_objects(const std::string& path);

// Named metrics as a JSON object in insertion order, a non-finite value
// as null: the "metrics" member of run-log lines and bench reports.
json::value metrics_object(
    const std::vector<std::pair<std::string, double>>& metrics);

// One metric present in a key's latest and previous records.
struct metric_delta {
  std::string name;
  double previous = 0.0;
  double latest = 0.0;
};

// Aggregated view of one run key.
struct run_diff {
  run_record latest;
  bool has_previous = false;
  run_record previous;                // valid when has_previous
  std::vector<metric_delta> deltas;   // metrics shared by both records
  std::size_t occurrences = 0;        // records in the log with this key
};

// Collapses the log to its distinct keys (first-seen order): per key
// the latest record, the one before it (when the key appeared more than
// once — same-key dedupe), and the metric deltas between the two.
std::vector<run_diff> diff_latest_runs(const std::vector<run_record>& records);

}  // namespace ivc::sim
