// Run-log aggregator: the cross-PR trend view over the append-only
// JSONL log every `--json` bench writes (sim/runlog.h).
//
//   runlog_report [path ...]
//
// Reads each log (default: runlog.jsonl), collapses records to their
// distinct (figure, grid, seed) keys, and prints the latest metrics per
// key with deltas against the previous run of the same experiment —
// same-key records measured an identical grid with an identical seed,
// so any metric movement is a code change, not noise.
//
//   runlog_report --metrics <timeseries.jsonl> [--baseline <previous.jsonl>]
//
// Telemetry mode: summarizes a fleet-sampler time-series (the JSONL
// `serve_load --telemetry` writes during --paced/--shard runs) — sample
// count, run duration, PEAK resident working set, end-of-run eviction
// rate, and the final shed/reject/fault counts. With --baseline it
// prints each summary line's delta against a previous run's series, so
// two telemetry captures diff the way runlog records do.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "common/json_min.h"
#include "sim/runlog.h"

namespace {

// ---- telemetry time-series summary ----------------------------------

using flat_sample = std::vector<std::pair<std::string, double>>;

double sample_get(const flat_sample& s, const std::string& key,
                  double fallback = 0.0) {
  for (const auto& [name, value] : s) {
    if (name == key) {
      return value;
    }
  }
  return fallback;
}

// Fleet-sampler lines -> flat numeric maps; non-numeric members (none
// today) are skipped rather than rejected, so the reader survives
// future fields. Torn and non-object lines are skipped by the shared
// JSONL reader, so a series cut off by a killed run still summarizes.
std::vector<flat_sample> read_series(const std::string& path) {
  std::vector<flat_sample> series;
  for (const ivc::json::value& v : ivc::sim::read_jsonl_objects(path)) {
    flat_sample s;
    for (const auto& [name, member] : v.members()) {
      if (member.is_number()) {
        s.emplace_back(name, member.number());
      }
    }
    series.push_back(std::move(s));
  }
  return series;
}

// One "now / was / delta (%)" line. Relative movement makes throughput
// metrics comparable at a glance across very different scales;
// |was| keeps the percentage's sign equal to the delta's for
// negative-valued metrics (dB levels).
void print_delta(const std::string& name, double now, double was) {
  const double delta = now - was;
  if (was != 0.0) {
    std::printf("  %-28s %14.6g   was %-12.6g %+.6g (%+.1f%%)\n",
                name.c_str(), now, was, delta, 100.0 * delta / std::abs(was));
  } else {
    std::printf("  %-28s %14.6g   was %-12.6g %+.6g\n", name.c_str(), now,
                was, delta);
  }
}

// Collapses a series to the summary lines the report prints. Counters
// and quantiles are cumulative over the run, so the FINAL sample is the
// whole-run value; `resident` breathes with the eviction cycle, so its
// summary is the peak across samples.
flat_sample summarize_series(const std::vector<flat_sample>& series) {
  flat_sample out;
  const flat_sample& last = series.back();
  out.emplace_back("samples", static_cast<double>(series.size()));
  out.emplace_back("duration_s", sample_get(last, "t_s") -
                                     sample_get(series.front(), "t_s"));
  double peak_resident = 0.0;
  for (const flat_sample& s : series) {
    peak_resident = std::max(peak_resident, sample_get(s, "resident"));
  }
  out.emplace_back("peak_resident", peak_resident);
  const double offered = sample_get(last, "blocks_offered");
  const double evictions = sample_get(last, "evictions");
  out.emplace_back("evictions", evictions);
  out.emplace_back("rehydrations", sample_get(last, "rehydrations"));
  out.emplace_back("eviction_rate", offered > 0.0 ? evictions / offered : 0.0);
  out.emplace_back("frozen_mib",
                   sample_get(last, "frozen_bytes") / (1024.0 * 1024.0));
  for (const char* name :
       {"blocks_offered", "blocks_shed", "blocks_rejected", "quarantines",
        "reopens", "shard_kills"}) {
    for (const auto& [key, value] : last) {
      if (key == name) {
        out.emplace_back(name, value);
        break;
      }
    }
  }
  return out;
}

int run_metrics_summary(const std::string& current_path,
                        const std::string& baseline_path) {
  const std::vector<flat_sample> series = read_series(current_path);
  if (series.empty()) {
    std::fprintf(stderr, "runlog_report: no samples in %s\n",
                 current_path.c_str());
    return 1;
  }
  const flat_sample summary = summarize_series(series);
  flat_sample previous;
  if (!baseline_path.empty()) {
    const std::vector<flat_sample> base_series = read_series(baseline_path);
    if (base_series.empty()) {
      std::fprintf(stderr, "runlog_report: no samples in baseline %s\n",
                   baseline_path.c_str());
      return 1;
    }
    previous = summarize_series(base_series);
  }
  std::printf("telemetry %s%s%s\n", current_path.c_str(),
              previous.empty() ? "" : " vs ",
              previous.empty() ? "" : baseline_path.c_str());
  for (const auto& [name, now] : summary) {
    if (previous.empty()) {
      std::printf("  %-28s %14.6g\n", name.c_str(), now);
      continue;
    }
    print_delta(name, now, sample_get(previous, name));
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ivc;
  std::vector<std::string> paths;
  std::string metrics_baseline;
  std::string metrics_series;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--metrics" && i + 1 < argc) {
      metrics_series = argv[++i];
    } else if (arg == "--baseline" && i + 1 < argc) {
      metrics_baseline = argv[++i];
    } else {
      paths.emplace_back(arg);
    }
  }
  if (!metrics_series.empty()) {
    return run_metrics_summary(metrics_series, metrics_baseline);
  }
  if (paths.empty()) {
    paths.emplace_back("runlog.jsonl");
  }

  std::vector<sim::run_record> records;
  for (const std::string& path : paths) {
    std::vector<sim::run_record> part = sim::read_run_log(path);
    if (part.empty()) {
      std::fprintf(stderr, "runlog_report: no records in %s\n", path.c_str());
    }
    records.insert(records.end(), part.begin(), part.end());
  }
  if (records.empty()) {
    return 1;
  }

  const std::vector<sim::run_diff> diffs = sim::diff_latest_runs(records);
  std::printf("%zu record(s), %zu distinct experiment(s)\n", records.size(),
              diffs.size());
  for (const sim::run_diff& d : diffs) {
    std::printf("\n%s  seed=%llu  trials=%llu  runs=%zu  latest=%s\n",
                d.latest.figure.c_str(),
                static_cast<unsigned long long>(d.latest.seed),
                static_cast<unsigned long long>(d.latest.trials),
                d.occurrences, d.latest.timestamp.c_str());
    std::printf("  grid %s\n", d.latest.grid_signature.c_str());
    if (!d.has_previous) {
      for (const auto& [name, value] : d.latest.metrics) {
        std::printf("  %-28s %14.6g   (first run)\n", name.c_str(), value);
      }
      continue;
    }
    for (const sim::metric_delta& m : d.deltas) {
      print_delta(m.name, m.latest, m.previous);
    }
    // Metrics the latest run added that the previous one lacked: not in
    // deltas, but part of the result.
    for (const auto& [name, value] : d.latest.metrics) {
      bool in_deltas = false;
      for (const sim::metric_delta& m : d.deltas) {
        if (m.name == name) {
          in_deltas = true;
          break;
        }
      }
      if (!in_deltas) {
        std::printf("  %-28s %14.6g   (new metric)\n", name.c_str(), value);
      }
    }
  }
  return 0;
}
