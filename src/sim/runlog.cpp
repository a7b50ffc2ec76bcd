#include "sim/runlog.h"

#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <limits>

#include "common/error.h"
#include "common/json_field.h"

namespace ivc::sim {
namespace {

// FNV-1a, 64-bit: stable across platforms and runs (std::hash is not).
std::uint64_t fnv1a(std::uint64_t h, const std::string& s) {
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x0000'0100'0000'01b3ULL;
  }
  // Separator so {"ab","c"} and {"a","bc"} hash apart.
  h ^= 0x1f;
  h *= 0x0000'0100'0000'01b3ULL;
  return h;
}

std::string utc_timestamp_now() {
  const std::time_t now = std::time(nullptr);
  std::tm tm_utc{};
  gmtime_r(&now, &tm_utc);
  char buf[32];
  std::strftime(buf, sizeof buf, "%Y-%m-%dT%H:%M:%SZ", &tm_utc);
  return std::string{buf};
}

}  // namespace

std::string grid_signature(const result_table& table) {
  std::string axes;
  for (const std::string& name : table.axis_names()) {
    if (!axes.empty()) {
      axes += '*';
    }
    axes += name;
  }
  std::uint64_t h = 0xcbf2'9ce4'8422'2325ULL;  // FNV offset basis
  for (const std::string& name : table.axis_names()) {
    h = fnv1a(h, name);
  }
  for (const result_table::row& r : table.rows()) {
    for (const std::string& label : r.labels) {
      h = fnv1a(h, label);
    }
  }
  char hash[24];
  std::snprintf(hash, sizeof hash, "%016llx",
                static_cast<unsigned long long>(h));
  return axes + "|" + std::to_string(table.size()) + "|" + hash;
}

std::string run_key(const run_record& record) {
  return record.figure + "|" + record.grid_signature + "|" +
         std::to_string(record.seed) + "|" + std::to_string(record.trials);
}

json::value metrics_object(
    const std::vector<std::pair<std::string, double>>& metrics) {
  json::object o;
  for (const auto& [name, value] : metrics) {
    o.emplace_back(name, json::number_or_null(value));
  }
  return json::value{std::move(o)};
}

void append_run_record(const std::string& path, const run_record& record) {
  std::ofstream out{path, std::ios::app};
  ensures(out.good(), "runlog: cannot open '" + path + "'");
  // The seed is written as a string: it is a 64-bit identity, and JSON
  // readers (ours included) round numbers through a double, which
  // corrupts values above 2^53.
  const json::value line{json::object{
      {"figure", json::value{record.figure}},
      {"grid", json::value{record.grid_signature}},
      {"seed", json::value{std::to_string(record.seed)}},
      {"trials", json::value{static_cast<double>(record.trials)}},
      {"timestamp", json::value{record.timestamp.empty() ? utc_timestamp_now()
                                                         : record.timestamp}},
      {"metrics", metrics_object(record.metrics)}}};
  out << json::write(line) << "\n";
  ensures(out.good(), "runlog: write to '" + path + "' failed");
}

std::vector<json::value> read_jsonl_objects(const std::string& path) {
  std::vector<json::value> objects;
  std::ifstream in{path};
  std::string line;
  while (std::getline(in, line)) {
    try {
      json::value v = json::parse(line);
      if (v.is_object()) {
        objects.push_back(std::move(v));
      }
    } catch (const std::invalid_argument&) {
      // Blank or torn line: skip it, keep the rest of the file usable.
    }
  }
  return objects;
}

std::vector<run_record> read_run_log(const std::string& path) {
  std::vector<run_record> records;
  for (const json::value& doc : read_jsonl_objects(path)) {
    try {
      run_record r;
      if (const json::value* v = doc.find("figure")) {
        r.figure = v->string();
      }
      if (const json::value* v = doc.find("grid")) {
        r.grid_signature = v->string();
      }
      if (const json::value* v = doc.find("seed")) {
        // Written as a string (exact); tolerate a number for foreign or
        // older lines.
        r.seed = v->is_string()
                     ? std::strtoull(v->string().c_str(), nullptr, 10)
                     : json::to_u64(*v);
      }
      if (const json::value* v = doc.find("trials")) {
        r.trials = json::to_u64(*v);
      }
      if (const json::value* v = doc.find("timestamp")) {
        r.timestamp = v->string();
      }
      if (const json::value* v = doc.find("metrics"); v && v->is_object()) {
        for (const auto& [name, metric] : v->members()) {
          if (metric.is_number()) {
            r.metrics.emplace_back(name, metric.number());
          } else if (metric.is_null()) {
            r.metrics.emplace_back(name,
                                   std::numeric_limits<double>::quiet_NaN());
          }
        }
      }
      records.push_back(std::move(r));
    } catch (const std::invalid_argument&) {
      // Foreign line (a field of the wrong type or range): skip it.
    }
  }
  return records;
}

std::vector<run_diff> diff_latest_runs(
    const std::vector<run_record>& records) {
  std::vector<std::string> key_order;
  std::vector<std::vector<const run_record*>> by_key;
  for (const run_record& r : records) {
    const std::string key = run_key(r);
    std::size_t slot = key_order.size();
    for (std::size_t i = 0; i < key_order.size(); ++i) {
      if (key_order[i] == key) {
        slot = i;
        break;
      }
    }
    if (slot == key_order.size()) {
      key_order.push_back(key);
      by_key.emplace_back();
    }
    by_key[slot].push_back(&r);
  }

  std::vector<run_diff> diffs;
  diffs.reserve(key_order.size());
  for (const std::vector<const run_record*>& runs : by_key) {
    run_diff d;
    d.occurrences = runs.size();
    d.latest = *runs.back();
    if (runs.size() > 1) {
      d.has_previous = true;
      d.previous = *runs[runs.size() - 2];
      for (const auto& [name, latest_value] : d.latest.metrics) {
        for (const auto& [prev_name, prev_value] : d.previous.metrics) {
          if (prev_name == name) {
            d.deltas.push_back(metric_delta{name, prev_value, latest_value});
            break;
          }
        }
      }
    }
    diffs.push_back(std::move(d));
  }
  return diffs;
}

}  // namespace ivc::sim
