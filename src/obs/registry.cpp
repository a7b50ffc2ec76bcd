#include "obs/registry.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <stdexcept>

#include "common/error.h"

namespace ivc::obs {

namespace {

// Canonical identity string: name|k=v|k=v with labels sorted by key.
// '|' cannot appear in a Prometheus metric name, and label VALUES with
// '|' would only matter if two different label sets collided to one
// key — the '=' separator plus sorted keys makes that a non-issue for
// the closed set of names this codebase emits.
std::string canonical_key(const std::string& name, const label_set& labels) {
  std::string key = name;
  for (const auto& [k, v] : labels) {
    key += '|';
    key += k;
    key += '=';
    key += v;
  }
  return key;
}

void canonicalize(label_set& labels) {
  std::sort(labels.begin(), labels.end());
  for (std::size_t i = 1; i < labels.size(); ++i) {
    expects(labels[i - 1].first != labels[i].first,
            "metrics_registry: duplicate label key");
  }
}

// Prometheus sample value: integers print plain, doubles at full
// precision (the same %.17g contract as json_min::write).
std::string prom_number(double v) {
  char buf[40];
  if (v == static_cast<double>(static_cast<long long>(v)) &&
      std::abs(v) < 9.007199254740992e15) {
    std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(v));
  } else {
    std::snprintf(buf, sizeof buf, "%.17g", v);
  }
  return buf;
}

std::string prom_labels(const label_set& labels) {
  if (labels.empty()) {
    return {};
  }
  std::string out = "{";
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) {
      out += ',';
    }
    out += labels[i].first;
    out += "=\"";
    // Escape per the exposition format: backslash, quote, newline.
    for (const char c : labels[i].second) {
      if (c == '\\' || c == '"') {
        out += '\\';
        out += c;
      } else if (c == '\n') {
        out += "\\n";
      } else {
        out += c;
      }
    }
    out += '"';
  }
  out += '}';
  return out;
}

json::value labels_json(const label_set& labels) {
  json::object o;
  o.reserve(labels.size());
  for (const auto& [k, v] : labels) {
    o.emplace_back(k, json::value{v});
  }
  return json::value{std::move(o)};
}

}  // namespace

metrics_registry::entry& metrics_registry::intern(const std::string& name,
                                                  label_set labels, kind type,
                                                  bool deterministic) {
  expects(!name.empty(), "metrics_registry: empty metric name");
  canonicalize(labels);
  const std::string key = canonical_key(name, labels);
  table_shard& sh = shards_[std::hash<std::string>{}(key) % num_shards];
  const ts_lock lock{sh.mutex};
  for (const std::unique_ptr<entry>& e : sh.entries) {
    if (e->key == key) {
      expects(e->type == type,
              "metrics_registry: metric re-registered as a different kind");
      expects(e->deterministic == deterministic,
              "metrics_registry: metric re-registered with a different "
              "deterministic flag");
      return *e;
    }
  }
  auto e = std::make_unique<entry>();
  e->key = key;
  e->name = name;
  e->labels = std::move(labels);
  e->type = type;
  e->deterministic = deterministic;
  switch (type) {
    case kind::counter:
      e->cnt = std::make_unique<detail::counter_cell>();
      break;
    case kind::gauge:
      e->gge = std::make_unique<detail::gauge_cell>();
      break;
    case kind::histogram:
      e->hist = std::make_unique<detail::histogram_cell>();
      break;
  }
  sh.entries.push_back(std::move(e));
  return *sh.entries.back();
}

counter metrics_registry::get_counter(const std::string& name,
                                      label_set labels, bool deterministic) {
  return counter{
      intern(name, std::move(labels), kind::counter, deterministic).cnt.get()};
}

gauge metrics_registry::get_gauge(const std::string& name, label_set labels) {
  // Gauges are point-in-time reads of scheduling state — never part of
  // the deterministic fingerprint.
  return gauge{intern(name, std::move(labels), kind::gauge, false).gge.get()};
}

histogram metrics_registry::get_histogram(const std::string& name,
                                          label_set labels) {
  return histogram{
      intern(name, std::move(labels), kind::histogram, false).hist.get()};
}

std::vector<const metrics_registry::entry*> metrics_registry::sorted_entries()
    const {
  std::vector<const entry*> out;
  for (const table_shard& sh : shards_) {
    const ts_lock lock{sh.mutex};
    for (const std::unique_ptr<entry>& e : sh.entries) {
      out.push_back(e.get());
    }
  }
  std::sort(out.begin(), out.end(),
            [](const entry* a, const entry* b) { return a->key < b->key; });
  return out;
}

json::value metrics_registry::snapshot() const {
  json::array counters;
  json::array gauges;
  json::array histograms;
  for (const entry* e : sorted_entries()) {
    json::object o;
    o.emplace_back("name", json::value{e->name});
    o.emplace_back("labels", labels_json(e->labels));
    switch (e->type) {
      case kind::counter:
        o.emplace_back("value",
                       json::value{static_cast<double>(
                           e->cnt->value.load(std::memory_order_relaxed))});
        o.emplace_back("deterministic", json::value{e->deterministic});
        counters.emplace_back(json::value{std::move(o)});
        break;
      case kind::gauge:
        o.emplace_back(
            "value",
            json::value{e->gge->value.load(std::memory_order_relaxed)});
        gauges.emplace_back(json::value{std::move(o)});
        break;
      case kind::histogram: {
        const ts_lock lock{e->hist->mutex};
        const log_histogram& h = e->hist->hist;
        o.emplace_back("count",
                       json::value{static_cast<double>(h.count())});
        o.emplace_back("mean", json::value{h.mean()});
        o.emplace_back("min", json::value{h.min()});
        o.emplace_back("max", json::value{h.max()});
        o.emplace_back("p50", json::value{h.quantile(0.50)});
        o.emplace_back("p95", json::value{h.quantile(0.95)});
        o.emplace_back("p99", json::value{h.quantile(0.99)});
        histograms.emplace_back(json::value{std::move(o)});
        break;
      }
    }
  }
  json::object root;
  root.emplace_back("counters", json::value{std::move(counters)});
  root.emplace_back("gauges", json::value{std::move(gauges)});
  root.emplace_back("histograms", json::value{std::move(histograms)});
  return json::value{std::move(root)};
}

std::string metrics_registry::to_json() const { return json::write(snapshot()); }

std::string metrics_registry::to_prometheus() const {
  std::string out;
  // Group consecutive entries of one name under a single # TYPE line;
  // sorted_entries() keeps a name's label variants adjacent because the
  // key starts with the name.
  std::string open_name;
  for (const entry* e : sorted_entries()) {
    if (e->name != open_name) {
      open_name = e->name;
      out += "# TYPE ";
      out += e->name;
      switch (e->type) {
        case kind::counter:
          out += " counter\n";
          break;
        case kind::gauge:
          out += " gauge\n";
          break;
        case kind::histogram:
          out += " summary\n";
          break;
      }
    }
    switch (e->type) {
      case kind::counter:
        out += e->name + prom_labels(e->labels) + ' ' +
               prom_number(static_cast<double>(
                   e->cnt->value.load(std::memory_order_relaxed))) +
               '\n';
        break;
      case kind::gauge:
        out += e->name + prom_labels(e->labels) + ' ' +
               prom_number(e->gge->value.load(std::memory_order_relaxed)) +
               '\n';
        break;
      case kind::histogram: {
        const ts_lock lock{e->hist->mutex};
        const log_histogram& h = e->hist->hist;
        const double quantiles[] = {0.50, 0.95, 0.99};
        for (const double q : quantiles) {
          label_set labels = e->labels;
          labels.emplace_back("quantile", prom_number(q));
          out += e->name + prom_labels(labels) + ' ' +
                 prom_number(h.quantile(q)) + '\n';
        }
        out += e->name + "_sum" + prom_labels(e->labels) + ' ' +
               prom_number(h.mean() * static_cast<double>(h.count())) + '\n';
        out += e->name + "_count" + prom_labels(e->labels) + ' ' +
               prom_number(static_cast<double>(h.count())) + '\n';
        break;
      }
    }
  }
  return out;
}

json::value metrics_registry::counters_snapshot() const {
  json::object o;
  for (const entry* e : sorted_entries()) {
    if (e->type == kind::counter && e->deterministic) {
      o.emplace_back(e->key,
                     json::value{static_cast<double>(
                         e->cnt->value.load(std::memory_order_relaxed))});
    }
  }
  return json::value{std::move(o)};
}

std::string metrics_registry::deterministic_fingerprint() const {
  return json::write(counters_snapshot());
}

}  // namespace ivc::obs
