// Lock-sharded metrics registry of the serving layer.
//
// The serving fleet needs counters/gauges/histograms that every
// session, manager and shard can bump from its hot path without
// serializing on one registry lock. The registry shards its name table
// across 8 mutexes (registration-time cost only) and hands out CHEAP
// HANDLES: a counter/gauge handle is one raw pointer to an atomic cell,
// so the hot-path cost of `counter.inc()` is a relaxed fetch_add — no
// lock, no hash lookup, no branch beyond the null check that makes a
// default-constructed handle a no-op (telemetry off = null registry =
// zero-cost handles everywhere).
//
// Identity is (name, sorted label set): two get_counter() calls with
// the same name+labels return handles to the SAME cell, which is what
// lets a million sessions share one "serve_blocks_processed_total"
// without per-session cardinality.
//
// Determinism: the serving layer's bit-identity contract extends to
// telemetry. Counters that sum per-block/per-utterance events are pure
// functions of the accepted-block order, so their end-of-run values are
// bit-identical at any worker count; counters that count
// SCHEDULING events (evictions, rehydrations, shard kills) are not.
// Each metric declares which side it is on at registration
// (`deterministic`), and deterministic_fingerprint() exports exactly
// the deterministic subset — the string the telemetry gate compares
// across worker counts. Gauges and wall-clock histograms are always
// exempt.
//
// Export: snapshot() -> json_min tree (sorted by name+labels, so the
// output is byte-stable), to_json() the compact text form, and
// to_prometheus() the text exposition format (counters/gauges verbatim,
// log-histograms as summaries with p50/p95/p99 quantile samples).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/histogram.h"
#include "common/json_min.h"
#include "common/sync.h"
#include "common/thread_annotations.h"

namespace ivc::obs {

// Label pairs of one metric. Order-insensitive at registration (the
// registry sorts by key); duplicate keys are rejected.
using label_set = std::vector<std::pair<std::string, std::string>>;

namespace detail {

struct counter_cell {
  std::atomic<std::uint64_t> value{0};
};

struct gauge_cell {
  std::atomic<double> value{0.0};
};

// Histograms are not atomic: record() takes the cell's own mutex. Keep
// registry histograms for LOW-RATE series (rehydrate latency, sampler
// internals); per-block queue wait stays in the per-session queue_wait
// histogram, which is already under the session mutex.
struct histogram_cell {
  ts_mutex mutex;
  log_histogram hist IVC_GUARDED_BY(mutex);
};

}  // namespace detail

// Hot-path counter handle. Default-constructed = detached no-op, which
// is how the serving layer runs with telemetry off.
class counter {
 public:
  counter() = default;

  void inc(std::uint64_t n = 1) const noexcept {
    if (cell_ != nullptr) {
      cell_->value.fetch_add(n, std::memory_order_relaxed);
    }
  }
  std::uint64_t value() const noexcept {
    return cell_ == nullptr ? 0
                            : cell_->value.load(std::memory_order_relaxed);
  }
  explicit operator bool() const noexcept { return cell_ != nullptr; }

 private:
  friend class metrics_registry;
  explicit counter(detail::counter_cell* cell) : cell_{cell} {}
  detail::counter_cell* cell_ = nullptr;
};

// Last-value gauge (resident sessions, frozen bytes, queue depths).
class gauge {
 public:
  gauge() = default;

  void set(double v) const noexcept {
    if (cell_ != nullptr) {
      cell_->value.store(v, std::memory_order_relaxed);
    }
  }
  void add(double d) const noexcept {
    if (cell_ != nullptr) {
      double cur = cell_->value.load(std::memory_order_relaxed);
      while (!cell_->value.compare_exchange_weak(cur, cur + d,
                                                 std::memory_order_relaxed)) {
      }
    }
  }
  double value() const noexcept {
    return cell_ == nullptr ? 0.0
                            : cell_->value.load(std::memory_order_relaxed);
  }
  explicit operator bool() const noexcept { return cell_ != nullptr; }

 private:
  friend class metrics_registry;
  explicit gauge(detail::gauge_cell* cell) : cell_{cell} {}
  detail::gauge_cell* cell_ = nullptr;
};

// Log-histogram handle; record() locks the cell (not the registry).
class histogram {
 public:
  histogram() = default;

  void record(double v) const {
    if (cell_ != nullptr) {
      const ts_lock lock{cell_->mutex};
      cell_->hist.record(v);
    }
  }
  std::uint64_t count() const {
    if (cell_ == nullptr) {
      return 0;
    }
    const ts_lock lock{cell_->mutex};
    return cell_->hist.count();
  }
  double quantile(double q) const {
    if (cell_ == nullptr) {
      return 0.0;
    }
    const ts_lock lock{cell_->mutex};
    return cell_->hist.quantile(q);
  }
  explicit operator bool() const noexcept { return cell_ != nullptr; }

 private:
  friend class metrics_registry;
  explicit histogram(detail::histogram_cell* cell) : cell_{cell} {}
  detail::histogram_cell* cell_ = nullptr;
};

class metrics_registry {
 public:
  // Registration (idempotent): returns a handle to the cell identified
  // by (name, labels), creating it on first call. Thread-safe; takes
  // only the one shard lock the name hashes to. Throws when the same
  // identity was registered as a different metric kind or with a
  // different `deterministic` flag.
  counter get_counter(const std::string& name, label_set labels = {},
                      bool deterministic = true);
  gauge get_gauge(const std::string& name, label_set labels = {});
  histogram get_histogram(const std::string& name, label_set labels = {});

  // Full export, sorted by (name, labels) so the output is byte-stable:
  //   {"counters":[{"name","labels":{..},"value",..}...],
  //    "gauges":[...], "histograms":[{...,"count","p50","p95","p99",
  //    "mean","min","max"}...]}
  json::value snapshot() const;

  // Compact json_min text of snapshot().
  std::string to_json() const;

  // Prometheus text exposition: counters and gauges verbatim,
  // histograms as summary quantiles.
  std::string to_prometheus() const;

  // The deterministic subset only — counters registered
  // deterministic=true, as one sorted {"key": value} object. This is
  // the string the telemetry gate compares bit-for-bit across worker
  // counts.
  json::value counters_snapshot() const;
  std::string deterministic_fingerprint() const;

 private:
  enum class kind : std::uint8_t { counter, gauge, histogram };

  struct entry {
    std::string key;  // canonical "name|k=v|k=v" identity
    std::string name;
    label_set labels;
    kind type = kind::counter;
    bool deterministic = false;
    std::unique_ptr<detail::counter_cell> cnt;
    std::unique_ptr<detail::gauge_cell> gge;
    std::unique_ptr<detail::histogram_cell> hist;
  };

  // Entry pointers stay stable past the shard lock (the vector owns
  // unique_ptrs and is append-only): readers collect them under the
  // lock, then read the immutable metadata and atomic cells lock-free.
  struct table_shard {
    mutable ts_mutex mutex;
    std::vector<std::unique_ptr<entry>> entries IVC_GUARDED_BY(mutex);
  };

  // Finds-or-creates the entry for (name, labels); `labels` must
  // already be canonicalized. Locks the shard.
  entry& intern(const std::string& name, label_set labels, kind type,
                bool deterministic);

  // All entries, sorted by key (locks every shard in index order).
  std::vector<const entry*> sorted_entries() const;

  // Name-table lock striping. Every registry histogram uses the default
  // histogram_config, so exports can compare.
  static constexpr std::size_t num_shards = 8;
  std::array<table_shard, num_shards> shards_;
};

}  // namespace ivc::obs
