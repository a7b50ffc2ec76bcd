#include "common/histogram.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "common/json_field.h"

namespace ivc {

log_histogram::log_histogram(const histogram_config& config)
    : config_{config} {
  expects(config_.lo_edge > 0.0 && config_.hi_edge > config_.lo_edge,
          "log_histogram: need 0 < lo_edge < hi_edge");
  expects(config_.bins_per_decade >= 1,
          "log_histogram: need >= 1 bin per decade");
  const double decades = std::log10(config_.hi_edge / config_.lo_edge);
  const auto bins = static_cast<std::size_t>(
      std::ceil(decades * static_cast<double>(config_.bins_per_decade)));
  bins_.assign(std::max<std::size_t>(bins, 1), 0);
}

std::size_t log_histogram::bin_index(double value) const {
  if (value <= config_.lo_edge) {
    return 0;
  }
  if (value >= config_.hi_edge) {
    return bins_.size() - 1;
  }
  const double pos = std::log10(value / config_.lo_edge) *
                     static_cast<double>(config_.bins_per_decade);
  const auto idx = static_cast<std::size_t>(pos);
  return std::min(idx, bins_.size() - 1);
}

void log_histogram::record(double value) {
  value = std::max(value, 0.0);
  ++bins_[bin_index(value)];
  if (count_ == 0) {
    min_ = value;
    max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  sum_ += value;
  ++count_;
}

double log_histogram::min() const { return count_ == 0 ? 0.0 : min_; }
double log_histogram::max() const { return count_ == 0 ? 0.0 : max_; }

double log_histogram::mean() const {
  return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
}

double log_histogram::quantile(double q) const {
  expects(q >= 0.0 && q <= 1.0, "log_histogram::quantile: q must be in [0,1]");
  if (count_ == 0) {
    return 0.0;
  }
  // The extreme quantiles are tracked exactly.
  if (q == 0.0) {
    return min_;
  }
  if (q == 1.0) {
    return max_;
  }
  // Rank of the q-quantile among count_ sorted samples (nearest-rank).
  const auto rank = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(count_)));
  const std::uint64_t target = std::max<std::uint64_t>(rank, 1);
  std::uint64_t cum = 0;
  for (std::size_t b = 0; b < bins_.size(); ++b) {
    cum += bins_[b];
    if (cum >= target) {
      const double lo =
          config_.lo_edge *
          std::pow(10.0, static_cast<double>(b) /
                             static_cast<double>(config_.bins_per_decade));
      const double hi =
          lo * std::pow(10.0,
                        1.0 / static_cast<double>(config_.bins_per_decade));
      return std::clamp(std::sqrt(lo * hi), min_, max_);
    }
  }
  return max_;
}

void log_histogram::merge(const log_histogram& other) {
  expects(config_ == other.config_,
          "log_histogram::merge: binning configs differ");
  if (other.count_ == 0) {
    return;
  }
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  for (std::size_t b = 0; b < bins_.size(); ++b) {
    bins_[b] += other.bins_[b];
  }
  count_ += other.count_;
  sum_ += other.sum_;
}

json::value log_histogram::snapshot() const {
  json::object o;
  o.emplace_back("lo", json::value{config_.lo_edge});
  o.emplace_back("hi", json::value{config_.hi_edge});
  o.emplace_back("bpd",
                 json::value{static_cast<double>(config_.bins_per_decade)});
  o.emplace_back("n", json::value{static_cast<double>(count_)});
  o.emplace_back("sum", json::value{sum_});
  o.emplace_back("min", json::value{min_});
  o.emplace_back("max", json::value{max_});
  json::array bins;
  for (std::size_t b = 0; b < bins_.size(); ++b) {
    if (bins_[b] != 0) {
      bins.emplace_back(static_cast<double>(b));
      bins.emplace_back(static_cast<double>(bins_[b]));
    }
  }
  o.emplace_back("bins", json::value{std::move(bins)});
  return json::value{std::move(o)};
}

void log_histogram::restore(const json::value& snap) {
  expects(json::num(snap, "lo") == config_.lo_edge &&
              json::num(snap, "hi") == config_.hi_edge &&
              json::u64(snap, "bpd") == config_.bins_per_decade,
          "log_histogram::restore: binning configs differ");
  std::fill(bins_.begin(), bins_.end(), 0);
  count_ = json::u64(snap, "n");
  sum_ = json::num(snap, "sum");
  min_ = json::num(snap, "min");
  max_ = json::num(snap, "max");
  const json::array& bins = json::arr(snap, "bins");
  expects(bins.size() % 2 == 0,
          "log_histogram::restore: bins must be (index, count) pairs");
  for (std::size_t i = 0; i + 1 < bins.size(); i += 2) {
    const std::uint64_t b = json::to_u64(bins[i]);
    expects(b < bins_.size(), "log_histogram::restore: bin index out of range");
    bins_[b] = json::to_u64(bins[i + 1]);
  }
}

}  // namespace ivc
