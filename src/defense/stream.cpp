#include "defense/stream.h"

#include <algorithm>
#include <cmath>

#include "audio/metrics.h"
#include "common/error.h"
#include "common/json_field.h"

namespace ivc::defense {

stream_detector::stream_detector(classifier_detector detector,
                                 stream_config config)
    : detector_{std::move(detector)}, config_{config} {
  expects(config_.window_s > 0.0 && config_.hop_s > 0.0 &&
              config_.hop_s <= config_.window_s,
          "stream_detector: need 0 < hop <= window");
}

std::vector<stream_event> stream_detector::feed(const audio::buffer& block) {
  audio::validate(block, "stream_detector::feed");
  if (rate_ == 0.0) {
    rate_ = block.sample_rate_hz;
  }
  expects(block.sample_rate_hz == rate_,
          "stream_detector: sample rate changed mid-stream");
  pending_.insert(pending_.end(), block.samples.begin(), block.samples.end());
  return drain(/*flush=*/false);
}

std::vector<stream_event> stream_detector::finish() {
  std::vector<stream_event> events = drain(/*flush=*/true);
  // A finished stream is over: leaving pending_/rate_/consumed_s_ intact
  // would let a later feed() silently continue it with spliced
  // timestamps (and leak the sub-half-window residue into the next
  // stream). Reset so feeding again starts a fresh stream at t = 0 —
  // identical to an explicit reset().
  reset();
  return events;
}

void stream_detector::reset() {
  // Release the window buffer, not just empty it: a finished session
  // stays resident, and clear() would keep its ~1 s of capacity alive.
  std::vector<double>{}.swap(pending_);
  rate_ = 0.0;
  consumed_s_ = 0.0;
}

json::value stream_detector::snapshot() const {
  json::object o;
  o.emplace_back("rate", json::value{rate_});
  // consumed_s_ is ACCUMULATED (+= hop/rate per window), not derived
  // from a sample count, so the double itself must ride along — recomputing
  // it would round differently and shift every future verdict timestamp.
  o.emplace_back("cs", json::value{consumed_s_});
  o.emplace_back("pend", json::from_samples(pending_));
  return json::value{std::move(o)};
}

void stream_detector::restore(const json::value& snap) {
  rate_ = json::num(snap, "rate");
  consumed_s_ = json::num(snap, "cs");
  pending_ = json::to_samples(json::field(snap, "pend"));
}

std::vector<stream_event> stream_detector::drain(bool flush) {
  std::vector<stream_event> events;
  if (rate_ == 0.0) {
    return events;
  }
  const auto window = static_cast<std::size_t>(config_.window_s * rate_);
  const auto hop = static_cast<std::size_t>(config_.hop_s * rate_);

  while (pending_.size() >= window ||
         (flush && pending_.size() >= window / 2)) {
    const std::size_t take = std::min(window, pending_.size());
    audio::buffer win{{pending_.begin(),
                       pending_.begin() + static_cast<std::ptrdiff_t>(take)},
                      rate_};
    if (audio::peak(win.samples) >= config_.min_peak) {
      const detection d = detector_.detect(win, config_.features);
      events.push_back(stream_event{consumed_s_, d.score, d.is_attack});
    }
    const std::size_t advance = std::min(hop, pending_.size());
    pending_.erase(pending_.begin(),
                   pending_.begin() + static_cast<std::ptrdiff_t>(advance));
    consumed_s_ += static_cast<double>(advance) / rate_;
    if (flush && take < window) {
      break;
    }
  }
  return events;
}

}  // namespace ivc::defense
