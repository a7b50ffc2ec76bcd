// Fleet sampler: a periodic JSONL time-series of serving-fleet state.
//
// End-of-run aggregates cannot show a paced run EVOLVING — queue growth
// under a burst, the resident set breathing against the eviction bound,
// sessions walking the fault ladder. The sampler runs one background
// thread that calls a caller-supplied probe (serve::telemetry_sample
// over a session_manager is the canonical one) every
// interval and appends each snapshot as one JSON line to an append-only
// file, stamped with seconds since start().
//
// The probe runs on the sampler thread concurrently with the serving
// fleet, so it must be thread-safe (aggregate()/balance()/eviction()
// are). A probe that throws drops that tick instead of killing the
// thread. stop() takes one final sample before joining, so even a run
// shorter than the interval produces a first-and-last pair.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <string>
#include <thread>

#include "common/json_min.h"
#include "common/sync.h"
#include "common/thread_annotations.h"

namespace ivc::obs {

struct sampler_config {
  std::string path;          // append-only JSONL output
  double interval_s = 0.25;  // wall-clock sampling period
};

class fleet_sampler {
 public:
  // `probe` returns one json OBJECT of flat numeric fields; the sampler
  // prepends "t_s" (seconds since start()).
  fleet_sampler(sampler_config config, std::function<json::value()> probe);
  ~fleet_sampler();  // stops the thread if still running

  // Takes an immediate first sample, then one per interval. Idempotent.
  void start();

  // Takes a final sample, then joins the thread. Idempotent.
  void stop();

  bool running() const;

  // Lines appended so far (dropped ticks excluded).
  std::size_t samples() const;

 private:
  void loop() IVC_EXCLUDES(mutex_);
  // Probes and appends one line; swallows probe failures. Runs the
  // probe and the file append OUTSIDE the lock-held sections.
  void take_sample() IVC_EXCLUDES(mutex_);

  const sampler_config config_;
  const std::function<json::value()> probe_;

  mutable ts_mutex mutex_;
  std::condition_variable cv_;
  bool running_ IVC_GUARDED_BY(mutex_) = false;
  bool stopping_ IVC_GUARDED_BY(mutex_) = false;
  std::size_t samples_ IVC_GUARDED_BY(mutex_) = 0;
  std::chrono::steady_clock::time_point t0_ IVC_GUARDED_BY(mutex_);
  std::thread thread_ IVC_GUARDED_BY(mutex_);
};

}  // namespace ivc::obs
