// Shared fixtures of the serving-layer suites: a tiny trained detector,
// the standard session stream and fleet config, one fleet runner
// (run_fleet), and the one rule for "same decisions" every identity
// check uses — stream_event's == for verdicts, same_decision() for
// outcomes (every field but the asr_s wall time).
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "audio/buffer.h"
#include "audio/ops.h"
#include "common/json_min.h"
#include "common/rng.h"
#include "defense/classifier.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "serve/session_manager.h"
#include "sim/scenario.h"
#include "synth/commands.h"

namespace ivc::serve {

inline constexpr double kRate = 16'000.0;

// A logistic classifier trained on two well-separated feature clouds:
// cheap to build, and decisive on real speech.
inline defense::logistic_classifier tiny_classifier() {
  ivc::rng rng{90};
  defense::labelled_features data;
  for (int i = 0; i < 120; ++i) {
    defense::trace_features f;
    const bool attack = i % 2 == 0;
    const double c = attack ? 1.0 : -1.0;
    f.low_band_envelope_corr = c + rng.normal(0.0, 0.3);
    f.low_band_ratio_db = 4.0 * c + rng.normal(0.0, 1.0);
    f.amplitude_skew = 0.4 * c + rng.normal(0.0, 0.2);
    f.low_band_waveform_corr = c + rng.normal(0.0, 0.3);
    data.add(f, attack ? 1 : 0);
  }
  defense::logistic_classifier clf;
  clf.train(data);
  return clf;
}

inline defense::classifier_detector tiny_detector() {
  return defense::classifier_detector{tiny_classifier()};
}

// A session stream of two spoken commands separated by silence — enough
// utterances for the segmenter to cut and the pipeline to resolve.
inline audio::buffer command_stream(std::uint64_t seed) {
  ivc::rng rng{seed};
  std::vector<audio::buffer> parts;
  parts.push_back(audio::silence(0.3, kRate));
  parts.push_back(synth::render_command(synth::command_by_id("open_door"),
                                        synth::male_voice(), rng, kRate));
  parts.push_back(audio::silence(0.4, kRate));
  parts.push_back(synth::render_command(synth::command_by_id("play_music"),
                                        synth::male_voice(), rng, kRate));
  parts.push_back(audio::silence(0.4, kRate));
  return audio::remove_dc(audio::concat(parts));
}

// command_stream() at seeds first_seed, first_seed + 1, ...
inline std::vector<audio::buffer> fleet_streams(std::size_t n,
                                                std::uint64_t first_seed) {
  std::vector<audio::buffer> streams;
  streams.reserve(n);
  for (std::uint64_t s = 0; s < n; ++s) {
    streams.push_back(command_stream(first_seed + s));
  }
  return streams;
}

// Reject backpressure, and a command pipeline behind every verdict
// stream (its decision window adopts the detector's).
inline serve_config fleet_config() {
  serve_config cfg;
  cfg.queue_capacity = 64;
  cfg.policy = overflow_policy::reject;
  pipeline_config pc;
  pc.recognizer = sim::shared_enrolled_recognizer(kRate, 1);
  cfg.pipeline = pc;
  return cfg;
}

inline void expect_same_verdicts(const std::vector<defense::stream_event>& a,
                                 const std::vector<defense::stream_event>& b,
                                 const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(a[i] == b[i]) << what << " #" << i;
  }
}

inline void expect_same_outcomes(const std::vector<command_outcome>& a,
                                 const std::vector<command_outcome>& b,
                                 const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(same_decision(a[i], b[i])) << what << " #" << i;
  }
}

struct fleet_params {
  serve_config config = fleet_config();  // the front's config
  std::size_t shards = 1;
  std::size_t workers = 2;  // per shard
  // n > 0: after every n-th round the producer waits for the workers
  // (stop, then start again), so every session goes idle mid-stream and
  // eviction or shard_kill has idle sessions to freeze.
  std::size_t barrier_every = 0;
  // Open each session with open_session(config), the per-session
  // override path, instead of open_session().
  bool per_session_config = false;
  // Give the run its own metrics registry: the telemetry gate compares
  // end-of-run counter values, so runs must not share one.
  bool fresh_registry = false;
};

struct fleet_run {
  std::vector<std::vector<defense::stream_event>> verdicts;
  std::vector<std::vector<command_outcome>> outcomes;
  std::vector<session_stats> stats;
  std::vector<session_state> states;
  std::vector<std::string> last_errors;
  std::vector<std::string> traces;  // wall clock stripped, encoded
  serve_totals totals;
  eviction_stats eviction;
  shard_balance balance;
  std::string fingerprint;  // deterministic counters (fresh registry)
};

// Offers every stream in `block`-sample slices, round-robin across
// sessions, to a front whose workers stream from the first offer. A
// rejected offer retries after a short sleep while the workers make
// room; any other refusal (a closed or quarantined session) is
// containment working, not backpressure, and the producer moves on.
inline fleet_run run_fleet(const std::vector<audio::buffer>& streams,
                           std::size_t block, const fleet_params& p = {}) {
  serve_config cfg = p.config;
  if (p.fresh_registry) {
    cfg.metrics = std::make_shared<obs::metrics_registry>();
  }
  session_manager front{tiny_detector(), cfg, p.shards};
  for (std::size_t s = 0; s < streams.size(); ++s) {
    if (p.per_session_config) {
      front.open_session(cfg);
    } else {
      front.open_session();
    }
  }
  front.start(p.workers);
  std::size_t max_rounds = 0;
  for (const audio::buffer& st : streams) {
    max_rounds = std::max(max_rounds, (st.size() + block - 1) / block);
  }
  for (std::size_t round = 0; round < max_rounds; ++round) {
    for (std::size_t s = 0; s < streams.size(); ++s) {
      const std::size_t start = round * block;
      if (start >= streams[s].size()) {
        continue;
      }
      const audio::buffer piece = audio::cut(
          streams[s], start, std::min(start + block, streams[s].size()));
      while (front.offer(s, piece) == offer_status::rejected) {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
    }
    if (p.barrier_every > 0 && (round + 1) % p.barrier_every == 0) {
      front.stop();
      front.start(p.workers);
    }
  }
  front.finish();
  fleet_run out;
  for (std::size_t s = 0; s < streams.size(); ++s) {
    out.verdicts.push_back(front.verdicts(s));
    out.outcomes.push_back(front.outcomes(s));
    out.stats.push_back(front.stats(s));
    out.states.push_back(front.state(s));
    out.last_errors.push_back(front.last_error(s));
    out.traces.push_back(json::write(
        obs::encode_spans(obs::strip_wall_clock(front.trace(s)))));
  }
  out.totals = front.aggregate();
  out.eviction = front.eviction();
  out.balance = front.balance();
  if (cfg.metrics != nullptr) {
    out.fingerprint = cfg.metrics->deterministic_fingerprint();
  }
  return out;
}

// Every session's verdict and outcome streams match.
inline void expect_same_streams(const fleet_run& a, const fleet_run& b,
                                const std::string& what) {
  ASSERT_EQ(a.verdicts.size(), b.verdicts.size()) << what;
  for (std::size_t s = 0; s < a.verdicts.size(); ++s) {
    const std::string where = what + ", session " + std::to_string(s);
    expect_same_verdicts(a.verdicts[s], b.verdicts[s], where);
    expect_same_outcomes(a.outcomes[s], b.outcomes[s], where);
  }
}

}  // namespace ivc::serve
