// Fleet telemetry: the metrics registry wired through the serving
// layer, the per-session flight recorder, and quarantine-error
// surfacing through the fleet views.
//
// The load-bearing claim mirrors the serving layer's own: every
// DETERMINISTIC telemetry output — the registry's fingerprint and the
// wall-clock-stripped span traces — is bit-identical at any worker
// count, because it sums per-block and
// per-utterance events that are pure functions of the accepted-block
// order. Wall-clock fields ride alongside and are exempt.
#include "serve/telemetry.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "audio/buffer.h"
#include "audio/ops.h"
#include "common/json_min.h"
#include "fleet.h"
#include "obs/registry.h"
#include "obs/sampler.h"
#include "obs/trace.h"
#include "serve/fault.h"
#include "serve/session_manager.h"

namespace ivc::serve {
namespace {

// ---- the determinism gate --------------------------------------------

TEST(telemetry_determinism, fingerprints_identical_across_worker_counts) {
  const std::vector<audio::buffer> streams = fleet_streams(3, 600);
  fleet_params p;
  p.fresh_registry = true;
  p.workers = 1;
  const fleet_run reference = run_fleet(streams, 1'024, p);
  // The gate must compare real numbers, not empty objects.
  ASSERT_NE(reference.fingerprint.find("serve_blocks_processed_total"),
            std::string::npos);
  ASSERT_GT(reference.totals.stats.commands_executed, 0u);
  for (const std::size_t s : {0u, 1u, 2u}) {
    ASSERT_NE(reference.traces[s], "[]") << "session " << s;
  }

  for (const std::size_t workers : {2u, 4u, 8u}) {
    p.workers = workers;
    const fleet_run run = run_fleet(streams, 1'024, p);
    EXPECT_EQ(reference.fingerprint, run.fingerprint) << "w=" << workers;
    for (const counter_def& c : session_counters) {
      if (c.deterministic) {
        EXPECT_EQ(counter_value(reference.totals.stats, c),
                  counter_value(run.totals.stats, c))
            << "w=" << workers << " " << c.key;
      }
    }
    for (std::size_t s = 0; s < streams.size(); ++s) {
      EXPECT_EQ(reference.traces[s], run.traces[s])
          << "w=" << workers << " session " << s;
    }
  }
}

// The registry cell a ledger row names, read from the full export (the
// deterministic subset would miss the shed/reject cells); -1 = absent.
double registry_value(const obs::metrics_registry& reg, const counter_def& c) {
  const json::value snap = reg.snapshot();
  for (const json::value& e : snap.find("counters")->items()) {
    if (e.find("name")->string() != c.series) {
      continue;
    }
    const json::object& labels = e.find("labels")->members();
    const bool match =
        c.label_key == nullptr
            ? labels.empty()
            : labels.size() == 1 && labels[0].first == c.label_key &&
                  labels[0].second.string() == c.label_value;
    if (match) {
      return e.find("value")->number();
    }
  }
  return -1.0;
}

TEST(telemetry_determinism, registry_counters_match_the_fleet_aggregate) {
  const std::vector<audio::buffer> streams = fleet_streams(2, 640);
  serve_config cfg = fleet_config();
  cfg.metrics = std::make_shared<obs::metrics_registry>();
  cfg.fault_tolerance.backoff_blocks = 2;
  fault_config fc;
  fc.schedule.push_back({fault_kind::recognizer_throw, /*session=*/0,
                         /*index=*/0});
  cfg.faults = std::make_shared<fault_injector>(fc);
  session_manager manager{tiny_detector(), cfg};
  for (std::size_t s = 0; s < streams.size(); ++s) {
    manager.open_session();
  }
  const std::size_t block = 2'048;
  for (std::size_t s = 0; s < streams.size(); ++s) {
    for (std::size_t start = 0; start < streams[s].size(); start += block) {
      manager.offer(
          s, audio::cut(streams[s], start,
                        std::min(start + block, streams[s].size())));
    }
  }
  manager.finish();
  // finish() closed every session: these offers bounce as `closed`.
  for (std::size_t s = 0; s < streams.size(); ++s) {
    ASSERT_EQ(manager.offer(s, audio::cut(streams[s], 0, block)),
              offer_status::closed);
  }
  const serve_totals totals = manager.aggregate();
  // The run must exercise the offer, fault and outcome rows it checks.
  ASSERT_EQ(totals.stats.blocks_rejected, streams.size());
  ASSERT_EQ(totals.stats.recognizer_faults, 1u);
  ASSERT_GT(totals.stats.utterances_stage_fault, 0u);
  ASSERT_GT(totals.stats.blocks_dropped_backoff, 0u);
  ASSERT_GT(totals.stats.commands_executed, 0u);

  // One ledger, two export paths: every registry cell equals the stats
  // row it mirrors, and sits on the fingerprint side its row declares.
  const json::value fingerprint = cfg.metrics->counters_snapshot();
  std::size_t mirrored = 0;
  for (const counter_def& c : session_counters) {
    if (c.series == nullptr) {
      continue;
    }
    ++mirrored;
    EXPECT_EQ(registry_value(*cfg.metrics, c),
              counter_value(totals.stats, c))
        << c.key;
    std::string key = c.series;
    if (c.label_key != nullptr) {
      key += std::string{"|"} + c.label_key + "=" + c.label_value;
    }
    EXPECT_EQ(fingerprint.find(key) != nullptr, c.deterministic) << c.key;
  }
  EXPECT_GT(mirrored, 0u);
}

// ---- the flight recorder ---------------------------------------------

TEST(flight_recorder, quarantine_dump_carries_stage_and_error) {
  serve_config cfg = fleet_config();
  cfg.fault_tolerance.auto_reopen = false;  // park on first fault
  fault_config fc;
  fc.schedule.push_back({fault_kind::recognizer_throw, /*session=*/0,
                         /*index=*/0});
  cfg.faults = std::make_shared<fault_injector>(fc);
  const std::string dump_path = "telemetry_test_dumps.jsonl";
  std::remove(dump_path.c_str());
  auto sink = std::make_shared<obs::jsonl_trace_sink>(dump_path);
  cfg.trace_sink = sink;

  session_manager manager{tiny_detector(), cfg};
  const std::uint64_t sid = manager.open_session();
  const audio::buffer stream = command_stream(700);
  const std::size_t block = 2'048;
  for (std::size_t start = 0; start < stream.size(); start += block) {
    manager.offer(sid, audio::cut(stream, start,
                                  std::min(start + block, stream.size())));
  }
  manager.finish();
  ASSERT_EQ(manager.state(sid), session_state::quarantined);
  const std::string error = manager.last_error(sid);
  ASSERT_FALSE(error.empty());

  // The in-memory recorder: final span names the faulting stage and
  // carries last_error() verbatim.
  const std::vector<obs::span> trace = manager.trace(sid);
  ASSERT_FALSE(trace.empty());
  EXPECT_EQ(trace.back().stage, obs::trace_stage::asr);
  EXPECT_EQ(trace.back().detail, error);
  EXPECT_EQ(trace.back().value, 0.0);  // 0 = parked, 1 = retried

  // The sink got exactly one dump, and the dump IS the recorder.
  EXPECT_EQ(sink->dumps(), 1u);
  std::ifstream in{dump_path};
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  const json::value dump = json::parse(line);
  EXPECT_EQ(dump.find("session")->number(), static_cast<double>(sid));
  EXPECT_EQ(dump.find("error")->string(), error);
  const std::vector<obs::span> dumped = obs::decode_spans(*dump.find("spans"));
  ASSERT_EQ(dumped.size(), trace.size());
  EXPECT_EQ(dumped.back().detail, error);

  // The fleet views surface the same (id, error) pair.
  const serve_totals totals = manager.aggregate();
  ASSERT_EQ(totals.quarantine_errors.size(), 1u);
  EXPECT_EQ(totals.quarantine_errors[0].first, sid);
  EXPECT_EQ(totals.quarantine_errors[0].second, error);
  std::remove(dump_path.c_str());
}

TEST(flight_recorder, retried_quarantines_dump_too) {
  serve_config cfg = fleet_config();
  cfg.fault_tolerance.backoff_blocks = 2;  // auto_reopen stays on
  fault_config fc;
  fc.schedule.push_back({fault_kind::detector_throw, /*session=*/0,
                         /*index=*/1});
  cfg.faults = std::make_shared<fault_injector>(fc);
  const std::string dump_path = "telemetry_test_retry_dumps.jsonl";
  std::remove(dump_path.c_str());
  auto sink = std::make_shared<obs::jsonl_trace_sink>(dump_path);
  cfg.trace_sink = sink;

  session_manager manager{tiny_detector(), cfg};
  const std::uint64_t sid = manager.open_session();
  const audio::buffer stream = command_stream(701);
  const std::size_t block = 2'048;
  for (std::size_t start = 0; start < stream.size(); start += block) {
    manager.offer(sid, audio::cut(stream, start,
                                  std::min(start + block, stream.size())));
  }
  manager.finish();
  // The ladder recovered the session — but the black box still dumped
  // the crash, marked retried (value 1) at the detector stage.
  EXPECT_EQ(manager.state(sid), session_state::serving);
  ASSERT_EQ(sink->dumps(), 1u);
  std::ifstream in{dump_path};
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  const std::vector<obs::span> dumped =
      obs::decode_spans(*json::parse(line).find("spans"));
  ASSERT_FALSE(dumped.empty());
  EXPECT_EQ(dumped.back().stage, obs::trace_stage::detector);
  EXPECT_EQ(dumped.back().value, 1.0);
  std::remove(dump_path.c_str());
}

TEST(flight_recorder, trace_survives_eviction_bit_exactly) {
  serve_config cfg = fleet_config();
  session_manager manager{tiny_detector(), cfg};
  const std::uint64_t sid = manager.open_session();
  const audio::buffer stream = command_stream(702);
  const std::size_t block = 2'048;
  for (std::size_t start = 0; start < stream.size(); start += block) {
    manager.offer(sid, audio::cut(stream, start,
                                  std::min(start + block, stream.size())));
  }
  manager.start(1);
  manager.stop();
  const std::vector<obs::span> before = manager.trace(sid);
  ASSERT_FALSE(before.empty());

  ASSERT_TRUE(manager.evict(sid));
  ASSERT_FALSE(manager.resident(sid));
  // Reading the trace out of the frozen image neither rehydrates nor
  // loses spans — including the wall-clock fields, which the snapshot
  // carries bit-exactly like everything else.
  const std::vector<obs::span> frozen = manager.trace(sid);
  ASSERT_FALSE(manager.resident(sid));
  ASSERT_EQ(frozen.size(), before.size());
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(frozen[i].stage, before[i].stage) << "#" << i;
    EXPECT_EQ(frozen[i].index, before[i].index) << "#" << i;
    EXPECT_EQ(frozen[i].t_s, before[i].t_s) << "#" << i;
    EXPECT_EQ(frozen[i].value, before[i].value) << "#" << i;
    EXPECT_EQ(frozen[i].wall_s, before[i].wall_s) << "#" << i;
    EXPECT_EQ(frozen[i].detail, before[i].detail) << "#" << i;
  }
}

TEST(flight_recorder, quarantine_errors_survive_eviction_via_hints) {
  serve_config cfg = fleet_config();
  cfg.fault_tolerance.auto_reopen = false;
  fault_config fc;
  fc.schedule.push_back({fault_kind::corrupt_block, /*session=*/0,
                         /*index=*/0});
  cfg.faults = std::make_shared<fault_injector>(fc);
  session_manager manager{tiny_detector(), cfg};
  const std::uint64_t sid = manager.open_session();
  manager.offer(sid, audio::silence(0.2, kRate));
  manager.start(1);
  manager.stop();
  ASSERT_EQ(manager.state(sid), session_state::quarantined);
  const std::string error = manager.last_error(sid);

  ASSERT_TRUE(manager.evict(sid));
  ASSERT_FALSE(manager.resident(sid));
  // The freeze-time hints answer health queries without rehydrating —
  // and without decoding the frozen image.
  const serve_totals totals = manager.aggregate();
  EXPECT_EQ(totals.sessions_quarantined, 1u);
  ASSERT_EQ(totals.quarantine_errors.size(), 1u);
  EXPECT_EQ(totals.quarantine_errors[0].second, error);
  EXPECT_FALSE(manager.resident(sid));
}

// ---- quarantine surfacing through the sharded front ------------------

TEST(shard_telemetry, quarantine_errors_and_dumps_name_global_ids) {
  serve_config cfg = fleet_config();
  cfg.fault_tolerance.auto_reopen = false;
  fault_config fc;
  fc.detector_throw_rate = 1.0;  // every session parks on block 0
  cfg.faults = std::make_shared<fault_injector>(fc);
  const std::string dump_path = "telemetry_test_shard_dumps.jsonl";
  std::remove(dump_path.c_str());
  cfg.trace_sink = std::make_shared<obs::jsonl_trace_sink>(dump_path);
  constexpr std::size_t kSessions = 6;
  session_manager front{tiny_detector(), cfg, /*num_shards=*/3};
  for (std::size_t s = 0; s < kSessions; ++s) {
    front.open_session();
  }
  for (std::size_t s = 0; s < kSessions; ++s) {
    front.offer(s, audio::silence(0.2, kRate));
  }
  front.finish();

  const shard_balance bal = front.balance();
  std::size_t quarantined = 0;
  for (const shard_load& l : bal.shards) {
    quarantined += l.quarantined;
  }
  EXPECT_EQ(quarantined, kSessions);
  const serve_totals totals = front.aggregate();
  EXPECT_EQ(totals.sessions_quarantined, kSessions);
  ASSERT_EQ(totals.quarantine_errors.size(), kSessions);
  // Every GLOBAL id appears exactly once, with that session's error.
  std::vector<bool> seen(kSessions, false);
  for (const auto& [gid, err] : totals.quarantine_errors) {
    ASSERT_LT(gid, kSessions);
    EXPECT_FALSE(seen[gid]) << "global id " << gid << " reported twice";
    seen[gid] = true;
    EXPECT_FALSE(err.empty());
    EXPECT_EQ(err, front.last_error(gid));
  }
  // And the per-id trace routes to the right shard: each final span is
  // the detector fault that parked the session.
  for (std::size_t s = 0; s < kSessions; ++s) {
    const std::vector<obs::span> trace = front.trace(s);
    ASSERT_FALSE(trace.empty()) << "session " << s;
    EXPECT_EQ(trace.back().stage, obs::trace_stage::detector);
  }
  // One flight-recorder dump per session, named by the id
  // open_session() returned, carrying that session's recorder.
  std::vector<bool> dumped(kSessions, false);
  std::ifstream in{dump_path};
  std::string line;
  while (std::getline(in, line)) {
    const json::value dump = json::parse(line);
    const auto gid =
        static_cast<std::uint64_t>(dump.find("session")->number());
    ASSERT_LT(gid, kSessions);
    EXPECT_FALSE(dumped[gid]) << "global id " << gid << " dumped twice";
    dumped[gid] = true;
    EXPECT_EQ(json::write(obs::encode_spans(obs::strip_wall_clock(
                  obs::decode_spans(*dump.find("spans"))))),
              json::write(obs::encode_spans(
                  obs::strip_wall_clock(front.trace(gid)))))
        << "global id " << gid;
  }
  EXPECT_EQ(std::count(dumped.begin(), dumped.end(), true),
            static_cast<std::ptrdiff_t>(kSessions));
  std::remove(dump_path.c_str());
}

// ---- the fleet sampler -----------------------------------------------

TEST(fleet_sampler, appends_probe_samples_as_jsonl) {
  serve_config cfg = fleet_config();
  session_manager manager{tiny_detector(), cfg};
  for (int s = 0; s < 3; ++s) {
    manager.open_session();
  }
  const std::string path = "telemetry_test_series.jsonl";
  std::remove(path.c_str());
  obs::sampler_config sc;
  sc.path = path;
  sc.interval_s = 0.02;
  obs::fleet_sampler sampler{sc,
                             [&manager] { return telemetry_sample(manager); }};
  sampler.start();
  for (int s = 0; s < 3; ++s) {
    manager.offer(static_cast<std::uint64_t>(s), audio::silence(0.3, kRate));
  }
  manager.start(2);
  manager.stop();
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  sampler.stop();
  const std::size_t samples = sampler.samples();
  ASSERT_GE(samples, 2u);  // immediate first sample + final on stop

  std::ifstream in{path};
  std::string line;
  std::string last_line;
  std::size_t lines = 0;
  double last_t = -1.0;
  while (std::getline(in, line)) {
    const json::value v = json::parse(line);
    ASSERT_NE(v.find("t_s"), nullptr);
    // Monotone timestamps: the series is append-only in sample order.
    EXPECT_GE(v.find("t_s")->number(), last_t);
    last_t = v.find("t_s")->number();
    ASSERT_NE(v.find("sessions"), nullptr);
    EXPECT_EQ(v.find("sessions")->number(), 3.0);
    // Every ledger row is sampled under its field name.
    for (const counter_def& c : session_counters) {
      ASSERT_NE(v.find(c.key), nullptr) << c.key;
    }
    last_line = line;
    ++lines;
  }
  EXPECT_EQ(lines, samples);
  // The final sample saw the drained state.
  EXPECT_EQ(json::parse(last_line).find("blocks_processed")->number(), 3.0);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ivc::serve
