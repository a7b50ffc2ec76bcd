// Fault containment, deterministic fault injection, and graceful
// degradation of the serving layer.
//
// The regression test this file exists for: before containment landed,
// an exception escaping a scoring stage unwound through a worker thread
// and killed the whole process in std::terminate. Now it quarantines exactly the
// faulted session, fail-closed, while every other session's verdict and
// outcome streams stay bit-identical to a fault-free run.
#include "serve/fault.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "audio/buffer.h"
#include "audio/ops.h"
#include "common/json_min.h"
#include "fleet.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "serve/session_manager.h"

namespace ivc::serve {
namespace {

// ---- fault_injector --------------------------------------------------

TEST(fault_injector, pure_function_of_coordinates) {
  fault_config cfg;
  cfg.seed = 42;
  cfg.detector_throw_rate = 0.3;
  const fault_injector a{cfg};
  const fault_injector b{cfg};  // independent instance, same config
  std::size_t fired = 0;
  for (std::uint64_t session = 0; session < 16; ++session) {
    for (std::uint64_t index = 0; index < 64; ++index) {
      const bool f = a.fires(fault_kind::detector_throw, session, index);
      // Identical across instances and across repeated calls: the draw
      // depends on nothing but (config, kind, session, index).
      EXPECT_EQ(f, b.fires(fault_kind::detector_throw, session, index));
      EXPECT_EQ(f, a.fires(fault_kind::detector_throw, session, index));
      fired += f ? 1 : 0;
      // A kind with rate 0 never fires at any coordinate.
      EXPECT_FALSE(a.fires(fault_kind::corrupt_block, session, index));
    }
  }
  // The empirical rate tracks the configured one (1024 draws at 0.3).
  EXPECT_NEAR(static_cast<double>(fired) / 1024.0, 0.3, 0.06);
}

TEST(fault_injector, seed_moves_the_schedule) {
  fault_config cfg;
  cfg.recognizer_throw_rate = 0.5;
  cfg.seed = 1;
  const fault_injector a{cfg};
  cfg.seed = 2;
  const fault_injector b{cfg};
  std::size_t differ = 0;
  for (std::uint64_t i = 0; i < 256; ++i) {
    differ += a.fires(fault_kind::recognizer_throw, 0, i) !=
                      b.fires(fault_kind::recognizer_throw, 0, i)
                  ? 1
                  : 0;
  }
  EXPECT_GT(differ, 0u);
}

TEST(fault_injector, pinned_schedule_fires_exactly_there) {
  fault_config cfg;  // all rates zero: only the schedule fires
  cfg.schedule.push_back({fault_kind::recognizer_throw, 3, 7});
  const fault_injector inj{cfg};
  EXPECT_TRUE(inj.fires(fault_kind::recognizer_throw, 3, 7));
  EXPECT_FALSE(inj.fires(fault_kind::recognizer_throw, 3, 8));
  EXPECT_FALSE(inj.fires(fault_kind::recognizer_throw, 2, 7));
  EXPECT_FALSE(inj.fires(fault_kind::detector_throw, 3, 7));
}

TEST(fault_injector, rejects_out_of_range_rates) {
  fault_config cfg;
  cfg.corrupt_block_rate = 1.5;
  EXPECT_THROW(fault_injector{cfg}, std::invalid_argument);
  cfg.corrupt_block_rate = -0.1;
  EXPECT_THROW(fault_injector{cfg}, std::invalid_argument);
}

// ---- containment -----------------------------------------------------

// THE regression test: a recognizer that throws in ONE session is
// contained — that session quarantines (fail-closed, reported in
// aggregate()) and every OTHER session's streams are bit-identical to a
// fault-free run. Under the pre-containment serving layer the injected
// exception unwound through a worker thread and the whole test died in
// std::terminate.
TEST(fault_containment, throwing_recognizer_quarantines_only_its_session) {
  const std::vector<audio::buffer> streams = fleet_streams(4, 500);
  fleet_params p;
  const fleet_run clean = run_fleet(streams, 1'024, p);
  ASSERT_GT(clean.outcomes[1].size(), 0u);

  fault_config fc;
  fc.schedule.push_back({fault_kind::recognizer_throw, /*session=*/1,
                         /*index=*/0});
  p.config.faults = std::make_shared<fault_injector>(fc);
  p.config.fault_tolerance.auto_reopen = false;  // park, don't retry
  const fleet_run faulted = run_fleet(streams, 1'024, p);

  // The faulted session is quarantined and the fault is attributed.
  EXPECT_EQ(faulted.states[1], session_state::quarantined);
  EXPECT_EQ(faulted.stats[1].recognizer_faults, 1u);
  EXPECT_EQ(faulted.stats[1].quarantines, 1u);
  EXPECT_FALSE(faulted.last_errors[1].empty());
  // Fail-closed: everything the pipeline still held resolved as blocked;
  // nothing in the faulted session executed after the fault.
  for (const command_outcome& o : faulted.outcomes[1]) {
    EXPECT_NE(o.kind, command_outcome::kind_t::executed);
  }
  EXPECT_GT(faulted.stats[1].utterances_failed_closed, 0u);

  // The fleet view reports the quarantine.
  EXPECT_EQ(faulted.totals.sessions_quarantined, 1u);
  EXPECT_EQ(faulted.totals.stats.recognizer_faults, 1u);
  EXPECT_GT(faulted.totals.stats.utterances_failed_closed, 0u);

  // Every OTHER session is untouched: verdicts and outcomes
  // bit-identical to the fault-free run.
  for (const std::size_t s : {0u, 2u, 3u}) {
    EXPECT_EQ(faulted.states[s], session_state::serving);
    expect_same_verdicts(clean.verdicts[s], faulted.verdicts[s],
                         "verdicts session " + std::to_string(s));
    expect_same_outcomes(clean.outcomes[s], faulted.outcomes[s],
                         "outcomes session " + std::to_string(s));
  }
}

// An outcome the pipeline resolved before the recognizer threw on a
// LATER utterance of the same call is still part of the stream: it is
// recorded, counted in the session stats and in the registry, and only
// the throwing utterance flushes fail-closed. The long decision window
// defers both utterances to the close() flush, so one finish() call
// resolves the first and throws on the second.
TEST(fault_containment, outcome_resolved_before_a_recognizer_throw_survives) {
  struct session_run {
    std::vector<command_outcome> outcomes;
    session_stats stats;
    double registry_outcomes = 0.0;  // serve_pipeline_outcomes_total
  };
  const auto run = [](bool faulted) {
    serve_config cfg = fleet_config();
    cfg.pipeline->decision_window_s = 3.0;
    cfg.fault_tolerance.auto_reopen = false;
    cfg.metrics = std::make_shared<obs::metrics_registry>();
    if (faulted) {
      fault_config fc;
      fc.schedule.push_back({fault_kind::recognizer_throw, /*session=*/0,
                             /*index=*/1});
      cfg.faults = std::make_shared<fault_injector>(fc);
    }
    session_manager manager{tiny_detector(), cfg};
    const std::uint64_t sid = manager.open_session();
    manager.offer(sid, command_stream(5));
    manager.finish();
    session_run r{manager.outcomes(sid), manager.stats(sid)};
    const json::value counters = cfg.metrics->counters_snapshot();
    for (const auto& [key, value] : counters.members()) {
      if (key.rfind("serve_pipeline_outcomes_total|", 0) == 0) {
        r.registry_outcomes += value.number();
      }
    }
    return r;
  };
  const session_run clean = run(false);
  ASSERT_EQ(clean.outcomes.size(), 2u);
  ASSERT_EQ(clean.outcomes[0].kind, command_outcome::kind_t::executed);

  const session_run faulted = run(true);
  ASSERT_EQ(faulted.outcomes.size(), 2u);
  expect_same_outcomes({clean.outcomes[0]}, {faulted.outcomes[0]},
                       "utterance resolved before the throw");
  EXPECT_EQ(faulted.outcomes[1].kind, command_outcome::kind_t::blocked);
  EXPECT_EQ(faulted.outcomes[1].fault,
            command_outcome::fault_t::stage_fault);
  EXPECT_EQ(faulted.stats.recognizer_faults, 1u);
  EXPECT_EQ(faulted.stats.utterances, 2u);
  EXPECT_EQ(faulted.stats.commands_executed, 1u);
  EXPECT_EQ(faulted.stats.utterances_failed_closed, 1u);
  EXPECT_EQ(faulted.registry_outcomes,
            static_cast<double>(faulted.stats.utterances));
}

TEST(fault_containment, detector_fault_auto_reopens_with_backoff) {
  serve_config cfg = fleet_config();
  cfg.fault_tolerance.backoff_blocks = 4;
  fault_config fc;
  fc.schedule.push_back({fault_kind::detector_throw, /*session=*/0,
                         /*index=*/2});
  cfg.faults = std::make_shared<fault_injector>(fc);

  session_manager manager{tiny_detector(), cfg};
  const std::uint64_t sid = manager.open_session();
  const audio::buffer stream = command_stream(900);
  const std::size_t block = 2'048;
  for (std::size_t start = 0; start < stream.size(); start += block) {
    const std::size_t end = std::min(start + block, stream.size());
    manager.offer(sid, audio::cut(stream, start, end));
  }
  manager.finish();

  const session_stats st = manager.stats(sid);
  EXPECT_EQ(st.detector_faults, 1u);
  EXPECT_EQ(st.quarantines, 1u);
  EXPECT_EQ(st.reopens, 1u);
  // First reopen: backoff_blocks << 0 = 4 accepted blocks dropped.
  EXPECT_EQ(st.blocks_dropped_backoff, 4u);
  // The session recovered and finished serving.
  EXPECT_EQ(manager.state(sid), session_state::serving);
  // Blocks before the fault and after the backoff were scored.
  EXPECT_GT(st.blocks_processed, 0u);
  EXPECT_EQ(st.blocks_processed + st.blocks_dropped_backoff + 1,
            st.blocks_accepted);
}

TEST(fault_containment, corrupt_block_contained_at_ingest_boundary) {
  serve_config cfg = fleet_config();
  fault_config fc;
  fc.schedule.push_back({fault_kind::corrupt_block, /*session=*/0,
                         /*index=*/1});
  cfg.faults = std::make_shared<fault_injector>(fc);

  session_manager manager{tiny_detector(), cfg};
  const std::uint64_t sid = manager.open_session();
  const audio::buffer stream = command_stream(901);
  const std::size_t block = 4'096;
  for (std::size_t start = 0; start < stream.size(); start += block) {
    const std::size_t end = std::min(start + block, stream.size());
    manager.offer(sid, audio::cut(stream, start, end));
  }
  manager.finish();

  const session_stats st = manager.stats(sid);
  EXPECT_EQ(st.corrupt_blocks, 1u);
  EXPECT_EQ(st.quarantines, 1u);
  // The poisoned block was dropped at the scoring boundary — no NaN
  // reached the detector, so every verdict score is finite.
  for (const defense::stream_event& e : manager.verdicts(sid)) {
    EXPECT_TRUE(std::isfinite(e.score));
  }
  for (const command_outcome& o : manager.outcomes(sid)) {
    EXPECT_NE(o.kind, command_outcome::kind_t::executed);
  }
}

TEST(fault_containment, retry_budget_exhaustion_parks_permanently) {
  serve_config cfg = fleet_config();
  cfg.fault_tolerance.max_reopens = 2;
  cfg.fault_tolerance.backoff_blocks = 1;
  fault_config fc;
  fc.detector_throw_rate = 1.0;  // every scored block faults
  cfg.faults = std::make_shared<fault_injector>(fc);

  session_manager manager{tiny_detector(), cfg};
  const std::uint64_t sid = manager.open_session();
  const audio::buffer piece = audio::silence(0.1, kRate);
  for (int i = 0; i < 8; ++i) {
    manager.offer(sid, piece);
  }
  manager.finish();

  // Deterministic trajectory: block 0 faults (reopen #1, drop 1 block),
  // block 2 faults (reopen #2, drop 2 blocks), block 5 faults with the
  // budget spent — parked.
  const session_stats st = manager.stats(sid);
  EXPECT_EQ(manager.state(sid), session_state::quarantined);
  EXPECT_EQ(st.detector_faults, 3u);
  EXPECT_EQ(st.quarantines, 3u);
  EXPECT_EQ(st.reopens, 2u);
  EXPECT_EQ(st.blocks_dropped_backoff, 3u);
  // Parked sessions refuse offers with a status of their own — distinct
  // from `rejected` so producers do not spin on a retry that cannot help.
  EXPECT_EQ(manager.offer(sid, piece), offer_status::closed);
}

TEST(fault_containment, reopen_restores_service_after_quarantine) {
  serve_config cfg = fleet_config();
  cfg.fault_tolerance.auto_reopen = false;
  cfg.fault_tolerance.backoff_blocks = 2;
  fault_config fc;
  fc.schedule.push_back({fault_kind::detector_throw, /*session=*/0,
                         /*index=*/0});
  cfg.faults = std::make_shared<fault_injector>(fc);

  session_manager manager{tiny_detector(), cfg};
  const std::uint64_t sid = manager.open_session();
  const audio::buffer piece = audio::silence(0.2, kRate);
  manager.offer(sid, piece);
  manager.start(1);  // block 0 faults; no auto-reopen → parked
  manager.stop();
  EXPECT_EQ(manager.state(sid), session_state::quarantined);
  EXPECT_FALSE(manager.last_error(sid).empty());

  // Parked: offers refused with the dedicated status.
  EXPECT_EQ(manager.offer(sid, piece), offer_status::quarantined);
  EXPECT_GT(manager.stats(sid).blocks_rejected, 0u);

  // reopen() restores service through the block-counted backoff.
  EXPECT_TRUE(manager.reopen(sid));
  EXPECT_FALSE(manager.reopen(sid));  // only quarantined sessions reopen
  EXPECT_EQ(manager.state(sid), session_state::recovering);
  const audio::buffer speech = command_stream(902);
  const std::size_t block = 4'096;
  for (std::size_t start = 0; start < speech.size(); start += block) {
    const std::size_t end = std::min(start + block, speech.size());
    EXPECT_EQ(manager.offer(sid, audio::cut(speech, start, end)),
              offer_status::accepted);
  }
  manager.finish();
  const session_stats st = manager.stats(sid);
  EXPECT_EQ(manager.state(sid), session_state::serving);
  EXPECT_EQ(st.reopens, 1u);
  EXPECT_EQ(st.blocks_dropped_backoff, 2u);
  EXPECT_GT(st.blocks_processed, 0u);
  EXPECT_GT(manager.verdicts(sid).size(), 0u);
}

// Pinned reopen() semantics on the NON-quarantined paths (the happy
// path above only exercises quarantined → recovering):
//   * unknown id          → std::invalid_argument (caller bug, like offer)
//   * serving session     → false, and counts nothing
//   * evicted non-quarantined session → false WITHOUT rehydrating — a
//     read-shaped call must not change the resident set.
TEST(fault_containment, reopen_is_a_noop_on_non_quarantined_sessions) {
  serve_config cfg = fleet_config();
  session_manager manager{tiny_detector(), cfg};
  const std::uint64_t sid = manager.open_session();

  EXPECT_THROW(manager.reopen(sid + 1), std::invalid_argument);

  // Healthy serving session: no-op, nothing counted.
  manager.offer(sid, audio::silence(0.2, kRate));
  manager.start(1);
  manager.stop();
  EXPECT_FALSE(manager.reopen(sid));
  EXPECT_EQ(manager.state(sid), session_state::serving);
  EXPECT_EQ(manager.stats(sid).reopens, 0u);

  // Evicted + not quarantined: still false, and the freeze-time state
  // check must leave the session frozen.
  ASSERT_TRUE(manager.evict(sid));
  ASSERT_FALSE(manager.resident(sid));
  EXPECT_FALSE(manager.reopen(sid));
  EXPECT_FALSE(manager.resident(sid));
  EXPECT_EQ(manager.stats(sid).reopens, 0u);
  EXPECT_EQ(manager.eviction().rehydrations, 0u);
}

// The frozen half of reopen(): a quarantined session that was evicted
// rehydrates exactly once on reopen() and then scores new blocks again.
// The quarantine check reads the freeze-time state hint, so only the
// `true` path decodes the image.
TEST(fault_containment, reopen_rehydrates_an_evicted_quarantined_session) {
  serve_config cfg = fleet_config();
  cfg.fault_tolerance.auto_reopen = false;
  cfg.fault_tolerance.backoff_blocks = 2;
  fault_config fc;
  fc.schedule.push_back({fault_kind::detector_throw, /*session=*/0,
                         /*index=*/0});
  cfg.faults = std::make_shared<fault_injector>(fc);

  session_manager manager{tiny_detector(), cfg};
  const std::uint64_t sid = manager.open_session();
  manager.offer(sid, audio::silence(0.2, kRate));
  manager.start(1);  // block 0 faults; no auto-reopen → parked
  manager.stop();
  ASSERT_EQ(manager.state(sid), session_state::quarantined);
  ASSERT_TRUE(manager.evict(sid));
  ASSERT_FALSE(manager.resident(sid));

  EXPECT_TRUE(manager.reopen(sid));
  EXPECT_TRUE(manager.resident(sid));
  EXPECT_EQ(manager.eviction().rehydrations, 1u);
  EXPECT_EQ(manager.state(sid), session_state::recovering);

  const audio::buffer speech = command_stream(903);
  const std::size_t block = 4'096;
  std::uint64_t offered = 0;
  for (std::size_t start = 0; start < speech.size();
       start += block, ++offered) {
    const std::size_t end = std::min(start + block, speech.size());
    EXPECT_EQ(manager.offer(sid, audio::cut(speech, start, end)),
              offer_status::accepted);
  }
  manager.finish();
  const session_stats st = manager.stats(sid);
  EXPECT_EQ(manager.state(sid), session_state::serving);
  EXPECT_EQ(st.reopens, 1u);
  EXPECT_EQ(st.blocks_dropped_backoff, 2u);
  // Every block queued after the reopen was consumed: scored, or dropped
  // by the backoff.
  EXPECT_EQ(st.blocks_processed + st.blocks_dropped_backoff, offered);
  EXPECT_GT(manager.verdicts(sid).size(), 0u);
  EXPECT_EQ(manager.eviction().rehydrations, 1u);
}

TEST(fault_containment, force_quarantine_parks_without_reset) {
  serve_config cfg = fleet_config();
  detection_session s{0, tiny_detector(), cfg};
  s.force_quarantine("worker backstop: simulated escape");
  EXPECT_EQ(s.state(), session_state::quarantined);
  EXPECT_EQ(s.last_error(), "worker backstop: simulated escape");
  EXPECT_FALSE(s.has_work());
  // Idempotent: a second force does not double-count.
  s.force_quarantine("again");
  EXPECT_EQ(s.stats().quarantines, 1u);
}

// state() and last_error() are by-value reads, so an eviction after the
// read cannot pull anything out from under the caller. A frozen session
// answers them from its freeze-time hints, like every other id-keyed
// read, and answering does not rehydrate it.
TEST(fault_containment, evicted_quarantined_session_keeps_state_and_error) {
  serve_config cfg = fleet_config();
  cfg.fault_tolerance.auto_reopen = false;
  fault_config fc;
  fc.schedule.push_back({fault_kind::detector_throw, /*session=*/0,
                         /*index=*/0});
  cfg.faults = std::make_shared<fault_injector>(fc);
  session_manager manager{tiny_detector(), cfg};
  const std::uint64_t sid = manager.open_session();
  manager.offer(sid, audio::silence(0.2, kRate));
  manager.start(1);
  manager.stop();
  ASSERT_EQ(manager.state(sid), session_state::quarantined);
  const std::string error = manager.last_error(sid);
  ASSERT_FALSE(error.empty());

  ASSERT_TRUE(manager.evict(sid));
  EXPECT_EQ(manager.state(sid), session_state::quarantined);
  EXPECT_EQ(manager.last_error(sid), error);
  EXPECT_FALSE(manager.resident(sid));
  EXPECT_EQ(manager.eviction().rehydrations, 0u);
}

// Pins the fix for the one real data race the thread-safety annotation
// pass surfaced: force_quarantine() is the manager's worker BACKSTOP —
// it runs when an exception escapes process() while the dying worker
// may still hold the session's exclusive claim, so it reads the
// consumed-block counter WITHOUT claiming the session. That read used
// to race the worker's post-increment in process(); the counter is
// std::atomic now (session.h documents why it is the one busy_-side
// field that cannot be claim-guarded). The CI TSan job running this
// suite is what gives the overlap teeth; the assertions pin the
// backstop's semantics either way.
TEST(fault_containment, force_quarantine_races_the_owning_worker) {
  serve_config cfg = fleet_config();
  detection_session s{0, tiny_detector(), cfg};
  const audio::buffer stream = command_stream(77);
  const std::size_t block = 2'048;
  std::size_t offered = 0;
  for (std::size_t start = 0; start < stream.size(); start += block) {
    const std::size_t end = std::min(start + block, stream.size());
    ASSERT_EQ(s.offer(audio::cut(stream, start, end)), offer_status::accepted);
    ++offered;
  }

  std::thread worker{[&] { s.process(); }};
  s.force_quarantine("worker backstop: fault escaped process()");
  worker.join();

  EXPECT_EQ(s.state(), session_state::quarantined);
  EXPECT_EQ(s.stats().quarantines, 1u);
  // The backstop's flight-recorder span carries the consumed-block
  // coordinate it read mid-race; whatever interleaving happened, it is
  // a real counter value, bounded by what was ever offered.
  const std::vector<obs::span> spans = s.trace();
  const auto quarantine_span =
      std::find_if(spans.begin(), spans.end(), [](const obs::span& sp) {
        return sp.stage == obs::trace_stage::quarantine;
      });
  ASSERT_NE(quarantine_span, spans.end());
  EXPECT_LE(quarantine_span->index, offered);
}

// ---- graceful degradation --------------------------------------------

TEST(fault_degradation, deadline_overrun_sheds_asr_fail_closed) {
  serve_config cfg = fleet_config();
  pipeline_config& pc = *cfg.pipeline;
  pc.asr_deadline_s = 1e-9;  // any modeled cost overruns
  pc.degrade_window_s = 100.0;  // everything after the first overrun sheds

  session_manager manager{tiny_detector(), cfg};
  const std::uint64_t sid = manager.open_session();
  const audio::buffer stream = command_stream(903);
  const std::size_t block = 4'096;
  for (std::size_t start = 0; start < stream.size(); start += block) {
    const std::size_t end = std::min(start + block, stream.size());
    manager.offer(sid, audio::cut(stream, start, end));
  }
  manager.finish();

  const std::vector<command_outcome> outcomes = manager.outcomes(sid);
  ASSERT_GE(outcomes.size(), 2u);
  // First resolved utterance blows the budget; later ones are shed by
  // the degradation ladder. ALL of them fail closed.
  EXPECT_EQ(outcomes[0].kind, command_outcome::kind_t::blocked);
  EXPECT_EQ(outcomes[0].fault, command_outcome::fault_t::deadline_overrun);
  for (std::size_t i = 1; i < outcomes.size(); ++i) {
    EXPECT_EQ(outcomes[i].kind, command_outcome::kind_t::blocked);
    EXPECT_EQ(outcomes[i].fault, command_outcome::fault_t::degraded_shed);
  }
  const session_stats st = manager.stats(sid);
  EXPECT_EQ(st.asr_deadline_overruns, 1u);
  EXPECT_EQ(st.utterances_shed_degraded, outcomes.size() - 1);
  EXPECT_EQ(st.utterances_failed_closed, outcomes.size());
  EXPECT_EQ(st.commands_executed, 0u);
}

// ---- determinism under fault load ------------------------------------

// The chaos invariant: with a fixed fault seed the verdict AND outcome
// streams are bit-identical at any worker count — faults ride the
// accepted-block order like everything else in the layer.
TEST(fault_determinism, streams_identical_across_worker_counts) {
  const std::vector<audio::buffer> streams = fleet_streams(5, 700);
  fleet_params p;
  fault_config fc;
  fc.seed = 1234;
  fc.detector_throw_rate = 0.02;
  fc.corrupt_block_rate = 0.02;
  fc.recognizer_overrun_rate = 0.3;
  p.config.faults = std::make_shared<fault_injector>(fc);
  p.config.fault_tolerance.backoff_blocks = 2;

  p.workers = 1;
  const fleet_run reference = run_fleet(streams, 1'024, p);
  std::size_t faults_seen = reference.totals.stats.detector_faults +
                            reference.totals.stats.corrupt_blocks +
                            reference.totals.stats.asr_deadline_overruns;
  ASSERT_GT(faults_seen, 0u) << "the sweep must actually inject faults";

  for (const std::size_t workers : {2u, 4u, 8u}) {
    p.workers = workers;
    expect_same_streams(reference, run_fleet(streams, 1'024, p),
                        "w=" + std::to_string(workers));
  }
}

// Fail-closed end to end: injected faults can only ever shrink the set
// of executed commands, never grow it.
TEST(fault_determinism, faults_never_add_executed_commands) {
  const std::vector<audio::buffer> streams = fleet_streams(4, 800);
  fleet_params p;
  const fleet_run clean = run_fleet(streams, 2'048, p);
  ASSERT_GT(clean.totals.stats.commands_executed, 0u);

  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    fault_config fc;
    fc.seed = seed;
    fc.detector_throw_rate = 0.03;
    fc.recognizer_throw_rate = 0.1;
    fc.recognizer_overrun_rate = 0.2;
    fc.corrupt_block_rate = 0.03;
    p.config.faults = std::make_shared<fault_injector>(fc);
    const fleet_run faulted = run_fleet(streams, 2'048, p);
    EXPECT_LE(faulted.totals.stats.commands_executed,
              clean.totals.stats.commands_executed)
        << "fault seed " << seed;
  }
}

}  // namespace
}  // namespace ivc::serve
