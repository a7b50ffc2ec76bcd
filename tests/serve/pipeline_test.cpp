// End-to-end command pipeline: intent state machine, verdict-gated ASR,
// and the serving-level bit-identity contract for outcome streams.
#include "serve/pipeline.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "audio/buffer.h"
#include "common/rng.h"
#include "fleet.h"
#include "serve/session_manager.h"
#include "sim/scenario.h"
#include "synth/commands.h"

namespace ivc::serve {
namespace {

// ---- intent_engine ---------------------------------------------------

TEST(intent_engine, always_armed_maps_command_bank_by_default) {
  intent_engine engine;
  const auto intent = engine.on_command("open_door", 0.0);
  ASSERT_TRUE(intent.has_value());
  EXPECT_EQ(*intent, "intent/open_door");
  EXPECT_FALSE(engine.on_command("not_a_command", 1.0).has_value());
  EXPECT_TRUE(engine.armed_at(1'000.0));  // no wake word: armed forever
}

TEST(intent_engine, wake_machine_arms_maps_and_times_out) {
  intent_config cfg;
  cfg.wake_command_id = "wake_up";
  cfg.rules = {{"open_door", "unlock"}};
  cfg.timeout_s = 2.0;
  intent_engine engine{cfg};

  // Idle engine: commands are ignored until the wake word arms it.
  EXPECT_FALSE(engine.on_command("open_door", 0.0).has_value());
  // The wake word arms but is not itself an intent.
  EXPECT_FALSE(engine.on_command("wake_up", 1.0).has_value());
  EXPECT_TRUE(engine.armed_at(1.5));

  // Within the timeout the table maps; an accepted command re-arms.
  auto intent = engine.on_command("open_door", 2.5);
  ASSERT_TRUE(intent.has_value());
  EXPECT_EQ(*intent, "unlock");
  EXPECT_TRUE(engine.on_command("open_door", 4.4).has_value());  // 2.5 + 2.0

  // Past the (re-armed) deadline the engine has gone idle again.
  EXPECT_FALSE(engine.armed_at(6.5));
  EXPECT_FALSE(engine.on_command("open_door", 6.5).has_value());

  engine.reset();
  EXPECT_FALSE(engine.on_command("open_door", 0.0).has_value());
}

// ---- command_pipeline ------------------------------------------------

// One spoken command padded with digital silence on both sides — the
// traffic-stream shape the segmenter cuts on.
audio::buffer spoken(const std::string& command_id, std::uint64_t seed) {
  ivc::rng rng{seed};
  std::vector<audio::buffer> parts;
  parts.push_back(audio::silence(0.3, kRate));
  parts.push_back(synth::render_command(synth::command_by_id(command_id),
                                        synth::male_voice(), rng, kRate));
  parts.push_back(audio::silence(0.3, kRate));
  return audio::concat(parts);
}

pipeline_config test_pipeline(double decision_window_s = 1.0) {
  pipeline_config cfg;
  cfg.recognizer = sim::shared_enrolled_recognizer(kRate, 1);
  cfg.decision_window_s = decision_window_s;
  return cfg;
}

// Leading silence, `tone_s` of a 300 Hz tone (an utterance to the
// segmenter, no command to the recognizer), `tail_s` of silence.
audio::buffer tone_stream(double tone_s, double tail_s = 0.3) {
  std::vector<audio::buffer> parts;
  parts.push_back(audio::silence(0.3, kRate));
  audio::buffer tone = audio::silence(tone_s, kRate);
  for (std::size_t i = 0; i < tone.size(); ++i) {
    tone.samples[i] =
        0.1 * std::sin(2.0 * M_PI * 300.0 * static_cast<double>(i) / kRate);
  }
  parts.push_back(tone);
  parts.push_back(audio::silence(tail_s, kRate));
  return audio::concat(parts);
}

// Feeds `stream` to `pipeline` in `block`-sample slices, handing over
// `verdicts_at(consumed_s)` with each slice, and returns the full
// outcome stream (finish() tail included).
template <typename VerdictsAt>
std::vector<command_outcome> feed_in_blocks(command_pipeline& pipeline,
                                            const audio::buffer& stream,
                                            std::size_t block,
                                            VerdictsAt&& verdicts_at) {
  std::vector<command_outcome> outcomes;
  for (std::size_t start = 0; start < stream.size(); start += block) {
    const std::size_t end = std::min(start + block, stream.size());
    const audio::buffer piece{
        {stream.samples.begin() + static_cast<std::ptrdiff_t>(start),
         stream.samples.begin() + static_cast<std::ptrdiff_t>(end)},
        kRate};
    const double consumed_s = static_cast<double>(end) / kRate;
    for (command_outcome& o : pipeline.feed(piece, verdicts_at(consumed_s))) {
      outcomes.push_back(std::move(o));
    }
  }
  for (command_outcome& o : pipeline.finish()) {
    outcomes.push_back(std::move(o));
  }
  return outcomes;
}

TEST(command_pipeline, recognizes_and_executes_clean_command) {
  command_pipeline pipeline{test_pipeline()};
  std::vector<command_outcome> outcomes =
      pipeline.feed(spoken("open_door", 3), {});
  for (command_outcome& o : pipeline.finish()) {
    outcomes.push_back(std::move(o));
  }
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_EQ(outcomes[0].kind, command_outcome::kind_t::executed);
  EXPECT_EQ(outcomes[0].command_id, "open_door");
  EXPECT_EQ(outcomes[0].intent, "intent/open_door");
  EXPECT_GT(outcomes[0].asr_margin, 0.0);
}

TEST(command_pipeline, attack_verdict_blocks_without_running_asr) {
  command_pipeline pipeline{test_pipeline()};
  const audio::buffer stream = spoken("open_door", 3);
  // A defense window flagged at t = 0.5 overlaps the utterance.
  const std::vector<defense::stream_event> verdicts = {{0.5, 3.0, true}};
  std::vector<command_outcome> outcomes = pipeline.feed(stream, verdicts);
  for (command_outcome& o : pipeline.finish()) {
    outcomes.push_back(std::move(o));
  }
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_EQ(outcomes[0].kind, command_outcome::kind_t::blocked);
  EXPECT_TRUE(outcomes[0].command_id.empty());
  EXPECT_EQ(outcomes[0].asr_s, 0.0);  // the veto short-circuits the ASR
}

TEST(command_pipeline, genuine_verdict_does_not_block) {
  command_pipeline pipeline{test_pipeline()};
  const std::vector<defense::stream_event> verdicts = {{0.5, -2.0, false}};
  std::vector<command_outcome> outcomes =
      pipeline.feed(spoken("open_door", 3), verdicts);
  for (command_outcome& o : pipeline.finish()) {
    outcomes.push_back(std::move(o));
  }
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_EQ(outcomes[0].kind, command_outcome::kind_t::executed);
}

TEST(command_pipeline, noise_is_rejected_by_asr) {
  command_pipeline pipeline{test_pipeline()};
  // A loud tone is an utterance to the segmenter but no command to the
  // recognizer.
  std::vector<audio::buffer> parts;
  parts.push_back(audio::silence(0.3, kRate));
  audio::buffer tone = audio::silence(0.8, kRate);
  for (std::size_t i = 0; i < tone.size(); ++i) {
    tone.samples[i] = 0.1 * std::sin(2.0 * M_PI * 300.0 *
                                     static_cast<double>(i) / kRate);
  }
  parts.push_back(tone);
  parts.push_back(audio::silence(0.3, kRate));
  std::vector<command_outcome> outcomes =
      pipeline.feed(audio::concat(parts), {});
  for (command_outcome& o : pipeline.finish()) {
    outcomes.push_back(std::move(o));
  }
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_EQ(outcomes[0].kind, command_outcome::kind_t::rejected_by_asr);
  EXPECT_TRUE(outcomes[0].command_id.empty());
}

TEST(command_pipeline, onset_attack_window_blocks_long_open_utterance) {
  // A ~3 s utterance whose ONSET alone is flagged: the window
  // [0.35, 1.35] is fully decided — and lies well behind the
  // consumption front — long before the utterance closes. The veto must
  // survive in the window set while the segmenter still holds the
  // utterance open, under any ingest chunking.
  const audio::buffer stream = tone_stream(3.0);
  const std::vector<defense::stream_event> onset = {{0.35, 3.0, true}};
  for (const std::size_t block :
       {stream.size(), std::size_t{1'600}, std::size_t{997}}) {
    command_pipeline pipeline{test_pipeline()};
    bool delivered = false;
    const std::vector<command_outcome> outcomes = feed_in_blocks(
        pipeline, stream, block,
        [&](double) -> std::vector<defense::stream_event> {
          if (delivered) {
            return {};
          }
          delivered = true;
          return onset;
        });
    ASSERT_EQ(outcomes.size(), 1u) << "block " << block;
    EXPECT_EQ(outcomes[0].kind, command_outcome::kind_t::blocked)
        << "block " << block;
    EXPECT_EQ(outcomes[0].asr_s, 0.0) << "block " << block;
  }
}

TEST(command_pipeline, guard_window_just_past_utterance_end_still_vetoes) {
  // A flagged window starting INSIDE the guard band past the utterance
  // end, delivered only once the detector has consumed a full analysis
  // window past its start (exactly when a real detector emits it). The
  // resolution gate must wait for it.
  const audio::buffer stream = tone_stream(0.8, /*tail_s=*/2.5);
  double end_s = 0.0;
  {
    command_pipeline probe{test_pipeline()};
    const std::vector<command_outcome> outcomes = feed_in_blocks(
        probe, stream, stream.size(),
        [](double) { return std::vector<defense::stream_event>{}; });
    ASSERT_EQ(outcomes.size(), 1u);
    ASSERT_EQ(outcomes[0].kind, command_outcome::kind_t::rejected_by_asr);
    end_s = outcomes[0].end_s;
  }

  const double window_start = end_s + 0.05;  // inside verdict_guard_s = 0.1
  const double emitted_at = window_start + 1.0;  // + decision_window_s
  command_pipeline pipeline{test_pipeline()};
  bool delivered = false;
  const std::vector<command_outcome> outcomes = feed_in_blocks(
      pipeline, stream, /*block=*/400,
      [&](double consumed_s) -> std::vector<defense::stream_event> {
        if (delivered || consumed_s < emitted_at) {
          return {};
        }
        delivered = true;
        return {{window_start, 3.0, true}};
      });
  // The stream must be long enough that the verdict was emitted (and the
  // utterance resolved) mid-stream, not swept up by the finish() flush.
  ASSERT_TRUE(delivered);
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_EQ(outcomes[0].kind, command_outcome::kind_t::blocked);
}

TEST(command_pipeline, wake_machine_ignores_unwoken_command) {
  pipeline_config cfg = test_pipeline();
  cfg.intent.wake_command_id = "wake_up";  // never spoken in this stream
  command_pipeline pipeline{cfg};
  std::vector<command_outcome> outcomes =
      pipeline.feed(spoken("open_door", 3), {});
  for (command_outcome& o : pipeline.finish()) {
    outcomes.push_back(std::move(o));
  }
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_EQ(outcomes[0].kind, command_outcome::kind_t::ignored);
  EXPECT_EQ(outcomes[0].command_id, "open_door");  // recognized, not run
}

// ---- serving-level integration ---------------------------------------

std::vector<audio::buffer> command_streams() {
  const std::vector<synth::command>& bank = synth::command_bank();
  std::vector<audio::buffer> streams;
  for (std::uint64_t s = 0; s < 5; ++s) {
    streams.push_back(spoken(bank[s % bank.size()].id, 40 + s));
  }
  return streams;
}

// The one rule for "same decisions": an outcome agrees with another on
// every field but the asr_s wall time, a verdict on all three fields,
// bit for bit.
TEST(serve_pipeline, decision_equality_ignores_only_wall_time) {
  command_outcome a;
  a.start_s = 1.0;
  a.end_s = 2.0;
  a.kind = command_outcome::kind_t::executed;
  a.command_id = "open_door";
  a.intent = "intent/open_door";
  a.asr_distance = 0.5;
  a.asr_margin = 0.25;
  a.asr_s = 0.01;
  command_outcome timing = a;
  timing.asr_s = 0.02;
  EXPECT_TRUE(same_decision(a, timing));

  void (*const outcome_edits[])(command_outcome&) = {
      [](command_outcome& o) { o.start_s = std::nextafter(o.start_s, 9.0); },
      [](command_outcome& o) { o.end_s = std::nextafter(o.end_s, 9.0); },
      [](command_outcome& o) { o.kind = command_outcome::kind_t::blocked; },
      [](command_outcome& o) {
        o.fault = command_outcome::fault_t::stage_fault;
      },
      [](command_outcome& o) { o.command_id = "play_music"; },
      [](command_outcome& o) { o.intent.clear(); },
      [](command_outcome& o) {
        o.asr_distance = std::nextafter(o.asr_distance, 9.0);
      },
      [](command_outcome& o) {
        o.asr_margin = std::nextafter(o.asr_margin, 9.0);
      },
  };
  for (std::size_t i = 0; i < std::size(outcome_edits); ++i) {
    command_outcome b = a;
    outcome_edits[i](b);
    EXPECT_FALSE(same_decision(a, b)) << "outcome field " << i;
    EXPECT_FALSE(same_decision(b, a)) << "outcome field " << i;
  }

  const defense::stream_event e{0.5, 1.25, true};
  defense::stream_event f = e;
  EXPECT_TRUE(e == f);
  f.time_s = std::nextafter(f.time_s, 9.0);
  EXPECT_FALSE(e == f);
  f = e;
  f.score = std::nextafter(f.score, 9.0);
  EXPECT_FALSE(e == f);
  f = e;
  f.is_attack = false;
  EXPECT_FALSE(e == f);
}

// The tentpole contract: the outcome stream is a pure function of the
// accepted-block order — bit-identical at 1/2/8 workers.
TEST(serve_pipeline, outcomes_identical_across_worker_counts) {
  const std::vector<audio::buffer> streams = command_streams();
  fleet_params p;
  // A queue shorter than a stream, so offers are rejected and retried
  // while the workers run.
  p.config.queue_capacity = 16;
  p.per_session_config = true;
  p.workers = 1;
  const fleet_run reference = run_fleet(streams, 1'024, p);
  ASSERT_GT(reference.totals.stats.utterances, 0u);
  ASSERT_GT(reference.totals.stats.blocks_rejected, 0u);

  for (const std::size_t workers : {2u, 8u}) {
    p.workers = workers;
    expect_same_streams(reference, run_fleet(streams, 1'024, p),
                        "x" + std::to_string(workers));
  }

  // And invariant to the ingest chunking, like the verdict stream.
  p.workers = 2;
  expect_same_streams(reference, run_fleet(streams, 997, p), "block 997");
}

TEST(serve_pipeline, stats_count_every_outcome) {
  const std::vector<audio::buffer> streams = command_streams();
  serve_config cfg = fleet_config();
  cfg.queue_capacity = 16;
  session_manager manager{tiny_detector(), cfg};
  for (std::size_t s = 0; s < streams.size(); ++s) {
    manager.open_session(cfg);
    manager.offer(s, streams[s]);
  }
  manager.finish();
  const serve_totals totals = manager.aggregate();
  std::uint64_t outcomes = 0;
  for (std::size_t s = 0; s < streams.size(); ++s) {
    outcomes += manager.outcomes(s).size();
  }
  ASSERT_GT(outcomes, 0u);
  EXPECT_EQ(totals.stats.utterances, outcomes);
  EXPECT_EQ(totals.stats.commands_blocked + totals.stats.commands_executed +
                totals.stats.commands_rejected + totals.stats.commands_ignored,
            outcomes);
}

TEST(serve_pipeline, per_session_config_may_change_queue_and_pipeline) {
  serve_config fleet;
  session_manager manager{tiny_detector(), fleet};

  // A per-session override may add a pipeline and reshape the queue.
  serve_config custom = fleet;
  custom.queue_capacity = 4;
  custom.policy = overflow_policy::reject;
  custom.pipeline = test_pipeline();
  EXPECT_NO_THROW(manager.open_session(custom));
}

// The recognizer-sharing contract the pipeline relies on: concurrent
// recognize() calls against one shared template set return identical
// results (see the concurrency note in asr/recognizer.h).
TEST(serve_pipeline, shared_recognizer_is_const_thread_safe) {
  const std::shared_ptr<const asr::recognizer> recognizer =
      sim::shared_enrolled_recognizer(kRate, 1);
  const audio::buffer capture = spoken("take_picture", 9);
  const asr::recognition_result expected = recognizer->recognize(capture);
  ASSERT_TRUE(expected.accepted());

  std::vector<asr::recognition_result> results(8);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < results.size(); ++t) {
    threads.emplace_back([&, t] { results[t] = recognizer->recognize(capture); });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  for (const asr::recognition_result& r : results) {
    ASSERT_TRUE(r.accepted());
    EXPECT_EQ(*r.command_id, *expected.command_id);
    EXPECT_EQ(r.best_distance, expected.best_distance);
    EXPECT_EQ(r.margin, expected.margin);
  }
}

}  // namespace
}  // namespace ivc::serve
