#include "sim/scenario.h"

#include <gtest/gtest.h>

#include "audio/metrics.h"
#include "sim/experiment.h"
#include "sim/sweep.h"

namespace ivc::sim {
namespace {

attack_scenario quick_mono(double distance) {
  attack_scenario sc;
  sc.rig = attack::monolithic_rig(18.7);
  sc.command_id = "mute_yourself";  // shortest command, fastest tests
  sc.distance_m = distance;
  return sc;
}

TEST(scenario, monolithic_attack_succeeds_close_fails_far) {
  attack_session session{quick_mono(1.5), 101};
  const trial_result close = session.run_trial(0);
  EXPECT_TRUE(close.success);
  EXPECT_GT(close.intelligibility, 0.5);

  session.set_distance(12.0);
  const trial_result far = session.run_trial(0);
  EXPECT_FALSE(far.success);
}

TEST(scenario, trials_are_deterministic_per_index) {
  attack_session session{quick_mono(2.0), 102};
  const trial_result a = session.run_trial(3);
  const trial_result b = session.run_trial(3);
  EXPECT_EQ(a.capture.samples, b.capture.samples);
  EXPECT_EQ(a.success, b.success);
  // Different indices draw different noise.
  const trial_result c = session.run_trial(4);
  EXPECT_NE(a.capture.samples, c.capture.samples);
}

TEST(scenario, power_rescaling_changes_received_level) {
  attack_session session{quick_mono(2.0), 103};
  const audio::buffer strong = session.render_field(0);
  session.set_total_power(4.7);
  const audio::buffer weak = session.render_field(0);
  EXPECT_GT(audio::rms(strong.samples), 1.5 * audio::rms(weak.samples));
  EXPECT_NEAR(session.total_power_w(), 4.7, 1e-9);
}

TEST(scenario, device_swap_keeps_capture_rate) {
  attack_session session{quick_mono(2.0), 104};
  session.set_device(mic::smart_speaker_profile());
  const trial_result r = session.run_trial(0);
  EXPECT_DOUBLE_EQ(r.capture.sample_rate_hz, 16'000.0);
}

TEST(scenario, cancellation_swap_matches_fresh_session) {
  // The F-R10 session mutation: swapping the cancellation setting on a
  // live session must reproduce a session built with it from scratch.
  attack_scenario with_cancel = quick_mono(2.0);
  attack::cancellation_config cancel;
  cancel.accuracy = 0.75;
  with_cancel.rig.cancellation = cancel;
  const attack_session fresh{with_cancel, 107};

  attack_session mutated{quick_mono(2.0), 107};
  mutated.set_cancellation(cancel);
  const trial_result a = fresh.run_trial(2);
  const trial_result b = mutated.run_trial(2);
  EXPECT_EQ(a.capture.samples, b.capture.samples);
  EXPECT_EQ(a.success, b.success);

  // And swapping back restores the uncancelled rig.
  attack_session round_trip{quick_mono(2.0), 107};
  round_trip.set_cancellation(cancel);
  round_trip.set_cancellation(std::nullopt);
  const attack_session plain{quick_mono(2.0), 107};
  EXPECT_EQ(plain.run_trial(1).capture.samples,
            round_trip.run_trial(1).capture.samples);
}

TEST(scenario, genuine_capture_is_recognized_and_attack_free) {
  genuine_scenario g;
  g.phrase_id = "take_picture";
  g.distance_m = 1.0;
  ivc::rng rng{105};
  const audio::buffer cap = run_genuine_capture(g, rng);
  EXPECT_DOUBLE_EQ(cap.sample_rate_hz, 16'000.0);
  const asr::recognizer rec = make_enrolled_recognizer(16'000.0, 11);
  const asr::recognition_result r = rec.recognize(cap);
  ASSERT_TRUE(r.accepted());
  EXPECT_EQ(*r.command_id, "take_picture");
}

TEST(scenario, quieter_talker_is_harder_to_recognize) {
  const asr::recognizer rec = make_enrolled_recognizer(16'000.0, 11);
  genuine_scenario loud;
  loud.phrase_id = "add_milk";
  loud.level_db_spl_at_1m = 70.0;
  genuine_scenario whisper = loud;
  whisper.level_db_spl_at_1m = 38.0;
  whisper.distance_m = 3.0;
  ivc::rng r1{106};
  ivc::rng r2{106};
  const auto loud_res = rec.recognize(run_genuine_capture(loud, r1));
  const auto quiet_res = rec.recognize(run_genuine_capture(whisper, r2));
  EXPECT_LT(loud_res.best_distance, quiet_res.best_distance);
}

TEST(scenario, invalid_configs_throw) {
  attack_scenario bad = quick_mono(0.0);
  EXPECT_THROW(attack_session(bad, 1), std::invalid_argument);
  attack_session session{quick_mono(1.0), 107};
  EXPECT_THROW(session.set_distance(-1.0), std::invalid_argument);
  EXPECT_THROW(session.set_total_power(0.0), std::invalid_argument);
}

TEST(sweep, wilson_interval_brackets_proportion) {
  const interval ci = wilson_interval(8, 10);
  EXPECT_GT(ci.low, 0.4);
  EXPECT_LT(ci.high, 0.99);
  EXPECT_LT(ci.low, 0.8);
  EXPECT_GT(ci.high, 0.8);
  const interval zero = wilson_interval(0, 10);
  EXPECT_DOUBLE_EQ(zero.low, 0.0);
  EXPECT_LT(zero.high, 0.35);
  EXPECT_THROW(wilson_interval(1, 0), std::invalid_argument);
}

TEST(sweep, estimate_success_counts_trials) {
  attack_session session{quick_mono(1.5), 108};
  const success_estimate est = estimate_success(session, 3);
  EXPECT_EQ(est.trials, 3u);
  EXPECT_GE(est.rate, 0.0);
  EXPECT_LE(est.rate, 1.0);
  EXPECT_LE(est.ci_low, est.rate);
  EXPECT_GE(est.ci_high, est.rate);
}

// Curves over a prepared session run as engine::run_over grids.
result_table session_curve(const attack_session& session, axis ax) {
  run_config cfg;
  cfg.trials_per_point = 3;
  return engine{cfg}.run_over(session, grid::cartesian({std::move(ax)}));
}

TEST(sweep, success_declines_with_distance) {
  attack_session session{quick_mono(1.0), 109};
  const result_table t = session_curve(session, distance_axis({1.5, 10.0}));
  ASSERT_EQ(t.size(), 2u);
  EXPECT_GT(t.metric(0, "rate"), t.metric(1, "rate"));
  EXPECT_GT(t.metric(0, "mean_score"), t.metric(1, "mean_score"));
}

TEST(sweep, success_improves_with_power) {
  attack_scenario sc = quick_mono(3.5);
  attack_session session{sc, 111};
  const result_table t = session_curve(session, power_axis({2.0, 30.0}));
  ASSERT_EQ(t.size(), 2u);
  EXPECT_LE(t.metric(0, "rate"), t.metric(1, "rate"));
  EXPECT_LT(t.metric(0, "mean_score"), t.metric(1, "mean_score"));
}

TEST(sweep, max_range_finds_boundary) {
  attack_session session{quick_mono(1.0), 110};
  const double range = max_attack_range_m(session, 0.5, 2, 1.0, 10.0, 1.0);
  // The boundary exists and sits inside the scan: short commands carry a
  // little farther than the calibrated reference phrase, but not past
  // ~8 m at 18.7 W.
  EXPECT_GE(range, 2.0);
  EXPECT_LE(range, 8.0);
}

}  // namespace
}  // namespace ivc::sim
