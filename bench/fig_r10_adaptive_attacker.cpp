// F-R10: The sophisticated attacker — trace cancellation robustness.
//
// The attacker pre-distorts the transmission to cancel the sub-voice
// trace the microphone will create. Cancellation accuracy models channel
// knowledge: 1.0 = perfect magnitude/phase knowledge at the victim's
// exact position. Reports the residual trace feature, the defense's
// detection rate, and whether the attack still works.
//
// Ported to the experiment engine: cancellation accuracy is a
// session-mutable custom axis (attack_session::set_cancellation
// re-assembles the rig from its cached conditioned baseband), so the
// command synthesis, conditioning, and enrollment happen once per run
// instead of once per accuracy, and the sweep parallelizes with
// bit-identical results at any thread count.
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "defense/classifier.h"
#include "defense/detector.h"
#include "defense/features.h"
#include "sim/corpus.h"
#include "sim/experiment.h"

int main(int argc, char** argv) {
  using namespace ivc;
  const bench::options opts = bench::parse_options(argc, argv);
  bench::banner("F-R10", "adaptive attacker: trace cancellation sweep");

  sim::corpus_config cfg;
  cfg.rig = attack::long_range_rig();
  cfg.num_threads = opts.threads;
  const sim::defense_corpus corpus = sim::build_defense_corpus(cfg, 10);
  defense::logistic_classifier clf;
  clf.train(corpus.train);
  const defense::classifier_detector detector{clf};
  bench::rule();

  std::vector<sim::axis_point> accuracy_points;
  for (const double accuracy : {0.0, 0.25, 0.5, 0.75, 0.9, 1.0}) {
    attack::cancellation_config cancel;
    cancel.accuracy = accuracy;
    char label[16];
    std::snprintf(label, sizeof label, "%.2f", accuracy);
    accuracy_points.push_back(sim::axis_point{
        label, accuracy,
        [cancel](sim::attack_scenario& sc) { sc.rig.cancellation = cancel; },
        [cancel](sim::attack_session& s) { s.set_cancellation(cancel); }});
  }

  sim::attack_scenario sc;
  sc.rig = attack::long_range_rig();
  sc.command_id = "open_door";
  sc.distance_m = 4.0;

  sim::run_config run;
  run.trials_per_point = opts.trials > 0 ? opts.trials : 4;
  run.seed = 77;
  run.num_threads = opts.threads;
  const sim::result_table table = sim::engine{run}.run_trial_means(
      sc,
      sim::grid::cartesian({sim::custom_axis("cancellation",
                                             std::move(accuracy_points))}),
      {"trace_ratio_db", "envelope_corr", "detect_rate", "attack_success"},
      [&detector](const sim::trial_result& r) {
        const defense::trace_features f =
            defense::extract_trace_features(r.capture);
        const defense::detection d = detector.detect(r.capture);
        return std::vector<double>{f.low_band_ratio_db,
                                   f.low_band_envelope_corr,
                                   d.is_attack ? 1.0 : 0.0,
                                   r.success ? 1.0 : 0.0};
      });
  table.print();
  const std::size_t last = table.size() - 1;  // accuracy 1.0

  bench::json_report report{"F-R10", "trace cancellation sweep"};
  report.set_seed(run.seed);
  report.set_trials(run.trials_per_point);
  report.add_table("cancellation", table);
  report.add_metric("train_size", static_cast<double>(corpus.train.size()));
  // Headline scalar: detection against the perfectly informed attacker.
  report.add_metric("detect_rate_perfect_cancel",
                    table.metric(last, "detect_rate"));
  report.write(opts);

  // The sweep's two ends, read from the table rather than asserted: the
  // paper expects detection to hold until cancellation is near-perfect,
  // and these rows show whether this rig's sweep bears that out.
  bench::rule();
  bench::note("accuracy 0.00: trace ratio %.1f dB, detect rate %.2f",
              table.metric(0, "trace_ratio_db"),
              table.metric(0, "detect_rate"));
  bench::note("accuracy 1.00: trace ratio %.1f dB, detect rate %.2f",
              table.metric(last, "trace_ratio_db"),
              table.metric(last, "detect_rate"));
  return 0;
}
