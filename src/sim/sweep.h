// Success-rate estimation: the binomial statistics behind every attack
// table and figure, a one-point estimate over a prepared session, and
// the range scan the papers report.
//
// Curves over distance, power, or any other axis are grids on the
// experiment engine (sim/experiment.h): `engine::run_over` runs a
// prepared session over a session-mutable grid, and its row p equals
// `estimate_success(session at p, T, p·T)` bit for bit.
#pragma once

#include "sim/scenario.h"

namespace ivc::sim {

// A closed interval, e.g. a binomial confidence interval on [0, 1].
struct interval {
  double low = 0.0;
  double high = 0.0;
};

// Wilson score 95% interval for a binomial proportion.
interval wilson_interval(std::size_t successes, std::size_t trials);

struct success_estimate {
  double rate = 0.0;           // fraction of successful trials
  double mean_intelligibility = 0.0;
  std::size_t trials = 0;
  std::size_t successes = 0;
  // Wilson 95% confidence interval on the rate.
  double ci_low = 0.0;
  double ci_high = 0.0;
};

// Runs `trials` attack trials at the session's current settings.
success_estimate estimate_success(const attack_session& session,
                                  std::size_t trials,
                                  std::uint64_t trial_base = 0);

// Maximum distance (m) with success rate >= `min_rate`, scanned outward
// in `step_m` increments from `start_m` up to `max_m`. Returns 0 when
// even the first point fails — matches how the papers report "range".
// The whole ladder runs as one engine::run_over grid (`num_threads`
// sizes its pool; 0 = all hardware threads).
double max_attack_range_m(const attack_session& session, double min_rate,
                          std::size_t trials_per_point, double start_m,
                          double max_m, double step_m,
                          std::size_t num_threads = 0);

}  // namespace ivc::sim
