#include "sim/sweep.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "sim/experiment.h"

namespace ivc::sim {
interval wilson_interval(std::size_t successes, std::size_t trials) {
  expects(trials > 0, "wilson_interval: trials must be > 0");
  constexpr double z = 1.96;  // 95%
  const double n = static_cast<double>(trials);
  const double p = static_cast<double>(successes) / n;
  const double denom = 1.0 + z * z / n;
  const double center = (p + z * z / (2.0 * n)) / denom;
  const double half =
      z * std::sqrt(p * (1.0 - p) / n + z * z / (4.0 * n * n)) / denom;
  return interval{std::max(0.0, center - half), std::min(1.0, center + half)};
}

success_estimate estimate_success(const attack_session& session,
                                  std::size_t trials,
                                  std::uint64_t trial_base) {
  expects(trials > 0, "estimate_success: trials must be > 0");
  success_estimate est;
  est.trials = trials;
  double intel = 0.0;
  for (std::size_t t = 0; t < trials; ++t) {
    const trial_result r = session.run_trial(trial_base + t);
    if (r.success) {
      ++est.successes;
    }
    intel += r.intelligibility;
  }
  est.rate = static_cast<double>(est.successes) / static_cast<double>(trials);
  est.mean_intelligibility = intel / static_cast<double>(trials);
  const interval ci = wilson_interval(est.successes, est.trials);
  est.ci_low = ci.low;
  est.ci_high = ci.high;
  return est;
}

double max_attack_range_m(const attack_session& session, double min_rate,
                          std::size_t trials_per_point, double start_m,
                          double max_m, double step_m,
                          std::size_t num_threads) {
  expects(min_rate > 0.0 && min_rate <= 1.0,
          "max_attack_range_m: min_rate must be in (0, 1]");
  expects(step_m > 0.0 && start_m > 0.0 && max_m > start_m,
          "max_attack_range_m: need 0 < start < max with step > 0");
  // The whole ladder runs in parallel (the serial version early-exited
  // past the range edge; computing the tail costs nothing extra on a
  // pool and per-point results are unchanged — trials are index-seeded).
  std::vector<double> ladder;
  for (double d = start_m; d <= max_m + 1e-9; d += step_m) {
    ladder.push_back(d);
  }
  run_config cfg;
  cfg.trials_per_point = trials_per_point;
  cfg.num_threads = num_threads;
  const result_table table = engine{cfg}.run_over(
      session, grid::cartesian({distance_axis(ladder)}));
  double best = 0.0;
  for (std::size_t i = 0; i < table.size(); ++i) {
    if (table.metric(i, "rate") >= min_rate) {
      best = table.at(i).coords[0];
    } else if (best > 0.0) {
      break;  // past the edge of the working range
    }
  }
  return best;
}

}  // namespace ivc::sim
