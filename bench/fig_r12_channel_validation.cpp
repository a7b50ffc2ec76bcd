// F-R12: Substrate validation — atmosphere and propagation.
//
// Compares the ISO 9613-1 absorption implementation against published
// reference values, and the simulated received SPL against the analytic
// link budget. This is the figure that certifies the simulated channel
// before any attack result is read off it.
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "acoustics/air.h"
#include "acoustics/propagation.h"
#include "audio/generate.h"
#include "bench_util.h"
#include "common/units.h"
#include "dsp/goertzel.h"

int main(int argc, char** argv) {
  using namespace ivc;
  const bench::options opts = bench::parse_options(argc, argv);
  bench::banner("F-R12", "channel validation: absorption & link budget");

  acoustics::air_model air;
  air.temperature_c = 20.0;
  air.relative_humidity_percent = 70.0;

  std::printf("atmospheric absorption at 20 C / 70%% RH (dB/km):\n");
  std::printf("%12s %12s %14s\n", "freq (Hz)", "this model",
              "ISO 9613-1 ref");
  const double ref_freq[] = {500.0, 1'000.0, 2'000.0, 4'000.0, 8'000.0};
  const double ref_db_km[] = {2.8, 4.7, 9.0, 23.0, 77.0};
  double max_absorption_rel_error = 0.0;
  for (std::size_t i = 0; i < 5; ++i) {
    const double model_db_km = air.absorption_db_per_m(ref_freq[i]) * 1'000.0;
    std::printf("%12.0f %12.1f %14.1f\n", ref_freq[i], model_db_km,
                ref_db_km[i]);
    max_absorption_rel_error =
        std::max(max_absorption_rel_error,
                 std::abs(model_db_km - ref_db_km[i]) / ref_db_km[i]);
  }
  bench::rule();

  acoustics::air_model attack_air;  // 50% RH default
  std::printf("ultrasound absorption at 20 C / 50%% RH (dB/m):\n");
  std::printf("%12s %12s\n", "freq (kHz)", "dB/m");
  for (const double f : {20.0, 25.0, 30.0, 40.0, 50.0, 60.0}) {
    std::printf("%12.0f %12.2f\n", f,
                attack_air.absorption_db_per_m(f * 1'000.0));
  }
  bench::rule();

  std::printf("link budget check: simulated vs analytic received SPL\n");
  std::printf("%10s %10s %14s %14s\n", "freq", "dist (m)", "simulated",
              "analytic");
  const double fs = 192'000.0;
  double max_link_budget_error_db = 0.0;
  for (const double freq : {1'000.0, 30'000.0, 40'000.0}) {
    for (const double dist : {1.0, 3.0, 7.6}) {
      const double src_spl = 110.0;
      const double amp = spl_db_to_pa(src_spl) * std::numbers::sqrt2;
      const audio::buffer src = audio::tone(freq, 0.2, fs, amp);
      acoustics::propagation_config cfg;
      cfg.distance_m = dist;
      cfg.air = attack_air;
      cfg.include_delay = false;
      const auto rx = acoustics::propagate(src.samples, fs, cfg);
      const std::span<const double> mid{rx.data() + 9'600, 19'200};
      const double rms =
          ivc::dsp::goertzel_amplitude(mid, fs, freq) / std::numbers::sqrt2;
      const double simulated_db = pa_to_spl_db(rms);
      const double analytic_db =
          acoustics::received_spl_db(src_spl, freq, dist, attack_air);
      std::printf("%9.0fk %10.1f %13.1f %14.1f\n", freq / 1'000.0, dist,
                  simulated_db, analytic_db);
      max_link_budget_error_db = std::max(
          max_link_budget_error_db, std::abs(simulated_db - analytic_db));
    }
  }

  bench::rule();
  bench::note("expected: model within ~20%% of ISO reference values in the");
  bench::note("voice band; simulated field matches the analytic budget to");
  bench::note("<0.5 dB; ~1 dB/m extra loss at 40 kHz is what limits range.");

  bench::json_report report{"F-R12", "channel validation"};
  report.add_metric("max_link_budget_error_db", max_link_budget_error_db);
  report.add_metric("max_absorption_rel_error", max_absorption_rel_error);
  report.write(opts);
  return 0;
}
