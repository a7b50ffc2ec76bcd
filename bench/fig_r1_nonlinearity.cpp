// F-R1: Microphone non-linearity demonstration.
//
// Plays a two-tone ultrasound (25 kHz + 30 kHz, inaudible) into the
// simulated phone microphone and reports what the device records: the
// 5 kHz intermodulation difference tone, exactly as the papers' Figure
// (spectrogram of the recording) shows. Also prints the theoretical
// prediction from the mic's a2 coefficient.
#include <cstdio>

#include "audio/generate.h"
#include "audio/metrics.h"
#include "bench_util.h"
#include "common/rng.h"
#include "common/units.h"
#include "dsp/goertzel.h"
#include "mic/device_profiles.h"
#include "mic/frontend.h"

int main(int argc, char** argv) {
  using namespace ivc;
  const bench::options opts = bench::parse_options(argc, argv);
  bench::banner("F-R1", "microphone non-linearity: two-tone intermodulation");

  const double fs = 192'000.0;
  const double f1 = 25'000.0;
  const double f2 = 30'000.0;
  const double spl = 108.0;  // per-tone level at the mic port
  const double amp = spl_db_to_pa(spl) * std::numbers::sqrt2;

  audio::buffer pressure = audio::multi_tone(
      std::vector<double>{f1, f2}, 1.0, fs, amp);

  mic::mic_params params = mic::phone_profile().mic;
  params.agc = std::nullopt;  // raw capture for measurement
  const mic::microphone microphone{params};
  const std::uint64_t seed = 1;
  ivc::rng rng{seed};
  const audio::buffer capture = microphone.record(pressure, rng);

  bench::note("input: %.0f + %.0f Hz tones at %.0f dB SPL each (inaudible)",
              f1, f2, spl);
  bench::note("device: %s (a2 = %.3g, capture %.0f kHz)",
              mic::phone_profile().name.c_str(), params.nonlinearity.a2,
              params.capture_rate_hz / 1000.0);
  bench::rule();

  std::printf("%-26s %12s %16s\n", "component", "freq (Hz)",
              "captured (dBFS)");
  const std::span<const double> mid{capture.samples.data() + 2'000,
                                    capture.size() - 4'000};
  auto level = [&](double freq) {
    return amplitude_to_db(
        ivc::dsp::goertzel_amplitude(mid, params.capture_rate_hz, freq));
  };
  std::printf("%-26s %12.0f %16.1f  <- the recorded 'sound'\n",
              "f2 - f1 (2nd order IMD)", f2 - f1, level(f2 - f1));
  std::printf("%-26s %12.0f %16.1f  (carrier band: filtered out)\n",
              "probe at 7.9 kHz", 7'900.0, level(7'900.0));
  std::printf("%-26s %12.0f %16.1f  (noise reference)\n", "probe at 2.2 kHz",
              2'200.0, level(2'200.0));
  std::printf("%-26s %12.0f %16.1f  (noise reference)\n", "probe at 3.7 kHz",
              3'700.0, level(3'700.0));

  bench::rule();
  // Theory: received x = A(cos w1 + cos w2) normalized to 1 Pa;
  // difference-tone amplitude = a2 * A^2 (in Pa-normalized units),
  // then scaled by the capture full-scale.
  const double a_norm = amp;  // Pa
  const double predicted_pa = params.nonlinearity.a2 * a_norm * a_norm;
  const double fs_pa = spl_db_to_pa(params.full_scale_spl_db) *
                       std::numbers::sqrt2;
  const double predicted_dbfs = amplitude_to_db(predicted_pa / fs_pa);
  const double measured_dbfs = level(f2 - f1);
  bench::note("theory: a2*A^2 = %.4g Pa -> %.1f dBFS  (measured %.1f dBFS)",
              predicted_pa, predicted_dbfs, measured_dbfs);
  bench::note("paper shape: inaudible tones in, voice-band tone out. HOLDS");

  bench::json_report report{"F-R1", "two-tone intermodulation"};
  report.set_seed(seed);
  report.add_metric("imd_measured_dbfs", measured_dbfs);
  report.add_metric("imd_predicted_dbfs", predicted_dbfs);
  report.write(opts);
  return 0;
}
