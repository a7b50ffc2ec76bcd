#include "acoustics/speaker.h"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "common/error.h"
#include "common/units.h"
#include "dsp/fir.h"

namespace ivc::acoustics {
namespace {

// x^(2·order) by repeated squaring: the response is evaluated once per
// spectrum bin (hundreds of thousands of times per array render), where
// generic std::pow dominates the whole loop.
double even_ipow(double x, std::size_t order) {
  double r = 1.0;
  double p = x * x;
  for (std::size_t e = order; e != 0; e >>= 1) {
    if (e & 1u) {
      r *= p;
    }
    p *= p;
  }
  return r;
}

// Butterworth-shaped magnitude for a band-pass response built from the
// product of a high-pass edge at f_lo and a low-pass edge at f_hi.
double bandpass_magnitude(double f, double f_lo, double f_hi,
                          std::size_t order) {
  if (f <= 0.0) {
    return 0.0;
  }
  const double hp = 1.0 / std::sqrt(1.0 + even_ipow(f_lo / f, order));
  const double lp = 1.0 / std::sqrt(1.0 + even_ipow(f / f_hi, order));
  return hp * lp;
}

}  // namespace

speaker_params ultrasonic_tweeter() {
  speaker_params p;
  // High-efficiency piezo horn / 40 kHz transducer stack: ~124 dB SPL at
  // 1 m when driven at rated power (dedicated ultrasonic emitters reach
  // 120+ dB at far lower power than hi-fi tweeters).
  p.sensitivity_db_spl = 124.0;
  p.rated_power_w = 25.0;
  p.band_low_hz = 16'000.0;
  p.band_high_hz = 64'000.0;
  p.rolloff_order = 2;
  p.nonlin_a2 = 0.06;
  p.nonlin_a3 = 0.012;
  p.max_power_w = 60.0;
  return p;
}

speaker_params hifi_horn_tweeter() {
  speaker_params p;
  p.sensitivity_db_spl = 121.0;
  p.rated_power_w = 30.0;
  p.band_low_hz = 3'500.0;
  p.band_high_hz = 38'000.0;
  // Horn loading: steep acoustic high-pass below the horn cutoff.
  p.rolloff_order = 3;
  // Compression-driver distortion ~0.3% second order at rated power:
  // low enough that the demodulated shadow stays below the hearing
  // threshold at low drive, loud enough to cross it as power rises —
  // the measured trade-off the long-range paper starts from.
  p.nonlin_a2 = 0.003;
  p.nonlin_a3 = 0.0008;
  p.max_power_w = 75.0;
  return p;
}

speaker::speaker(speaker_params params) : params_{params} {
  expects(params_.rated_power_w > 0.0, "speaker: rated power must be > 0");
  expects(params_.max_power_w >= params_.rated_power_w,
          "speaker: max power must be >= rated power");
  expects(params_.band_low_hz > 0.0 &&
              params_.band_high_hz > params_.band_low_hz,
          "speaker: need 0 < band_low < band_high");
  expects(params_.rolloff_order >= 1, "speaker: rolloff order must be >= 1");
}

double speaker::response_at(double freq_hz) const {
  return bandpass_magnitude(freq_hz, params_.band_low_hz, params_.band_high_hz,
                            params_.rolloff_order);
}

audio::buffer speaker::render(const audio::buffer& drive, double input_power_w,
                              bool with_nonlinearity) const {
  audio::validate(drive, "speaker::emit");
  expects(input_power_w > 0.0, "speaker::emit: power must be > 0");
  expects(input_power_w <= params_.max_power_w,
          "speaker::emit: power exceeds the driver's rating");

  // Electrical power scales drive amplitude by sqrt(P / P_rated).
  const double gain = std::sqrt(input_power_w / params_.rated_power_w);

  std::vector<double> x(drive.size());
  for (std::size_t i = 0; i < drive.size(); ++i) {
    // Amplifier rail: hard clip at full scale.
    x[i] = std::clamp(gain * drive.samples[i], -1.0, 1.0);
  }

  if (with_nonlinearity) {
    const double a2 = params_.nonlin_a2;
    const double a3 = params_.nonlin_a3;
    for (double& v : x) {
      v = v + a2 * v * v + a3 * v * v * v;
    }
  }

  // Radiation response, then scale to pascal: a full-scale in-band sine
  // maps to the rated sensitivity SPL at 1 m.
  std::vector<double> radiated = ivc::dsp::apply_magnitude_response(
      x, drive.sample_rate_hz, [this](double f) { return response_at(f); });

  const double peak_pa =
      ivc::spl_db_to_pa(params_.sensitivity_db_spl) * std::numbers::sqrt2;
  for (double& v : radiated) {
    v *= peak_pa;
  }
  return audio::buffer{std::move(radiated), drive.sample_rate_hz};
}

audio::buffer speaker::emit(const audio::buffer& drive,
                            double input_power_w) const {
  return render(drive, input_power_w, /*with_nonlinearity=*/true);
}

audio::buffer speaker::emit_linear(const audio::buffer& drive,
                                   double input_power_w) const {
  return render(drive, input_power_w, /*with_nonlinearity=*/false);
}

}  // namespace ivc::acoustics
