#include "attack/modulator.h"

#include <cmath>

#include "audio/ops.h"
#include "common/constants.h"
#include "common/error.h"
#include "dsp/biquad.h"
#include "dsp/resample.h"

namespace ivc::attack {
namespace {

void check_modulator(const audio::buffer& baseband,
                     const modulator_config& config) {
  audio::validate(baseband, "modulator");
  expects(config.carrier_hz > 20'000.0,
          "modulator: carrier must be ultrasonic (> 20 kHz)");
  expects(config.carrier_hz < baseband.sample_rate_hz / 2.0,
          "modulator: carrier must be below Nyquist");
  expects(config.carrier_level >= 0.0 && config.depth_level > 0.0 &&
              config.carrier_level + config.depth_level <= 1.0 + 1e-9,
          "modulator: carrier_level + depth_level must be in (0, 1]");
}

}  // namespace

audio::buffer am_modulate(const audio::buffer& baseband,
                          const modulator_config& config) {
  check_modulator(baseband, config);
  const double w = two_pi * config.carrier_hz / baseband.sample_rate_hz;
  std::vector<double> out(baseband.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    const double envelope =
        config.carrier_level + config.depth_level * baseband.samples[i];
    out[i] = envelope * std::cos(w * static_cast<double>(i));
  }
  return audio::buffer{std::move(out), baseband.sample_rate_hz};
}

audio::buffer square_law_demodulate(const audio::buffer& drive,
                                    double voice_bandwidth_hz,
                                    double capture_rate_hz) {
  audio::validate(drive, "square_law_demodulate");
  expects(voice_bandwidth_hz > 0.0 &&
              voice_bandwidth_hz < capture_rate_hz / 2.0,
          "square_law_demodulate: bandwidth must be in (0, capture/2)");
  expects(capture_rate_hz <= drive.sample_rate_hz,
          "square_law_demodulate: capture rate must be <= drive rate");

  std::vector<double> squared(drive.size());
  for (std::size_t i = 0; i < drive.size(); ++i) {
    squared[i] = drive.samples[i] * drive.samples[i];
  }
  const ivc::dsp::iir_cascade lp = ivc::dsp::butterworth_lowpass(
      6, voice_bandwidth_hz, drive.sample_rate_hz);
  std::vector<double> filtered = lp.process(squared);
  if (capture_rate_hz != drive.sample_rate_hz) {
    filtered =
        ivc::dsp::resample(filtered, drive.sample_rate_hz, capture_rate_hz);
  }
  audio::buffer out{std::move(filtered), capture_rate_hz};
  return audio::remove_dc(out);
}

}  // namespace ivc::attack
