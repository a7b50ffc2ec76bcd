#include <cmath>
#include <gtest/gtest.h>

#include "attack/conditioner.h"
#include "attack/modulator.h"
#include "audio/generate.h"
#include "audio/metrics.h"
#include "common/rng.h"
#include "dsp/correlate.h"
#include "dsp/resample.h"
#include "dsp/spectrum.h"
#include "synth/commands.h"

namespace ivc::attack {
namespace {

audio::buffer test_command(std::uint64_t seed = 50) {
  ivc::rng rng{seed};
  return synth::render_command(synth::command_by_id("mute_yourself"),
                               synth::male_voice(), rng, 16'000.0);
}

TEST(conditioner, band_limits_and_upsamples) {
  const audio::buffer cmd = test_command();
  conditioner_config cfg;
  cfg.voice_bandwidth_hz = 4'000.0;
  cfg.output_rate_hz = 192'000.0;
  const audio::buffer out = condition_command(cmd, cfg);
  EXPECT_DOUBLE_EQ(out.sample_rate_hz, 192'000.0);
  EXPECT_NEAR(audio::peak(out.samples), 0.95, 0.01);
  const auto psd = ivc::dsp::welch_psd(out.samples, 192'000.0);
  const double in_band = psd.band_power(100.0, 4'000.0);
  const double out_band = psd.band_power(6'000.0, 90'000.0);
  EXPECT_GT(in_band, 1'000.0 * std::max(out_band, 1e-15));
}

TEST(conditioner, highpass_removes_rumble) {
  // Synthetic rumble at 30 Hz plus voice tone at 1 kHz.
  audio::buffer cmd = audio::tone(1'000.0, 1.0, 16'000.0, 0.5);
  const audio::buffer rumble = audio::tone(30.0, 1.0, 16'000.0, 0.5);
  for (std::size_t i = 0; i < cmd.size(); ++i) {
    cmd.samples[i] += rumble.samples[i];
  }
  const audio::buffer out = condition_command(cmd, {});
  const auto psd = ivc::dsp::welch_psd(out.samples, 192'000.0);
  EXPECT_GT(psd.band_power(900.0, 1'100.0),
            100.0 * psd.band_power(10.0, 50.0));
}

TEST(conditioner, rejects_bandwidth_beyond_nyquist) {
  const audio::buffer cmd = test_command();
  conditioner_config cfg;
  cfg.voice_bandwidth_hz = 9'000.0;  // > 8 kHz Nyquist of the input
  EXPECT_THROW(condition_command(cmd, cfg), std::invalid_argument);
}

TEST(modulator, am_spectrum_sits_around_carrier) {
  const audio::buffer base = condition_command(test_command(), {});
  modulator_config cfg;
  cfg.carrier_hz = 40'000.0;
  const audio::buffer s = am_modulate(base, cfg);
  EXPECT_LE(audio::peak(s.samples), 1.0 + 1e-9);
  const auto psd = ivc::dsp::welch_psd(s.samples, 192'000.0);
  const double near_carrier = psd.band_power(35'000.0, 45'000.0);
  const double audible = psd.band_power(20.0, 16'000.0);
  EXPECT_GT(near_carrier, 1e6 * std::max(audible, 1e-18));
}

TEST(modulator, square_law_demodulation_recovers_command) {
  // The core attack identity: square the AM drive, low-pass, and the
  // original (band-limited) command re-appears.
  const audio::buffer cmd = test_command();
  const audio::buffer base = condition_command(cmd, {});
  const audio::buffer s = am_modulate(base, {});
  const audio::buffer demod = square_law_demodulate(s, 4'000.0, 16'000.0);
  // Compare against the band-limited command at 16 kHz.
  const std::vector<double> reference =
      ivc::dsp::resample(base.samples, 192'000.0, 16'000.0);
  const double corr = ivc::dsp::aligned_correlation(
      demod.samples, reference, 256);
  EXPECT_GT(std::abs(corr), 0.9);
}

TEST(modulator, rejects_bad_configs) {
  const audio::buffer base = condition_command(test_command(), {});
  modulator_config bad;
  bad.carrier_hz = 10'000.0;  // audible carrier
  EXPECT_THROW(am_modulate(base, bad), std::invalid_argument);
  modulator_config clip;
  clip.carrier_level = 0.7;
  clip.depth_level = 0.7;  // sums above 1
  EXPECT_THROW(am_modulate(base, clip), std::invalid_argument);
  modulator_config high;
  high.carrier_hz = 100'000.0;  // above Nyquist at 192 kHz
  EXPECT_THROW(am_modulate(base, high), std::invalid_argument);
}

}  // namespace
}  // namespace ivc::attack
