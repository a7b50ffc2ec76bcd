#include "audio/generate.h"

#include <cmath>
#include <gtest/gtest.h>

#include "audio/metrics.h"
#include "common/constants.h"
#include "common/rng.h"
#include "dsp/goertzel.h"
#include "dsp/spectrum.h"

namespace ivc::audio {
namespace {

TEST(generate, tone_has_requested_frequency_and_amplitude) {
  const buffer t = tone(1'000.0, 0.5, 16'000.0, 0.7);
  EXPECT_EQ(t.size(), 8'000u);
  EXPECT_NEAR(ivc::dsp::goertzel_amplitude(t.samples, 16'000.0, 1'000.0), 0.7,
              1e-3);
}

TEST(generate, tone_phase_offset_shifts_waveform) {
  const buffer s = tone(100.0, 0.1, 8'000.0, 1.0, 0.0);
  const buffer c = tone(100.0, 0.1, 8'000.0, 1.0, ivc::pi / 2.0);
  EXPECT_NEAR(s.samples[0], 0.0, 1e-12);
  EXPECT_NEAR(c.samples[0], 1.0, 1e-12);
}

TEST(generate, multi_tone_contains_all_components) {
  const std::vector<double> freqs{500.0, 1'500.0, 3'000.0};
  const buffer m = multi_tone(freqs, 0.5, 16'000.0, 0.3);
  for (const double f : freqs) {
    EXPECT_NEAR(ivc::dsp::goertzel_amplitude(m.samples, 16'000.0, f), 0.3,
                5e-3);
  }
  EXPECT_LT(ivc::dsp::goertzel_amplitude(m.samples, 16'000.0, 2'000.0), 1e-3);
}

TEST(generate, white_noise_hits_target_rms_and_is_flat) {
  ivc::rng rng{31};
  const buffer n = white_noise(2.0, 16'000.0, 0.25, rng);
  EXPECT_NEAR(rms(n.samples), 0.25, 1e-9);
  const auto psd = ivc::dsp::welch_psd(n.samples, 16'000.0);
  const double low = psd.band_power(100.0, 2'000.0);
  const double high = psd.band_power(5'000.0, 6'900.0);
  // Equal-width bands of white noise carry equal power (within tolerance).
  EXPECT_NEAR(low / high, 1'900.0 / 1'900.0, 0.35);
}

TEST(generate, pink_noise_slopes_down_with_frequency) {
  ivc::rng rng{32};
  const buffer n = pink_noise(4.0, 16'000.0, 0.25, rng);
  EXPECT_NEAR(rms(n.samples), 0.25, 1e-9);
  const auto psd = ivc::dsp::welch_psd(n.samples, 16'000.0);
  // Pink: equal power per octave → the 100-200 octave outweighs the
  // 3200-6400 octave per Hz but matches in total within a factor.
  const double low_octave = psd.band_power(100.0, 200.0);
  const double high_octave = psd.band_power(3'200.0, 6'400.0);
  EXPECT_GT(low_octave, 0.3 * high_octave);
  EXPECT_LT(low_octave, 3.0 * high_octave);
}

TEST(generate, speech_shaped_noise_rolls_off_above_500) {
  ivc::rng rng{33};
  const buffer n = speech_shaped_noise(2.0, 16'000.0, 0.1, rng);
  EXPECT_NEAR(rms(n.samples), 0.1, 1e-9);
  const auto psd = ivc::dsp::welch_psd(n.samples, 16'000.0);
  const double at_300 = psd.band_power(250.0, 350.0);
  const double at_4800 = psd.band_power(4'750.0, 4'850.0);
  // -6 dB/octave from 500 Hz: ~ -20 dB of density at 4.8 kHz.
  EXPECT_GT(at_300 / at_4800, 30.0);
}

TEST(generate, deterministic_given_equal_seeds) {
  ivc::rng a{7};
  ivc::rng b{7};
  const buffer na = white_noise(0.1, 16'000.0, 0.2, a);
  const buffer nb = white_noise(0.1, 16'000.0, 0.2, b);
  EXPECT_EQ(na.samples, nb.samples);
}

TEST(generate, rejects_bad_arguments) {
  ivc::rng rng{1};
  EXPECT_THROW(tone(9'000.0, 0.1, 16'000.0), std::invalid_argument);
  EXPECT_THROW(tone(100.0, -0.1, 16'000.0), std::invalid_argument);
  EXPECT_THROW(white_noise(0.1, 16'000.0, -1.0, rng), std::invalid_argument);
  EXPECT_THROW(multi_tone({}, 0.1, 16'000.0), std::invalid_argument);
}

}  // namespace
}  // namespace ivc::audio
