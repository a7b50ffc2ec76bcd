#include "acoustics/speaker.h"

#include <cmath>
#include <gtest/gtest.h>

#include "audio/generate.h"
#include "common/units.h"
#include "dsp/goertzel.h"

namespace ivc::acoustics {
namespace {

TEST(speaker, full_scale_inband_sine_hits_rated_sensitivity) {
  speaker_params p = ultrasonic_tweeter();
  p.nonlin_a2 = 0.0;
  p.nonlin_a3 = 0.0;
  // Widen the response so 40 kHz sits on the flat plateau: sensitivity is
  // defined at a frequency where the response is ~1.
  p.band_low_hz = 2'000.0;
  p.band_high_hz = 500'000.0;
  const speaker spk{p};
  const audio::buffer drive = audio::tone(40'000.0, 0.1, 192'000.0, 1.0);
  const audio::buffer out = spk.emit(drive, p.rated_power_w);
  const std::span<const double> mid{out.samples.data() + 4'800, 9'600};
  const double rms_pa =
      ivc::dsp::goertzel_amplitude(mid, 192'000.0, 40'000.0) / std::sqrt(2.0);
  EXPECT_NEAR(ivc::pa_to_spl_db(rms_pa), p.sensitivity_db_spl, 0.5);
}

TEST(speaker, power_scales_output_by_sqrt) {
  speaker_params p = ultrasonic_tweeter();
  p.nonlin_a2 = 0.0;
  p.nonlin_a3 = 0.0;
  const speaker spk{p};
  const audio::buffer drive = audio::tone(40'000.0, 0.1, 192'000.0, 0.5);
  const audio::buffer quarter = spk.emit(drive, p.rated_power_w / 4.0);
  const audio::buffer full = spk.emit(drive, p.rated_power_w);
  const std::span<const double> mq{quarter.samples.data() + 4'800, 9'600};
  const std::span<const double> mf{full.samples.data() + 4'800, 9'600};
  const double ratio = ivc::dsp::goertzel_amplitude(mf, 192'000.0, 40'000.0) /
                       ivc::dsp::goertzel_amplitude(mq, 192'000.0, 40'000.0);
  EXPECT_NEAR(ratio, 2.0, 0.02);  // sqrt(4) in amplitude
}

TEST(speaker, response_rolls_off_outside_band) {
  const speaker spk{ultrasonic_tweeter()};
  EXPECT_NEAR(spk.response_at(40'000.0), 1.0, 0.1);  // in-band plateau
  EXPECT_LT(spk.response_at(1'000.0), 0.01);   // voice band: piezo is deaf
  EXPECT_LT(spk.response_at(300'000.0), 0.06); // far ultrasound
  EXPECT_DOUBLE_EQ(spk.response_at(0.0), 0.0);
}

TEST(speaker, nonlinearity_creates_intermodulation_products) {
  // Two ultrasonic tones through a non-linear speaker radiate a
  // difference tone — but shaped by the (weak) low-frequency response.
  speaker_params p = ultrasonic_tweeter();
  const speaker spk{p};
  const std::vector<double> freqs{38'000.0, 40'000.0};
  const audio::buffer drive =
      audio::multi_tone(freqs, 0.1, 192'000.0, 0.45);
  const audio::buffer with_nl = spk.emit(drive, p.rated_power_w);
  const audio::buffer without_nl = spk.emit_linear(drive, p.rated_power_w);
  const std::span<const double> m_nl{with_nl.samples.data() + 4'800, 9'600};
  const std::span<const double> m_lin{without_nl.samples.data() + 4'800, 9'600};
  const double imd_nl = ivc::dsp::goertzel_amplitude(m_nl, 192'000.0, 2'000.0);
  const double imd_lin = ivc::dsp::goertzel_amplitude(m_lin, 192'000.0, 2'000.0);
  EXPECT_GT(imd_nl, 100.0 * std::max(imd_lin, 1e-12));
}

TEST(speaker, emit_linear_has_no_harmonic_distortion) {
  speaker_params p = ultrasonic_tweeter();
  const speaker spk{p};
  const audio::buffer drive = audio::tone(30'000.0, 0.1, 192'000.0, 0.8);
  const audio::buffer out = spk.emit_linear(drive, p.rated_power_w);
  const std::span<const double> mid{out.samples.data() + 4'800, 9'600};
  const double fundamental =
      ivc::dsp::goertzel_amplitude(mid, 192'000.0, 30'000.0);
  const double second = ivc::dsp::goertzel_amplitude(mid, 192'000.0, 60'000.0);
  EXPECT_LT(second / fundamental, 1e-6);
}

TEST(speaker, overdrive_clips_and_distorts) {
  speaker_params p = ultrasonic_tweeter();
  p.nonlin_a2 = 0.0;
  p.nonlin_a3 = 0.0;
  const speaker spk{p};
  const audio::buffer drive = audio::tone(30'000.0, 0.1, 192'000.0, 1.0);
  // Driving at twice rated power pushes gain*drive past the rail.
  const audio::buffer out = spk.emit(drive, 2.0 * p.rated_power_w);
  const std::span<const double> mid{out.samples.data() + 4'800, 9'600};
  // Clipped sine has 3rd harmonic content at 90 kHz.
  const double third = ivc::dsp::goertzel_amplitude(mid, 192'000.0, 90'000.0);
  const double fundamental =
      ivc::dsp::goertzel_amplitude(mid, 192'000.0, 30'000.0);
  EXPECT_GT(third / fundamental, 0.01);
}

TEST(speaker, rejects_power_above_rating) {
  const speaker spk{ultrasonic_tweeter()};
  const audio::buffer drive = audio::tone(40'000.0, 0.01, 192'000.0, 1.0);
  EXPECT_THROW(spk.emit(drive, 1'000.0), std::invalid_argument);
  EXPECT_THROW(spk.emit(drive, 0.0), std::invalid_argument);
}

TEST(speaker, invalid_params_rejected) {
  speaker_params p = ultrasonic_tweeter();
  p.band_low_hz = 50'000.0;
  p.band_high_hz = 40'000.0;
  EXPECT_THROW(speaker{p}, std::invalid_argument);
  speaker_params q = ultrasonic_tweeter();
  q.max_power_w = q.rated_power_w / 2.0;
  EXPECT_THROW(speaker{q}, std::invalid_argument);
}

}  // namespace
}  // namespace ivc::acoustics
