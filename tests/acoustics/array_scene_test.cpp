#include <cmath>
#include <gtest/gtest.h>

#include "acoustics/array.h"
#include "acoustics/noise.h"
#include "audio/generate.h"
#include "audio/metrics.h"
#include "common/units.h"
#include "dsp/goertzel.h"

namespace ivc::acoustics {
namespace {

array_element tone_element(double freq, double amp, vec3 pos,
                           double power = 25.0) {
  array_element e;
  e.speaker = ultrasonic_tweeter();
  e.speaker.nonlin_a2 = 0.0;
  e.speaker.nonlin_a3 = 0.0;
  e.drive = audio::tone(freq, 0.1, 192'000.0, amp);
  e.input_power_w = power;
  e.position = pos;
  return e;
}

TEST(array, single_element_matches_emit_plus_propagate) {
  speaker_array arr;
  arr.add_element(tone_element(40'000.0, 0.7, vec3{0.0, 0.0, 0.0}));
  const air_model air;
  const audio::buffer at_listener = arr.render_at(vec3{0.0, 3.0, 0.0}, air);

  // Reference: explicit emit then propagate.
  const speaker spk{arr.elements()[0].speaker};
  const audio::buffer emitted = spk.emit(arr.elements()[0].drive, 25.0);
  propagation_config cfg;
  cfg.distance_m = 3.0;
  cfg.air = air;
  const auto reference = propagate(emitted.samples, 192'000.0, cfg);

  const std::span<const double> a{at_listener.samples.data() + 4'800, 9'600};
  const std::span<const double> b{reference.data() + 4'800, 9'600};
  const double amp_a = ivc::dsp::goertzel_amplitude(a, 192'000.0, 40'000.0);
  const double amp_b = ivc::dsp::goertzel_amplitude(b, 192'000.0, 40'000.0);
  EXPECT_NEAR(amp_a, amp_b, 0.02 * amp_b);
}

TEST(array, two_elements_superpose) {
  speaker_array arr;
  arr.add_element(tone_element(38'000.0, 0.5, vec3{-0.1, 0.0, 0.0}));
  arr.add_element(tone_element(41'000.0, 0.5, vec3{0.1, 0.0, 0.0}));
  const air_model air;
  const audio::buffer rx = arr.render_at(vec3{0.0, 2.0, 0.0}, air);
  const std::span<const double> mid{rx.samples.data() + 4'800, 9'600};
  EXPECT_GT(ivc::dsp::goertzel_amplitude(mid, 192'000.0, 38'000.0), 0.0);
  EXPECT_GT(ivc::dsp::goertzel_amplitude(mid, 192'000.0, 41'000.0), 0.0);
}

TEST(array, total_power_and_scaling) {
  speaker_array arr;
  arr.add_element(tone_element(40'000.0, 0.5, vec3{}, 10.0));
  arr.add_element(tone_element(40'500.0, 0.5, vec3{}, 30.0));
  EXPECT_DOUBLE_EQ(arr.total_power_w(), 40.0);
  arr.scale_power(0.5);
  EXPECT_DOUBLE_EQ(arr.total_power_w(), 20.0);
  EXPECT_THROW(arr.scale_power(10.0), std::invalid_argument);
}

TEST(array, farther_listener_receives_less) {
  speaker_array arr;
  arr.add_element(tone_element(40'000.0, 0.7, vec3{}));
  const air_model air;
  const audio::buffer near = arr.render_at(vec3{0.0, 1.0, 0.0}, air);
  const audio::buffer far = arr.render_at(vec3{0.0, 6.0, 0.0}, air);
  const std::span<const double> mn{near.samples.data() + 4'800, 9'600};
  const std::span<const double> mf{far.samples.data() + 4'800, 9'600};
  const double ratio = ivc::dsp::goertzel_amplitude(mn, 192'000.0, 40'000.0) /
                       ivc::dsp::goertzel_amplitude(mf, 192'000.0, 40'000.0);
  // 6x spreading plus ~5 m of ultrasound absorption: > 6x, < 30x.
  EXPECT_GT(ratio, 6.0);
  EXPECT_LT(ratio, 30.0);
}

TEST(array, rejects_mixed_sample_rates_and_empty_render) {
  speaker_array arr;
  EXPECT_THROW(arr.render_at(vec3{}, air_model{}), std::invalid_argument);
  arr.add_element(tone_element(40'000.0, 0.5, vec3{}));
  array_element wrong_rate;
  wrong_rate.speaker = ultrasonic_tweeter();
  wrong_rate.drive = audio::tone(1'000.0, 0.1, 48'000.0, 0.5);
  wrong_rate.input_power_w = 1.0;
  EXPECT_THROW(arr.add_element(wrong_rate), std::invalid_argument);
}

TEST(noise, ambient_noise_hits_target_spl) {
  ivc::rng rng{3};
  for (const auto kind :
       {noise_kind::white, noise_kind::pink, noise_kind::speech_shaped}) {
    const audio::buffer n = ambient_noise(1.0, 48'000.0, 50.0, kind, rng);
    EXPECT_NEAR(ivc::pa_to_spl_db(audio::rms(n.samples)), 50.0, 0.1);
  }
}

}  // namespace
}  // namespace ivc::acoustics
