#include <cmath>
#include <gtest/gtest.h>

#include "audio/metrics.h"
#include "common/rng.h"
#include "dsp/spectrum.h"
#include "synth/commands.h"
#include "synth/glottal.h"
#include "synth/lexicon.h"
#include "synth/phoneme.h"
#include "synth/synthesizer.h"

namespace ivc::synth {
namespace {

TEST(glottal, pulse_train_has_pitch_harmonics) {
  ivc::rng rng{1};
  glottal_config cfg;
  cfg.jitter = 0.0;
  cfg.shimmer = 0.0;
  const std::vector<double> f0(16'000, 120.0);
  const auto src = glottal_source(f0, 16'000.0, cfg, rng);
  const auto psd = ivc::dsp::welch_psd(src, 16'000.0);
  // Fundamental at ~120 Hz.
  EXPECT_NEAR(psd.peak_frequency(80.0, 180.0), 120.0, 10.0);
  // Energy at the first few harmonics.
  EXPECT_GT(psd.band_power(220.0, 260.0), 0.1 * psd.band_power(100.0, 140.0));
}

TEST(glottal, silence_for_unvoiced_contour) {
  ivc::rng rng{2};
  const std::vector<double> f0(1'000, 0.0);
  const auto src = glottal_source(f0, 16'000.0, glottal_config{}, rng);
  for (const double v : src) {
    EXPECT_DOUBLE_EQ(v, 0.0);
  }
}

TEST(formant, resonator_amplifies_at_resonance) {
  resonator r;
  const double fs = 16'000.0;
  // Feed white-ish impulse train, measure response ratio at two probes.
  std::vector<double> out(8'000);
  for (std::size_t i = 0; i < out.size(); ++i) {
    const double x = (i % 160 == 0) ? 1.0 : 0.0;
    out[i] = r.process(x, 800.0, 80.0, fs);
  }
  const auto psd = ivc::dsp::welch_psd(out, fs);
  EXPECT_GT(psd.band_power(700.0, 900.0), 5.0 * psd.band_power(2'000.0, 2'200.0));
}

TEST(formant, lerp_interpolates_frames) {
  formant_frame a;
  a.freq_hz = {500.0, 1'500.0, 2'500.0, 3'500.0};
  formant_frame b;
  b.freq_hz = {700.0, 1'700.0, 2'700.0, 3'700.0};
  const formant_frame mid = lerp(a, b, 0.5);
  EXPECT_DOUBLE_EQ(mid.freq_hz[0], 600.0);
  EXPECT_DOUBLE_EQ(mid.freq_hz[3], 3'600.0);
}

TEST(phoneme, inventory_covers_lexicon) {
  // Every phoneme referenced by the lexicon must exist in the inventory.
  for (const std::string& word : vocabulary()) {
    for (const std::string& sym : pronounce(word)) {
      EXPECT_NO_THROW(phoneme_by_symbol(sym)) << word << " -> " << sym;
    }
  }
}

TEST(phoneme, vowels_are_voiced_fricatives_vary) {
  EXPECT_TRUE(phoneme_by_symbol("AA").voiced);
  EXPECT_TRUE(phoneme_by_symbol("IY").voiced);
  EXPECT_FALSE(phoneme_by_symbol("S").voiced);
  EXPECT_TRUE(phoneme_by_symbol("Z").voiced);
  EXPECT_EQ(phoneme_by_symbol("SIL").kind, phoneme_kind::silence);
  EXPECT_THROW(phoneme_by_symbol("XX"), std::invalid_argument);
}

TEST(lexicon, phrase_pronunciation_includes_pauses) {
  const auto phones = pronounce_phrase("ok google");
  // OW K EY PAU G UW G AH L
  EXPECT_EQ(phones.size(), 9u);
  EXPECT_EQ(phones[3], "PAU");
  EXPECT_THROW(pronounce("xylophone"), std::invalid_argument);
  EXPECT_TRUE(phrase_in_vocabulary("take a picture"));
  EXPECT_FALSE(phrase_in_vocabulary("take a xylophone"));
}

TEST(synthesizer, produces_voice_band_audio) {
  ivc::rng rng{3};
  const audio::buffer speech =
      synthesize(pronounce_phrase("ok google take a picture"), male_voice(),
                 rng, 16'000.0);
  EXPECT_GT(speech.duration_s(), 1.0);
  EXPECT_LT(speech.duration_s(), 5.0);
  EXPECT_NEAR(audio::peak(speech.samples), 0.5, 1e-6);
  const auto psd = ivc::dsp::welch_psd(speech.samples, 16'000.0);
  // Bulk of energy in the voice band.
  const double voice = psd.band_power(100.0, 4'000.0);
  const double top = psd.band_power(6'000.0, 7'900.0);
  EXPECT_GT(voice, 20.0 * top);
}

TEST(synthesizer, pitch_difference_between_voices) {
  ivc::rng rng_m{4};
  ivc::rng rng_f{4};
  const audio::buffer m =
      synthesize(pronounce_phrase("hello how are you"), male_voice(), rng_m);
  const audio::buffer f =
      synthesize(pronounce_phrase("hello how are you"), female_voice(), rng_f);
  const auto psd_m = ivc::dsp::welch_psd(m.samples, 16'000.0);
  const auto psd_f = ivc::dsp::welch_psd(f.samples, 16'000.0);
  const double f0_m = psd_m.peak_frequency(70.0, 320.0);
  const double f0_f = psd_f.peak_frequency(70.0, 320.0);
  EXPECT_LT(f0_m, 165.0);
  EXPECT_GT(f0_f, 165.0);
}

TEST(synthesizer, speed_scales_duration) {
  ivc::rng a{5};
  ivc::rng b{5};
  voice_params fast = male_voice();
  fast.speed = 1.5;
  const audio::buffer normal =
      synthesize(pronounce_phrase("good morning"), male_voice(), a);
  const audio::buffer quick =
      synthesize(pronounce_phrase("good morning"), fast, b);
  EXPECT_NEAR(normal.duration_s() / quick.duration_s(), 1.5, 0.15);
}

TEST(synthesizer, deterministic_for_fixed_seed) {
  ivc::rng a{6};
  ivc::rng b{6};
  const audio::buffer x = synthesize({"AA", "S"}, male_voice(), a);
  const audio::buffer y = synthesize({"AA", "S"}, male_voice(), b);
  EXPECT_EQ(x.samples, y.samples);
}

TEST(commands, bank_is_renderable_and_in_vocabulary) {
  for (const command& c : command_bank()) {
    EXPECT_TRUE(c.is_attack);
    EXPECT_TRUE(phrase_in_vocabulary(c.text)) << c.text;
  }
  for (const command& c : benign_bank()) {
    EXPECT_FALSE(c.is_attack);
    EXPECT_TRUE(phrase_in_vocabulary(c.text)) << c.text;
  }
  ivc::rng rng{7};
  const audio::buffer b =
      render_command(command_by_id("add_milk"), female_voice(), rng);
  EXPECT_GT(b.duration_s(), 1.0);
  EXPECT_THROW(command_by_id("no_such_command"), std::invalid_argument);
}

TEST(commands, perturbed_voice_stays_plausible) {
  ivc::rng rng{8};
  for (int i = 0; i < 20; ++i) {
    const voice_params v = perturbed_voice(male_voice(), rng);
    EXPECT_GT(v.pitch_hz, 80.0);
    EXPECT_LT(v.pitch_hz, 160.0);
    EXPECT_GT(v.speed, 0.7);
    EXPECT_LT(v.speed, 1.4);
    EXPECT_GE(v.breathiness, 0.0);
  }
}

}  // namespace
}  // namespace ivc::synth
