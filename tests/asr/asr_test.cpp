#include <algorithm>
#include <cmath>
#include <gtest/gtest.h>
#include <limits>
#include <utility>
#include <vector>

#include "asr/dtw.h"
#include "asr/intelligibility.h"
#include "asr/mel.h"
#include "asr/mfcc.h"
#include "asr/recognizer.h"
#include "asr/vad.h"
#include "audio/generate.h"
#include "audio/ops.h"
#include "common/rng.h"
#include "synth/commands.h"

namespace ivc::asr {
namespace {

TEST(mel, scale_round_trip) {
  for (const double hz : {100.0, 440.0, 1'000.0, 4'000.0, 7'900.0}) {
    EXPECT_NEAR(mel_to_hz(hz_to_mel(hz)), hz, 1e-6);
  }
  EXPECT_NEAR(hz_to_mel(1'000.0), 999.9855, 0.1);  // ~1000 mel at 1 kHz
}

TEST(mel, filterbank_rows_cover_band_and_sum_smoothly) {
  const auto bank = make_mel_filterbank(26, 257, 16'000.0, 80.0, 7'000.0);
  EXPECT_EQ(bank.num_filters(), 26u);
  // Each filter has nonzero weight somewhere; centers are increasing.
  for (std::size_t m = 0; m < bank.num_filters(); ++m) {
    double sum = 0.0;
    for (const double w : bank.weights[m]) {
      sum += w;
    }
    EXPECT_GT(sum, 0.0) << m;
    if (m > 0) {
      EXPECT_GT(bank.center_hz[m], bank.center_hz[m - 1]);
    }
  }
}

TEST(mel, filterbank_responds_to_matching_tone) {
  const auto bank = make_mel_filterbank(26, 257, 16'000.0, 80.0, 7'000.0);
  // Synthetic power spectrum with a single hot bin at ~1 kHz (bin 32 of
  // a 512-FFT at 16 kHz).
  std::vector<double> power(257, 0.0);
  power[32] = 1.0;
  std::vector<double> out;
  bank.apply_to(power, out);
  std::size_t hottest = 0;
  for (std::size_t m = 1; m < out.size(); ++m) {
    if (out[m] > out[hottest]) {
      hottest = m;
    }
  }
  EXPECT_NEAR(bank.center_hz[hottest], 1'000.0, 300.0);
}

TEST(mfcc, shape_matches_config) {
  ivc::rng rng{1};
  const audio::buffer noise = audio::white_noise(1.0, 16'000.0, 0.1, rng);
  mfcc_config cfg;
  cfg.append_delta = true;
  const feature_matrix f = extract_mfcc(noise, cfg);
  EXPECT_EQ(f.dims(), 26u);  // 13 + 13 deltas
  EXPECT_NEAR(static_cast<double>(f.num_frames()), 98.0, 5.0);
  cfg.append_delta = false;
  EXPECT_EQ(extract_mfcc(noise, cfg).dims(), 13u);
}

TEST(mfcc, distinguishes_tones_from_noise) {
  ivc::rng rng{2};
  const audio::buffer tone = audio::tone(800.0, 1.0, 16'000.0, 0.3);
  const audio::buffer noise = audio::white_noise(1.0, 16'000.0, 0.3, rng);
  const feature_matrix ft = extract_mfcc(tone);
  const feature_matrix fn = extract_mfcc(noise);
  const double d_same = dtw_distance(ft, ft);
  const double d_diff = dtw_distance(ft, fn);
  EXPECT_LT(d_same, 1e-9);
  EXPECT_GT(d_diff, 1.0);
}

TEST(dtw, identical_sequences_have_zero_distance) {
  feature_matrix a;
  for (int i = 0; i < 20; ++i) {
    a.push_frame({static_cast<double>(i), 1.0});
  }
  EXPECT_DOUBLE_EQ(dtw_distance(a, a), 0.0);
}

TEST(dtw, tolerates_time_stretching) {
  // b is a 2x time-stretched copy of a; DTW distance stays small while
  // naive frame-by-frame distance would be large.
  feature_matrix a;
  feature_matrix b;
  for (int i = 0; i < 30; ++i) {
    a.push_frame({std::sin(0.3 * i), std::cos(0.3 * i)});
  }
  for (int i = 0; i < 60; ++i) {
    b.push_frame({std::sin(0.15 * i), std::cos(0.15 * i)});
  }
  dtw_config cfg;
  cfg.band_fraction = 0.6;
  EXPECT_LT(dtw_distance(a, b, cfg), 0.08);
}

TEST(dtw, rejects_mismatched_dims) {
  feature_matrix a;
  a.push_frame({1.0, 2.0});
  feature_matrix b;
  b.push_frame({1.0});
  EXPECT_THROW(dtw_distance(a, b), std::invalid_argument);
}

TEST(dtw, feature_matrix_rows_stay_contiguous_and_addressable) {
  feature_matrix a;
  a.push_frame({1.0, 2.0, 3.0});
  a.push_frame({4.0, 5.0, 6.0});
  ASSERT_EQ(a.num_frames(), 2u);
  ASSERT_EQ(a.dims(), 3u);
  EXPECT_DOUBLE_EQ(a.frame(1)[0], 4.0);
  EXPECT_DOUBLE_EQ(a.frame(1)[2], 6.0);
  EXPECT_EQ(a.data.size(), 6u);
  // Mismatched widths within one matrix are rejected.
  EXPECT_THROW(a.push_frame({1.0}), std::invalid_argument);
}

// Reference DTW retained from the pre-flattening implementation
// (vector-of-vectors storage, identical recurrence); the flattened
// production path must match it bit for bit.
double reference_dtw(const std::vector<std::vector<double>>& a,
                     const std::vector<std::vector<double>>& b,
                     double band_fraction) {
  const std::size_t n = a.size();
  const std::size_t m = b.size();
  const auto band = std::max<std::ptrdiff_t>(
      static_cast<std::ptrdiff_t>(band_fraction *
                                  static_cast<double>(std::max(n, m))),
      static_cast<std::ptrdiff_t>(std::max(n, m) - std::min(n, m)) + 1);
  constexpr double inf = std::numeric_limits<double>::infinity();
  std::vector<double> prev(m + 1, inf);
  std::vector<double> cur(m + 1, inf);
  std::vector<double> prev_steps(m + 1, 0.0);
  std::vector<double> cur_steps(m + 1, 0.0);
  prev[0] = 0.0;
  for (std::size_t i = 1; i <= n; ++i) {
    std::fill(cur.begin(), cur.end(), inf);
    const auto diag = static_cast<std::ptrdiff_t>(
        static_cast<double>(i) * static_cast<double>(m) /
        static_cast<double>(n));
    const auto j_lo = static_cast<std::size_t>(
        std::max<std::ptrdiff_t>(1, diag - band));
    const auto j_hi = static_cast<std::size_t>(
        std::min<std::ptrdiff_t>(static_cast<std::ptrdiff_t>(m), diag + band));
    for (std::size_t j = j_lo; j <= j_hi; ++j) {
      double acc = 0.0;
      for (std::size_t k = 0; k < a[i - 1].size(); ++k) {
        const double d = a[i - 1][k] - b[j - 1][k];
        acc += d * d;
      }
      const double d = std::sqrt(acc);
      double best = prev[j - 1];
      double steps = prev_steps[j - 1];
      if (prev[j] < best) {
        best = prev[j];
        steps = prev_steps[j];
      }
      if (cur[j - 1] < best) {
        best = cur[j - 1];
        steps = cur_steps[j - 1];
      }
      if (best < inf) {
        cur[j] = best + d;
        cur_steps[j] = steps + 1.0;
      }
    }
    std::swap(prev, cur);
    std::swap(prev_steps, cur_steps);
  }
  if (prev[m] == inf) {
    return inf;
  }
  return prev[m] / std::max(1.0, prev_steps[m]);
}

TEST(dtw, flattened_storage_matches_seed_implementation) {
  ivc::rng rng{42};
  for (const auto& [frames_a, frames_b] :
       {std::pair<int, int>{25, 40}, {40, 25}, {1, 1}, {13, 13}}) {
    std::vector<std::vector<double>> ref_a;
    std::vector<std::vector<double>> ref_b;
    feature_matrix a;
    feature_matrix b;
    for (int i = 0; i < frames_a; ++i) {
      std::vector<double> row(8);
      for (double& v : row) {
        v = rng.normal();
      }
      ref_a.push_back(row);
      a.push_frame(row);
    }
    for (int i = 0; i < frames_b; ++i) {
      std::vector<double> row(8);
      for (double& v : row) {
        v = rng.normal();
      }
      ref_b.push_back(row);
      b.push_frame(row);
    }
    for (const double band : {0.2, 0.6, 1.0}) {
      dtw_config cfg;
      cfg.band_fraction = band;
      const double expected = reference_dtw(ref_a, ref_b, band);
      const double actual = dtw_distance(a, b, cfg);
      if (std::isinf(expected)) {
        EXPECT_TRUE(std::isinf(actual));
      } else {
        EXPECT_DOUBLE_EQ(actual, expected)
            << frames_a << "x" << frames_b << " band " << band;
      }
    }
  }
}

TEST(vad, detects_activity_island) {
  audio::buffer b = audio::silence(3.0, 16'000.0);
  const audio::buffer burst = audio::tone(500.0, 0.5, 16'000.0, 0.5);
  b = audio::mix_at(b, burst, 1.0);
  const vad_result r = detect_activity(b);
  EXPECT_TRUE(r.any_activity);
  EXPECT_NEAR(r.start_s, 1.0, 0.15);
  EXPECT_NEAR(r.end_s, 1.5, 0.15);
  const audio::buffer trimmed = trim_to_activity(b);
  EXPECT_LT(trimmed.duration_s(), 1.0);
}

TEST(vad, silence_reports_no_activity) {
  const audio::buffer b = audio::silence(1.0, 16'000.0);
  EXPECT_FALSE(detect_activity(b).any_activity);
  // Trim becomes a no-op.
  EXPECT_EQ(trim_to_activity(b).size(), b.size());
}

TEST(recognizer, recognizes_own_and_rejects_noise) {
  ivc::rng rng{3};
  recognizer rec;
  for (const synth::command& cmd : synth::command_bank()) {
    rec.add_template(cmd.id, synth::render_command(cmd, synth::male_voice(),
                                                   rng, 16'000.0));
  }
  EXPECT_EQ(rec.num_templates(), synth::command_bank().size());

  // A perturbed rendition of a known command is recognized.
  ivc::rng rng2{4};
  const synth::voice_params v = synth::perturbed_voice(synth::male_voice(), rng2);
  const audio::buffer probe = synth::render_command(
      synth::command_by_id("add_milk"), v, rng2, 16'000.0);
  const recognition_result r = rec.recognize(probe);
  ASSERT_TRUE(r.accepted());
  EXPECT_EQ(*r.command_id, "add_milk");

  // Pure noise is rejected.
  ivc::rng rng3{5};
  const audio::buffer noise = audio::white_noise(2.0, 16'000.0, 0.1, rng3);
  EXPECT_FALSE(rec.recognize(noise).accepted());

  // Near-silence is rejected.
  const audio::buffer tiny{std::vector<double>(16'000, 1e-9), 16'000.0};
  EXPECT_FALSE(rec.recognize(tiny).accepted());
}

TEST(recognizer, distinguishes_commands) {
  ivc::rng rng{6};
  recognizer rec;
  for (const synth::command& cmd : synth::command_bank()) {
    rec.add_template(cmd.id, synth::render_command(cmd, synth::male_voice(),
                                                   rng, 16'000.0));
    rec.add_template(cmd.id, synth::render_command(cmd, synth::female_voice(),
                                                   rng, 16'000.0));
  }
  std::size_t correct = 0;
  std::size_t total = 0;
  ivc::rng rng2{7};
  for (const synth::command& cmd : synth::command_bank()) {
    const synth::voice_params v =
        synth::perturbed_voice(synth::male_voice(), rng2);
    const audio::buffer probe =
        synth::render_command(cmd, v, rng2, 16'000.0);
    const recognition_result r = rec.recognize(probe);
    ++total;
    if (r.accepted() && *r.command_id == cmd.id) {
      ++correct;
    }
  }
  EXPECT_EQ(correct, total);
}

TEST(recognizer, requires_templates) {
  const recognizer rec;
  const audio::buffer b = audio::tone(500.0, 0.5, 16'000.0, 0.5);
  EXPECT_THROW(rec.recognize(b), std::invalid_argument);
}

TEST(intelligibility, clean_copy_scores_high_noise_scores_low) {
  ivc::rng rng{8};
  const audio::buffer speech = synth::render_command(
      synth::command_by_id("take_picture"), synth::male_voice(), rng,
      16'000.0);
  EXPECT_GT(intelligibility_score(speech, speech), 0.95);

  ivc::rng rng2{9};
  const audio::buffer noise = audio::white_noise(
      speech.duration_s(), 16'000.0, 0.1, rng2);
  EXPECT_LT(intelligibility_score(speech, noise), 0.3);
}

TEST(intelligibility, degrades_monotonically_with_noise) {
  ivc::rng rng{10};
  const audio::buffer speech = synth::render_command(
      synth::command_by_id("open_door"), synth::male_voice(), rng, 16'000.0);
  double prev = 1.1;
  for (const double noise_rms : {0.002, 0.02, 0.2}) {
    ivc::rng nr{11};
    audio::buffer noisy = speech;
    const audio::buffer n =
        audio::white_noise(speech.duration_s(), 16'000.0, noise_rms, nr);
    for (std::size_t i = 0; i < noisy.size(); ++i) {
      noisy.samples[i] += n.samples[i];
    }
    const double score = intelligibility_score(speech, noisy);
    EXPECT_LT(score, prev);
    prev = score;
  }
}

TEST(intelligibility, tolerates_delay) {
  ivc::rng rng{12};
  const audio::buffer speech = synth::render_command(
      synth::command_by_id("mute_yourself"), synth::male_voice(), rng,
      16'000.0);
  const audio::buffer delayed = audio::pad(speech, 0.15, 0.0);
  EXPECT_GT(intelligibility_score(speech, delayed), 0.9);
}

}  // namespace
}  // namespace ivc::asr
