// Parameterized property sweeps over the invariants the attack physics
// rests on: these hold for *every* carrier / level / geometry in the
// supported envelope, not just the calibrated presets.
#include <cmath>
#include <gtest/gtest.h>

#include "acoustics/air.h"
#include "acoustics/propagation.h"
#include "attack/conditioner.h"
#include "attack/modulator.h"
#include "attack/splitter.h"
#include "audio/generate.h"
#include "audio/metrics.h"
#include "common/constants.h"
#include "common/units.h"
#include "common/rng.h"
#include "dsp/correlate.h"
#include "dsp/fft_plan.h"
#include "dsp/goertzel.h"
#include "dsp/resample.h"
#include "dsp/spectrum.h"
#include "mic/device_profiles.h"
#include "mic/frontend.h"
#include "mic/nonlinearity.h"

namespace ivc {
namespace {

// ---------------------------------------------------------------- FFT
class fft_roundtrip : public ::testing::TestWithParam<std::size_t> {};

TEST_P(fft_roundtrip, inverse_recovers_signal) {
  const std::size_t n = GetParam();
  ivc::rng rng{n};
  std::vector<dsp::cplx> x(n);
  for (auto& v : x) {
    v = dsp::cplx{rng.normal(), rng.normal()};
  }
  const auto plan = dsp::get_fft_plan(n);
  std::vector<dsp::cplx> back = x;
  plan->forward(back);
  plan->inverse(back);
  double err = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    err = std::max(err, std::abs(back[i] - x[i]));
  }
  EXPECT_LT(err, 1e-7);
}

INSTANTIATE_TEST_SUITE_P(sizes, fft_roundtrip,
                         ::testing::Values(2, 16, 128, 1024, 4096));

// ----------------------------------------------------------- resample
struct resample_case {
  double rate_in;
  double rate_out;
};

class resample_tone
    : public ::testing::TestWithParam<resample_case> {};

TEST_P(resample_tone, preserves_in_band_tone) {
  const auto [rate_in, rate_out] = GetParam();
  const double f = 0.09 * std::min(rate_in, rate_out);
  const auto n = static_cast<std::size_t>(rate_in);
  std::vector<double> sig(n);
  for (std::size_t i = 0; i < n; ++i) {
    sig[i] = std::sin(two_pi * f * static_cast<double>(i) / rate_in);
  }
  const auto out = dsp::resample(sig, rate_in, rate_out);
  const auto quarter = out.size() / 4;
  const std::span<const double> mid{out.data() + quarter, out.size() / 2};
  EXPECT_NEAR(dsp::goertzel_amplitude(mid, rate_out, f), 1.0, 0.03)
      << rate_in << " -> " << rate_out;
}

INSTANTIATE_TEST_SUITE_P(
    ratios, resample_tone,
    ::testing::Values(resample_case{16'000.0, 48'000.0},
                      resample_case{48'000.0, 16'000.0},
                      resample_case{44'100.0, 48'000.0},
                      resample_case{16'000.0, 192'000.0},
                      resample_case{192'000.0, 16'000.0},
                      resample_case{8'000.0, 11'025.0}));

// --------------------------------------------- microphone non-linearity
class imd_amplitude : public ::testing::TestWithParam<double> {};

TEST_P(imd_amplitude, difference_tone_scales_with_amplitude_squared) {
  const double amplitude = GetParam();
  const double fs = 192'000.0;
  const std::vector<double> freqs{27'000.0, 33'000.0};
  const audio::buffer in = audio::multi_tone(freqs, 0.3, fs, amplitude);
  const mic::poly_nonlinearity nl{1.0, 0.03, 0.0, 0.0};
  const auto out = mic::apply_nonlinearity(in.samples, nl);
  const double measured = dsp::goertzel_amplitude(out, fs, 6'000.0);
  EXPECT_NEAR(measured, mic::predicted_imd2_amplitude(nl, amplitude),
              0.06 * mic::predicted_imd2_amplitude(nl, amplitude));
}

INSTANTIATE_TEST_SUITE_P(levels, imd_amplitude,
                         ::testing::Values(0.25, 0.5, 1.0, 2.0, 4.0));

// ------------------------------------------------------- demodulation
class carrier_sweep : public ::testing::TestWithParam<double> {};

TEST_P(carrier_sweep, square_law_demodulation_recovers_baseband) {
  const double fc = GetParam();
  const double fs = 192'000.0;
  ivc::rng rng{99};
  // Band-limited random baseband.
  audio::buffer base = audio::white_noise(0.4, 16'000.0, 0.2, rng);
  attack::conditioner_config ccfg;
  ccfg.voice_bandwidth_hz = 3'000.0;
  const audio::buffer conditioned = attack::condition_command(base, ccfg);

  attack::modulator_config mod;
  mod.carrier_hz = fc;
  const audio::buffer s = attack::am_modulate(conditioned, mod);
  const audio::buffer demod =
      attack::square_law_demodulate(s, 3'000.0, 16'000.0);
  const std::vector<double> reference =
      dsp::resample(conditioned.samples, fs, 16'000.0);
  EXPECT_GT(std::abs(dsp::aligned_correlation(demod.samples, reference, 256)),
            0.85)
      << "carrier " << fc;
}

INSTANTIATE_TEST_SUITE_P(carriers, carrier_sweep,
                         ::testing::Values(25'000.0, 30'000.0, 40'000.0,
                                           48'000.0, 60'000.0));

// ------------------------------------------------------- split counts
class chunk_sweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(chunk_sweep, ensemble_reconstruction_holds_for_any_count) {
  const std::size_t chunks = GetParam();
  ivc::rng rng{chunks};
  audio::buffer base = audio::white_noise(0.3, 16'000.0, 0.2, rng);
  attack::conditioner_config ccfg;
  ccfg.output_rate_hz = 96'000.0;
  const audio::buffer conditioned = attack::condition_command(base, ccfg);
  attack::splitter_config cfg;
  cfg.num_chunks = chunks;
  cfg.carrier_hz = 36'000.0;
  const audio::buffer recon =
      attack::sum_of_chunks_baseband(conditioned, cfg);
  EXPECT_GT(dsp::pearson_correlation(recon.samples, conditioned.samples),
            0.95)
      << chunks << " chunks";
}

INSTANTIATE_TEST_SUITE_P(counts, chunk_sweep,
                         ::testing::Values(1, 2, 4, 8, 16, 32, 61));

// --------------------------------------------------------- atmosphere
struct air_case {
  double temperature_c;
  double humidity;
};

class air_conditions : public ::testing::TestWithParam<air_case> {};

TEST_P(air_conditions, absorption_positive_and_increasing) {
  const auto [t, h] = GetParam();
  acoustics::air_model air;
  air.temperature_c = t;
  air.relative_humidity_percent = h;
  double prev = 0.0;
  for (double f = 125.0; f <= 64'000.0; f *= 2.0) {
    const double alpha = air.absorption_db_per_m(f);
    EXPECT_GT(alpha, prev) << "f=" << f << " t=" << t << " h=" << h;
    prev = alpha;
  }
  // Speed of sound stays physical.
  EXPECT_GT(air.speed_of_sound(), 300.0);
  EXPECT_LT(air.speed_of_sound(), 370.0);
}

INSTANTIATE_TEST_SUITE_P(
    conditions, air_conditions,
    ::testing::Values(air_case{0.0, 30.0}, air_case{10.0, 50.0},
                      air_case{20.0, 20.0}, air_case{20.0, 80.0},
                      air_case{35.0, 60.0}));

// ------------------------------------------------- microphone front-end
class mic_linearity : public ::testing::TestWithParam<double> {};

TEST_P(mic_linearity, voice_band_capture_scales_linearly_at_low_level) {
  // For levels well under the overload point, doubling the incident
  // pressure doubles the capture: the non-linear terms stay negligible
  // for genuine speech. (This is why genuine voice carries no trace.)
  const double spl = GetParam();
  mic::mic_params p = mic::phone_profile().mic;
  p.agc = std::nullopt;
  p.self_noise_spl_db = -60.0;
  const mic::microphone microphone{p};

  const double amp = spl_db_to_pa(spl) * std::sqrt(2.0);
  const audio::buffer base = audio::tone(1'000.0, 0.4, 48'000.0, amp);
  audio::buffer doubled = base;
  for (double& v : doubled.samples) {
    v *= 2.0;
  }
  ivc::rng r1{1};
  ivc::rng r2{1};
  const audio::buffer cap1 = microphone.record(base, r1);
  const audio::buffer cap2 = microphone.record(doubled, r2);
  const std::span<const double> m1{cap1.samples.data() + 2'000, 3'000};
  const std::span<const double> m2{cap2.samples.data() + 2'000, 3'000};
  const double a1 = dsp::goertzel_amplitude(m1, 16'000.0, 1'000.0);
  const double a2 = dsp::goertzel_amplitude(m2, 16'000.0, 1'000.0);
  EXPECT_NEAR(a2 / a1, 2.0, 0.03) << "spl=" << spl;
}

INSTANTIATE_TEST_SUITE_P(levels, mic_linearity,
                         ::testing::Values(50.0, 60.0, 70.0, 80.0));

class device_demodulation : public ::testing::TestWithParam<const char*> {};

TEST_P(device_demodulation, every_consumer_profile_demodulates) {
  const std::string name = GetParam();
  mic::device_profile profile = mic::phone_profile();
  for (const auto& p : mic::all_profiles()) {
    if (p.name == name) {
      profile = p;
    }
  }
  profile.mic.agc = std::nullopt;
  profile.mic.self_noise_spl_db = -60.0;

  const double fs = 192'000.0;
  const std::size_t n = 1 << 17;
  std::vector<double> pressure(n);
  const double carrier_peak = spl_db_to_pa(110.0) * std::sqrt(2.0);
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i) / fs;
    const double m = std::sin(two_pi * 500.0 * t);
    pressure[i] =
        carrier_peak * (0.5 + 0.5 * m) * std::cos(two_pi * 40'000.0 * t);
  }
  ivc::rng rng{2};
  const mic::microphone microphone{profile.mic};
  const audio::buffer cap = microphone.record({pressure, fs}, rng);
  const std::span<const double> mid{cap.samples.data() + 2'000,
                                    cap.size() - 4'000};
  const double demod = dsp::goertzel_amplitude(mid, 16'000.0, 500.0);
  EXPECT_GT(demod, 1e-4) << name;
}

INSTANTIATE_TEST_SUITE_P(devices, device_demodulation,
                         ::testing::Values("phone", "smart-speaker",
                                           "laptop"));

// ------------------------------------------------------- propagation
class distance_sweep : public ::testing::TestWithParam<double> {};

TEST_P(distance_sweep, received_level_never_exceeds_spreading_law) {
  const double d = GetParam();
  const acoustics::air_model air;
  const double rx = acoustics::received_spl_db(120.0, 40'000.0, d, air);
  const double spreading_only = 120.0 - 20.0 * std::log10(d);
  EXPECT_LE(rx, spreading_only + 1e-9);
  // Absorption can't push below spreading by more than alpha*d.
  EXPECT_GE(rx, spreading_only - air.absorption_db_per_m(40'000.0) * d - 1e-9);
}

INSTANTIATE_TEST_SUITE_P(distances, distance_sweep,
                         ::testing::Values(1.0, 2.0, 3.5, 5.0, 7.6, 10.0));

}  // namespace
}  // namespace ivc
