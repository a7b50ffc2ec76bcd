#include "audio/generate.h"

#include <array>
#include <cmath>

#include "common/constants.h"
#include "common/error.h"
#include "dsp/fir.h"

namespace ivc::audio {
namespace {

std::size_t sample_count(double duration_s, double sample_rate_hz) {
  expects(duration_s > 0.0, "generator: duration must be > 0");
  expects(sample_rate_hz > 0.0, "generator: sample rate must be > 0");
  return static_cast<std::size_t>(std::llround(duration_s * sample_rate_hz));
}

double rms_of(std::span<const double> x) {
  double acc = 0.0;
  for (const double v : x) {
    acc += v * v;
  }
  return std::sqrt(acc / static_cast<double>(x.size()));
}

void scale_to_rms(std::vector<double>& x, double target_rms) {
  const double current = rms_of(x);
  if (current <= 1e-300) {
    return;
  }
  const double g = target_rms / current;
  for (double& v : x) {
    v *= g;
  }
}

}  // namespace

buffer tone(double freq_hz, double duration_s, double sample_rate_hz,
            double amplitude, double phase_rad) {
  expects(freq_hz >= 0.0 && freq_hz <= sample_rate_hz / 2.0,
          "tone: frequency must be in [0, fs/2]");
  const std::size_t n = sample_count(duration_s, sample_rate_hz);
  std::vector<double> out(n);
  const double w = two_pi * freq_hz / sample_rate_hz;
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = amplitude * std::sin(w * static_cast<double>(i) + phase_rad);
  }
  return buffer{std::move(out), sample_rate_hz};
}

buffer multi_tone(std::span<const double> freqs_hz, double duration_s,
                  double sample_rate_hz, double amplitude_each) {
  expects(!freqs_hz.empty(), "multi_tone: need at least one frequency");
  const std::size_t n = sample_count(duration_s, sample_rate_hz);
  std::vector<double> out(n, 0.0);
  for (const double f : freqs_hz) {
    expects(f >= 0.0 && f <= sample_rate_hz / 2.0,
            "multi_tone: frequency must be in [0, fs/2]");
    const double w = two_pi * f / sample_rate_hz;
    for (std::size_t i = 0; i < n; ++i) {
      out[i] += amplitude_each * std::sin(w * static_cast<double>(i));
    }
  }
  return buffer{std::move(out), sample_rate_hz};
}

buffer white_noise(double duration_s, double sample_rate_hz, double rms,
                   ivc::rng& rng) {
  expects(rms >= 0.0, "white_noise: rms must be >= 0");
  const std::size_t n = sample_count(duration_s, sample_rate_hz);
  std::vector<double> out(n);
  for (double& v : out) {
    v = rng.normal(0.0, 1.0);
  }
  scale_to_rms(out, rms);
  return buffer{std::move(out), sample_rate_hz};
}

buffer pink_noise(double duration_s, double sample_rate_hz, double rms,
                  ivc::rng& rng) {
  expects(rms >= 0.0, "pink_noise: rms must be >= 0");
  const std::size_t n = sample_count(duration_s, sample_rate_hz);
  // Voss–McCartney: sum of progressively slower random rows.
  constexpr std::size_t rows = 16;
  std::array<double, rows> row{};
  for (double& r : row) {
    r = rng.normal(0.0, 1.0);
  }
  std::vector<double> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    // Update the row selected by the number of trailing zeros of i.
    std::size_t idx = 0;
    std::size_t v = i;
    while (idx + 1 < rows && (v & 1u) == 0u && v != 0u) {
      v >>= 1u;
      ++idx;
    }
    row[idx] = rng.normal(0.0, 1.0);
    double acc = 0.0;
    for (const double r : row) {
      acc += r;
    }
    out[i] = acc;
  }
  scale_to_rms(out, rms);
  return buffer{std::move(out), sample_rate_hz};
}

buffer speech_shaped_noise(double duration_s, double sample_rate_hz,
                           double rms, ivc::rng& rng) {
  buffer white = white_noise(duration_s, sample_rate_hz, 1.0, rng);
  // Long-term speech spectrum approximation: flat below 500 Hz, then
  // -6 dB/octave (amplitude ~ 500/f).
  std::vector<double> shaped = ivc::dsp::apply_magnitude_response(
      white.samples, sample_rate_hz, [](double f) {
        if (f <= 500.0) {
          return 1.0;
        }
        return 500.0 / f;
      });
  scale_to_rms(shaped, rms);
  return buffer{std::move(shaped), sample_rate_hz};
}

}  // namespace ivc::audio
