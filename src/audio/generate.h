// Deterministic and stochastic test-signal generators.
#pragma once

#include <span>
#include <vector>

#include "audio/buffer.h"
#include "common/rng.h"

namespace ivc::audio {

// Pure sine: amplitude · sin(2π f t + phase).
buffer tone(double freq_hz, double duration_s, double sample_rate_hz,
            double amplitude = 1.0, double phase_rad = 0.0);

// Sum of equal-amplitude sines at the given frequencies; total peak is not
// normalized (callers scale as needed).
buffer multi_tone(std::span<const double> freqs_hz, double duration_s,
                  double sample_rate_hz, double amplitude_each = 1.0);

// Gaussian white noise with the given RMS.
buffer white_noise(double duration_s, double sample_rate_hz, double rms,
                   ivc::rng& rng);

// Pink (1/f) noise with the given RMS, via the Voss–McCartney algorithm.
buffer pink_noise(double duration_s, double sample_rate_hz, double rms,
                  ivc::rng& rng);

// Noise shaped like the long-term average speech spectrum (flat up to
// 500 Hz, −6 dB/octave above; a standard approximation), given RMS.
buffer speech_shaped_noise(double duration_s, double sample_rate_hz,
                           double rms, ivc::rng& rng);

}  // namespace ivc::audio
