// Signal measurements: RMS, peak, skewness.
#pragma once

#include <span>

#include "audio/buffer.h"

namespace ivc::audio {

double rms(std::span<const double> x);
double peak(std::span<const double> x);

// Third standardized moment of the amplitude distribution. The defense
// uses this: a +v² component skews an otherwise symmetric voice waveform.
double amplitude_skewness(std::span<const double> x);

}  // namespace ivc::audio
