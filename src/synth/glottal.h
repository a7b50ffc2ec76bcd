// Glottal excitation source for the formant synthesizer.
//
// Rosenberg-model pulse train with per-period jitter (pitch perturbation)
// and shimmer (amplitude perturbation); both are what make synthetic
// voices read as "voiced" to MFCC front-ends and give the defense's
// genuine corpus natural low-frequency variability.
#pragma once

#include <span>
#include <vector>

#include "common/rng.h"

namespace ivc::synth {

struct glottal_config {
  // Fraction of each period spent opening (Rosenberg t_p).
  double open_quotient = 0.4;
  // Fraction spent closing (Rosenberg t_n).
  double close_quotient = 0.16;
  // Standard deviation of per-period pitch perturbation, fraction of f0.
  double jitter = 0.008;
  // Standard deviation of per-period amplitude perturbation, fraction.
  double shimmer = 0.04;
};

// Renders a glottal pulse train following the instantaneous pitch contour
// `f0_hz` (one value per output sample; zero or negative entries yield
// silence). Output length matches f0_hz.
std::vector<double> glottal_source(std::span<const double> f0_hz,
                                   double sample_rate_hz,
                                   const glottal_config& config, ivc::rng& rng);

}  // namespace ivc::synth
