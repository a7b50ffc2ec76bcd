// Biquad sections and Butterworth IIR design.
//
// Butterworth low/high-pass filters are designed from the analog prototype
// via pole pairing and the bilinear transform with frequency pre-warping,
// yielding a cascade of second-order sections (plus one first-order section
// for odd orders). Cascades are the numerically robust way to realize
// higher-order IIR filters (direct-form high-order polynomials explode).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace ivc::dsp {

// One second-order (or degenerate first-order) IIR section in transposed
// direct form II. Coefficients are normalized so a0 == 1.
struct biquad {
  double b0 = 1.0, b1 = 0.0, b2 = 0.0;
  double a1 = 0.0, a2 = 0.0;
};

// A cascade of biquad sections applied in sequence.
class iir_cascade {
 public:
  iir_cascade() = default;
  explicit iir_cascade(std::vector<biquad> sections);

  // Filters the whole signal (stateless convenience; state starts at zero).
  std::vector<double> process(std::span<const double> signal) const;

  // Zero-phase (forward-backward) filtering: no group delay, squared
  // magnitude response. For offline paths where a time-aligned band
  // component must be subtracted from the original signal.
  std::vector<double> process_zero_phase(std::span<const double> signal) const;

  // Magnitude response at `freq_hz` for the given sample rate.
  double response_at(double freq_hz, double sample_rate_hz) const;

  // True when every pole lies strictly inside the unit circle.
  bool is_stable() const;

  const std::vector<biquad>& sections() const { return sections_; }

 private:
  std::vector<biquad> sections_;
};

// Butterworth designs. `order` >= 1, cutoff in (0, fs/2).
iir_cascade butterworth_lowpass(std::size_t order, double cutoff_hz,
                                double sample_rate_hz);
iir_cascade butterworth_highpass(std::size_t order, double cutoff_hz,
                                 double sample_rate_hz);
// Band-pass realized as high-pass(low_hz) cascaded with low-pass(high_hz);
// each leg has the given order.
iir_cascade butterworth_bandpass(std::size_t order, double low_hz,
                                 double high_hz, double sample_rate_hz);

}  // namespace ivc::dsp
