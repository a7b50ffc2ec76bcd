#include "dsp/hilbert.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "dsp/biquad.h"
#include "dsp/fft_plan.h"

namespace ivc::dsp {

std::vector<std::complex<double>> analytic_signal(
    std::span<const double> input) {
  expects(!input.empty(), "analytic_signal: input must be non-empty");
  const std::size_t len = input.size();
  const std::size_t n = next_pow2(len);
  const auto plan = get_fft_plan(n);
  // The forward transform only needs the nonnegative-frequency half
  // (the rest is zeroed by the analytic filter anyway), so run the
  // packed real transform and inverse in place in one spectrum buffer.
  std::vector<cplx> spec(n, cplx{0.0, 0.0});
  std::vector<double> padded(n, 0.0);
  for (std::size_t i = 0; i < len; ++i) {
    padded[i] = input[i];
  }
  plan->rfft(padded, spec);

  // Zero negative frequencies, double positive ones, keep DC and Nyquist.
  for (std::size_t i = 1; i < n / 2; ++i) {
    spec[i] *= 2.0;
  }
  plan->inverse(spec);
  spec.resize(len);
  return spec;
}

std::vector<double> envelope(std::span<const double> input) {
  expects(!input.empty(), "envelope: input must be non-empty");
  const std::size_t len = input.size();
  const std::size_t n = next_pow2(len);
  const auto plan = get_fft_plan(n);
  std::vector<double> padded(n, 0.0);
  std::copy(input.begin(), input.end(), padded.begin());
  std::vector<cplx> spec(plan->num_real_bins());
  plan->rfft(padded, spec);

  // The quadrature h is the imaginary part of the analytic signal: -j·X
  // on the interior bins, nothing at DC or Nyquist. Its spectrum stays
  // conjugate-symmetric, so one half-size real inverse yields it.
  spec.front() = cplx{0.0, 0.0};
  spec.back() = cplx{0.0, 0.0};
  for (std::size_t i = 1; i < n / 2; ++i) {
    spec[i] = cplx{spec[i].imag(), -spec[i].real()};
  }
  std::vector<cplx> work(plan->workspace_size());
  plan->irfft(spec, padded, work);

  std::vector<double> env(len);
  for (std::size_t i = 0; i < len; ++i) {
    env[i] = std::sqrt(input[i] * input[i] + padded[i] * padded[i]);
  }
  return env;
}

std::vector<double> smoothed_envelope(std::span<const double> input,
                                      double sample_rate_hz,
                                      double smooth_hz) {
  expects(sample_rate_hz > 0.0 && smooth_hz > 0.0 &&
              smooth_hz < sample_rate_hz / 2.0,
          "smoothed_envelope: need 0 < smooth_hz < fs/2");
  const std::vector<double> env = envelope(input);
  const iir_cascade lp = butterworth_lowpass(2, smooth_hz, sample_rate_hz);
  return lp.process(env);
}

}  // namespace ivc::dsp
