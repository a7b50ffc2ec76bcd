#include "dsp/fir.h"

#include <algorithm>
#include <cmath>

#include "common/constants.h"
#include "common/error.h"
#include "dsp/fft_plan.h"

namespace ivc::dsp {
namespace {

// Direct convolution is faster than FFT below this signal*taps product.
constexpr std::size_t direct_conv_threshold = 1u << 14;

void check_design_args(std::size_t num_taps, double sample_rate_hz) {
  expects(num_taps >= 3, "fir design: need at least 3 taps");
  expects(num_taps % 2 == 1, "fir design: tap count must be odd");
  expects(sample_rate_hz > 0.0, "fir design: sample rate must be > 0");
}

// Ideal sinc low-pass tap k (centered), for normalized cutoff w in (0, pi).
double sinc_tap(double w, std::ptrdiff_t k) {
  if (k == 0) {
    return w / pi;
  }
  const double kk = static_cast<double>(k);
  return std::sin(w * kk) / (pi * kk);
}

std::vector<double> windowed_sinc(std::size_t num_taps, double cutoff_hz,
                                  double sample_rate_hz, window_kind window,
                                  double kaiser_beta) {
  const double w = two_pi * cutoff_hz / sample_rate_hz;
  const auto half = static_cast<std::ptrdiff_t>(num_taps / 2);
  const std::vector<double> win = make_window(window, num_taps, kaiser_beta);
  std::vector<double> taps(num_taps);
  for (std::size_t i = 0; i < num_taps; ++i) {
    const std::ptrdiff_t k = static_cast<std::ptrdiff_t>(i) - half;
    taps[i] = sinc_tap(w, k) * win[i];
  }
  return taps;
}

std::vector<double> convolve_fft(std::span<const double> signal,
                                 std::span<const double> taps) {
  // Real × real convolution through the planned half-spectrum path.
  const std::size_t out_len = signal.size() + taps.size() - 1;
  const std::size_t n = next_pow2(out_len);
  const auto plan = get_fft_plan(n);
  const std::size_t bins = plan->num_real_bins();
  std::vector<double> pa(n, 0.0);
  std::vector<double> pb(n, 0.0);
  for (std::size_t i = 0; i < signal.size(); ++i) {
    pa[i] = signal[i];
  }
  for (std::size_t i = 0; i < taps.size(); ++i) {
    pb[i] = taps[i];
  }
  std::vector<cplx> fa(bins);
  std::vector<cplx> fb(bins);
  plan->rfft(pa, fa);
  plan->rfft(pb, fb);
  for (std::size_t i = 0; i < bins; ++i) {
    fa[i] *= fb[i];
  }
  std::vector<cplx> work(plan->workspace_size());
  plan->irfft(fa, pa, work);
  pa.resize(out_len);
  return pa;
}

std::vector<double> convolve_direct(std::span<const double> signal,
                                    std::span<const double> taps) {
  std::vector<double> out(signal.size() + taps.size() - 1, 0.0);
  for (std::size_t i = 0; i < signal.size(); ++i) {
    const double s = signal[i];
    for (std::size_t j = 0; j < taps.size(); ++j) {
      out[i + j] += s * taps[j];
    }
  }
  return out;
}

}  // namespace

std::vector<double> design_fir_lowpass(std::size_t num_taps, double cutoff_hz,
                                       double sample_rate_hz,
                                       window_kind window, double kaiser_beta) {
  check_design_args(num_taps, sample_rate_hz);
  expects(cutoff_hz > 0.0 && cutoff_hz < sample_rate_hz / 2.0,
          "design_fir_lowpass: cutoff must be in (0, fs/2)");
  return windowed_sinc(num_taps, cutoff_hz, sample_rate_hz, window, kaiser_beta);
}

std::vector<double> convolve(std::span<const double> signal,
                             std::span<const double> taps) {
  expects(!signal.empty() && !taps.empty(),
          "convolve: signal and taps must be non-empty");
  if (signal.size() * taps.size() <= direct_conv_threshold ||
      taps.size() <= 32) {
    return convolve_direct(signal, taps);
  }
  return convolve_fft(signal, taps);
}

std::vector<double> filter_zero_delay(std::span<const double> signal,
                                      std::span<const double> taps) {
  expects(taps.size() % 2 == 1,
          "filter_zero_delay: taps must have odd length");
  const std::vector<double> full = convolve(signal, taps);
  const std::size_t delay = taps.size() / 2;
  std::vector<double> out(signal.size());
  std::copy_n(full.begin() + static_cast<std::ptrdiff_t>(delay), signal.size(),
              out.begin());
  return out;
}

double fir_response_at(std::span<const double> taps, double freq_hz,
                       double sample_rate_hz) {
  expects(sample_rate_hz > 0.0, "fir_response_at: sample rate must be > 0");
  const double w = two_pi * freq_hz / sample_rate_hz;
  cplx acc{0.0, 0.0};
  for (std::size_t k = 0; k < taps.size(); ++k) {
    const double phase = -w * static_cast<double>(k);
    acc += taps[k] * cplx{std::cos(phase), std::sin(phase)};
  }
  return std::abs(acc);
}

std::vector<double> apply_magnitude_response(
    std::span<const double> signal, double sample_rate_hz,
    const std::function<double(double)>& gain) {
  expects(!signal.empty(), "apply_magnitude_response: signal must be non-empty");
  expects(sample_rate_hz > 0.0,
          "apply_magnitude_response: sample rate must be > 0");
  // A real magnitude response applied symmetrically keeps the spectrum
  // conjugate-symmetric, so the half-spectrum round trip suffices. The
  // scratch is per-thread: large callers (ambient noise at the wideband
  // rate, enclosure responses) would otherwise fault in ~10 MB of fresh
  // pages per call.
  const std::size_t n = next_pow2(signal.size());
  const auto plan = get_fft_plan(n);
  thread_local std::vector<double> padded;
  thread_local std::vector<cplx> spec;
  thread_local std::vector<cplx> work;
  padded.assign(n, 0.0);
  for (std::size_t i = 0; i < signal.size(); ++i) {
    padded[i] = signal[i];
  }
  spec.resize(plan->num_real_bins());
  plan->rfft(padded, spec);
  for (std::size_t i = 0; i < spec.size(); ++i) {
    const double f = bin_frequency_hz(i, n, sample_rate_hz);
    spec[i] *= gain(f);
  }
  work.resize(plan->workspace_size());
  plan->irfft(spec, padded, work);
  return {padded.begin(), padded.begin() + static_cast<std::ptrdiff_t>(
                                               signal.size())};
}

}  // namespace ivc::dsp
