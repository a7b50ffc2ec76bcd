#include "dsp/fft_plan.h"

#include <cmath>
#include <unordered_map>
#include <utility>

#include "common/constants.h"
#include "common/error.h"
#include "common/sync.h"

namespace ivc::dsp {
namespace {

std::vector<std::uint32_t> make_bitrev(std::size_t n) {
  std::vector<std::uint32_t> table(n, 0);
  std::size_t j = 0;
  for (std::size_t i = 1; i < n; ++i) {
    std::size_t bit = n >> 1;
    while (j & bit) {
      j ^= bit;
      bit >>= 1;
    }
    j |= bit;
    table[i] = static_cast<std::uint32_t>(j);
  }
  return table;
}

// Stage-packed forward roots: for each stage of length `len`, the half
// roots exp(-i 2π k / len), k = 0 .. len/2 - 1, computed by direct trig
// per entry (no recurrence, no accumulated rounding).
std::vector<cplx> make_twiddles(std::size_t n) {
  std::vector<cplx> table;
  if (n >= 2) {
    table.reserve(n - 1);
  }
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const std::size_t half = len >> 1;
    for (std::size_t k = 0; k < half; ++k) {
      const double angle =
          -two_pi * static_cast<double>(k) / static_cast<double>(len);
      table.emplace_back(std::cos(angle), std::sin(angle));
    }
  }
  return table;
}

}  // namespace

std::size_t next_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) {
    p <<= 1;
  }
  return p;
}

bool is_pow2(std::size_t n) { return n != 0 && (n & (n - 1)) == 0; }

double bin_frequency_hz(std::size_t index, std::size_t n,
                        double sample_rate_hz) {
  expects(n > 0 && index < n, "bin_frequency_hz: index out of range");
  const auto half = n / 2;
  const double step = sample_rate_hz / static_cast<double>(n);
  if (index <= half) {
    return static_cast<double>(index) * step;
  }
  return (static_cast<double>(index) - static_cast<double>(n)) * step;
}

fft_plan::fft_plan(std::size_t n) : n_{n} {
  expects(is_pow2(n), "fft_plan: size must be a power of two");
  bitrev_ = make_bitrev(n_);
  twiddle_ = make_twiddles(n_);
  if (n_ >= 2) {
    const std::size_t m = n_ / 2;
    half_bitrev_ = make_bitrev(m);
    half_twiddle_ = make_twiddles(m);
    unpack_.resize(m / 2 + 1);
    for (std::size_t k = 0; k < unpack_.size(); ++k) {
      const double angle =
          -two_pi * static_cast<double>(k) / static_cast<double>(n_);
      unpack_[k] = cplx{std::cos(angle), std::sin(angle)};
    }
  }
}

void fft_plan::transform(std::span<cplx> data, bool inverse,
                         const std::vector<std::uint32_t>& bitrev,
                         const std::vector<cplx>& twiddle) const {
  const std::size_t n = bitrev.size();
  for (std::size_t i = 1; i < n; ++i) {
    const std::size_t j = bitrev[i];
    if (i < j) {
      std::swap(data[i], data[j]);
    }
  }
  std::size_t stage = 0;
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const std::size_t half = len >> 1;
    const cplx* roots = twiddle.data() + stage;
    for (std::size_t i = 0; i < n; i += len) {
      for (std::size_t k = 0; k < half; ++k) {
        const cplx w = inverse ? std::conj(roots[k]) : roots[k];
        const cplx u = data[i + k];
        const cplx v = data[i + k + half] * w;
        data[i + k] = u + v;
        data[i + k + half] = u - v;
      }
    }
    stage += half;
  }
  if (inverse) {
    const double scale = 1.0 / static_cast<double>(n);
    for (std::size_t i = 0; i < n; ++i) {
      data[i] *= scale;
    }
  }
}

void fft_plan::forward(std::span<cplx> data) const {
  expects(data.size() == n_, "fft_plan::forward: span size must equal plan size");
  transform(data, /*inverse=*/false, bitrev_, twiddle_);
}

void fft_plan::inverse(std::span<cplx> data) const {
  expects(data.size() == n_, "fft_plan::inverse: span size must equal plan size");
  transform(data, /*inverse=*/true, bitrev_, twiddle_);
}

void fft_plan::rfft(std::span<const double> in, std::span<cplx> out) const {
  expects(in.size() == n_, "fft_plan::rfft: input size must equal plan size");
  expects(out.size() >= num_real_bins(),
          "fft_plan::rfft: output needs n/2 + 1 bins");
  if (n_ == 1) {
    out[0] = cplx{in[0], 0.0};
    return;
  }
  const std::size_t m = n_ / 2;
  // Pack adjacent sample pairs into a half-size complex signal and
  // transform it in place inside the output span.
  for (std::size_t k = 0; k < m; ++k) {
    out[k] = cplx{in[2 * k], in[2 * k + 1]};
  }
  transform(out.first(m), /*inverse=*/false, half_bitrev_, half_twiddle_);

  // Unpack: with Z = FFT_m(even + i·odd), the even/odd sub-spectra are
  //   E[k] = (Z[k] + conj(Z[m-k]))/2,  O[k] = -i (Z[k] - conj(Z[m-k]))/2,
  // and X[k] = E[k] + w^k O[k] with w = exp(-i 2π / n). The k and m-k
  // bins are computed pairwise so the unpack runs in place:
  //   X[k] = E + t,  X[m-k] = conj(E - t),  t = w^k O[k].
  const cplx z0 = out[0];
  out[0] = cplx{z0.real() + z0.imag(), 0.0};
  out[m] = cplx{z0.real() - z0.imag(), 0.0};
  for (std::size_t k = 1; 2 * k <= m; ++k) {
    const cplx zk = out[k];
    const cplx zmk = std::conj(out[m - k]);
    const cplx even = 0.5 * (zk + zmk);
    const cplx odd = cplx{0.0, -0.5} * (zk - zmk);
    const cplx t = unpack_[k] * odd;
    out[k] = even + t;
    out[m - k] = std::conj(even - t);
  }
}

void fft_plan::irfft(std::span<const cplx> in, std::span<double> out,
                     std::span<cplx> work) const {
  expects(in.size() >= num_real_bins(),
          "fft_plan::irfft: spectrum needs n/2 + 1 bins");
  expects(out.size() == n_, "fft_plan::irfft: output size must equal plan size");
  expects(work.size() >= workspace_size(),
          "fft_plan::irfft: workspace needs n/2 slots");
  if (n_ == 1) {
    out[0] = in[0].real();
    return;
  }
  const std::size_t m = n_ / 2;
  // Invert the unpack algebra to recover Z[k], then a half-size inverse
  // transform recovers the packed sample pairs.
  for (std::size_t k = 0; k < m; ++k) {
    const cplx xk = in[k];
    const cplx xmk = std::conj(in[m - k]);
    const cplx even = 0.5 * (xk + xmk);
    // w^{-k}: conj(unpack) below n/4, mirrored above.
    const cplx winv =
        2 * k <= m ? std::conj(unpack_[k]) : -unpack_[m - k];
    const cplx odd = winv * (0.5 * (xk - xmk));
    work[k] = even + cplx{0.0, 1.0} * odd;
  }
  transform(work.first(m), /*inverse=*/true, half_bitrev_, half_twiddle_);
  for (std::size_t k = 0; k < m; ++k) {
    out[2 * k] = work[k].real();
    out[2 * k + 1] = work[k].imag();
  }
}

std::shared_ptr<const fft_plan> get_fft_plan(std::size_t n) {
  expects(is_pow2(n), "get_fft_plan: size must be a power of two");
  static ts_mutex mutex;
  // Key-lookup only — never iterated, so the unordered layout cannot
  // leak into any deterministic stream.
  static std::unordered_map<std::size_t, std::shared_ptr<const fft_plan>> cache;
  const ts_lock lock{mutex};
  std::shared_ptr<const fft_plan>& slot = cache[n];
  if (!slot) {
    slot = std::make_shared<const fft_plan>(n);
  }
  return slot;
}

}  // namespace ivc::dsp
