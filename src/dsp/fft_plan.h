// Fast Fourier transforms: planned radix-2 transforms with precomputed
// twiddle/bit-reversal tables per power-of-two size.
//
// A `fft_plan` computes its tables once (direct trig per root, no
// recurrence drift), is immutable and therefore shareable across
// threads, and offers a true real-to-complex `rfft`/`irfft` that runs a
// half-size complex transform — halving the butterfly work for the
// all-real signals that dominate this codebase. Callers pad to
// next_pow2() of their length.
//
// Callers obtain shared plans from the process-wide cache with
// `get_fft_plan(n)` and pass their own workspaces, so the per-transform
// hot path performs no allocation:
//
//   const auto plan = get_fft_plan(1024);
//   std::vector<cplx> bins(plan->num_real_bins());
//   plan->rfft(samples, bins);            // 513 nonnegative-freq bins
//
// All transforms follow the library convention: unnormalized forward,
// (1/N)-normalized inverse.
#pragma once

#include <complex>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

namespace ivc::dsp {

using cplx = std::complex<double>;

// Smallest power of two >= n (n == 0 maps to 1).
std::size_t next_pow2(std::size_t n);

// True when n is a nonzero power of two.
bool is_pow2(std::size_t n);

// Frequency, in Hz, of FFT bin `index` for a transform of length n at
// `sample_rate_hz`; bins above n/2 map to negative frequencies.
double bin_frequency_hz(std::size_t index, std::size_t n, double sample_rate_hz);

class fft_plan {
 public:
  // Builds tables for a power-of-two transform size (throws otherwise).
  // Prefer get_fft_plan(), which shares plans across the process.
  explicit fft_plan(std::size_t n);

  std::size_t size() const { return n_; }
  // Bins produced by rfft / consumed by irfft: n/2 + 1.
  std::size_t num_real_bins() const { return n_ / 2 + 1; }
  // Scratch slots irfft needs: n/2.
  std::size_t workspace_size() const { return n_ / 2; }

  // In-place complex transforms over exactly size() elements.
  void forward(std::span<cplx> data) const;
  void inverse(std::span<cplx> data) const;

  // Real-input forward transform: packs sample pairs into a half-size
  // complex FFT and unpacks in place. `in` holds size() samples; `out`
  // receives the num_real_bins() nonnegative-frequency bins (bins above
  // n/2 follow by conjugate symmetry). No allocation, no workspace.
  void rfft(std::span<const double> in, std::span<cplx> out) const;

  // Inverse of rfft: consumes num_real_bins() bins of a conjugate-
  // symmetric spectrum, writes size() real samples (1/N-normalized).
  // `work` provides workspace_size() scratch slots.
  void irfft(std::span<const cplx> in, std::span<double> out,
             std::span<cplx> work) const;

 private:
  void transform(std::span<cplx> data, bool inverse,
                 const std::vector<std::uint32_t>& bitrev,
                 const std::vector<cplx>& twiddle) const;

  std::size_t n_;
  // Full-size tables for forward()/inverse().
  std::vector<std::uint32_t> bitrev_;
  std::vector<cplx> twiddle_;  // stage-packed roots, n - 1 entries
  // Half-size tables driving the packed real transform, plus the
  // unpack roots exp(-i 2π k / n) for k = 0 .. n/4.
  std::vector<std::uint32_t> half_bitrev_;
  std::vector<cplx> half_twiddle_;
  std::vector<cplx> unpack_;
};

// Process-wide plan cache: returns the shared plan for power-of-two
// size n, building it on first use. Thread-safe; the returned plan is
// immutable and may be held for the life of the process.
std::shared_ptr<const fft_plan> get_fft_plan(std::size_t n);

}  // namespace ivc::dsp
