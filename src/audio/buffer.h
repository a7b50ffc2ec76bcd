// Mono audio buffer: samples plus sample rate.
//
// A deliberate plain struct (Core Guidelines C.2): the only invariant a
// valid buffer carries is sample_rate_hz > 0, which constructors and the
// validate() helper enforce at API boundaries.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/error.h"

namespace ivc::audio {

struct buffer {
  std::vector<double> samples;
  double sample_rate_hz = 48'000.0;

  buffer() = default;
  buffer(std::vector<double> s, double rate)
      : samples{std::move(s)}, sample_rate_hz{rate} {
    expects(rate > 0.0, "buffer: sample rate must be > 0");
  }

  std::size_t size() const { return samples.size(); }
  bool empty() const { return samples.empty(); }
  double duration_s() const {
    return static_cast<double>(samples.size()) / sample_rate_hz;
  }
  std::span<const double> view() const { return samples; }
};

// Throws unless the buffer has a positive rate and at least one sample.
void validate(const buffer& b, const char* context);

// Buffer of `duration_s` seconds of silence.
buffer silence(double duration_s, double sample_rate_hz);

// Concatenates parts (all must share a sample rate).
buffer concat(std::span<const buffer> parts);

// Sub-range [start_s, start_s + length_s) clamped to the buffer.
buffer slice(const buffer& b, double start_s, double length_s);

// Samples [start, end) of `b`; throws unless start <= end <= b.size().
buffer cut(const buffer& b, std::size_t start, std::size_t end);

}  // namespace ivc::audio
