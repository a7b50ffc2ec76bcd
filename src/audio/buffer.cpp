#include "audio/buffer.h"

#include <algorithm>
#include <cmath>
#include <string>

namespace ivc::audio {

void validate(const buffer& b, const char* context) {
  expects(b.sample_rate_hz > 0.0,
          std::string{context} + ": buffer sample rate must be > 0");
  expects(!b.samples.empty(),
          std::string{context} + ": buffer must be non-empty");
}

buffer silence(double duration_s, double sample_rate_hz) {
  expects(duration_s >= 0.0, "silence: duration must be >= 0");
  expects(sample_rate_hz > 0.0, "silence: sample rate must be > 0");
  const auto n = static_cast<std::size_t>(std::llround(duration_s * sample_rate_hz));
  return buffer{std::vector<double>(n, 0.0), sample_rate_hz};
}

buffer concat(std::span<const buffer> parts) {
  expects(!parts.empty(), "concat: need at least one part");
  const double rate = parts.front().sample_rate_hz;
  std::size_t total = 0;
  for (const buffer& p : parts) {
    expects(p.sample_rate_hz == rate, "concat: sample-rate mismatch");
    total += p.size();
  }
  std::vector<double> out;
  out.reserve(total);
  for (const buffer& p : parts) {
    out.insert(out.end(), p.samples.begin(), p.samples.end());
  }
  return buffer{std::move(out), rate};
}

buffer slice(const buffer& b, double start_s, double length_s) {
  validate(b, "slice");
  expects(start_s >= 0.0 && length_s >= 0.0,
          "slice: start and length must be >= 0");
  const auto start = std::min(
      b.size(), static_cast<std::size_t>(std::llround(start_s * b.sample_rate_hz)));
  const auto want =
      static_cast<std::size_t>(std::llround(length_s * b.sample_rate_hz));
  const auto len = std::min(want, b.size() - start);
  std::vector<double> out(b.samples.begin() + static_cast<std::ptrdiff_t>(start),
                          b.samples.begin() + static_cast<std::ptrdiff_t>(start + len));
  return buffer{std::move(out), b.sample_rate_hz};
}

buffer cut(const buffer& b, std::size_t start, std::size_t end) {
  expects(start <= end && end <= b.size(), "cut: range out of bounds");
  return buffer{{b.samples.begin() + static_cast<std::ptrdiff_t>(start),
                 b.samples.begin() + static_cast<std::ptrdiff_t>(end)},
                b.sample_rate_hz};
}

}  // namespace ivc::audio
