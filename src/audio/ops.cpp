#include "audio/ops.h"

#include <algorithm>
#include <cmath>

namespace ivc::audio {

buffer gain(const buffer& b, double linear_gain) {
  validate(b, "gain");
  buffer out = b;
  for (double& s : out.samples) {
    s *= linear_gain;
  }
  return out;
}

buffer normalize_peak(const buffer& b, double target_peak) {
  validate(b, "normalize_peak");
  expects(target_peak > 0.0, "normalize_peak: target must be > 0");
  double peak = 0.0;
  for (const double s : b.samples) {
    peak = std::max(peak, std::abs(s));
  }
  if (peak <= 1e-300) {
    return b;
  }
  return gain(b, target_peak / peak);
}

buffer normalize_rms(const buffer& b, double target_rms) {
  validate(b, "normalize_rms");
  expects(target_rms > 0.0, "normalize_rms: target must be > 0");
  double acc = 0.0;
  for (const double s : b.samples) {
    acc += s * s;
  }
  const double rms = std::sqrt(acc / static_cast<double>(b.size()));
  if (rms <= 1e-300) {
    return b;
  }
  return gain(b, target_rms / rms);
}

buffer mix(const buffer& a, const buffer& b) {
  validate(a, "mix");
  validate(b, "mix");
  expects(a.sample_rate_hz == b.sample_rate_hz, "mix: sample-rate mismatch");
  buffer out = a.size() >= b.size() ? a : b;
  const buffer& shorter = a.size() >= b.size() ? b : a;
  for (std::size_t i = 0; i < shorter.size(); ++i) {
    out.samples[i] += shorter.samples[i];
  }
  return out;
}

void mix_into(buffer& dst, const buffer& src) {
  validate(dst, "mix_into");
  validate(src, "mix_into");
  expects(dst.sample_rate_hz == src.sample_rate_hz,
          "mix_into: sample-rate mismatch");
  std::size_t j = 0;
  for (std::size_t i = 0; i < dst.size(); ++i) {
    dst.samples[i] += src.samples[j];
    if (++j == src.size()) {
      j = 0;
    }
  }
}

buffer mix_at(const buffer& a, const buffer& b, double offset_s) {
  validate(a, "mix_at");
  validate(b, "mix_at");
  expects(a.sample_rate_hz == b.sample_rate_hz, "mix_at: sample-rate mismatch");
  expects(offset_s >= 0.0, "mix_at: offset must be >= 0");
  const auto offset =
      static_cast<std::size_t>(std::llround(offset_s * a.sample_rate_hz));
  buffer out = a;
  if (offset + b.size() > out.size()) {
    out.samples.resize(offset + b.size(), 0.0);
  }
  for (std::size_t i = 0; i < b.size(); ++i) {
    out.samples[offset + i] += b.samples[i];
  }
  return out;
}

buffer remove_dc(const buffer& b) {
  validate(b, "remove_dc");
  double mean = 0.0;
  for (const double s : b.samples) {
    mean += s;
  }
  mean /= static_cast<double>(b.size());
  buffer out = b;
  for (double& s : out.samples) {
    s -= mean;
  }
  return out;
}

buffer fade(const buffer& b, double fade_in_s, double fade_out_s) {
  validate(b, "fade");
  expects(fade_in_s >= 0.0 && fade_out_s >= 0.0,
          "fade: durations must be >= 0");
  buffer out = b;
  const auto n_in = std::min(
      out.size(),
      static_cast<std::size_t>(std::llround(fade_in_s * b.sample_rate_hz)));
  const auto n_out = std::min(
      out.size(),
      static_cast<std::size_t>(std::llround(fade_out_s * b.sample_rate_hz)));
  for (std::size_t i = 0; i < n_in; ++i) {
    out.samples[i] *= static_cast<double>(i) / static_cast<double>(n_in);
  }
  for (std::size_t i = 0; i < n_out; ++i) {
    out.samples[out.size() - 1 - i] *=
        static_cast<double>(i) / static_cast<double>(n_out);
  }
  return out;
}

buffer pad(const buffer& b, double before_s, double after_s) {
  validate(b, "pad");
  expects(before_s >= 0.0 && after_s >= 0.0, "pad: durations must be >= 0");
  const auto n_before =
      static_cast<std::size_t>(std::llround(before_s * b.sample_rate_hz));
  const auto n_after =
      static_cast<std::size_t>(std::llround(after_s * b.sample_rate_hz));
  std::vector<double> out(n_before + b.size() + n_after, 0.0);
  std::copy(b.samples.begin(), b.samples.end(),
            out.begin() + static_cast<std::ptrdiff_t>(n_before));
  return buffer{std::move(out), b.sample_rate_hz};
}

}  // namespace ivc::audio
