// Elementwise and structural buffer operations.
#pragma once

#include <span>

#include "audio/buffer.h"

namespace ivc::audio {

// Scales by a linear gain.
buffer gain(const buffer& b, double linear_gain);

// Scales so the absolute peak equals `target_peak` (no-op on silence).
buffer normalize_peak(const buffer& b, double target_peak = 1.0);

// Scales so the RMS equals `target_rms` (no-op on silence).
buffer normalize_rms(const buffer& b, double target_rms);

// Sample-wise sum; the shorter input is zero-padded. Rates must match.
buffer mix(const buffer& a, const buffer& b);

// Adds `src` into `dst` in place over dst's FULL length, repeating src
// cyclically when it is shorter — a noise bed one rounding-sample short
// must not leave a noiseless tail. Rates must match; src must be
// non-empty.
void mix_into(buffer& dst, const buffer& src);

// Sum of b into a starting at `offset_s` seconds.
buffer mix_at(const buffer& a, const buffer& b, double offset_s);

// Removes the mean.
buffer remove_dc(const buffer& b);

// Linear fade-in/out over the given durations.
buffer fade(const buffer& b, double fade_in_s, double fade_out_s);

// Pads with silence before/after.
buffer pad(const buffer& b, double before_s, double after_s);

}  // namespace ivc::audio
