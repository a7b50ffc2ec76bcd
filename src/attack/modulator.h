// Ultrasound modulation (the attack algorithm's "Ultrasound Modulation"
// and "Carrier Wave Addition" steps).
//
// Monolithic AM, one speaker:  s(t) = n₂·(depth·m(t) + 1)·cos(2πf_c t)
// — the short-range attack of the prior work. The victim microphone's
// a₂·s² term demodulates this to depth·m(t) (+ DC + m² trace + ≥2f_c
// terms the anti-alias filter removes).
#pragma once

#include "audio/buffer.h"

namespace ivc::attack {

struct modulator_config {
  double carrier_hz = 40'000.0;
  // Fraction of full scale given to the carrier vs. the sideband;
  // carrier_level + depth_level must be <= 1 to avoid clipping.
  double carrier_level = 0.5;
  double depth_level = 0.5;
};

// Full AM drive signal (carrier + modulated sidebands), peak <= 1.
// `baseband` must be a conditioned command (|m| <= 1, high rate).
audio::buffer am_modulate(const audio::buffer& baseband,
                          const modulator_config& config = {});

// Software demodulation reference: what an ideal square-law receiver
// recovers from `drive` (square, low-pass at `voice_bandwidth_hz`,
// decimate to `capture_rate_hz`, DC-removed). Useful for analyzing attack
// signals without a microphone model in the loop.
audio::buffer square_law_demodulate(const audio::buffer& drive,
                                    double voice_bandwidth_hz,
                                    double capture_rate_hz);

}  // namespace ivc::attack
