// Loudspeaker model: electrical drive → radiated pressure at 1 m.
//
// The model is the key substrate for the paper's central trade-off: the
// diaphragm non-linearity partially demodulates a high-power AM
// ultrasound signal *at the speaker*, radiating an audible "shadow" of
// the hidden command. The chain is:
//
//   drive d(t) ∈ [-1,1] · gain(power) → diaphragm non-linearity
//   (x + a₂x² + a₃x³) → radiation frequency response → pressure at 1 m.
//
// Because the radiation response is applied after the non-linearity, a
// piezo tweeter's poor low-frequency efficiency attenuates — but does not
// eliminate — the demodulated audible leakage, exactly as measured in
// practice.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "audio/buffer.h"

namespace ivc::acoustics {

struct speaker_params {
  // SPL at 1 m produced by a full-scale (amplitude 1.0) sine at the
  // response reference frequency when driven at rated power.
  double sensitivity_db_spl = 115.0;
  double rated_power_w = 25.0;

  // Radiation band edges; outside them the response rolls off with the
  // given per-edge Butterworth order (in poles).
  double band_low_hz = 16'000.0;
  double band_high_hz = 64'000.0;
  std::size_t rolloff_order = 2;

  // Diaphragm non-linearity coefficients (normalized excursion units).
  double nonlin_a2 = 0.06;
  double nonlin_a3 = 0.012;

  // Ceiling on drive power the hardware tolerates.
  double max_power_w = 60.0;
};

// A narrow-band ultrasonic piezo tweeter, the attack rig's element.
speaker_params ultrasonic_tweeter();

// A hi-fi horn tweeter driven by a consumer amplifier — the prior work's
// single-speaker setup. Radiates the voice band well (which is why its
// demodulated leakage is so audible) but is several dB weaker than a
// dedicated ultrasonic transducer at 30–40 kHz.
speaker_params hifi_horn_tweeter();

class speaker {
 public:
  explicit speaker(speaker_params params);

  // Radiated pressure (Pa, referenced at 1 m) for `drive` played at
  // `input_power_w` electrical power. Drive samples beyond [-1, 1] are
  // hard-clipped (amplifier rail), which itself adds distortion — as in
  // real hardware. Throws if input_power_w exceeds max_power_w.
  audio::buffer emit(const audio::buffer& drive, double input_power_w) const;

  // Same chain but bypassing the non-linearity; the difference between
  // emit() and emit_linear() isolates the speaker's self-demodulated
  // leakage for the attack-design analysis.
  audio::buffer emit_linear(const audio::buffer& drive,
                            double input_power_w) const;

  // Magnitude of the radiation response at `freq_hz` (1.0 in band).
  double response_at(double freq_hz) const;

  const speaker_params& params() const { return params_; }

 private:
  audio::buffer render(const audio::buffer& drive, double input_power_w,
                       bool with_nonlinearity) const;

  speaker_params params_;
};

}  // namespace ivc::acoustics
