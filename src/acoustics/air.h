// Atmospheric model: speed of sound and frequency-dependent absorption.
//
// Absorption follows ISO 9613-1 (classical + rotational losses plus the
// O2 and N2 vibrational relaxation terms). Absorption is the quantity
// that makes the long-range ultrasonic attack hard: at 40 kHz air eats
// roughly 1.2 dB/m while the voice band loses almost nothing, so every
// extra meter costs the attacker more than it costs a genuine talker.
#pragma once

namespace ivc::acoustics {

struct absorption_model;

struct air_model {
  double temperature_c = 20.0;
  double relative_humidity_percent = 50.0;
  double pressure_kpa = 101.325;

  // Speed of sound, m/s, for the configured temperature.
  double speed_of_sound() const;

  // Atmospheric absorption coefficient at `freq_hz`, in dB per meter.
  double absorption_db_per_m(double freq_hz) const;

  // Precomputes every frequency-independent term of the ISO 9613-1
  // chain. Per-bin loops over large spectra (array render, propagation,
  // room responses) hoist one of these instead of re-deriving the
  // relaxation frequencies hundreds of thousands of times.
  absorption_model absorption() const;
};

struct absorption_model {
  // ISO 9613-1 intermediates (see air_model::absorption_db_per_m).
  double fr_o = 0.0;        // O2 relaxation frequency, Hz
  double fr_n = 0.0;        // N2 relaxation frequency, Hz
  double classical = 0.0;   // classical + rotational term
  double vib_scale = 0.0;   // pow(t_rel, -2.5)
  double vib_o_num = 0.0;   // 0.01275 · exp(-2239.1 / T)
  double vib_n_num = 0.0;   // 0.1068 · exp(-3352.0 / T)

  // Same value as air_model::absorption_db_per_m(freq_hz) — identical
  // arithmetic, just with the f-independent factors precomputed.
  double db_per_m(double freq_hz) const;
  // Linear amplitude factor after dist_m meters (absorption only, no
  // spreading), evaluated as exp(ln(10)/20 · dB) rather than
  // pow(10, dB/20).
  double gain(double freq_hz, double dist_m) const;
};

}  // namespace ivc::acoustics
