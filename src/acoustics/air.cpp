#include "acoustics/air.h"

#include <cmath>

#include "common/error.h"

namespace ivc::acoustics {
namespace {

constexpr double reference_pressure_kpa = 101.325;
constexpr double reference_temperature_k = 293.15;   // 20 °C
constexpr double triple_point_k = 273.16;

}  // namespace

double air_model::speed_of_sound() const {
  expects(temperature_c > -100.0 && temperature_c < 100.0,
          "air_model: temperature out of plausible range");
  // Ideal-gas approximation: c = 331.3 · sqrt(1 + T/273.15).
  return 331.3 * std::sqrt(1.0 + temperature_c / 273.15);
}

absorption_model air_model::absorption() const {
  expects(relative_humidity_percent >= 0.0 &&
              relative_humidity_percent <= 100.0,
          "air_model: humidity must be in [0, 100] %");
  expects(pressure_kpa > 0.0, "air_model: pressure must be > 0");

  const double t_k = temperature_c + 273.15;
  const double p_rel = pressure_kpa / reference_pressure_kpa;
  const double t_rel = t_k / reference_temperature_k;

  // Molar concentration of water vapour (%), ISO 9613-1 Annex B.
  const double c_sat =
      -6.8346 * std::pow(triple_point_k / t_k, 1.261) + 4.6151;
  const double p_sat_rel = std::pow(10.0, c_sat);
  const double h = relative_humidity_percent * p_sat_rel / p_rel;

  absorption_model m;
  // Relaxation frequencies of O2 and N2, Hz.
  m.fr_o = p_rel * (24.0 + 4.04e4 * h * (0.02 + h) / (0.391 + h));
  m.fr_n =
      p_rel * std::pow(t_rel, -0.5) *
      (9.0 + 280.0 * h * std::exp(-4.170 * (std::pow(t_rel, -1.0 / 3.0) - 1.0)));
  m.classical = 1.84e-11 / p_rel * std::sqrt(t_rel);
  m.vib_scale = std::pow(t_rel, -2.5);
  m.vib_o_num = 0.01275 * std::exp(-2239.1 / t_k);
  m.vib_n_num = 0.1068 * std::exp(-3352.0 / t_k);
  return m;
}

double absorption_model::db_per_m(double freq_hz) const {
  if (freq_hz == 0.0) {
    return 0.0;
  }
  const double f2 = freq_hz * freq_hz;
  const double vib_o = vib_o_num / (fr_o + f2 / fr_o);
  const double vib_n = vib_n_num / (fr_n + f2 / fr_n);
  return 8.686 * f2 * (classical + vib_scale * (vib_o + vib_n));
}

double absorption_model::gain(double freq_hz, double dist_m) const {
  // exp(ln(10)/20 · dB) — one exp per bin instead of a generic pow.
  constexpr double ln10_over_20 = 0.11512925464970228;
  return std::exp(-db_per_m(freq_hz) * dist_m * ln10_over_20);
}

double air_model::absorption_db_per_m(double freq_hz) const {
  expects(freq_hz >= 0.0, "absorption: frequency must be >= 0");
  return absorption().db_per_m(freq_hz);
}

}  // namespace ivc::acoustics
