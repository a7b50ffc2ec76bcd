#include "acoustics/air.h"

#include <cmath>
#include <gtest/gtest.h>

namespace ivc::acoustics {
namespace {

TEST(air, speed_of_sound_reference_values) {
  air_model a;
  a.temperature_c = 20.0;
  EXPECT_NEAR(a.speed_of_sound(), 343.2, 0.5);
  a.temperature_c = 0.0;
  EXPECT_NEAR(a.speed_of_sound(), 331.3, 0.5);
  a.temperature_c = 30.0;
  EXPECT_NEAR(a.speed_of_sound(), 349.0, 1.0);
}

TEST(air, absorption_iso9613_spot_checks) {
  // ISO 9613-1 published values at 20 °C, 70 % RH, 101.325 kPa:
  // 1 kHz ≈ 4.7 dB/km; 4 kHz ≈ 23 dB/km (both ±20 % tolerance here,
  // the formula approximations differ slightly between editions).
  air_model a;
  a.temperature_c = 20.0;
  a.relative_humidity_percent = 70.0;
  EXPECT_NEAR(a.absorption_db_per_m(1'000.0) * 1'000.0, 4.7, 1.5);
  EXPECT_NEAR(a.absorption_db_per_m(4'000.0) * 1'000.0, 23.0, 7.0);
}

TEST(air, ultrasound_absorption_is_meters_scale) {
  // The attack-relevant fact: ~1 dB/m around 40 kHz at room conditions.
  air_model a;
  a.temperature_c = 20.0;
  a.relative_humidity_percent = 50.0;
  const double alpha40k = a.absorption_db_per_m(40'000.0);
  EXPECT_GT(alpha40k, 0.5);
  EXPECT_LT(alpha40k, 3.0);
  // And it dwarfs voice-band absorption by orders of magnitude.
  EXPECT_GT(alpha40k / a.absorption_db_per_m(1'000.0), 50.0);
}

TEST(air, absorption_monotone_in_frequency) {
  air_model a;
  double prev = 0.0;
  for (double f = 100.0; f <= 80'000.0; f *= 2.0) {
    const double alpha = a.absorption_db_per_m(f);
    EXPECT_GT(alpha, prev) << "f=" << f;
    prev = alpha;
  }
}

TEST(air, absorption_zero_at_dc) {
  air_model a;
  EXPECT_DOUBLE_EQ(a.absorption_db_per_m(0.0), 0.0);
}

TEST(air, absorption_gain_decays_with_distance) {
  air_model a;
  const double g1 = a.absorption().gain(40'000.0, 1.0);
  const double g5 = a.absorption().gain(40'000.0, 5.0);
  EXPECT_LT(g5, g1);
  EXPECT_NEAR(g5, std::pow(g1, 5.0), 1e-12);
  EXPECT_DOUBLE_EQ(a.absorption().gain(40'000.0, 0.0), 1.0);
}

TEST(air, humidity_affects_ultrasound_absorption) {
  air_model dry;
  dry.relative_humidity_percent = 20.0;
  air_model humid;
  humid.relative_humidity_percent = 80.0;
  // Both plausible, but they must differ measurably at 40 kHz.
  const double a_dry = dry.absorption_db_per_m(40'000.0);
  const double a_humid = humid.absorption_db_per_m(40'000.0);
  EXPECT_GT(std::abs(a_dry - a_humid) / a_humid, 0.1);
}

TEST(air, rejects_invalid_parameters) {
  air_model a;
  a.relative_humidity_percent = 150.0;
  EXPECT_THROW(a.absorption_db_per_m(1'000.0), std::invalid_argument);
  air_model b;
  b.pressure_kpa = -1.0;
  EXPECT_THROW(b.absorption_db_per_m(1'000.0), std::invalid_argument);
  EXPECT_THROW(a.absorption_db_per_m(-5.0), std::invalid_argument);
}

}  // namespace
}  // namespace ivc::acoustics
