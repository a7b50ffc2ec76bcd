#include "dsp/biquad.h"

#include <algorithm>
#include <cmath>
#include <complex>

#include "common/constants.h"
#include "common/error.h"

namespace ivc::dsp {
namespace {

using cd = std::complex<double>;

// Analog Butterworth pole k of an order-n prototype (left half-plane,
// unit cutoff): s_k = exp(j·pi·(2k + n + 1) / (2n)).
cd analog_pole(std::size_t k, std::size_t n) {
  const double theta =
      pi * (2.0 * static_cast<double>(k) + static_cast<double>(n) + 1.0) /
      (2.0 * static_cast<double>(n));
  return cd{std::cos(theta), std::sin(theta)};
}

// Bilinear transform of an analog section with a conjugate pole pair
// (or a single real pole) into a digital biquad.
//
// For low-pass: H(s) = wc^2 / (s^2 - (p+p*)·wc·s + |p|^2·wc^2) per pair.
// For high-pass the analog prototype is transformed s -> wc/s first.
struct analog_section {
  // H(s) = (c2 s^2 + c1 s + c0) / (d2 s^2 + d1 s + d0)
  double c2 = 0.0, c1 = 0.0, c0 = 1.0;
  double d2 = 1.0, d1 = 0.0, d0 = 1.0;
};

biquad bilinear(const analog_section& s, double warped_wc, double fs) {
  // Substitute s = 2·fs·(1 - z^-1)/(1 + z^-1), with the analog section
  // already scaled by the pre-warped cutoff (embedded in coefficients).
  (void)warped_wc;
  const double k = 2.0 * fs;
  if (s.d2 == 0.0 && s.c2 == 0.0) {
    // True first-order section. Mapping it through the quadratic formulas
    // would introduce a pole/zero pair exactly on the unit circle at
    // z = -1 (mathematically cancelled, numerically poisonous), so divide
    // that common (1 + z^-1) factor out analytically.
    const double a0 = s.d1 * k + s.d0;
    ensures(std::abs(a0) > 0.0, "bilinear: degenerate first-order section");
    const double b0 = (s.c1 * k + s.c0) / a0;
    const double b1 = (s.c0 - s.c1 * k) / a0;
    const double a1 = (s.d0 - s.d1 * k) / a0;
    return biquad{b0, b1, 0.0, a1, 0.0};
  }
  const double k2 = k * k;
  const double b0 = s.c2 * k2 + s.c1 * k + s.c0;
  const double b1 = -2.0 * s.c2 * k2 + 2.0 * s.c0;
  const double b2 = s.c2 * k2 - s.c1 * k + s.c0;
  const double a0 = s.d2 * k2 + s.d1 * k + s.d0;
  const double a1 = -2.0 * s.d2 * k2 + 2.0 * s.d0;
  const double a2 = s.d2 * k2 - s.d1 * k + s.d0;
  ensures(std::abs(a0) > 0.0, "bilinear: degenerate section (a0 == 0)");
  return biquad{b0 / a0, b1 / a0, b2 / a0, a1 / a0, a2 / a0};
}

std::vector<biquad> design(std::size_t order, double cutoff_hz,
                           double sample_rate_hz, bool highpass) {
  expects(order >= 1, "butterworth: order must be >= 1");
  expects(sample_rate_hz > 0.0, "butterworth: sample rate must be > 0");
  expects(cutoff_hz > 0.0 && cutoff_hz < sample_rate_hz / 2.0,
          "butterworth: cutoff must be in (0, fs/2)");

  // Pre-warp the cutoff so the digital response matches at cutoff_hz.
  const double wc =
      2.0 * sample_rate_hz * std::tan(pi * cutoff_hz / sample_rate_hz);

  std::vector<biquad> sections;
  sections.reserve((order + 1) / 2);

  // Pair complex-conjugate poles; an odd order leaves one real pole.
  for (std::size_t k = 0; k < order / 2; ++k) {
    const cd p = analog_pole(k, order);
    const double two_re = -2.0 * p.real();  // > 0 for LHP poles
    analog_section s;
    if (!highpass) {
      // H(s) = wc^2 / (s^2 + 2|Re p| wc s + wc^2)
      s.c2 = 0.0; s.c1 = 0.0; s.c0 = wc * wc;
      s.d2 = 1.0; s.d1 = two_re * wc; s.d0 = wc * wc;
    } else {
      // s -> wc/s: H(s) = s^2 / (s^2 + 2|Re p| wc s + wc^2)
      s.c2 = 1.0; s.c1 = 0.0; s.c0 = 0.0;
      s.d2 = 1.0; s.d1 = two_re * wc; s.d0 = wc * wc;
    }
    sections.push_back(bilinear(s, wc, sample_rate_hz));
  }
  if (order % 2 == 1) {
    analog_section s;
    if (!highpass) {
      // H(s) = wc / (s + wc)
      s.c2 = 0.0; s.c1 = 0.0; s.c0 = wc;
      s.d2 = 0.0; s.d1 = 1.0; s.d0 = wc;
    } else {
      // H(s) = s / (s + wc)
      s.c2 = 0.0; s.c1 = 1.0; s.c0 = 0.0;
      s.d2 = 0.0; s.d1 = 1.0; s.d0 = wc;
    }
    sections.push_back(bilinear(s, wc, sample_rate_hz));
  }
  return sections;
}

}  // namespace

iir_cascade::iir_cascade(std::vector<biquad> sections)
    : sections_{std::move(sections)} {}

std::vector<double> iir_cascade::process(std::span<const double> signal) const {
  std::vector<double> out{signal.begin(), signal.end()};
  for (const biquad& s : sections_) {
    double z1 = 0.0;
    double z2 = 0.0;
    for (double& x : out) {
      const double y = s.b0 * x + z1;
      z1 = s.b1 * x - s.a1 * y + z2;
      z2 = s.b2 * x - s.a2 * y;
      x = y;
    }
  }
  return out;
}

std::vector<double> iir_cascade::process_zero_phase(
    std::span<const double> signal) const {
  std::vector<double> forward = process(signal);
  std::reverse(forward.begin(), forward.end());
  std::vector<double> backward = process(forward);
  std::reverse(backward.begin(), backward.end());
  return backward;
}

double iir_cascade::response_at(double freq_hz, double sample_rate_hz) const {
  expects(sample_rate_hz > 0.0, "iir_cascade::response_at: fs must be > 0");
  const double w = two_pi * freq_hz / sample_rate_hz;
  const cd z_inv{std::cos(w), -std::sin(w)};
  const cd z_inv2 = z_inv * z_inv;
  cd h{1.0, 0.0};
  for (const biquad& s : sections_) {
    h *= (s.b0 + s.b1 * z_inv + s.b2 * z_inv2) /
         (1.0 + s.a1 * z_inv + s.a2 * z_inv2);
  }
  return std::abs(h);
}

bool iir_cascade::is_stable() const {
  for (const biquad& s : sections_) {
    // Schur–Cohn conditions for a real quadratic z^2 + a1 z + a2.
    if (!(std::abs(s.a2) < 1.0 && std::abs(s.a1) < 1.0 + s.a2)) {
      return false;
    }
  }
  return true;
}

iir_cascade butterworth_lowpass(std::size_t order, double cutoff_hz,
                                double sample_rate_hz) {
  return iir_cascade{design(order, cutoff_hz, sample_rate_hz, false)};
}

iir_cascade butterworth_highpass(std::size_t order, double cutoff_hz,
                                 double sample_rate_hz) {
  return iir_cascade{design(order, cutoff_hz, sample_rate_hz, true)};
}

iir_cascade butterworth_bandpass(std::size_t order, double low_hz,
                                 double high_hz, double sample_rate_hz) {
  expects(low_hz < high_hz, "butterworth_bandpass: low must be < high");
  std::vector<biquad> sections =
      design(order, low_hz, sample_rate_hz, /*highpass=*/true);
  const std::vector<biquad> lp =
      design(order, high_hz, sample_rate_hz, /*highpass=*/false);
  sections.insert(sections.end(), lp.begin(), lp.end());
  return iir_cascade{std::move(sections)};
}

}  // namespace ivc::dsp
