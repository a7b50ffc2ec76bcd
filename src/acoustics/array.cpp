#include "acoustics/array.h"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "common/constants.h"
#include "common/error.h"
#include "common/units.h"
#include "dsp/fft_plan.h"

namespace ivc::acoustics {

void speaker_array::add_element(array_element element) {
  audio::validate(element.drive, "speaker_array::add_element");
  if (!elements_.empty()) {
    expects(element.drive.sample_rate_hz ==
                elements_.front().drive.sample_rate_hz,
            "speaker_array: all elements must share a sample rate");
  }
  elements_.push_back(std::move(element));
}

double speaker_array::total_power_w() const {
  double total = 0.0;
  for (const array_element& e : elements_) {
    total += e.input_power_w;
  }
  return total;
}

void speaker_array::scale_power(double factor) {
  expects(factor > 0.0, "speaker_array::scale_power: factor must be > 0");
  for (array_element& e : elements_) {
    const double scaled = e.input_power_w * factor;
    expects(scaled <= e.speaker.max_power_w,
            "speaker_array::scale_power: element would exceed its rating");
    e.input_power_w = scaled;
  }
}

// Fused rendering: the per-element non-linearity is applied in the time
// domain (it is memoryless), after which the element's radiation response,
// sensitivity scaling, spreading, absorption, and delay are all linear and
// time-invariant — so they compose into one frequency response per
// element. All element spectra are accumulated and a single inverse FFT
// produces the superposed field, instead of 4 transforms per element.
//
// Drives and field are real and every element response is conjugate-
// symmetric (real magnitude, delay phase), so the whole superposition
// runs on the planned half spectrum: half the butterfly work AND half
// the per-bin response evaluations, which dominate for large arrays.
audio::buffer speaker_array::render(const vec3& listener, const air_model& air,
                                    bool with_nonlinearity) const {
  expects(!elements_.empty(), "speaker_array::render: array is empty");
  const double rate = elements_.front().drive.sample_rate_hz;
  const double c = air.speed_of_sound();
  const absorption_model absorb = air.absorption();

  std::size_t max_len = 0;
  double max_dist = 0.0;
  for (const array_element& e : elements_) {
    max_len = std::max(max_len, e.drive.size());
    max_dist = std::max(max_dist, distance(e.position, listener));
  }
  const auto max_delay =
      static_cast<std::size_t>(std::ceil(max_dist / c * rate));
  const std::size_t n = ivc::dsp::next_pow2(max_len + max_delay + 64);
  const auto plan = ivc::dsp::get_fft_plan(n);
  const std::size_t bins = plan->num_real_bins();

  std::vector<ivc::dsp::cplx> total(bins, ivc::dsp::cplx{0.0, 0.0});
  std::vector<ivc::dsp::cplx> spec(bins);
  std::vector<double> driven(n);
  for (const array_element& e : elements_) {
    const speaker spk{e.speaker};
    expects(e.input_power_w > 0.0 &&
                e.input_power_w <= e.speaker.max_power_w,
            "speaker_array: element power outside the driver's rating");
    const double gain = std::sqrt(e.input_power_w / e.speaker.rated_power_w);
    const double a2 = with_nonlinearity ? e.speaker.nonlin_a2 : 0.0;
    const double a3 = with_nonlinearity ? e.speaker.nonlin_a3 : 0.0;

    std::fill(driven.begin(), driven.end(), 0.0);
    for (std::size_t i = 0; i < e.drive.size(); ++i) {
      double v = std::clamp(gain * e.drive.samples[i], -1.0, 1.0);
      driven[i] = v + a2 * v * v + a3 * v * v * v;
    }
    plan->rfft(driven, spec);

    const double dist = std::max(distance(e.position, listener), 1e-2);
    const double delay_s = dist / c;
    const double spreading = 1.0 / dist;
    const double absorb_dist = std::max(0.0, dist - 1.0);
    const double peak_pa =
        ivc::spl_db_to_pa(e.speaker.sensitivity_db_spl) * std::numbers::sqrt2;

    // Delay phase advances by a constant per bin, so the rotator is a
    // complex recurrence, re-anchored with exact trig every block to
    // keep accumulated rounding far below the response tolerances.
    const double bin_hz = rate / static_cast<double>(n);
    const double dphi = -two_pi * bin_hz * delay_s;
    const ivc::dsp::cplx step{std::cos(dphi), std::sin(dphi)};
    ivc::dsp::cplx rot{1.0, 0.0};
    constexpr std::size_t resync = 512;
    for (std::size_t k = 0; k < bins; ++k) {
      if (k % resync == 0) {
        const double phase = dphi * static_cast<double>(k);
        rot = ivc::dsp::cplx{std::cos(phase), std::sin(phase)};
      }
      const double f = static_cast<double>(k) * bin_hz;
      // Radiation response × sensitivity × spreading × absorption.
      const double mag = spk.response_at(f) * peak_pa * spreading *
                         absorb.gain(f, absorb_dist);
      total[k] += spec[k] * (mag * rot);
      rot *= step;
    }
  }
  std::vector<ivc::dsp::cplx> work(plan->workspace_size());
  plan->irfft(total, driven, work);

  audio::buffer out{std::vector<double>(max_len + max_delay, 0.0), rate};
  for (std::size_t i = 0; i < out.size(); ++i) {
    out.samples[i] = driven[i];
  }
  return out;
}

audio::buffer speaker_array::render_at(const vec3& listener,
                                       const air_model& air) const {
  return render(listener, air, /*with_nonlinearity=*/true);
}

audio::buffer speaker_array::render_at_linear(const vec3& listener,
                                              const air_model& air) const {
  return render(listener, air, /*with_nonlinearity=*/false);
}

}  // namespace ivc::acoustics
