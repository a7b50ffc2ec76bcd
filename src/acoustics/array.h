// Speaker array: several drivers with individual drive signals and
// positions, rendered coherently at a receiver point. This is the
// attacker's rig — one carrier speaker plus N sideband-chunk speakers.
#pragma once

#include <vector>

#include "acoustics/geometry.h"
#include "acoustics/propagation.h"
#include "acoustics/speaker.h"
#include "audio/buffer.h"

namespace ivc::acoustics {

struct array_element {
  speaker_params speaker;
  audio::buffer drive;
  double input_power_w = 1.0;
  vec3 position;
};

class speaker_array {
 public:
  speaker_array() = default;

  void add_element(array_element element);

  std::size_t size() const { return elements_.size(); }
  const std::vector<array_element>& elements() const { return elements_; }

  // Total electrical input power across the array, W.
  double total_power_w() const;

  // Rescales every element's input power by `factor` (> 0). Lets power
  // sweeps reuse the (expensive to build) drive signals. Throws if any
  // element would exceed its driver rating.
  void scale_power(double factor);

  // Coherent pressure field at `listener` (Pa): each element is emitted
  // through its speaker model, propagated over its own distance (with
  // per-element delay, spreading, absorption) and summed.
  audio::buffer render_at(const vec3& listener, const air_model& air) const;

  // Same, but with every speaker model linearized — isolates how much of
  // the received audible content is produced by speaker non-linearity.
  audio::buffer render_at_linear(const vec3& listener,
                                 const air_model& air) const;

 private:
  audio::buffer render(const vec3& listener, const air_model& air,
                       bool with_nonlinearity) const;

  std::vector<array_element> elements_;
};

}  // namespace ivc::acoustics
