#include "defense/detector.h"

#include "common/error.h"

namespace ivc::defense {

classifier_detector::classifier_detector(logistic_classifier classifier,
                                         double threshold)
    : classifier_{std::move(classifier)}, threshold_{threshold} {
  expects(classifier_.trained(), "classifier_detector: classifier untrained");
  expects(threshold > 0.0 && threshold < 1.0,
          "classifier_detector: threshold must be in (0, 1)");
}

detection classifier_detector::detect(const audio::buffer& capture,
                                      const feature_config& config) const {
  const trace_features f = extract_trace_features(capture, config);
  const double p = classifier_.predict_probability(f);
  return detection{p >= threshold_, p};
}

}  // namespace ivc::defense
