// Detector interface: the trace-feature classifier's probability against
// a threshold.
#pragma once

#include "defense/classifier.h"
#include "defense/features.h"

namespace ivc::defense {

struct detection {
  bool is_attack = false;
  double score = 0.0;  // higher == more attack-like
};

// Combined detector: classifier probability against a threshold.
class classifier_detector {
 public:
  classifier_detector(logistic_classifier classifier, double threshold = 0.5);

  detection detect(const audio::buffer& capture,
                   const feature_config& config = {}) const;

  const logistic_classifier& classifier() const { return classifier_; }
  double threshold() const { return threshold_; }

 private:
  logistic_classifier classifier_;
  double threshold_;
};

}  // namespace ivc::defense
