// Logistic-regression classifier over trace features, trained in-repo on
// simulated genuine/injected corpora (no external model files).
#pragma once

#include <array>

#include "defense/features.h"

namespace ivc::defense {

struct training_config {
  std::size_t epochs = 400;
  double learning_rate = 0.15;
  double l2 = 1e-3;
};

class logistic_classifier {
 public:
  // Trains on the dataset (features are standardized internally).
  void train(const labelled_features& data, const training_config& config = {});

  // P(attack | features), in [0, 1].
  double predict_probability(
      const std::array<double, num_trace_features>& x) const;
  double predict_probability(const trace_features& f) const {
    return predict_probability(f.as_array());
  }

  // Hard decision at the given probability threshold.
  bool predict(const trace_features& f, double threshold = 0.5) const {
    return predict_probability(f) >= threshold;
  }

  // Accuracy over a labelled set at the given threshold.
  double accuracy(const labelled_features& data, double threshold = 0.5) const;

  bool trained() const { return trained_; }

  // Trained weight for feature i (standardized space) — exposed so the
  // feature-importance experiment can report it.
  double weight(std::size_t i) const { return weights_.at(i); }
  double bias() const { return bias_; }

 private:
  std::array<double, num_trace_features> standardize(
      const std::array<double, num_trace_features>& x) const;

  std::array<double, num_trace_features> weights_{};
  std::array<double, num_trace_features> mean_{};
  std::array<double, num_trace_features> stddev_{};
  double bias_ = 0.0;
  bool trained_ = false;
};

}  // namespace ivc::defense
