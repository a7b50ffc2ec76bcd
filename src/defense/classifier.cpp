#include "defense/classifier.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace ivc::defense {
namespace {

double sigmoid(double z) {
  if (z >= 0.0) {
    return 1.0 / (1.0 + std::exp(-z));
  }
  const double e = std::exp(z);
  return e / (1.0 + e);
}

}  // namespace

void logistic_classifier::train(const labelled_features& data,
                                const training_config& config) {
  expects(data.size() >= 8, "logistic_classifier: need at least 8 samples");
  expects(data.x.size() == data.y.size(),
          "logistic_classifier: feature/label count mismatch");
  const bool has_pos = std::any_of(data.y.begin(), data.y.end(),
                                   [](int v) { return v == 1; });
  const bool has_neg = std::any_of(data.y.begin(), data.y.end(),
                                   [](int v) { return v == 0; });
  expects(has_pos && has_neg,
          "logistic_classifier: need both classes in training data");

  // Standardization statistics.
  const double n = static_cast<double>(data.size());
  mean_.fill(0.0);
  stddev_.fill(0.0);
  for (const auto& x : data.x) {
    for (std::size_t k = 0; k < num_trace_features; ++k) {
      mean_[k] += x[k];
    }
  }
  for (double& m : mean_) {
    m /= n;
  }
  for (const auto& x : data.x) {
    for (std::size_t k = 0; k < num_trace_features; ++k) {
      const double d = x[k] - mean_[k];
      stddev_[k] += d * d;
    }
  }
  for (double& s : stddev_) {
    s = std::sqrt(s / n);
    if (s < 1e-9) {
      s = 1.0;  // constant feature; leaves it centered at zero
    }
  }

  // Batch gradient descent on the regularized log-loss.
  weights_.fill(0.0);
  bias_ = 0.0;
  trained_ = true;  // standardize() is usable from here on
  for (std::size_t epoch = 0; epoch < config.epochs; ++epoch) {
    std::array<double, num_trace_features> grad{};
    double grad_bias = 0.0;
    for (std::size_t i = 0; i < data.size(); ++i) {
      const auto xs = standardize(data.x[i]);
      double z = bias_;
      for (std::size_t k = 0; k < num_trace_features; ++k) {
        z += weights_[k] * xs[k];
      }
      const double err = sigmoid(z) - static_cast<double>(data.y[i]);
      for (std::size_t k = 0; k < num_trace_features; ++k) {
        grad[k] += err * xs[k];
      }
      grad_bias += err;
    }
    for (std::size_t k = 0; k < num_trace_features; ++k) {
      weights_[k] -= config.learning_rate *
                     (grad[k] / n + config.l2 * weights_[k]);
    }
    bias_ -= config.learning_rate * grad_bias / n;
  }
}

std::array<double, num_trace_features> logistic_classifier::standardize(
    const std::array<double, num_trace_features>& x) const {
  std::array<double, num_trace_features> out{};
  for (std::size_t k = 0; k < num_trace_features; ++k) {
    out[k] = (x[k] - mean_[k]) / stddev_[k];
  }
  return out;
}

double logistic_classifier::predict_probability(
    const std::array<double, num_trace_features>& x) const {
  expects(trained_, "logistic_classifier: not trained");
  const auto xs = standardize(x);
  double z = bias_;
  for (std::size_t k = 0; k < num_trace_features; ++k) {
    z += weights_[k] * xs[k];
  }
  return sigmoid(z);
}

double logistic_classifier::accuracy(const labelled_features& data,
                                     double threshold) const {
  expects(data.size() > 0, "logistic_classifier::accuracy: empty dataset");
  std::size_t correct = 0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    const bool predicted = predict_probability(data.x[i]) >= threshold;
    if (predicted == (data.y[i] == 1)) {
      ++correct;
    }
  }
  return static_cast<double>(correct) / static_cast<double>(data.size());
}

}  // namespace ivc::defense
