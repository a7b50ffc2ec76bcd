#include <cmath>
#include <gtest/gtest.h>

#include "common/rng.h"
#include "defense/classifier.h"
#include "defense/detector.h"
#include "defense/roc.h"

namespace ivc::defense {
namespace {

// Synthetic linearly separable data: attacks have higher f0/f1.
labelled_features separable_data(std::size_t n, double gap, ivc::rng& rng) {
  labelled_features data;
  for (std::size_t i = 0; i < n; ++i) {
    trace_features f;
    const bool attack = i % 2 == 0;
    const double base = attack ? gap : -gap;
    f.low_band_envelope_corr = base + rng.normal(0.0, 0.5);
    f.low_band_ratio_db = 2.0 * base + rng.normal(0.0, 1.0);
    f.amplitude_skew = 0.5 * base + rng.normal(0.0, 0.5);
    f.high_band_ratio_db = rng.normal(0.0, 1.0);  // uninformative
    f.low_band_waveform_corr = base + rng.normal(0.0, 0.5);
    data.add(f, attack ? 1 : 0);
  }
  return data;
}

TEST(classifier, learns_separable_data) {
  ivc::rng rng{1};
  const labelled_features train = separable_data(200, 2.0, rng);
  const labelled_features test = separable_data(100, 2.0, rng);
  logistic_classifier clf;
  clf.train(train);
  EXPECT_TRUE(clf.trained());
  EXPECT_GT(clf.accuracy(test), 0.95);
}

TEST(classifier, probability_is_calibrated_to_sides) {
  ivc::rng rng{2};
  logistic_classifier clf;
  clf.train(separable_data(200, 3.0, rng));
  trace_features attack;
  attack.low_band_envelope_corr = 3.0;
  attack.low_band_ratio_db = 6.0;
  attack.amplitude_skew = 1.5;
  attack.low_band_waveform_corr = 3.0;
  trace_features genuine;
  genuine.low_band_envelope_corr = -3.0;
  genuine.low_band_ratio_db = -6.0;
  genuine.amplitude_skew = -1.5;
  genuine.low_band_waveform_corr = -3.0;
  EXPECT_GT(clf.predict_probability(attack), 0.9);
  EXPECT_LT(clf.predict_probability(genuine), 0.1);
  EXPECT_TRUE(clf.predict(attack));
  EXPECT_FALSE(clf.predict(genuine));
}

TEST(classifier, weights_favor_informative_features) {
  ivc::rng rng{3};
  logistic_classifier clf;
  clf.train(separable_data(400, 2.0, rng));
  // f3 (high_band_ratio_db) carried no signal in this synthetic set.
  EXPECT_GT(std::abs(clf.weight(1)), std::abs(clf.weight(3)));
}

TEST(classifier, hard_cases_degrade_gracefully) {
  ivc::rng rng{4};
  logistic_classifier clf;
  // Overlapping classes: accuracy must be > 0.5 but won't be perfect.
  clf.train(separable_data(400, 0.3, rng));
  const labelled_features test = separable_data(200, 0.3, rng);
  const double acc = clf.accuracy(test);
  EXPECT_GT(acc, 0.55);
}

TEST(classifier, rejects_degenerate_training_sets) {
  logistic_classifier clf;
  labelled_features tiny;
  trace_features f;
  tiny.add(f, 1);
  EXPECT_THROW(clf.train(tiny), std::invalid_argument);

  labelled_features one_class;
  for (int i = 0; i < 20; ++i) {
    one_class.add(f, 1);
  }
  EXPECT_THROW(clf.train(one_class), std::invalid_argument);
  EXPECT_THROW(clf.predict_probability(f), std::invalid_argument);
}

TEST(roc, perfect_separation_gives_unit_auc) {
  const std::vector<double> scores{0.9, 0.8, 0.7, 0.2, 0.1, 0.05};
  const std::vector<int> labels{1, 1, 1, 0, 0, 0};
  const roc_curve curve = compute_roc(scores, labels);
  EXPECT_NEAR(curve.auc, 1.0, 1e-9);
  EXPECT_NEAR(curve.best_accuracy, 1.0, 1e-9);
  EXPECT_LT(curve.equal_error_rate, 0.01);
}

TEST(roc, reversed_scores_give_zero_auc) {
  const std::vector<double> scores{0.1, 0.2, 0.3, 0.7, 0.8, 0.9};
  const std::vector<int> labels{1, 1, 1, 0, 0, 0};
  const roc_curve curve = compute_roc(scores, labels);
  EXPECT_NEAR(curve.auc, 0.0, 1e-9);
}

TEST(roc, random_scores_give_half_auc) {
  ivc::rng rng{5};
  std::vector<double> scores(2'000);
  std::vector<int> labels(2'000);
  for (std::size_t i = 0; i < scores.size(); ++i) {
    scores[i] = rng.uniform();
    labels[i] = rng.bernoulli(0.5) ? 1 : 0;
  }
  const roc_curve curve = compute_roc(scores, labels);
  EXPECT_NEAR(curve.auc, 0.5, 0.05);
  EXPECT_NEAR(curve.equal_error_rate, 0.5, 0.05);
}

TEST(roc, curve_is_monotone_in_rates) {
  ivc::rng rng{6};
  std::vector<double> scores(500);
  std::vector<int> labels(500);
  for (std::size_t i = 0; i < scores.size(); ++i) {
    labels[i] = rng.bernoulli(0.4) ? 1 : 0;
    scores[i] = labels[i] == 1 ? rng.normal(1.0, 1.0) : rng.normal(-1.0, 1.0);
  }
  const roc_curve curve = compute_roc(scores, labels);
  for (std::size_t i = 1; i < curve.points.size(); ++i) {
    EXPECT_GE(curve.points[i].true_positive_rate,
              curve.points[i - 1].true_positive_rate);
    EXPECT_GE(curve.points[i].false_positive_rate,
              curve.points[i - 1].false_positive_rate);
  }
  EXPECT_GT(curve.auc, 0.7);
}

TEST(roc, rejects_single_class_input) {
  const std::vector<double> scores{0.1, 0.2};
  const std::vector<int> labels{1, 1};
  EXPECT_THROW(compute_roc(scores, labels), std::invalid_argument);
}

TEST(detector, classifier_detector_requires_trained_model) {
  logistic_classifier untrained;
  EXPECT_THROW(classifier_detector(untrained, 0.5), std::invalid_argument);
  ivc::rng rng{7};
  logistic_classifier clf;
  clf.train(separable_data(100, 2.0, rng));
  EXPECT_THROW(classifier_detector(clf, 1.5), std::invalid_argument);
  const classifier_detector ok{clf, 0.5};
  EXPECT_DOUBLE_EQ(ok.threshold(), 0.5);
}

}  // namespace
}  // namespace ivc::defense
