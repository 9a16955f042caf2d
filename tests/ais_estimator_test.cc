#include "sampling/ais_estimator.h"

#include <gtest/gtest.h>

namespace oasis {
namespace {

TEST(AisEstimatorTest, UndefinedBeforeAnyPositiveMass) {
  AisEstimator estimator(0.5);
  EXPECT_FALSE(estimator.Snapshot().f_defined);
  estimator.Add(1.0, false, false);  // True negative adds nothing.
  EXPECT_FALSE(estimator.Snapshot().f_defined);
  EXPECT_EQ(estimator.observations(), 1);
}

TEST(AisEstimatorTest, WeightedSumsMatchEquationThree) {
  AisEstimator estimator(0.5);
  estimator.Add(2.0, true, true);    // num += 2, den_pred += 2, den_true += 2
  estimator.Add(1.0, false, true);   // den_pred += 1
  estimator.Add(4.0, true, false);   // den_true += 4
  const EstimateSnapshot snap = estimator.Snapshot();
  ASSERT_TRUE(snap.f_defined);
  EXPECT_NEAR(snap.f_alpha, 2.0 / (0.5 * 3.0 + 0.5 * 6.0), 1e-12);
  EXPECT_NEAR(snap.precision, 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(snap.recall, 2.0 / 6.0, 1e-12);
}

TEST(AisEstimatorTest, PrecisionUndefinedWithoutPredictedPositives) {
  AisEstimator estimator(0.5);
  estimator.Add(1.0, true, false);
  const EstimateSnapshot snap = estimator.Snapshot();
  EXPECT_FALSE(snap.precision_defined);
  EXPECT_TRUE(snap.recall_defined);
  EXPECT_TRUE(snap.f_defined);  // (1-alpha) den_true > 0.
  EXPECT_DOUBLE_EQ(snap.recall, 0.0);
}

TEST(AisEstimatorTest, AlphaOneReducesToPrecision) {
  AisEstimator estimator(1.0);
  estimator.Add(1.0, true, true);
  estimator.Add(1.0, false, true);
  estimator.Add(1.0, true, false);  // Ignored by precision denominator.
  const EstimateSnapshot snap = estimator.Snapshot();
  EXPECT_NEAR(snap.f_alpha, snap.precision, 1e-12);
  EXPECT_NEAR(snap.precision, 0.5, 1e-12);
}

TEST(AisEstimatorTest, AlphaZeroReducesToRecall) {
  AisEstimator estimator(0.0);
  estimator.Add(1.0, true, true);
  estimator.Add(3.0, true, false);
  const EstimateSnapshot snap = estimator.Snapshot();
  EXPECT_NEAR(snap.f_alpha, snap.recall, 1e-12);
  EXPECT_NEAR(snap.recall, 0.25, 1e-12);
}

TEST(AisEstimatorTest, FAlphaOrUsesFallbackUntilDefined) {
  AisEstimator estimator(0.5);
  EXPECT_DOUBLE_EQ(estimator.FAlphaOr(0.42), 0.42);
  estimator.Add(1.0, true, true);
  EXPECT_DOUBLE_EQ(estimator.FAlphaOr(0.42), 1.0);
}

TEST(AisEstimatorTest, ZeroWeightObservationsContributeNothing) {
  AisEstimator estimator(0.5);
  estimator.Add(0.0, true, true);
  // All sums remain zero -> still undefined.
  EXPECT_FALSE(estimator.Snapshot().f_defined);
}

TEST(AisEstimatorTest, WeightsScaleInvariance) {
  // Scaling all weights by a constant must not change the estimate (Eqn. 3
  // is a ratio).
  AisEstimator a(0.5);
  AisEstimator b(0.5);
  const double data[][3] = {
      {1.0, 1, 1}, {2.0, 0, 1}, {0.5, 1, 0}, {3.0, 1, 1}, {1.5, 0, 0}};
  for (const auto& row : data) {
    a.Add(row[0], row[1] != 0, row[2] != 0);
    b.Add(10.0 * row[0], row[1] != 0, row[2] != 0);
  }
  EXPECT_NEAR(a.Snapshot().f_alpha, b.Snapshot().f_alpha, 1e-12);
}

}  // namespace
}  // namespace oasis
