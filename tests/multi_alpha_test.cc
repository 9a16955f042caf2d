#include "core/multi_alpha.h"

#include <gtest/gtest.h>

#include "sampling/ais_estimator.h"

namespace oasis {
namespace {

TEST(MultiAlphaTest, RejectsBadGrid) {
  EXPECT_FALSE(MultiAlphaEstimator::Create({}).ok());
  EXPECT_FALSE(MultiAlphaEstimator::Create({0.5, 1.2}).ok());
  EXPECT_FALSE(MultiAlphaEstimator::Create({-0.1}).ok());
}

TEST(MultiAlphaTest, MatchesSingleAlphaEstimators) {
  // One shared label stream must reproduce exactly what three independent
  // AisEstimators at alpha = 0, 1/2, 1 would compute.
  MultiAlphaEstimator multi =
      MultiAlphaEstimator::Create({0.0, 0.5, 1.0}).ValueOrDie();
  AisEstimator recall_only(0.0);
  AisEstimator balanced(0.5);
  AisEstimator precision_only(1.0);

  const double observations[][3] = {{1.5, 1, 1}, {0.5, 0, 1}, {2.0, 1, 0},
                                    {1.0, 1, 1}, {3.0, 0, 0}, {0.2, 0, 1}};
  for (const auto& row : observations) {
    const double w = row[0];
    const bool label = row[1] != 0;
    const bool prediction = row[2] != 0;
    multi.Add(w, label, prediction);
    recall_only.Add(w, label, prediction);
    balanced.Add(w, label, prediction);
    precision_only.Add(w, label, prediction);
  }

  const auto estimates = multi.Estimates();
  ASSERT_EQ(estimates.size(), 3u);
  EXPECT_DOUBLE_EQ(estimates[0].f_alpha, recall_only.Snapshot().f_alpha);
  EXPECT_DOUBLE_EQ(estimates[1].f_alpha, balanced.Snapshot().f_alpha);
  EXPECT_DOUBLE_EQ(estimates[2].f_alpha, precision_only.Snapshot().f_alpha);
  EXPECT_EQ(multi.observations(), 6);
}

TEST(MultiAlphaTest, PerAlphaDefinedness) {
  MultiAlphaEstimator multi =
      MultiAlphaEstimator::Create({0.0, 1.0}).ValueOrDie();
  // Only a true positive on the recall side: precision denominator stays 0.
  multi.Add(1.0, true, false);
  const auto estimates = multi.Estimates();
  EXPECT_TRUE(estimates[0].defined);    // alpha = 0: recall defined.
  EXPECT_FALSE(estimates[1].defined);   // alpha = 1: precision undefined.
}

TEST(MultiAlphaTest, MonotoneInAlphaWhenPrecisionAboveRecall) {
  MultiAlphaEstimator multi =
      MultiAlphaEstimator::Create({0.0, 0.25, 0.5, 0.75, 1.0}).ValueOrDie();
  // precision = 2/3, recall = 2/5.
  multi.Add(1.0, true, true);
  multi.Add(1.0, true, true);
  multi.Add(1.0, false, true);
  multi.Add(3.0, true, false);
  const auto estimates = multi.Estimates();
  for (size_t i = 1; i < estimates.size(); ++i) {
    EXPECT_GT(estimates[i].f_alpha, estimates[i - 1].f_alpha);
  }
}

}  // namespace
}  // namespace oasis
