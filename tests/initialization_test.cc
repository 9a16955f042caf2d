#include "core/initialization.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "stats/transforms.h"

namespace oasis {
namespace {

/// Builds a small pool + strata pair by hand for exact Algorithm-2 checks.
struct Fixture {
  ScoredPool pool;
  Strata strata;
};

Fixture MakeFixture(bool probability_scores) {
  Fixture fx;
  // Stratum 0: items 0,1 (low scores, predicted negative).
  // Stratum 1: items 2,3 (high scores, one predicted positive).
  fx.pool.scores = probability_scores ? std::vector<double>{0.1, 0.2, 0.6, 0.8}
                                      : std::vector<double>{-2.0, -1.0, 0.5, 1.5};
  fx.pool.predictions = {0, 0, 0, 1};
  fx.pool.scores_are_probabilities = probability_scores;
  fx.pool.threshold = probability_scores ? 0.5 : 0.0;
  const std::vector<int32_t> assignment{0, 0, 1, 1};
  fx.strata = Strata::FromAssignment(assignment).ValueOrDie();
  return fx;
}

TEST(InitializationTest, ProbabilityScoresUseStratumMeansDirectly) {
  Fixture fx = MakeFixture(/*probability_scores=*/true);
  InitialEstimates init =
      InitializeFromScores(fx.strata, fx.pool, 0.5).ValueOrDie();
  ASSERT_EQ(init.pi.size(), 2u);
  EXPECT_NEAR(init.pi[0], 0.15, 1e-12);  // mean(0.1, 0.2)
  EXPECT_NEAR(init.pi[1], 0.7, 1e-12);   // mean(0.6, 0.8)
  EXPECT_NEAR(init.lambda[0], 0.0, 1e-12);
  EXPECT_NEAR(init.lambda[1], 0.5, 1e-12);
}

TEST(InitializationTest, FGuessMatchesAlgorithmLine8) {
  Fixture fx = MakeFixture(true);
  const double alpha = 0.5;
  InitialEstimates init =
      InitializeFromScores(fx.strata, fx.pool, alpha).ValueOrDie();
  // |P_0| = |P_1| = 2.
  const double tp = 2 * 0.15 * 0.0 + 2 * 0.7 * 0.5;
  const double pred = 2 * 0.0 + 2 * 0.5;
  const double pos = 2 * 0.15 + 2 * 0.7;
  EXPECT_NEAR(init.f_alpha, tp / (alpha * pred + (1 - alpha) * pos), 1e-12);
}

TEST(InitializationTest, RawScoresMappedThroughLogistic) {
  Fixture fx = MakeFixture(/*probability_scores=*/false);
  InitialEstimates init =
      InitializeFromScores(fx.strata, fx.pool, 0.5).ValueOrDie();
  // Stratum means are -1.5 and 1.0 on the margin scale (threshold 0).
  EXPECT_NEAR(init.pi[0], Expit(-1.5), 1e-9);
  EXPECT_NEAR(init.pi[1], Expit(1.0), 1e-9);
}

TEST(InitializationTest, ThresholdShiftsLogisticCentre) {
  Fixture fx = MakeFixture(false);
  fx.pool.threshold = 1.0;  // Mean margin of stratum 1 sits at the threshold.
  InitialEstimates init =
      InitializeFromScores(fx.strata, fx.pool, 0.5).ValueOrDie();
  EXPECT_NEAR(init.pi[1], 0.5, 1e-9);
}

TEST(InitializationTest, PiClampedAwayFromDegenerate) {
  ScoredPool pool;
  pool.scores = {0.0, 0.0, 1.0, 1.0};
  pool.predictions = {0, 0, 1, 1};
  pool.scores_are_probabilities = true;
  pool.threshold = 0.5;
  Strata strata =
      Strata::FromAssignment(std::vector<int32_t>{0, 0, 1, 1}).ValueOrDie();
  InitialEstimates init = InitializeFromScores(strata, pool, 0.5).ValueOrDie();
  EXPECT_GT(init.pi[0], 0.0);  // Usable as a beta-prior mean.
  EXPECT_LT(init.pi[1], 1.0);
}

TEST(InitializationTest, RejectsMismatchedStrata) {
  Fixture fx = MakeFixture(true);
  ScoredPool small;
  small.scores = {0.5};
  small.predictions = {1};
  small.scores_are_probabilities = true;
  EXPECT_FALSE(InitializeFromScores(fx.strata, small, 0.5).ok());
}

TEST(InitializationTest, RejectsBadAlpha) {
  Fixture fx = MakeFixture(true);
  EXPECT_FALSE(InitializeFromScores(fx.strata, fx.pool, -0.1).ok());
  EXPECT_FALSE(InitializeFromScores(fx.strata, fx.pool, 1.1).ok());
  EXPECT_FALSE(InitializeFromScores(fx.strata, fx.pool, std::nan("")).ok());
}

TEST(InitializationTest, FGuessBoundedInUnitInterval) {
  Fixture fx = MakeFixture(false);
  for (double alpha : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    InitialEstimates init =
        InitializeFromScores(fx.strata, fx.pool, alpha).ValueOrDie();
    EXPECT_GE(init.f_alpha, 0.0);
    EXPECT_LE(init.f_alpha, 1.0);
  }
}

}  // namespace
}  // namespace oasis
