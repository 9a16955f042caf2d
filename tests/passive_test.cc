#include "sampling/passive.h"

#include <gtest/gtest.h>

#include <cmath>

#include "oracle/ground_truth_oracle.h"
#include "test_util.h"

namespace oasis {
namespace {

using testutil::MakeSyntheticPool;
using testutil::SyntheticPool;
using testutil::SyntheticPoolOptions;

TEST(PassiveSamplerTest, RejectsBadArguments) {
  SyntheticPool pool = MakeSyntheticPool({});
  GroundTruthOracle oracle(pool.truth);
  LabelCache labels(&oracle);
  EXPECT_FALSE(PassiveSampler::Create(nullptr, &labels, 0.5, Rng(1)).ok());
  EXPECT_FALSE(PassiveSampler::Create(&pool.scored, nullptr, 0.5, Rng(1)).ok());
  EXPECT_FALSE(PassiveSampler::Create(&pool.scored, &labels, 1.5, Rng(1)).ok());
  EXPECT_FALSE(PassiveSampler::Create(&pool.scored, &labels, -0.1, Rng(1)).ok());
  EXPECT_FALSE(
      PassiveSampler::Create(&pool.scored, &labels, std::nan(""), Rng(1)).ok());
}

TEST(PassiveSamplerTest, UndefinedUntilFirstPositive) {
  // A pool whose first draws are overwhelmingly negatives: the estimate must
  // report undefined until a predicted or true positive is sampled.
  SyntheticPoolOptions options;
  options.size = 5000;
  options.match_fraction = 0.002;
  options.seed = 77;
  SyntheticPool pool = MakeSyntheticPool(options);
  GroundTruthOracle oracle(pool.truth);
  LabelCache labels(&oracle);
  auto sampler =
      PassiveSampler::Create(&pool.scored, &labels, 0.5, Rng(7)).ValueOrDie();

  bool was_undefined_initially = false;
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(sampler->Step().ok());
    if (i == 0 && !sampler->Estimate().f_defined) was_undefined_initially = true;
  }
  // With ~0.4% positive rate the very first draw is a negative with
  // probability ~99.6%; the fixed seed makes this deterministic.
  EXPECT_TRUE(was_undefined_initially);
}

TEST(PassiveSamplerTest, ConvergesToTrueFOnFullLabelling) {
  SyntheticPoolOptions options;
  options.size = 800;
  options.match_fraction = 0.2;
  options.seed = 5;
  SyntheticPool pool = MakeSyntheticPool(options);
  GroundTruthOracle oracle(pool.truth);
  LabelCache labels(&oracle);
  auto sampler =
      PassiveSampler::Create(&pool.scored, &labels, 0.5, Rng(11)).ValueOrDie();

  // Sampling with replacement until nearly every item has been labelled:
  // the plain sample estimate converges to the pool value.
  for (int i = 0; i < 40000; ++i) ASSERT_TRUE(sampler->Step().ok());
  const EstimateSnapshot snap = sampler->Estimate();
  ASSERT_TRUE(snap.f_defined);
  EXPECT_NEAR(snap.f_alpha, pool.true_measures.f_alpha, 0.02);
  EXPECT_NEAR(snap.precision, pool.true_measures.precision, 0.03);
  EXPECT_NEAR(snap.recall, pool.true_measures.recall, 0.03);
}

TEST(PassiveSamplerTest, LabelsConsumedNeverExceedsPoolSize) {
  SyntheticPoolOptions options;
  options.size = 100;
  options.match_fraction = 0.3;
  SyntheticPool pool = MakeSyntheticPool(options);
  GroundTruthOracle oracle(pool.truth);
  LabelCache labels(&oracle);
  auto sampler =
      PassiveSampler::Create(&pool.scored, &labels, 0.5, Rng(13)).ValueOrDie();
  for (int i = 0; i < 5000; ++i) ASSERT_TRUE(sampler->Step().ok());
  EXPECT_LE(sampler->labels_consumed(), 100);
  EXPECT_EQ(sampler->iterations(), 5000);
}

TEST(PassiveSamplerTest, AlphaExtremesMatchPrecisionRecall) {
  SyntheticPoolOptions options;
  options.size = 600;
  options.match_fraction = 0.25;
  options.seed = 21;
  SyntheticPool pool = MakeSyntheticPool(options);
  GroundTruthOracle oracle(pool.truth);

  for (double alpha : {0.0, 1.0}) {
    LabelCache labels(&oracle);
    auto sampler =
        PassiveSampler::Create(&pool.scored, &labels, alpha, Rng(23)).ValueOrDie();
    for (int i = 0; i < 30000; ++i) ASSERT_TRUE(sampler->Step().ok());
    const EstimateSnapshot snap = sampler->Estimate();
    ASSERT_TRUE(snap.f_defined);
    if (alpha == 1.0) {
      EXPECT_NEAR(snap.f_alpha, snap.precision, 1e-12);
    } else {
      EXPECT_NEAR(snap.f_alpha, snap.recall, 1e-12);
    }
  }
}

TEST(PassiveSamplerTest, DeterministicGivenSeed) {
  SyntheticPool pool = MakeSyntheticPool({});
  GroundTruthOracle oracle(pool.truth);

  double estimates[2];
  for (int run = 0; run < 2; ++run) {
    LabelCache labels(&oracle);
    auto sampler =
        PassiveSampler::Create(&pool.scored, &labels, 0.5, Rng(99)).ValueOrDie();
    for (int i = 0; i < 2000; ++i) ASSERT_TRUE(sampler->Step().ok());
    estimates[run] = sampler->Estimate().f_alpha;
  }
  EXPECT_DOUBLE_EQ(estimates[0], estimates[1]);
}

}  // namespace
}  // namespace oasis
