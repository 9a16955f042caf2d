#include "sampling/stratified.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "oracle/ground_truth_oracle.h"
#include "strata/csf.h"
#include "test_util.h"

namespace oasis {
namespace {

using testutil::MakeSyntheticPool;
using testutil::SyntheticPool;
using testutil::SyntheticPoolOptions;

std::shared_ptr<const Strata> MakeStrata(const ScoredPool& pool, size_t k) {
  return std::make_shared<const Strata>(StratifyCsf(pool.scores, k).ValueOrDie());
}

TEST(StratifiedSamplerTest, RejectsBadArguments) {
  SyntheticPool pool = MakeSyntheticPool({});
  GroundTruthOracle oracle(pool.truth);
  LabelCache labels(&oracle);
  auto strata = MakeStrata(pool.scored, 10);
  EXPECT_FALSE(
      StratifiedSampler::Create(nullptr, &labels, strata, 0.5, Rng(1)).ok());
  EXPECT_FALSE(
      StratifiedSampler::Create(&pool.scored, &labels, nullptr, 0.5, Rng(1)).ok());
  EXPECT_FALSE(
      StratifiedSampler::Create(&pool.scored, &labels, strata, 2.0, Rng(1)).ok());
  EXPECT_FALSE(StratifiedSampler::Create(&pool.scored, &labels, strata,
                                         std::nan(""), Rng(1))
                   .ok());

  // Mismatched strata (built over a different pool size).
  SyntheticPoolOptions small;
  small.size = 50;
  SyntheticPool other = MakeSyntheticPool(small);
  auto wrong_strata = MakeStrata(other.scored, 5);
  EXPECT_FALSE(
      StratifiedSampler::Create(&pool.scored, &labels, wrong_strata, 0.5, Rng(1))
          .ok());
}

TEST(StratifiedSamplerTest, ConvergesToTrueF) {
  SyntheticPoolOptions options;
  options.size = 2000;
  options.match_fraction = 0.1;
  options.seed = 31;
  SyntheticPool pool = MakeSyntheticPool(options);
  GroundTruthOracle oracle(pool.truth);
  LabelCache labels(&oracle);
  auto sampler = StratifiedSampler::Create(&pool.scored, &labels,
                                           MakeStrata(pool.scored, 20), 0.5, Rng(3))
                     .ValueOrDie();
  for (int i = 0; i < 100000; ++i) ASSERT_TRUE(sampler->Step().ok());
  const EstimateSnapshot snap = sampler->Estimate();
  ASSERT_TRUE(snap.f_defined);
  EXPECT_NEAR(snap.f_alpha, pool.true_measures.f_alpha, 0.02);
}

TEST(StratifiedSamplerTest, PredictedMassIsExactFromStart) {
  // The stratified estimator knows the predicted-positive mass without any
  // labels, so precision's denominator is available immediately.
  SyntheticPool pool = MakeSyntheticPool({});
  GroundTruthOracle oracle(pool.truth);
  LabelCache labels(&oracle);
  auto sampler = StratifiedSampler::Create(&pool.scored, &labels,
                                           MakeStrata(pool.scored, 10), 0.5, Rng(5))
                     .ValueOrDie();
  ASSERT_TRUE(sampler->Step().ok());
  const EstimateSnapshot snap = sampler->Estimate();
  // After a single draw the F denominator is positive (predicted mass > 0).
  EXPECT_TRUE(snap.f_defined);
}

TEST(StratifiedSamplerTest, SamplingMatchesStratumWeights) {
  SyntheticPoolOptions options;
  options.size = 3000;
  options.seed = 41;
  SyntheticPool pool = MakeSyntheticPool(options);
  GroundTruthOracle oracle(pool.truth);
  LabelCache labels(&oracle);
  auto strata = MakeStrata(pool.scored, 8);
  auto sampler =
      StratifiedSampler::Create(&pool.scored, &labels, strata, 0.5, Rng(7))
          .ValueOrDie();
  // Proportional-to-weight sampling is equivalent to uniform over items, so
  // after many steps the fraction of labels drawn from stratum k approaches
  // omega_k. We verify via the label cache's distinct-item count bound.
  for (int i = 0; i < 20000; ++i) ASSERT_TRUE(sampler->Step().ok());
  EXPECT_EQ(sampler->iterations(), 20000);
  EXPECT_LE(sampler->labels_consumed(), pool.scored.size());
  // Most of the pool should have been touched by 20k uniform-ish draws.
  EXPECT_GT(labels.distinct_items_labelled(), pool.scored.size() / 2);
}

TEST(StratifiedSamplerTest, AlphaZeroTracksRecall) {
  SyntheticPoolOptions options;
  options.size = 1500;
  options.match_fraction = 0.15;
  options.seed = 43;
  SyntheticPool pool = MakeSyntheticPool(options);
  GroundTruthOracle oracle(pool.truth);
  LabelCache labels(&oracle);
  auto sampler = StratifiedSampler::Create(&pool.scored, &labels,
                                           MakeStrata(pool.scored, 15), 0.0, Rng(9))
                     .ValueOrDie();
  for (int i = 0; i < 80000; ++i) ASSERT_TRUE(sampler->Step().ok());
  const EstimateSnapshot snap = sampler->Estimate();
  ASSERT_TRUE(snap.recall_defined);
  EXPECT_NEAR(snap.recall, pool.true_measures.recall, 0.03);
  EXPECT_NEAR(snap.f_alpha, snap.recall, 1e-12);
}

}  // namespace
}  // namespace oasis
