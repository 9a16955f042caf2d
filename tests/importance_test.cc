#include "sampling/importance.h"

#include <gtest/gtest.h>

#include <cmath>

#include "oracle/ground_truth_oracle.h"
#include "stats/transforms.h"
#include "test_util.h"

namespace oasis {
namespace {

using testutil::MakeSyntheticPool;
using testutil::SyntheticPool;
using testutil::SyntheticPoolOptions;

TEST(ScoreToProbabilityTest, ProbabilityScoresClamped) {
  EXPECT_DOUBLE_EQ(ScoreToProbability(0.7, true, 0.0), 0.7);
  EXPECT_DOUBLE_EQ(ScoreToProbability(1.4, true, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(ScoreToProbability(-0.2, true, 0.0), 0.0);
}

TEST(ScoreToProbabilityTest, MarginsMappedThroughLogistic) {
  EXPECT_DOUBLE_EQ(ScoreToProbability(0.0, false, 0.0), 0.5);
  EXPECT_DOUBLE_EQ(ScoreToProbability(1.5, false, 1.5), 0.5);  // At threshold.
  EXPECT_GT(ScoreToProbability(2.0, false, 0.0), 0.8);
  EXPECT_LT(ScoreToProbability(-2.0, false, 0.0), 0.2);
}

TEST(ImportanceSamplerTest, RejectsBadOptions) {
  SyntheticPool pool = MakeSyntheticPool({});
  GroundTruthOracle oracle(pool.truth);
  LabelCache labels(&oracle);
  ImportanceOptions bad;
  bad.alpha = 1.2;
  EXPECT_FALSE(ImportanceSampler::Create(&pool.scored, &labels, bad, Rng(1)).ok());
  bad.alpha = std::nan("");
  EXPECT_FALSE(ImportanceSampler::Create(&pool.scored, &labels, bad, Rng(1)).ok());
  bad = ImportanceOptions{};
  bad.uniform_mix = -0.1;
  EXPECT_FALSE(ImportanceSampler::Create(&pool.scored, &labels, bad, Rng(1)).ok());
  EXPECT_FALSE(
      ImportanceSampler::Create(nullptr, &labels, ImportanceOptions{}, Rng(1)).ok());
}

TEST(ImportanceSamplerTest, InstrumentalIsFullySupportedDistribution) {
  SyntheticPool pool = MakeSyntheticPool({});
  GroundTruthOracle oracle(pool.truth);
  LabelCache labels(&oracle);
  auto sampler = ImportanceSampler::Create(&pool.scored, &labels,
                                           ImportanceOptions{}, Rng(3))
                     .ValueOrDie();
  double total = 0.0;
  for (double q : sampler->instrumental()) {
    EXPECT_GT(q, 0.0);  // Uniform floor keeps every item reachable.
    total += q;
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(ImportanceSamplerTest, BiasesTowardPredictedMatches) {
  // The Sawade et al. instrumental concentrates on (likely) positives: a
  // high-score predicted match must receive far more mass than 1/N.
  SyntheticPoolOptions options;
  options.size = 4000;
  options.match_fraction = 0.01;
  options.seed = 51;
  SyntheticPool pool = MakeSyntheticPool(options);
  GroundTruthOracle oracle(pool.truth);
  LabelCache labels(&oracle);
  auto sampler = ImportanceSampler::Create(&pool.scored, &labels,
                                           ImportanceOptions{}, Rng(5))
                     .ValueOrDie();
  const double uniform = 1.0 / static_cast<double>(pool.scored.size());
  // Find the highest-scoring item; it should be clearly over-weighted
  // relative to uniform (the mass is shared with the other predicted
  // positives, so the factor is well above 1 but far below N).
  size_t best = 0;
  for (size_t i = 1; i < pool.scored.scores.size(); ++i) {
    if (pool.scored.scores[i] > pool.scored.scores[best]) best = i;
  }
  EXPECT_GT(sampler->instrumental()[best], 5.0 * uniform);
}

TEST(ImportanceSamplerTest, ConvergesToTrueF) {
  SyntheticPoolOptions options;
  options.size = 3000;
  options.match_fraction = 0.03;
  options.seed = 53;
  SyntheticPool pool = MakeSyntheticPool(options);
  GroundTruthOracle oracle(pool.truth);
  LabelCache labels(&oracle);
  auto sampler = ImportanceSampler::Create(&pool.scored, &labels,
                                           ImportanceOptions{}, Rng(7))
                     .ValueOrDie();
  for (int i = 0; i < 150000; ++i) ASSERT_TRUE(sampler->Step().ok());
  const EstimateSnapshot snap = sampler->Estimate();
  ASSERT_TRUE(snap.f_defined);
  EXPECT_NEAR(snap.f_alpha, pool.true_measures.f_alpha, 0.03);
}

TEST(ImportanceSamplerTest, BackendsAgreeStatistically) {
  SyntheticPoolOptions options;
  options.size = 1000;
  options.match_fraction = 0.05;
  options.seed = 57;
  SyntheticPool pool = MakeSyntheticPool(options);
  GroundTruthOracle oracle(pool.truth);

  EstimateSnapshot snaps[2];
  int idx = 0;
  for (SamplingBackend backend :
       {SamplingBackend::kAliasTable, SamplingBackend::kLinearScan}) {
    LabelCache labels(&oracle);
    ImportanceOptions is_options;
    is_options.backend = backend;
    auto sampler =
        ImportanceSampler::Create(&pool.scored, &labels, is_options, Rng(11))
            .ValueOrDie();
    for (int i = 0; i < 60000; ++i) ASSERT_TRUE(sampler->Step().ok());
    snaps[idx++] = sampler->Estimate();
  }
  ASSERT_TRUE(snaps[0].f_defined);
  ASSERT_TRUE(snaps[1].f_defined);
  // Different backends draw different streams but estimate the same value.
  EXPECT_NEAR(snaps[0].f_alpha, snaps[1].f_alpha, 0.05);
}

TEST(ImportanceSamplerTest, FGuessIsSane) {
  SyntheticPool pool = MakeSyntheticPool({});
  GroundTruthOracle oracle(pool.truth);
  LabelCache labels(&oracle);
  auto sampler = ImportanceSampler::Create(&pool.scored, &labels,
                                           ImportanceOptions{}, Rng(13))
                     .ValueOrDie();
  EXPECT_GT(sampler->initial_f_guess(), 0.0);
  EXPECT_LT(sampler->initial_f_guess(), 1.0);
}

}  // namespace
}  // namespace oasis
