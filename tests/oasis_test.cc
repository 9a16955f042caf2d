#include "core/oasis.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "oracle/ground_truth_oracle.h"
#include "oracle/noisy_oracle.h"
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

TEST(OasisSamplerTest, RejectsBadArguments) {
  SyntheticPool pool = MakeSyntheticPool({});
  GroundTruthOracle oracle(pool.truth);
  LabelCache labels(&oracle);
  auto strata = MakeStrata(pool.scored, 10);

  EXPECT_FALSE(
      OasisSampler::Create(nullptr, &labels, strata, OasisOptions{}, Rng(1)).ok());
  EXPECT_FALSE(OasisSampler::Create(&pool.scored, &labels, nullptr, OasisOptions{},
                                    Rng(1))
                   .ok());

  OasisOptions bad;
  bad.epsilon = 0.0;  // Remark 5: epsilon must be positive for consistency.
  EXPECT_FALSE(OasisSampler::Create(&pool.scored, &labels, strata, bad, Rng(1)).ok());
  bad.epsilon = 1.5;
  EXPECT_FALSE(OasisSampler::Create(&pool.scored, &labels, strata, bad, Rng(1)).ok());
  bad = OasisOptions{};
  bad.alpha = -0.2;
  EXPECT_FALSE(OasisSampler::Create(&pool.scored, &labels, strata, bad, Rng(1)).ok());
  bad.alpha = std::nan("");  // Must fail the check, not reach a CHECK.
  EXPECT_FALSE(OasisSampler::Create(&pool.scored, &labels, strata, bad, Rng(1)).ok());
}

TEST(OasisSamplerTest, DefaultPriorStrengthIsTwoK) {
  SyntheticPool pool = MakeSyntheticPool({});
  GroundTruthOracle oracle(pool.truth);
  LabelCache labels(&oracle);
  auto strata = MakeStrata(pool.scored, 10);
  auto sampler =
      OasisSampler::Create(&pool.scored, &labels, strata, OasisOptions{}, Rng(1))
          .ValueOrDie();
  EXPECT_NEAR(sampler->options().prior_strength,
              2.0 * static_cast<double>(sampler->strata().num_strata()), 1e-12);
}

TEST(OasisSamplerTest, ConvergesToTrueFUnderImbalance) {
  SyntheticPoolOptions options;
  options.size = 4000;
  options.match_fraction = 0.02;
  options.seed = 61;
  SyntheticPool pool = MakeSyntheticPool(options);
  GroundTruthOracle oracle(pool.truth);
  LabelCache labels(&oracle);
  auto sampler = OasisSampler::Create(&pool.scored, &labels,
                                      MakeStrata(pool.scored, 20), OasisOptions{},
                                      Rng(3))
                     .ValueOrDie();
  // Consume most of the informative budget.
  while (sampler->labels_consumed() < 2000) {
    ASSERT_TRUE(sampler->Step().ok());
  }
  const EstimateSnapshot snap = sampler->Estimate();
  ASSERT_TRUE(snap.f_defined);
  EXPECT_NEAR(snap.f_alpha, pool.true_measures.f_alpha, 0.05);
}

TEST(OasisSamplerTest, PrecisionAndRecallAlsoConverge) {
  SyntheticPoolOptions options;
  options.size = 3000;
  options.match_fraction = 0.05;
  options.seed = 67;
  SyntheticPool pool = MakeSyntheticPool(options);
  GroundTruthOracle oracle(pool.truth);
  LabelCache labels(&oracle);
  auto sampler = OasisSampler::Create(&pool.scored, &labels,
                                      MakeStrata(pool.scored, 20), OasisOptions{},
                                      Rng(5))
                     .ValueOrDie();
  while (sampler->labels_consumed() < 2500) {
    ASSERT_TRUE(sampler->Step().ok());
  }
  const EstimateSnapshot snap = sampler->Estimate();
  ASSERT_TRUE(snap.precision_defined);
  ASSERT_TRUE(snap.recall_defined);
  EXPECT_NEAR(snap.precision, pool.true_measures.precision, 0.07);
  EXPECT_NEAR(snap.recall, pool.true_measures.recall, 0.07);
}

TEST(OasisSamplerTest, BeatsPassiveVarianceUnderImbalance) {
  // The headline claim at unit-test scale: at a fixed small budget, OASIS
  // estimates have materially lower error spread than passive sampling.
  SyntheticPoolOptions options;
  options.size = 8000;
  options.match_fraction = 0.01;
  options.seed = 71;
  SyntheticPool pool = MakeSyntheticPool(options);
  GroundTruthOracle oracle(pool.truth);
  auto strata = MakeStrata(pool.scored, 25);

  const int repeats = 30;
  const int64_t budget = 300;
  double oasis_sq_err = 0.0;
  int oasis_defined = 0;
  double passive_sq_err = 0.0;
  int passive_defined = 0;
  for (int r = 0; r < repeats; ++r) {
    {
      LabelCache labels(&oracle);
      auto sampler = OasisSampler::Create(&pool.scored, &labels, strata,
                                          OasisOptions{}, Rng(100 + r))
                         .ValueOrDie();
      while (labels.labels_consumed() < budget) {
        ASSERT_TRUE(sampler->Step().ok());
      }
      const EstimateSnapshot snap = sampler->Estimate();
      if (snap.f_defined) {
        const double err = snap.f_alpha - pool.true_measures.f_alpha;
        oasis_sq_err += err * err;
        ++oasis_defined;
      }
    }
    {
      LabelCache labels(&oracle);
      // Passive needs its own sampler; reuse the pool scores only.
      Rng rng(200 + r);
      double tp = 0, pred = 0, pos = 0;
      for (int64_t i = 0; labels.labels_consumed() < budget; ++i) {
        const int64_t item = static_cast<int64_t>(
            rng.NextBounded(static_cast<uint64_t>(pool.scored.size())));
        const bool label = labels.Query(item, rng);
        const bool prediction = pool.scored.predictions[item] != 0;
        if (label && prediction) tp += 1;
        if (prediction) pred += 1;
        if (label) pos += 1;
      }
      const double denom = 0.5 * pred + 0.5 * pos;
      if (denom > 0) {
        const double err = tp / denom - pool.true_measures.f_alpha;
        passive_sq_err += err * err;
        ++passive_defined;
      }
    }
  }
  ASSERT_GT(oasis_defined, repeats / 2);
  const double oasis_rmse = std::sqrt(oasis_sq_err / oasis_defined);
  // Passive may not even be defined; when it is, OASIS should beat it.
  if (passive_defined > repeats / 2) {
    const double passive_rmse = std::sqrt(passive_sq_err / passive_defined);
    EXPECT_LT(oasis_rmse, passive_rmse);
  }
  EXPECT_LT(oasis_rmse, 0.15);
}

TEST(OasisSamplerTest, ImportanceWeightsBoundedByInverseEpsilon) {
  // From the consistency proof: p/q <= 1/epsilon. We can't observe weights
  // directly, but the instrumental distribution exposes the bound:
  // omega_k / v_k <= 1/epsilon for every stratum.
  SyntheticPool pool = MakeSyntheticPool({});
  GroundTruthOracle oracle(pool.truth);
  LabelCache labels(&oracle);
  OasisOptions options;
  options.epsilon = 0.01;
  auto sampler = OasisSampler::Create(&pool.scored, &labels,
                                      MakeStrata(pool.scored, 15), options, Rng(7))
                     .ValueOrDie();
  for (int step = 0; step < 200; ++step) {
    ASSERT_TRUE(sampler->Step().ok());
    const std::vector<double> v = sampler->CurrentInstrumental().ValueOrDie();
    for (size_t k = 0; k < v.size(); ++k) {
      EXPECT_LE(sampler->strata().weight(k) / v[k], 1.0 / options.epsilon + 1e-9);
    }
  }
}

TEST(OasisSamplerTest, InstrumentalStaysNormalised) {
  SyntheticPool pool = MakeSyntheticPool({});
  GroundTruthOracle oracle(pool.truth);
  LabelCache labels(&oracle);
  auto sampler = OasisSampler::Create(&pool.scored, &labels,
                                      MakeStrata(pool.scored, 12), OasisOptions{},
                                      Rng(9))
                     .ValueOrDie();
  for (int step = 0; step < 100; ++step) {
    ASSERT_TRUE(sampler->Step().ok());
  }
  const std::vector<double> v = sampler->CurrentInstrumental().ValueOrDie();
  double total = 0.0;
  for (double vi : v) {
    EXPECT_GT(vi, 0.0);
    total += vi;
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(OasisSamplerTest, CreateWithCsfMatchesManualStratification) {
  SyntheticPool pool = MakeSyntheticPool({});
  GroundTruthOracle oracle(pool.truth);
  LabelCache labels_a(&oracle);
  LabelCache labels_b(&oracle);
  auto manual = OasisSampler::Create(&pool.scored, &labels_a,
                                     MakeStrata(pool.scored, 30), OasisOptions{},
                                     Rng(11))
                    .ValueOrDie();
  auto automatic = OasisSampler::CreateWithCsf(&pool.scored, &labels_b, 30,
                                               OasisOptions{}, Rng(11))
                       .ValueOrDie();
  EXPECT_EQ(manual->strata().num_strata(), automatic->strata().num_strata());
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(manual->Step().ok());
    ASSERT_TRUE(automatic->Step().ok());
  }
  // Same seed, same strata -> identical runs.
  EXPECT_DOUBLE_EQ(manual->Estimate().f_alpha, automatic->Estimate().f_alpha);
}

TEST(OasisSamplerTest, WorksWithNoisyOracle) {
  SyntheticPoolOptions options;
  options.size = 1500;
  options.match_fraction = 0.1;
  options.seed = 81;
  SyntheticPool pool = MakeSyntheticPool(options);
  NoisyOracle oracle =
      NoisyOracle::FromTruthWithFlipNoise(pool.truth, 0.05).ValueOrDie();
  LabelCache labels(&oracle);
  auto sampler = OasisSampler::Create(&pool.scored, &labels,
                                      MakeStrata(pool.scored, 15), OasisOptions{},
                                      Rng(13))
                     .ValueOrDie();
  // Noisy oracles charge every query; run a fixed iteration count.
  for (int i = 0; i < 5000; ++i) ASSERT_TRUE(sampler->Step().ok());
  EXPECT_EQ(sampler->labels_consumed(), 5000);
  const EstimateSnapshot snap = sampler->Estimate();
  ASSERT_TRUE(snap.f_defined);
  // Under 5% symmetric label noise the asymptotic F target shifts; just
  // require a sane, bounded estimate near the noise-free value.
  EXPECT_GT(snap.f_alpha, 0.0);
  EXPECT_LT(snap.f_alpha, 1.0);
  EXPECT_NEAR(snap.f_alpha, pool.true_measures.f_alpha, 0.2);
}

TEST(OasisSamplerTest, ObserverSeesEveryWeightedObservation) {
  SyntheticPool pool = MakeSyntheticPool({});
  GroundTruthOracle oracle(pool.truth);
  LabelCache labels(&oracle);
  auto sampler = OasisSampler::Create(&pool.scored, &labels,
                                      MakeStrata(pool.scored, 10), OasisOptions{},
                                      Rng(31))
                     .ValueOrDie();
  // Mirror every observation into an independent estimator at the same
  // alpha; it must reproduce the sampler's own estimate exactly.
  AisEstimator mirror(sampler->options().alpha);
  int64_t observed = 0;
  sampler->SetObserver([&](double weight, bool label, bool prediction) {
    mirror.Add(weight, label, prediction);
    ++observed;
  });
  for (int i = 0; i < 500; ++i) ASSERT_TRUE(sampler->Step().ok());
  EXPECT_EQ(observed, 500);
  const EstimateSnapshot own = sampler->Estimate();
  const EstimateSnapshot mirrored = mirror.Snapshot();
  ASSERT_EQ(own.f_defined, mirrored.f_defined);
  if (own.f_defined) {
    EXPECT_DOUBLE_EQ(own.f_alpha, mirrored.f_alpha);
    EXPECT_DOUBLE_EQ(own.precision, mirrored.precision);
    EXPECT_DOUBLE_EQ(own.recall, mirrored.recall);
  }
}

TEST(OasisSamplerTest, NameReflectsStratumCount) {
  SyntheticPool pool = MakeSyntheticPool({});
  GroundTruthOracle oracle(pool.truth);
  LabelCache labels(&oracle);
  auto sampler = OasisSampler::Create(&pool.scored, &labels,
                                      MakeStrata(pool.scored, 10), OasisOptions{},
                                      Rng(15))
                     .ValueOrDie();
  EXPECT_EQ(sampler->name(),
            "OASIS-" + std::to_string(sampler->strata().num_strata()));
}

}  // namespace
}  // namespace oasis
