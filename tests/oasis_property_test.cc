#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <tuple>

#include "core/oasis.h"
#include "datagen/scenario.h"
#include "oracle/ground_truth_oracle.h"
#include "oracle/label_cache.h"
#include "sampling/importance.h"
#include "stats/degeneracy.h"
#include "strata/csf.h"
#include "test_util.h"

namespace oasis {
namespace {

using testutil::MakeSyntheticPool;
using testutil::SyntheticPool;
using testutil::SyntheticPoolOptions;

/// Property sweep: OASIS must remain a consistent estimator across the
/// F-measure weight alpha, the greediness epsilon, the stratum count K, and
/// the pool's class imbalance. Each case runs a seeded sampler to a large
/// budget and checks convergence to the pool truth, plus the structural
/// invariants (normalised instrumental distribution, bounded weights).
class OasisConsistencySweep
    : public ::testing::TestWithParam<
          std::tuple<double /*alpha*/, double /*epsilon*/, size_t /*K*/,
                     double /*match_fraction*/>> {};

TEST_P(OasisConsistencySweep, ConvergesAndStaysValid) {
  const auto [alpha, epsilon, target_strata, match_fraction] = GetParam();

  SyntheticPoolOptions pool_options;
  pool_options.size = 3000;
  pool_options.match_fraction = match_fraction;
  pool_options.seed = 1000 + static_cast<uint64_t>(alpha * 10) +
                      static_cast<uint64_t>(epsilon * 1e4) + target_strata;
  SyntheticPool pool = MakeSyntheticPool(pool_options);
  GroundTruthOracle oracle(pool.truth);
  LabelCache labels(&oracle);

  auto strata = std::make_shared<const Strata>(
      StratifyCsf(pool.scored.scores, target_strata).ValueOrDie());
  OasisOptions options;
  options.alpha = alpha;
  options.epsilon = epsilon;
  auto sampler =
      OasisSampler::Create(&pool.scored, &labels, strata, options, Rng(17))
          .ValueOrDie();

  // The reference value at this alpha from full ground truth.
  double tp = 0, pred = 0, pos = 0;
  for (size_t i = 0; i < pool.truth.size(); ++i) {
    if (pool.truth[i] && pool.scored.predictions[i]) tp += 1;
    if (pool.scored.predictions[i]) pred += 1;
    if (pool.truth[i]) pos += 1;
  }
  const double denom = alpha * pred + (1.0 - alpha) * pos;
  if (denom <= 0.0) GTEST_SKIP() << "degenerate pool for this alpha";
  const double true_f = tp / denom;

  // At alpha = 1 (precision) the optimal instrumental distribution puts all
  // but the epsilon floor on predicted-positive strata, which are small and
  // quickly exhausted — exactly the intended behaviour. Budget accordingly:
  // most of the predicted positives suffice to pin down precision.
  int64_t budget = 2200;
  if (alpha == 1.0) {
    budget = std::min<int64_t>(budget, static_cast<int64_t>(0.7 * pred));
  }
  while (sampler->labels_consumed() < budget) {
    ASSERT_TRUE(sampler->Step().ok());
    ASSERT_LT(sampler->iterations(), 2000000)
        << "sampler failed to consume budget";
  }

  // Structural invariants after adaptation.
  const std::vector<double> v = sampler->CurrentInstrumental().ValueOrDie();
  double v_total = 0.0;
  for (size_t k = 0; k < v.size(); ++k) {
    EXPECT_GT(v[k], 0.0);
    EXPECT_LE(sampler->strata().weight(k) / v[k], 1.0 / epsilon + 1e-9);
    v_total += v[k];
  }
  EXPECT_NEAR(v_total, 1.0, 1e-9);

  const EstimateSnapshot snap = sampler->Estimate();
  ASSERT_TRUE(snap.f_defined);
  // Most of the informative pool labelled: the estimate must be close.
  EXPECT_NEAR(snap.f_alpha, true_f, 0.10)
      << "alpha=" << alpha << " eps=" << epsilon << " K=" << target_strata
      << " match_fraction=" << match_fraction;
}

INSTANTIATE_TEST_SUITE_P(
    AlphaEpsilonKImbalance, OasisConsistencySweep,
    ::testing::Combine(::testing::Values(0.0, 0.5, 1.0),
                       ::testing::Values(1e-3, 0.1),
                       ::testing::Values(5, 30),
                       ::testing::Values(0.02, 0.2)));

/// Prior-strength sweep (Remark 4 territory): even grossly misspecified
/// priors must not destroy convergence when decay is enabled.
class OasisPriorSweep : public ::testing::TestWithParam<
                            std::tuple<double /*eta*/, bool /*decay*/>> {};

TEST_P(OasisPriorSweep, RobustToPriorStrength) {
  const auto [eta, decay] = GetParam();
  SyntheticPoolOptions pool_options;
  pool_options.size = 2000;
  pool_options.match_fraction = 0.05;
  pool_options.seed = 999;
  SyntheticPool pool = MakeSyntheticPool(pool_options);
  GroundTruthOracle oracle(pool.truth);
  LabelCache labels(&oracle);

  OasisOptions options;
  options.prior_strength = eta;
  options.decay_prior = decay;
  auto sampler = OasisSampler::CreateWithCsf(&pool.scored, &labels, 20, options,
                                             Rng(19))
                     .ValueOrDie();
  while (sampler->labels_consumed() < 1600) {
    ASSERT_TRUE(sampler->Step().ok());
  }
  const EstimateSnapshot snap = sampler->Estimate();
  ASSERT_TRUE(snap.f_defined);
  // The AIS estimate is consistent regardless of the prior; the prior only
  // shapes the sampling distribution (efficiency, not correctness).
  EXPECT_NEAR(snap.f_alpha, pool.true_measures.f_alpha, 0.08)
      << "eta=" << eta << " decay=" << decay;
}

INSTANTIATE_TEST_SUITE_P(PriorStrengths, OasisPriorSweep,
                         ::testing::Combine(::testing::Values(0.5, 2.0, 60.0,
                                                              500.0),
                                            ::testing::Bool()));

/// Determinism sweep: identical seeds reproduce identical estimates across
/// every configuration (the reproducibility contract of the library).
class OasisDeterminismSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(OasisDeterminismSweep, IdenticalSeedsIdenticalRuns) {
  const size_t target_strata = GetParam();
  SyntheticPool pool = MakeSyntheticPool({});
  GroundTruthOracle oracle(pool.truth);

  double estimates[2];
  for (int run = 0; run < 2; ++run) {
    LabelCache labels(&oracle);
    auto sampler = OasisSampler::CreateWithCsf(&pool.scored, &labels,
                                               target_strata, OasisOptions{},
                                               Rng(4242))
                       .ValueOrDie();
    for (int i = 0; i < 1500; ++i) ASSERT_TRUE(sampler->Step().ok());
    estimates[run] = sampler->Estimate().f_alpha;
  }
  EXPECT_DOUBLE_EQ(estimates[0], estimates[1]);
}

INSTANTIATE_TEST_SUITE_P(StratumCounts, OasisDeterminismSweep,
                         ::testing::Values(5, 30, 60, 120));

/// Adversarial-generator sweep: OASIS must remain a consistent estimator on
/// the known-truth scenario pools — extreme imbalance, heavy stratum skew,
/// clustered score mass, a collapsed single stratum, the SIS-breaker score
/// inversion, and a noisy oracle (where the target is the flip-adjusted F).
/// Each scenario's truth is exact by construction, so the assertion needs no
/// reference implementation. Estimates are averaged over a few seeds to damp
/// single-run sampling noise without hiding systematic bias.
class OasisAdversarialSweep : public ::testing::TestWithParam<const char*> {};

TEST_P(OasisAdversarialSweep, ConvergesOnAdversarialPools) {
  const datagen::ScenarioPool pool =
      datagen::GenerateScenario(datagen::ScenarioByName(GetParam()).ValueOrDie())
          .ValueOrDie();
  auto oracle = datagen::MakeScenarioOracle(pool).ValueOrDie();

  double sum = 0.0;
  const int runs = 3;
  for (int run = 0; run < runs; ++run) {
    LabelCache labels(oracle.get());
    OasisOptions options;
    options.alpha = pool.spec.alpha;
    auto sampler = OasisSampler::CreateWithCsf(&pool.scored, &labels, 30,
                                               options, Rng(70 + run))
                       .ValueOrDie();
    while (labels.labels_consumed() < 2000) {
      ASSERT_TRUE(sampler->Step().ok());
      ASSERT_LT(sampler->iterations(), 400000)
          << pool.spec.name << ": failed to consume the label budget";
    }
    const EstimateSnapshot snap = sampler->Estimate();
    ASSERT_TRUE(snap.f_defined) << pool.spec.name << " run " << run;
    sum += snap.f_alpha;
  }
  const double mean = sum / runs;
  // Scenario tolerances are calibrated for the app harness's larger repeat
  // counts; three runs at this budget need roughly double the band.
  const double tolerance = std::max(0.1, 2.0 * pool.spec.verify_tolerance);
  EXPECT_NEAR(mean, pool.true_f, tolerance) << pool.spec.name;
}

INSTANTIATE_TEST_SUITE_P(Scenarios, OasisAdversarialSweep,
                         ::testing::Values("stripe-f90", "imbalance-1e3",
                                           "skew-heavy", "clustered",
                                           "single-stratum", "sis-inversion",
                                           "noisy-flip05"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

/// The flip side of the SIS-breaker property in sampler_property_test.cc:
/// on the pool that provably degenerates a static importance sampler, the
/// ADAPTIVE sampler must keep its weights healthy — it relocates instrumental
/// mass onto the hidden stratum as labels reveal the score lie. This is the
/// paper's robustness claim reduced to a monitor assertion.
TEST(OasisAdversarialDegeneracyTest, StaysHealthyOnTheSisBreakerPool) {
  const datagen::ScenarioPool pool =
      datagen::GenerateScenario(
          datagen::ScenarioByName("sis-inversion").ValueOrDie())
          .ValueOrDie();
  GroundTruthOracle oracle(pool.truth);
  for (const uint64_t seed : {7u, 19u, 23u}) {
    LabelCache labels(&oracle);
    OasisOptions options;
    options.alpha = pool.spec.alpha;
    auto sampler = OasisSampler::CreateWithCsf(&pool.scored, &labels, 30,
                                               options, Rng(seed))
                       .ValueOrDie();
    while (labels.labels_consumed() < 2000) {
      ASSERT_TRUE(sampler->Step().ok());
      ASSERT_LT(sampler->iterations(), 400000);
    }
    const DegeneracyMonitor* monitor = sampler->degeneracy_monitor();
    ASSERT_NE(monitor, nullptr);
    EXPECT_FALSE(monitor->degenerate())
        << "seed=" << seed << " ess_fraction=" << monitor->ess_fraction()
        << " max_weight_share=" << monitor->max_weight_share();
  }
}

/// Exact-K rank stratification for the pool-scale sweeps: argsort the scores
/// and assign rank i to stratum floor(i*K/N). CSF's histogram refinement is
/// built for K in the tens-to-hundreds and collapses (or crawls) at
/// K = 100k, so the large-K fixtures stratify by rank directly — every
/// stratum non-empty by construction, so num_strata() == K exactly.
Strata RankStrata(const std::vector<double>& scores, size_t k) {
  std::vector<int32_t> order(scores.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int32_t a, int32_t b) {
    return scores[a] < scores[b];
  });
  std::vector<int32_t> assignment(scores.size());
  for (size_t i = 0; i < order.size(); ++i) {
    assignment[order[i]] = static_cast<int32_t>(i * k / order.size());
  }
  return Strata::FromAssignment(assignment).ValueOrDie();
}

/// Pool-scale scenario fixture, cached per scenario name: generating a 400k
/// pool is cheap (<0.1s) but there is no reason to repeat it per test case.
struct LargeKFixture {
  datagen::ScenarioPool pool;
  std::unique_ptr<Oracle> oracle;
  std::shared_ptr<const Strata> strata;  // K = 100000 by rank.
};

const LargeKFixture& LargeScenario(const std::string& name) {
  static auto* cache = new std::map<std::string, LargeKFixture>();
  auto it = cache->find(name);
  if (it == cache->end()) {
    datagen::ScenarioSpec spec = datagen::ScenarioByName(name).ValueOrDie();
    spec.pool_size = 400000;
    LargeKFixture fixture;
    fixture.pool = datagen::GenerateScenario(spec).ValueOrDie();
    fixture.oracle = datagen::MakeScenarioOracle(fixture.pool).ValueOrDie();
    fixture.strata = std::make_shared<const Strata>(
        RankStrata(fixture.pool.scored.scores, 100000));
    it = cache->emplace(name, std::move(fixture)).first;
  }
  return it->second;
}

/// Pool-scale catalogue sweep: K = 100k strata over 400k-item scenario pools,
/// exercised through the sub-linear kFenwick step path. This is the regime
/// the Fenwick backend exists for (budget << K, four items per
/// stratum), and the estimator must stay consistent there: the epsilon mix
/// keeps full support, so the importance-weighted estimate converges on the
/// constructed truth even though most strata are never visited. Estimates
/// are averaged over five seeded runs; everything is deterministic, so the
/// band is calibrated once against the worst observed mean error (0.09).
class OasisLargeKSweep : public ::testing::TestWithParam<const char*> {};

TEST_P(OasisLargeKSweep, ConsistentAtPoolScaleK) {
  const char* scenario = GetParam();
  const LargeKFixture& fixture = LargeScenario(scenario);
  ASSERT_EQ(fixture.strata->num_strata(), 100000u);

  double sum = 0.0;
  const int runs = 5;
  for (int run = 0; run < runs; ++run) {
    LabelCache labels(fixture.oracle.get());
    OasisOptions options;
    options.alpha = fixture.pool.spec.alpha;
    options.step_path = OasisStepPath::kFenwick;
    auto sampler = OasisSampler::Create(&fixture.pool.scored, &labels,
                                        fixture.strata, options,
                                        Rng(70 + static_cast<uint64_t>(run)))
                       .ValueOrDie();
    while (labels.labels_consumed() < 5000) {
      ASSERT_TRUE(sampler->Step().ok());
      ASSERT_LT(sampler->iterations(), 2000000)
          << scenario << ": failed to consume the label budget";
    }
    const EstimateSnapshot snap = sampler->Estimate();
    ASSERT_TRUE(snap.f_defined) << scenario << " run " << run;
    sum += snap.f_alpha;
  }
  EXPECT_NEAR(sum / runs, fixture.pool.true_f, 0.15) << scenario;
}

INSTANTIATE_TEST_SUITE_P(
    PoolScaleScenarios, OasisLargeKSweep,
    ::testing::Values("stripe-f90", "imbalance-1e3"),
    [](const ::testing::TestParamInfo<const char*>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

/// The sis-inversion breaker at pool scale: the DegeneracyMonitor must trip
/// exactly where the theory says it should. Three regimes on the SAME
/// 400k-item pool:
///   1. static IS — trips (nothing to adapt; the score lie is fatal);
///   2. adaptive at K = 100k, budget 2500 — trips: with budget << K the
///      posterior never accumulates enough labels per stratum to relocate
///      instrumental mass, so pool-scale K degenerates exactly like the
///      static sampler (the practical argument for bounding K by budget);
///   3. adaptive at K = 30 — healthy: the same budget is plenty to adapt 30
///      posteriors away from the lie (the existing K=30 catalogue test, here
///      re-established on the pool-scale fixture).
TEST(OasisLargeKDegeneracyTest, SisBreakerTripsExactlyWhereExpected) {
  const LargeKFixture& fixture = LargeScenario("sis-inversion");
  ASSERT_TRUE(fixture.pool.spec.expect_sis_degeneracy);

  {
    LabelCache labels(fixture.oracle.get());
    ImportanceOptions options;
    options.alpha = fixture.pool.spec.alpha;
    auto sampler = ImportanceSampler::Create(&fixture.pool.scored, &labels,
                                             options, Rng(7))
                       .ValueOrDie();
    while (labels.labels_consumed() < 2500) {
      ASSERT_TRUE(sampler->Step().ok());
    }
    const DegeneracyMonitor* monitor = sampler->degeneracy_monitor();
    ASSERT_NE(monitor, nullptr);
    EXPECT_TRUE(monitor->degenerate())
        << "static IS must trip on the breaker (ess="
        << monitor->ess_fraction() << ")";
  }

  {
    LabelCache labels(fixture.oracle.get());
    OasisOptions options;
    options.alpha = fixture.pool.spec.alpha;
    options.step_path = OasisStepPath::kFenwick;
    auto sampler = OasisSampler::Create(&fixture.pool.scored, &labels,
                                        fixture.strata, options, Rng(70))
                       .ValueOrDie();
    while (labels.labels_consumed() < 2500) {
      ASSERT_TRUE(sampler->Step().ok());
      ASSERT_LT(sampler->iterations(), 2000000);
    }
    const DegeneracyMonitor* monitor = sampler->degeneracy_monitor();
    ASSERT_NE(monitor, nullptr);
    EXPECT_TRUE(monitor->degenerate())
        << "budget << K leaves no room to adapt, so pool-scale K must trip"
        << " (ess=" << monitor->ess_fraction() << ")";
  }

  auto coarse = std::make_shared<const Strata>(
      RankStrata(fixture.pool.scored.scores, 30));
  for (const uint64_t seed : {7u, 19u, 23u}) {
    LabelCache labels(fixture.oracle.get());
    OasisOptions options;
    options.alpha = fixture.pool.spec.alpha;
    auto sampler = OasisSampler::Create(&fixture.pool.scored, &labels, coarse,
                                        options, Rng(seed))
                       .ValueOrDie();
    while (labels.labels_consumed() < 2500) {
      ASSERT_TRUE(sampler->Step().ok());
      ASSERT_LT(sampler->iterations(), 2000000);
    }
    const DegeneracyMonitor* monitor = sampler->degeneracy_monitor();
    ASSERT_NE(monitor, nullptr);
    EXPECT_FALSE(monitor->degenerate())
        << "seed=" << seed << ": K=30 on the same pool must stay healthy"
        << " (ess=" << monitor->ess_fraction() << ")";
  }
}

}  // namespace
}  // namespace oasis
