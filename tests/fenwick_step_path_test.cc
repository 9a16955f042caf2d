// Equivalence and performance-semantics tests for OasisStepPath::kFenwick:
//  * with rebuild tolerance 0 the Fenwick masses equal the exact v(t), so the
//    distribution each draw uses matches CurrentInstrumental() bit-for-bit;
//  * the long-run stratum-visit distribution matches the fused path within
//    statistical tolerance (the two paths consume the RNG differently, so the
//    promise is equality in distribution, not bit-identity);
//  * with the default tolerance the actually-sampled distribution stays close
//    to the ideal v(t) and the estimates remain consistent;
//  * StepBatch(n) on the Fenwick path equals n calls to Step() exactly;
//  * the Fenwick step performs zero heap allocations after warm-up.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "core/oasis.h"
#include "oracle/ground_truth_oracle.h"
#include "strata/csf.h"
#include "tests/alloc_counter.h"
#include "tests/test_util.h"

namespace oasis {
namespace {

using testutil::MakeSyntheticPool;
using testutil::SyntheticPool;
using testutil::SyntheticPoolOptions;

class FenwickStepPathTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SyntheticPoolOptions pool_options;
    pool_options.size = 4000;
    pool_options.match_fraction = 0.03;
    pool_options.seed = 77;
    pool_ = MakeSyntheticPool(pool_options);
    oracle_ = std::make_unique<GroundTruthOracle>(pool_.truth);
    strata_ = std::make_shared<const Strata>(
        StratifyCsf(pool_.scored.scores, 12, false).ValueOrDie());
  }

  std::unique_ptr<OasisSampler> MakeSampler(OasisStepPath path, uint64_t seed,
                                            LabelCache& labels,
                                            double rebuild_tol = 1e-2) {
    OasisOptions options;
    options.step_path = path;
    options.fenwick_rebuild_tol = rebuild_tol;
    return OasisSampler::Create(&pool_.scored, &labels, strata_, options, Rng(seed))
        .ValueOrDie();
  }

  /// Per-stratum visit counts, normalised to a distribution. Every step
  /// observes exactly one label into its drawn stratum, so the beta model's
  /// observation counters are the visit histogram.
  static std::vector<double> VisitDistribution(const OasisSampler& sampler) {
    const size_t k = sampler.strata().num_strata();
    std::vector<double> dist(k, 0.0);
    double total = 0.0;
    for (size_t s = 0; s < k; ++s) {
      dist[s] = static_cast<double>(sampler.model().labels_observed(s));
      total += dist[s];
    }
    for (double& d : dist) d /= total;
    return dist;
  }

  static double TotalVariation(const std::vector<double>& a,
                               const std::vector<double>& b) {
    double tv = 0.0;
    for (size_t i = 0; i < a.size(); ++i) tv += std::fabs(a[i] - b[i]);
    return 0.5 * tv;
  }

  SyntheticPool pool_;
  std::unique_ptr<GroundTruthOracle> oracle_;
  std::shared_ptr<const Strata> strata_;
};

TEST_F(FenwickStepPathTest, RejectsInvalidRebuildTolerance) {
  LabelCache labels(oracle_.get());
  OasisOptions options;
  options.step_path = OasisStepPath::kFenwick;
  options.fenwick_rebuild_tol = -0.5;
  EXPECT_FALSE(
      OasisSampler::Create(&pool_.scored, &labels, strata_, options, Rng(1)).ok());
  options.fenwick_rebuild_tol = std::nan("");
  EXPECT_FALSE(
      OasisSampler::Create(&pool_.scored, &labels, strata_, options, Rng(1)).ok());
}

TEST_F(FenwickStepPathTest, FenwickInstrumentalRequiresFenwickPath) {
  LabelCache labels(oracle_.get());
  auto fused = MakeSampler(OasisStepPath::kFused, 3, labels);
  EXPECT_FALSE(fused->FenwickInstrumental().ok());
}

TEST_F(FenwickStepPathTest, ZeroToleranceTracksExactInstrumental) {
  // With rebuild tolerance 0 every step whose F-hat moved at all rebuilds the
  // masses, so the tree state is always v(pi(t), F(t')) where t' is at most
  // one observation behind — after hundreds of steps that single-observation
  // F increment is tiny, and the actually-sampled distribution must sit on
  // top of the exact epsilon-greedy v(t).
  LabelCache labels(oracle_.get());
  auto sampler = MakeSampler(OasisStepPath::kFenwick, 5, labels, 0.0);
  ASSERT_TRUE(sampler->StepBatch(1000).ok());
  const std::vector<double> actual = sampler->FenwickInstrumental().ValueOrDie();
  const std::vector<double> ideal = sampler->CurrentInstrumental().ValueOrDie();
  ASSERT_EQ(actual.size(), ideal.size());
  for (size_t k = 0; k < actual.size(); ++k) {
    EXPECT_NEAR(actual[k], ideal[k], 5e-3);
  }
  double sum = 0.0;
  for (double v : actual) sum += v;
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST_F(FenwickStepPathTest, VisitDistributionMatchesFusedPath) {
  // 20k steps per path. The paths draw from the same adaptive distribution
  // but consume the RNG differently, so compare long-run stratum-visit
  // histograms: total variation distance must be small.
  const int kSteps = 20000;
  LabelCache fused_labels(oracle_.get());
  LabelCache fenwick_labels(oracle_.get());
  auto fused = MakeSampler(OasisStepPath::kFused, 11, fused_labels);
  auto fenwick = MakeSampler(OasisStepPath::kFenwick, 12, fenwick_labels);
  ASSERT_TRUE(fused->StepBatch(kSteps).ok());
  ASSERT_TRUE(fenwick->StepBatch(kSteps).ok());

  const std::vector<double> fused_dist = VisitDistribution(*fused);
  const std::vector<double> fenwick_dist = VisitDistribution(*fenwick);
  const double tv = TotalVariation(fused_dist, fenwick_dist);
  EXPECT_LT(tv, 0.05) << "total variation between visit histograms: " << tv;

  // And both converge to the same F (the estimates agree with each other and
  // with the exact pool value).
  const EstimateSnapshot fused_snap = fused->Estimate();
  const EstimateSnapshot fenwick_snap = fenwick->Estimate();
  ASSERT_TRUE(fused_snap.f_defined);
  ASSERT_TRUE(fenwick_snap.f_defined);
  EXPECT_NEAR(fused_snap.f_alpha, fenwick_snap.f_alpha, 0.04);
}

TEST_F(FenwickStepPathTest, DefaultToleranceStaysCloseToIdealInstrumental) {
  LabelCache labels(oracle_.get());
  auto sampler = MakeSampler(OasisStepPath::kFenwick, 13, labels);  // tol 1e-2
  ASSERT_TRUE(sampler->StepBatch(5000).ok());
  const std::vector<double> actual = sampler->FenwickInstrumental().ValueOrDie();
  const std::vector<double> ideal = sampler->CurrentInstrumental().ValueOrDie();
  // The staleness gap is driven by at most fenwick_rebuild_tol of F drift
  // pushed through the v* formula; an L1 bound of a few multiples of the
  // tolerance catches structural divergence without flaking.
  double l1 = 0.0;
  for (size_t k = 0; k < actual.size(); ++k) l1 += std::fabs(actual[k] - ideal[k]);
  EXPECT_LT(l1, 0.05) << "L1(actual, ideal) = " << l1;
}

TEST_F(FenwickStepPathTest, ConvergesToTrueF) {
  LabelCache labels(oracle_.get());
  auto sampler = MakeSampler(OasisStepPath::kFenwick, 17, labels);
  while (sampler->labels_consumed() < 2500) {
    ASSERT_TRUE(sampler->Step().ok());
  }
  const EstimateSnapshot snap = sampler->Estimate();
  ASSERT_TRUE(snap.f_defined);
  EXPECT_NEAR(snap.f_alpha, pool_.true_measures.f_alpha, 0.05);
}

TEST_F(FenwickStepPathTest, StepBatchMatchesStepExactly) {
  LabelCache labels_a(oracle_.get());
  LabelCache labels_b(oracle_.get());
  auto stepwise = MakeSampler(OasisStepPath::kFenwick, 19, labels_a);
  auto batched = MakeSampler(OasisStepPath::kFenwick, 19, labels_b);

  int done = 0;
  int batch = 1;
  while (done < 600) {
    const int n = std::min(batch, 600 - done);
    for (int i = 0; i < n; ++i) ASSERT_TRUE(stepwise->Step().ok());
    ASSERT_TRUE(batched->StepBatch(n).ok());
    const EstimateSnapshot a = stepwise->Estimate();
    const EstimateSnapshot b = batched->Estimate();
    EXPECT_EQ(a.f_defined, b.f_defined);
    EXPECT_EQ(a.f_alpha, b.f_alpha);
    EXPECT_EQ(a.precision, b.precision);
    EXPECT_EQ(a.recall, b.recall);
    done += n;
    batch = batch * 2 + 1;
  }
  EXPECT_EQ(stepwise->iterations(), batched->iterations());
  EXPECT_EQ(stepwise->labels_consumed(), batched->labels_consumed());
}

TEST_F(FenwickStepPathTest, FenwickStepPerformsZeroHeapAllocations) {
  LabelCache labels(oracle_.get());
  auto sampler = MakeSampler(OasisStepPath::kFenwick, 23, labels);
  // Warm up: first steps include early-F rebuilds and scratch sizing.
  ASSERT_TRUE(sampler->StepBatch(64).ok());

  g_allocation_count.store(0);
  g_count_allocations.store(true);
  const Status status = sampler->StepBatch(2000);
  g_count_allocations.store(false);
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(g_allocation_count.load(), 0);
}

}  // namespace
}  // namespace oasis
