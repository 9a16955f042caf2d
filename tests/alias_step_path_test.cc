// Equivalence and performance-semantics tests for OasisStepPath::kAlias:
//  * with rebuild tolerance 0 the alias snapshot is refreshed whenever
//    anything drifted at all, so the distribution each draw uses tracks
//    CurrentInstrumental() up to one observation of staleness;
//  * the long-run stratum-visit distribution matches BOTH the Fenwick and the
//    fused paths within statistical tolerance — total variation and a
//    two-sample chi-squared statistic (the paths consume the RNG differently,
//    so the promise is equality in distribution, not bit-identity);
//  * estimates remain consistent at ANY rebuild tolerance, including ones
//    that leave the snapshot very stale (the epsilon mix keeps full support
//    and weights are computed against the mixture actually sampled);
//  * with the default tolerance the actually-sampled distribution stays close
//    to the ideal v(t) — the dual drift gate (F-hat drift OR accumulated L1
//    posterior-mass drift) bounds the staleness;
//  * StepBatch(n) on the alias path equals n calls to Step() exactly;
//  * the alias step performs zero heap allocations after warm-up, INCLUDING
//    the in-place table rebuilds the drift gate triggers.

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

class AliasStepPathTest : public ::testing::Test {
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

  /// Per-stratum visit counts. Every step observes exactly one label into its
  /// drawn stratum, so the beta model's observation counters are the visit
  /// histogram.
  static std::vector<double> VisitCounts(const OasisSampler& sampler) {
    const size_t k = sampler.strata().num_strata();
    std::vector<double> counts(k, 0.0);
    for (size_t s = 0; s < k; ++s) {
      counts[s] = static_cast<double>(sampler.model().labels_observed(s));
    }
    return counts;
  }

  static std::vector<double> Normalized(std::vector<double> counts) {
    double total = 0.0;
    for (double c : counts) total += c;
    for (double& c : counts) c /= total;
    return counts;
  }

  static double TotalVariation(const std::vector<double>& a,
                               const std::vector<double>& b) {
    double tv = 0.0;
    for (size_t i = 0; i < a.size(); ++i) tv += std::fabs(a[i] - b[i]);
    return 0.5 * tv;
  }

  /// Two-sample chi-squared statistic over equal-length visit-count vectors
  /// with equal totals: sum (a_i - b_i)^2 / (a_i + b_i) over non-empty bins,
  /// ~chi2(k - 1) under identical sampling distributions.
  static double TwoSampleChiSquared(const std::vector<double>& a,
                                    const std::vector<double>& b) {
    double stat = 0.0;
    for (size_t i = 0; i < a.size(); ++i) {
      const double sum = a[i] + b[i];
      if (sum <= 0.0) continue;
      const double diff = a[i] - b[i];
      stat += diff * diff / sum;
    }
    return stat;
  }

  SyntheticPool pool_;
  std::unique_ptr<GroundTruthOracle> oracle_;
  std::shared_ptr<const Strata> strata_;
};

TEST_F(AliasStepPathTest, RejectsInvalidRebuildTolerance) {
  LabelCache labels(oracle_.get());
  OasisOptions options;
  options.step_path = OasisStepPath::kAlias;
  options.fenwick_rebuild_tol = -0.5;
  EXPECT_FALSE(
      OasisSampler::Create(&pool_.scored, &labels, strata_, options, Rng(1)).ok());
  options.fenwick_rebuild_tol = std::nan("");
  EXPECT_FALSE(
      OasisSampler::Create(&pool_.scored, &labels, strata_, options, Rng(1)).ok());
}

TEST_F(AliasStepPathTest, AliasInstrumentalRequiresAliasPath) {
  LabelCache labels(oracle_.get());
  auto fused = MakeSampler(OasisStepPath::kFused, 3, labels);
  EXPECT_FALSE(fused->AliasInstrumental().ok());
  auto fenwick = MakeSampler(OasisStepPath::kFenwick, 4, labels);
  EXPECT_FALSE(fenwick->AliasInstrumental().ok());
  auto alias = MakeSampler(OasisStepPath::kAlias, 5, labels);
  EXPECT_TRUE(alias->AliasInstrumental().ok());
}

TEST_F(AliasStepPathTest, ZeroToleranceTracksExactInstrumental) {
  // With rebuild tolerance 0 the dual drift gate fires on any movement —
  // F-hat changed, or any observed stratum's mass changed — so the table is
  // always a snapshot of v(pi(t'), F(t')) at most one observation behind;
  // after hundreds of steps that single-observation increment is tiny.
  LabelCache labels(oracle_.get());
  auto sampler = MakeSampler(OasisStepPath::kAlias, 5, labels, 0.0);
  ASSERT_TRUE(sampler->StepBatch(1000).ok());
  const std::vector<double> actual = sampler->AliasInstrumental().ValueOrDie();
  const std::vector<double> ideal = sampler->CurrentInstrumental().ValueOrDie();
  ASSERT_EQ(actual.size(), ideal.size());
  for (size_t k = 0; k < actual.size(); ++k) {
    EXPECT_NEAR(actual[k], ideal[k], 5e-3);
  }
  double sum = 0.0;
  for (double v : actual) sum += v;
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST_F(AliasStepPathTest, VisitDistributionMatchesFenwickAndFusedPaths) {
  // 20k steps per path. All three draw from the same adaptive distribution
  // but consume the RNG differently, so compare long-run stratum-visit
  // histograms: small total variation pairwise, and a two-sample chi-squared
  // statistic far below gross-mismatch territory (identical distributions
  // give ~chi2(K - 1); a structurally different instrumental gives values in
  // the thousands at this sample size).
  const int kSteps = 20000;
  LabelCache fused_labels(oracle_.get());
  LabelCache fenwick_labels(oracle_.get());
  LabelCache alias_labels(oracle_.get());
  auto fused = MakeSampler(OasisStepPath::kFused, 11, fused_labels);
  auto fenwick = MakeSampler(OasisStepPath::kFenwick, 12, fenwick_labels);
  auto alias = MakeSampler(OasisStepPath::kAlias, 14, alias_labels);
  ASSERT_TRUE(fused->StepBatch(kSteps).ok());
  ASSERT_TRUE(fenwick->StepBatch(kSteps).ok());
  ASSERT_TRUE(alias->StepBatch(kSteps).ok());

  const std::vector<double> fused_counts = VisitCounts(*fused);
  const std::vector<double> fenwick_counts = VisitCounts(*fenwick);
  const std::vector<double> alias_counts = VisitCounts(*alias);

  const double tv_vs_fused =
      TotalVariation(Normalized(alias_counts), Normalized(fused_counts));
  EXPECT_LT(tv_vs_fused, 0.05)
      << "total variation alias vs fused: " << tv_vs_fused;
  const double tv_vs_fenwick =
      TotalVariation(Normalized(alias_counts), Normalized(fenwick_counts));
  EXPECT_LT(tv_vs_fenwick, 0.05)
      << "total variation alias vs fenwick: " << tv_vs_fenwick;

  const double chi2_vs_fenwick =
      TwoSampleChiSquared(alias_counts, fenwick_counts);
  EXPECT_LT(chi2_vs_fenwick, 150.0)
      << "two-sample chi-squared alias vs fenwick: " << chi2_vs_fenwick;

  // And all converge to the same F.
  const EstimateSnapshot fused_snap = fused->Estimate();
  const EstimateSnapshot alias_snap = alias->Estimate();
  ASSERT_TRUE(fused_snap.f_defined);
  ASSERT_TRUE(alias_snap.f_defined);
  EXPECT_NEAR(fused_snap.f_alpha, alias_snap.f_alpha, 0.04);
}

TEST_F(AliasStepPathTest, DefaultToleranceStaysCloseToIdealInstrumental) {
  LabelCache labels(oracle_.get());
  auto sampler = MakeSampler(OasisStepPath::kAlias, 13, labels);  // tol 1e-2
  ASSERT_TRUE(sampler->StepBatch(5000).ok());
  const std::vector<double> actual = sampler->AliasInstrumental().ValueOrDie();
  const std::vector<double> ideal = sampler->CurrentInstrumental().ValueOrDie();
  // The staleness is bounded by the dual gate: at most fenwick_rebuild_tol of
  // F drift pushed through the v* formula plus the same fraction of the total
  // mass in accumulated posterior drift; an L1 bound of a few multiples of
  // the tolerance catches structural divergence without flaking.
  double l1 = 0.0;
  for (size_t k = 0; k < actual.size(); ++k) l1 += std::fabs(actual[k] - ideal[k]);
  EXPECT_LT(l1, 0.05) << "L1(actual, ideal) = " << l1;
}

TEST_F(AliasStepPathTest, EstimatesConsistentAtAnyRebuildTolerance) {
  // Consistency does not depend on the drift gate: the importance weight is
  // always computed against the mixture the draw actually used, which keeps
  // full support through the epsilon component. Even a tolerance that leaves
  // the snapshot frozen for long stretches must converge to the true F.
  const double kTols[] = {0.0, 1e-3, 1e-2, 0.1, 0.5};
  uint64_t seed = 29;
  for (const double tol : kTols) {
    LabelCache labels(oracle_.get());
    auto sampler = MakeSampler(OasisStepPath::kAlias, seed++, labels, tol);
    while (sampler->labels_consumed() < 2500) {
      ASSERT_TRUE(sampler->Step().ok());
    }
    const EstimateSnapshot snap = sampler->Estimate();
    ASSERT_TRUE(snap.f_defined);
    EXPECT_NEAR(snap.f_alpha, pool_.true_measures.f_alpha, 0.06)
        << "rebuild tolerance " << tol;
  }
}

TEST_F(AliasStepPathTest, StepBatchMatchesStepExactly) {
  LabelCache labels_a(oracle_.get());
  LabelCache labels_b(oracle_.get());
  auto stepwise = MakeSampler(OasisStepPath::kAlias, 19, labels_a);
  auto batched = MakeSampler(OasisStepPath::kAlias, 19, labels_b);

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

TEST_F(AliasStepPathTest, AliasStepPerformsZeroHeapAllocations) {
  LabelCache labels(oracle_.get());
  auto sampler = MakeSampler(OasisStepPath::kAlias, 23, labels);
  // Warm up: first steps include early-F rebuilds and scratch sizing. Unlike
  // kFenwick, drift rebuilds KEEP firing in the measured region below — the
  // in-place Vose refresh over retained scratch must not allocate either.
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
