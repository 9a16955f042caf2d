// Bit-identity of the incremental fused OASIS step against the allocating
// reference sampler (tests/reference_oasis.h). The fused step keeps its v*
// masses and their prefix sums across steps and recomputes only the
// previously observed stratum while F-hat is bit-for-bit unchanged; these
// tests step both paths side by side and demand the same stratum, weight and
// estimate at every step — across steps where F-hat moves and steps where it
// does not, at epsilon = 1e-3, 0.6 and 1, at K = 1, 30 and 1000, and through
// the all-zero mass fallback.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/oasis.h"
#include "oracle/ground_truth_oracle.h"
#include "strata/csf.h"
#include "strata/equal_size.h"
#include "telemetry/telemetry.h"
#include "tests/reference_oasis.h"
#include "tests/test_util.h"

namespace oasis {
namespace {

using testutil::ReferenceOasisSampler;

/// One sampler plus what its observer saw on the latest step.
template <typename SamplerT>
struct Probe {
  std::unique_ptr<LabelCache> labels;
  std::unique_ptr<SamplerT> sampler;
  double last_weight = -1.0;
};

/// A kFused OasisSampler or a ReferenceOasisSampler over a fresh setup.
template <typename SamplerT>
Probe<SamplerT> MakeProbe(const ScoredPool& pool, const Oracle& oracle,
                          std::shared_ptr<const Strata> strata,
                          const OasisOptions& options, uint64_t seed) {
  Probe<SamplerT> probe;
  probe.labels = std::make_unique<LabelCache>(&oracle);
  auto setup =
      OasisSampler::Prepare(&pool, std::move(strata), options).ValueOrDie();
  probe.sampler =
      SamplerT::Create(std::move(setup), probe.labels.get(), Rng(seed))
          .ValueOrDie();
  double* last_weight = &probe.last_weight;
  probe.sampler->SetObserver(
      [last_weight](double weight, bool, bool) { *last_weight = weight; });
  return probe;
}

using FusedProbe = Probe<OasisSampler>;
using ReferenceProbe = Probe<ReferenceOasisSampler>;

/// The stratum whose visit count grew between `before` and now.
template <typename SamplerT>
size_t ObservedStratum(const SamplerT& sampler,
                       const std::vector<int64_t>& before) {
  for (size_t k = 0; k < before.size(); ++k) {
    if (sampler.model().labels_observed(k) != before[k]) return k;
  }
  ADD_FAILURE() << "no stratum was observed";
  return before.size();
}

template <typename SamplerT>
std::vector<int64_t> VisitCounts(const SamplerT& sampler) {
  std::vector<int64_t> counts(sampler.strata().num_strata());
  for (size_t k = 0; k < counts.size(); ++k) {
    counts[k] = sampler.model().labels_observed(k);
  }
  return counts;
}

/// Fused steps that ran the exact CDF pass so far (the certified draw left
/// them undecided); -1 when telemetry is compiled out.
int64_t ExactDraws() {
#if defined(OASIS_TELEMETRY_DISABLED)
  return -1;
#else
  return telemetry::DefaultRegistry().CounterFamilyTotal(
      "oasis_sampler_fused_exact_draws_total");
#endif
}

void ExpectSnapshotsIdentical(const EstimateSnapshot& a,
                              const EstimateSnapshot& b) {
  EXPECT_EQ(a.f_defined, b.f_defined);
  EXPECT_EQ(a.precision_defined, b.precision_defined);
  EXPECT_EQ(a.recall_defined, b.recall_defined);
  EXPECT_EQ(a.f_alpha, b.f_alpha);
  EXPECT_EQ(a.precision, b.precision);
  EXPECT_EQ(a.recall, b.recall);
}

/// Steps both probes `steps` times and checks stratum, weight and snapshot
/// after every step. Returns how many steps left F-hat bit-for-bit unchanged
/// (the incremental branch) and how many moved it (the full rebuild).
struct StepCounts {
  int f_unchanged = 0;
  int f_changed = 0;
};

StepCounts StepSideBySide(FusedProbe& fused, ReferenceProbe& reference,
                          int steps) {
  StepCounts counts;
  for (int step = 0; step < steps; ++step) {
    const double f_before = fused.sampler->Estimate().f_alpha;
    const std::vector<int64_t> fused_before = VisitCounts(*fused.sampler);
    const std::vector<int64_t> reference_before =
        VisitCounts(*reference.sampler);
    EXPECT_TRUE(fused.sampler->Step().ok());
    EXPECT_TRUE(reference.sampler->Step().ok());
    EXPECT_EQ(ObservedStratum(*fused.sampler, fused_before),
              ObservedStratum(*reference.sampler, reference_before))
        << "step " << step;
    EXPECT_EQ(fused.last_weight, reference.last_weight) << "step " << step;
    ExpectSnapshotsIdentical(fused.sampler->Estimate(),
                             reference.sampler->Estimate());
    if (fused.sampler->Estimate().f_alpha == f_before) {
      ++counts.f_unchanged;
    } else {
      ++counts.f_changed;
    }
    if (::testing::Test::HasFailure()) break;
  }
  return counts;
}

TEST(FusedIncrementalTest, MatchesReferenceWhetherOrNotFHatMoves) {
  testutil::SyntheticPoolOptions pool_options;
  pool_options.size = 5000;
  pool_options.seed = 4242;
  const testutil::SyntheticPool pool = testutil::MakeSyntheticPool(pool_options);
  GroundTruthOracle oracle(pool.truth);
  auto strata = std::make_shared<const Strata>(
      StratifyCsf(pool.scored.scores, 30).ValueOrDie());

  telemetry::ScopedEnable telemetry_on(true);
  // The paper's greedy default, a mix weighted towards the stratum weights,
  // and the pure weights draw (where v* no longer matters to the draw).
  for (double epsilon : {1e-3, 0.6, 1.0}) {
    SCOPED_TRACE(epsilon);
    OasisOptions options;
    options.epsilon = epsilon;
    const int64_t exact_before = ExactDraws();
    FusedProbe fused =
        MakeProbe<OasisSampler>(pool.scored, oracle, strata, options, 31);
    ReferenceProbe reference = MakeProbe<ReferenceOasisSampler>(
        pool.scored, oracle, strata, options, 31);
    const StepCounts counts = StepSideBySide(fused, reference, 2000);
    // Both branches of the fused refresh must have been exercised.
    EXPECT_GT(counts.f_unchanged, 100);
    EXPECT_GT(counts.f_changed, 100);

    // StepBatch runs the same fused step without the per-call dispatch.
    ASSERT_TRUE(fused.sampler->StepBatch(777).ok());
    ASSERT_TRUE(reference.sampler->StepBatch(777).ok());
    ExpectSnapshotsIdentical(fused.sampler->Estimate(),
                             reference.sampler->Estimate());
    EXPECT_EQ(fused.sampler->labels_consumed(),
              reference.sampler->labels_consumed());
    // The certified draw, not its exact fallback, decided (almost) every
    // step.
    EXPECT_LE(ExactDraws() - exact_before, 3);
  }
}

TEST(FusedIncrementalTest, MatchesReferenceAtOneAndAThousandStrata) {
  // The certified draw searches prefix sums whose rounding bound grows with
  // K: check the single-stratum edge and a stratification far wider than
  // the paper's, where the exact arbiter and the search differ most.
  testutil::SyntheticPoolOptions pool_options;
  pool_options.size = 20000;
  pool_options.seed = 9090;
  const testutil::SyntheticPool pool = testutil::MakeSyntheticPool(pool_options);
  GroundTruthOracle oracle(pool.truth);
  for (size_t num_strata : {size_t{1}, size_t{1000}}) {
    SCOPED_TRACE(num_strata);
    auto strata = std::make_shared<const Strata>(
        StratifyEqualSize(pool.scored.scores, num_strata).ValueOrDie());
    ASSERT_EQ(strata->num_strata(), num_strata);
    FusedProbe fused = MakeProbe<OasisSampler>(
        pool.scored, oracle, strata, OasisOptions{}, 3 + num_strata);
    ReferenceProbe reference = MakeProbe<ReferenceOasisSampler>(
        pool.scored, oracle, strata, OasisOptions{}, 3 + num_strata);
    const StepCounts counts = StepSideBySide(fused, reference, 1500);
    EXPECT_GT(counts.f_unchanged, 50);
    EXPECT_GT(counts.f_changed, 50);
    ASSERT_TRUE(fused.sampler->StepBatch(1000).ok());
    ASSERT_TRUE(reference.sampler->StepBatch(1000).ok());
    ExpectSnapshotsIdentical(fused.sampler->Estimate(),
                             reference.sampler->Estimate());
    EXPECT_EQ(fused.sampler->labels_consumed(),
              reference.sampler->labels_consumed());
  }
}

TEST(FusedIncrementalTest, AllZeroMassFallbackMatchesReference) {
  // Every item predicted positive and alpha = 0 (recall): F-hat is exactly 1
  // from Algorithm 2 on, so every v* mass is zero and both paths sample
  // from the normalised stratum weights.
  Rng rng(99);
  ScoredPool scored;
  std::vector<uint8_t> truth;
  for (int i = 0; i < 3000; ++i) {
    scored.scores.push_back(0.5 + 0.5 * rng.NextDouble());
    scored.predictions.push_back(1);
    truth.push_back(rng.NextDouble() < 0.3 ? 1 : 0);
  }
  scored.scores_are_probabilities = true;
  scored.threshold = 0.5;
  GroundTruthOracle oracle(truth);
  auto strata = std::make_shared<const Strata>(
      StratifyCsf(scored.scores, 12, true).ValueOrDie());

  OasisOptions options;
  options.alpha = 0.0;
  telemetry::ScopedEnable telemetry_on(true);
  const int64_t exact_before = ExactDraws();
  FusedProbe fused =
      MakeProbe<OasisSampler>(scored, oracle, strata, options, 5);
  ReferenceProbe reference =
      MakeProbe<ReferenceOasisSampler>(scored, oracle, strata, options, 5);
  ASSERT_EQ(fused.sampler->initial_f(), 1.0);
  StepSideBySide(fused, reference, 600);
  // The certified draw cannot decide on a zero total: every step ran the
  // exact pass, and each was counted.
  if (exact_before >= 0) {
    EXPECT_EQ(ExactDraws() - exact_before, 600);
  }

  // The instrumental really is the weights fallback (eps * w + (1 - eps) * w).
  const std::vector<double> v = fused.sampler->CurrentInstrumental().ValueOrDie();
  for (size_t k = 0; k < v.size(); ++k) {
    EXPECT_NEAR(v[k], strata->weight(k), 1e-15);
  }
}

}  // namespace
}  // namespace oasis
