// Equivalence tests for the batched / zero-allocation sampling hot path:
//  * OasisSampler's fused step path is bit-for-bit identical to the
//    allocating reference sampler (tests/reference_oasis.h);
//  * StepBatch(n) equals n calls to Step() exactly, for every sampler;
//  * the batched RunTrajectory matches the original per-step driver loop;
//  * the fused OASIS step performs zero heap allocations.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/oasis.h"
#include "oracle/ground_truth_oracle.h"
#include "sampling/importance.h"
#include "sampling/passive.h"
#include "sampling/stratified.h"
#include "sampling/trajectory.h"
#include "strata/csf.h"
#include "tests/alloc_counter.h"
#include "tests/reference_oasis.h"
#include "tests/test_util.h"

namespace oasis {
namespace {

void ExpectSnapshotsIdentical(const EstimateSnapshot& a,
                              const EstimateSnapshot& b) {
  EXPECT_EQ(a.f_defined, b.f_defined);
  EXPECT_EQ(a.precision_defined, b.precision_defined);
  EXPECT_EQ(a.recall_defined, b.recall_defined);
  // Exact equality on purpose: the batched and fused paths promise
  // bit-identical estimate sequences, not just close ones.
  EXPECT_EQ(a.f_alpha, b.f_alpha);
  EXPECT_EQ(a.precision, b.precision);
  EXPECT_EQ(a.recall, b.recall);
}

// --- Fused vs allocating reference step path ------------------------------

TEST(OasisStepPathTest, FusedMatchesAllocatingReferenceBitForBit) {
  testutil::SyntheticPoolOptions pool_options;
  pool_options.size = 4000;
  pool_options.seed = 321;
  const testutil::SyntheticPool pool = testutil::MakeSyntheticPool(pool_options);
  GroundTruthOracle oracle(pool.truth);
  auto strata = std::make_shared<const Strata>(
      StratifyCsf(pool.scored.scores, 30, pool.scored.scores_are_probabilities)
          .ValueOrDie());
  auto setup =
      OasisSampler::Prepare(&pool.scored, strata, OasisOptions{}).ValueOrDie();
  ASSERT_EQ(setup->options.step_path, OasisStepPath::kFused);

  LabelCache fused_labels(&oracle);
  LabelCache reference_labels(&oracle);
  const uint64_t seed = 2026;
  auto fused =
      OasisSampler::Create(setup, &fused_labels, Rng(seed)).ValueOrDie();
  auto reference = testutil::ReferenceOasisSampler::Create(
                       setup, &reference_labels, Rng(seed))
                       .ValueOrDie();
  double fused_weight = -1.0;
  double reference_weight = -1.0;
  fused->SetObserver([&](double w, bool, bool) { fused_weight = w; });
  reference->SetObserver([&](double w, bool, bool) { reference_weight = w; });

  for (int step = 0; step < 800; ++step) {
    ASSERT_TRUE(fused->Step().ok());
    ASSERT_TRUE(reference->Step().ok());
    EXPECT_EQ(fused_weight, reference_weight) << "step " << step;
    ExpectSnapshotsIdentical(fused->Estimate(), reference->Estimate());
  }
  EXPECT_EQ(fused->labels_consumed(), reference->labels_consumed());
  EXPECT_EQ(fused->iterations(), reference->iterations());

  // The incremental posterior caches must agree exactly with a full
  // recomputation from the model.
  const std::vector<double> fused_pi = fused->PosteriorMeans();
  const std::vector<double> reference_pi = reference->PosteriorMeans();
  ASSERT_EQ(fused_pi.size(), reference_pi.size());
  for (size_t k = 0; k < fused_pi.size(); ++k) {
    EXPECT_EQ(fused_pi[k], reference_pi[k]);
  }
}

// --- StepBatch == n x Step, for every sampler -----------------------------

/// Runs `total` iterations on two identically-seeded samplers, one per-step
/// and one in uneven batches, and expects identical estimates and counters.
void ExpectStepBatchMatchesStep(Sampler& stepwise, Sampler& batched, int total) {
  int done = 0;
  int batch = 1;
  while (done < total) {
    const int n = std::min(batch, total - done);
    for (int i = 0; i < n; ++i) ASSERT_TRUE(stepwise.Step().ok());
    ASSERT_TRUE(batched.StepBatch(n).ok());
    ExpectSnapshotsIdentical(stepwise.Estimate(), batched.Estimate());
    done += n;
    batch = batch * 2 + 1;  // Uneven batch sizes: 1, 3, 7, 15, ...
  }
  EXPECT_EQ(stepwise.iterations(), batched.iterations());
  EXPECT_EQ(stepwise.labels_consumed(), batched.labels_consumed());
}

class StepBatchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    testutil::SyntheticPoolOptions pool_options;
    pool_options.size = 3000;
    pool_options.seed = 99;
    pool_ = testutil::MakeSyntheticPool(pool_options);
    oracle_ = std::make_unique<GroundTruthOracle>(pool_.truth);
    strata_ = std::make_shared<const Strata>(
        StratifyCsf(pool_.scored.scores, 20, false).ValueOrDie());
  }

  testutil::SyntheticPool pool_;
  std::unique_ptr<GroundTruthOracle> oracle_;
  std::shared_ptr<const Strata> strata_;
};

TEST_F(StepBatchTest, PassiveMatches) {
  LabelCache labels_a(oracle_.get());
  LabelCache labels_b(oracle_.get());
  auto a = PassiveSampler::Create(&pool_.scored, &labels_a, 0.5, Rng(5)).ValueOrDie();
  auto b = PassiveSampler::Create(&pool_.scored, &labels_b, 0.5, Rng(5)).ValueOrDie();
  ExpectStepBatchMatchesStep(*a, *b, 500);
}

TEST_F(StepBatchTest, ImportanceMatchesBothBackends) {
  for (const SamplingBackend backend :
       {SamplingBackend::kAliasTable, SamplingBackend::kLinearScan}) {
    ImportanceOptions options;
    options.backend = backend;
    LabelCache labels_a(oracle_.get());
    LabelCache labels_b(oracle_.get());
    auto a = ImportanceSampler::Create(&pool_.scored, &labels_a, options, Rng(6))
                 .ValueOrDie();
    auto b = ImportanceSampler::Create(&pool_.scored, &labels_b, options, Rng(6))
                 .ValueOrDie();
    ExpectStepBatchMatchesStep(*a, *b, 500);
  }
}

TEST_F(StepBatchTest, StratifiedMatches) {
  LabelCache labels_a(oracle_.get());
  LabelCache labels_b(oracle_.get());
  auto a = StratifiedSampler::Create(&pool_.scored, &labels_a, strata_, 0.5, Rng(8))
               .ValueOrDie();
  auto b = StratifiedSampler::Create(&pool_.scored, &labels_b, strata_, 0.5, Rng(8))
               .ValueOrDie();
  ExpectStepBatchMatchesStep(*a, *b, 500);
}

TEST_F(StepBatchTest, OasisMatches) {
  LabelCache labels_a(oracle_.get());
  LabelCache labels_b(oracle_.get());
  auto a = OasisSampler::Create(&pool_.scored, &labels_a, strata_, OasisOptions{},
                                Rng(9))
               .ValueOrDie();
  auto b = OasisSampler::Create(&pool_.scored, &labels_b, strata_, OasisOptions{},
                                Rng(9))
               .ValueOrDie();
  ExpectStepBatchMatchesStep(*a, *b, 500);
}

TEST_F(StepBatchTest, RejectsNegativeAndAcceptsZero) {
  LabelCache labels(oracle_.get());
  auto sampler =
      PassiveSampler::Create(&pool_.scored, &labels, 0.5, Rng(5)).ValueOrDie();
  EXPECT_FALSE(sampler->StepBatch(-1).ok());
  EXPECT_TRUE(sampler->StepBatch(0).ok());
  EXPECT_EQ(sampler->iterations(), 0);
}

// --- Exception safety: mid-batch oracle failure ---------------------------

/// Fallible deterministic oracle that fails every TryLabelBatch call with a
/// (0-based) call index in [fail_from, fail_to) and answers truthfully
/// otherwise — a precisely placed transient outage.
class FailWindowOracle : public Oracle {
 public:
  FailWindowOracle(std::vector<uint8_t> truth, int fail_from, int fail_to)
      : truth_(std::move(truth)), fail_from_(fail_from), fail_to_(fail_to) {}

  bool Label(int64_t item, Rng&) const override {
    return truth_[static_cast<size_t>(item)] != 0;
  }
  double TrueProbability(int64_t item) const override {
    return truth_[static_cast<size_t>(item)] != 0 ? 1.0 : 0.0;
  }
  bool deterministic() const override { return true; }
  bool labelling_consumes_rng() const override { return false; }
  bool fallible() const override { return true; }
  int64_t num_items() const override {
    return static_cast<int64_t>(truth_.size());
  }
  Status TryLabelBatch(std::span<const int64_t> items, Rng&,
                       std::span<uint8_t> out,
                       std::span<uint8_t> resolved) const override {
    for (size_t i = 0; i < resolved.size(); ++i) resolved[i] = 0;
    const int call = calls_++;
    if (call >= fail_from_ && call < fail_to_) {
      return Status::Unavailable("FailWindowOracle: scheduled outage");
    }
    for (size_t i = 0; i < items.size(); ++i) {
      out[i] = truth_[static_cast<size_t>(items[i])];
      resolved[i] = 1;
    }
    return Status::OK();
  }

 private:
  std::vector<uint8_t> truth_;
  int fail_from_;
  int fail_to_;
  mutable int calls_ = 0;
};

TEST_F(StepBatchTest, PassiveMidBatchFailureLeavesNoHalfAppliedState) {
  // The oracle fails exactly the second QueryBatch round-trip: the first
  // StepBatch lands, the second fails as a whole chunk.
  FailWindowOracle flaky(pool_.truth, /*fail_from=*/1, /*fail_to=*/2);
  LabelCache labels(&flaky);
  auto sampler =
      PassiveSampler::Create(&pool_.scored, &labels, 0.5, Rng(33)).ValueOrDie();
  ASSERT_TRUE(sampler->StepBatch(50).ok());
  const Status failed = sampler->StepBatch(100);
  EXPECT_EQ(failed.code(), StatusCode::kUnavailable);
  // No half-applied state: the failed batch moved neither the iteration
  // counter nor the label budget, and the estimator is bit-identical to a
  // twin that stopped cleanly at the last completed step.
  EXPECT_EQ(sampler->iterations(), 50);
  GroundTruthOracle reliable(pool_.truth);
  LabelCache reference_labels(&reliable);
  auto reference = PassiveSampler::Create(&pool_.scored, &reference_labels, 0.5,
                                          Rng(33))
                       .ValueOrDie();
  ASSERT_TRUE(reference->StepBatch(50).ok());
  ExpectSnapshotsIdentical(sampler->Estimate(), reference->Estimate());
  EXPECT_EQ(sampler->labels_consumed(), reference->labels_consumed());

  // The sampler is not poisoned: once the oracle recovers, stepping resumes.
  ASSERT_TRUE(sampler->StepBatch(100).ok());
  EXPECT_EQ(sampler->iterations(), 150);
  EXPECT_TRUE(sampler->Estimate().f_defined);
}

TEST_F(StepBatchTest, OasisMidBatchFailureLeavesNoHalfAppliedState) {
  // OASIS queries per step (cache hits skip the oracle), so the outage is
  // placed on the 11th oracle round-trip — somewhere inside the big batch.
  FailWindowOracle flaky(pool_.truth, /*fail_from=*/10, /*fail_to=*/11);
  LabelCache labels(&flaky);
  auto sampler = OasisSampler::Create(&pool_.scored, &labels, strata_,
                                      OasisOptions{}, Rng(44))
                     .ValueOrDie();
  const Status failed = sampler->StepBatch(200);
  ASSERT_EQ(failed.code(), StatusCode::kUnavailable);
  const int64_t completed = sampler->iterations();
  EXPECT_GE(completed, 10);
  EXPECT_LT(completed, 200);

  // Invariant: the estimator AND the Bayesian posterior correspond to
  // exactly `completed` fully-applied steps — the failing step contributed
  // nothing (its only trace is the RNG draws it consumed).
  GroundTruthOracle reliable(pool_.truth);
  LabelCache reference_labels(&reliable);
  auto reference = OasisSampler::Create(&pool_.scored, &reference_labels,
                                        strata_, OasisOptions{}, Rng(44))
                       .ValueOrDie();
  for (int64_t i = 0; i < completed; ++i) ASSERT_TRUE(reference->Step().ok());
  ExpectSnapshotsIdentical(sampler->Estimate(), reference->Estimate());
  EXPECT_EQ(sampler->labels_consumed(), reference->labels_consumed());
  const std::vector<double> pi = sampler->PosteriorMeans();
  const std::vector<double> reference_pi = reference->PosteriorMeans();
  ASSERT_EQ(pi.size(), reference_pi.size());
  for (size_t k = 0; k < pi.size(); ++k) EXPECT_EQ(pi[k], reference_pi[k]);

  // Recovery: the outage window is spent, stepping resumes cleanly.
  ASSERT_TRUE(sampler->StepBatch(50).ok());
  EXPECT_EQ(sampler->iterations(), completed + 50);
}

// --- Batched trajectory vs the original per-step driver -------------------

TEST_F(StepBatchTest, TrajectoryMatchesPerStepReferenceLoop) {
  TrajectoryOptions options;
  options.budget = 400;
  options.checkpoint_every = 30;

  LabelCache labels_a(oracle_.get());
  auto batched_sampler = OasisSampler::Create(&pool_.scored, &labels_a, strata_,
                                              OasisOptions{}, Rng(12))
                             .ValueOrDie();
  const Trajectory batched =
      RunTrajectory(*batched_sampler, options).ValueOrDie();

  // Reference: the seed implementation's per-step loop.
  LabelCache labels_b(oracle_.get());
  auto stepwise_sampler = OasisSampler::Create(&pool_.scored, &labels_b, strata_,
                                               OasisOptions{}, Rng(12))
                              .ValueOrDie();
  Trajectory reference;
  for (int64_t b = options.checkpoint_every; b <= options.budget;
       b += options.checkpoint_every) {
    reference.budgets.push_back(b);
  }
  size_t next_checkpoint = 0;
  while (stepwise_sampler->labels_consumed() < options.budget) {
    ASSERT_TRUE(stepwise_sampler->Step().ok());
    const int64_t consumed = stepwise_sampler->labels_consumed();
    const EstimateSnapshot snap = stepwise_sampler->Estimate();
    if (reference.first_defined_budget < 0 && snap.f_defined) {
      reference.first_defined_budget = consumed;
    }
    while (next_checkpoint < reference.budgets.size() &&
           consumed >= reference.budgets[next_checkpoint]) {
      reference.snapshots.push_back(snap);
      ++next_checkpoint;
    }
  }

  EXPECT_EQ(batched.first_defined_budget, reference.first_defined_budget);
  EXPECT_EQ(batched.labels_consumed, options.budget);
  ASSERT_EQ(batched.snapshots.size(), reference.snapshots.size());
  for (size_t i = 0; i < reference.snapshots.size(); ++i) {
    ExpectSnapshotsIdentical(batched.snapshots[i], reference.snapshots[i]);
  }
  EXPECT_EQ(batched.total_iterations, stepwise_sampler->iterations());
}

// --- Zero allocations on the fused hot path -------------------------------

TEST_F(StepBatchTest, FusedStepPerformsZeroHeapAllocations) {
  LabelCache labels(oracle_.get());
  auto sampler = OasisSampler::Create(&pool_.scored, &labels, strata_,
                                      OasisOptions{}, Rng(21))
                     .ValueOrDie();
  // Warm up so any lazily-sized state is in place.
  ASSERT_TRUE(sampler->StepBatch(32).ok());

  g_allocation_count.store(0);
  g_count_allocations.store(true);
  const Status step_status = sampler->StepBatch(1000);
  g_count_allocations.store(false);
  ASSERT_TRUE(step_status.ok());
  EXPECT_EQ(g_allocation_count.load(), 0);

  // Positive control: the allocating reference sampler really does allocate
  // per step, so the counting hooks above can see an allocation.
  LabelCache reference_labels(oracle_.get());
  auto reference = testutil::ReferenceOasisSampler::Create(
                       sampler->setup(), &reference_labels, Rng(21))
                       .ValueOrDie();
  ASSERT_TRUE(reference->StepBatch(32).ok());
  g_allocation_count.store(0);
  g_count_allocations.store(true);
  const Status reference_status = reference->StepBatch(1000);
  g_count_allocations.store(false);
  ASSERT_TRUE(reference_status.ok());
  EXPECT_GT(g_allocation_count.load(), 0);
}

}  // namespace
}  // namespace oasis
