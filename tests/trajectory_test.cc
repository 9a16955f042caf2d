#include "sampling/trajectory.h"

#include <gtest/gtest.h>

#include <initializer_list>
#include <memory>

#include "core/oasis.h"
#include "oracle/ground_truth_oracle.h"
#include "oracle/oracle_stack.h"
#include "sampling/passive.h"
#include "test_util.h"

namespace oasis {
namespace {

using testutil::MakeSyntheticPool;
using testutil::SyntheticPool;
using testutil::SyntheticPoolOptions;

TEST(TrajectoryTest, RejectsBadOptions) {
  SyntheticPool pool = MakeSyntheticPool({});
  GroundTruthOracle oracle(pool.truth);
  LabelCache labels(&oracle);
  auto sampler =
      PassiveSampler::Create(&pool.scored, &labels, 0.5, Rng(1)).ValueOrDie();
  TrajectoryOptions bad;
  bad.budget = 0;
  EXPECT_FALSE(RunTrajectory(*sampler, bad).ok());
  bad.budget = 10;
  bad.checkpoint_every = 0;
  EXPECT_FALSE(RunTrajectory(*sampler, bad).ok());
}

TEST(TrajectoryTest, CheckpointShapeMatchesBudget) {
  SyntheticPool pool = MakeSyntheticPool({});
  GroundTruthOracle oracle(pool.truth);
  LabelCache labels(&oracle);
  auto sampler =
      PassiveSampler::Create(&pool.scored, &labels, 0.5, Rng(2)).ValueOrDie();
  TrajectoryOptions options;
  options.budget = 100;
  options.checkpoint_every = 10;
  Trajectory trajectory = RunTrajectory(*sampler, options).ValueOrDie();
  ASSERT_EQ(trajectory.budgets.size(), 10u);
  ASSERT_EQ(trajectory.snapshots.size(), 10u);
  EXPECT_EQ(trajectory.budgets.front(), 10);
  EXPECT_EQ(trajectory.budgets.back(), 100);
  EXPECT_EQ(trajectory.labels_consumed, 100);
  EXPECT_FALSE(trajectory.truncated);
}

TEST(TrajectoryTest, BudgetConsumedExactly) {
  SyntheticPoolOptions opts;
  opts.size = 500;
  SyntheticPool pool = MakeSyntheticPool(opts);
  GroundTruthOracle oracle(pool.truth);
  LabelCache labels(&oracle);
  auto sampler =
      PassiveSampler::Create(&pool.scored, &labels, 0.5, Rng(3)).ValueOrDie();
  TrajectoryOptions options;
  options.budget = 200;
  options.checkpoint_every = 50;
  Trajectory trajectory = RunTrajectory(*sampler, options).ValueOrDie();
  EXPECT_EQ(trajectory.labels_consumed, 200);
  EXPECT_EQ(labels.labels_consumed(), 200);
  // Iterations >= labels (resampled cached items don't consume budget).
  EXPECT_GE(trajectory.total_iterations, 200);
}

TEST(TrajectoryTest, TruncatesWhenBudgetUnreachable) {
  // Pool of 50 items but budget of 100: the run can never consume more than
  // 50 distinct labels and must stop at the iteration cap, filling trailing
  // checkpoints with the final estimate.
  SyntheticPoolOptions opts;
  opts.size = 50;
  opts.match_fraction = 0.3;
  SyntheticPool pool = MakeSyntheticPool(opts);
  GroundTruthOracle oracle(pool.truth);
  LabelCache labels(&oracle);
  auto sampler =
      PassiveSampler::Create(&pool.scored, &labels, 0.5, Rng(4)).ValueOrDie();
  TrajectoryOptions options;
  options.budget = 100;
  options.checkpoint_every = 10;
  options.max_iterations = 5000;
  Trajectory trajectory = RunTrajectory(*sampler, options).ValueOrDie();
  EXPECT_TRUE(trajectory.truncated);
  EXPECT_EQ(trajectory.labels_consumed, 50);
  ASSERT_EQ(trajectory.snapshots.size(), 10u);
  // Trailing checkpoints hold the final (defined) estimate.
  EXPECT_TRUE(trajectory.snapshots.back().f_defined);
}

TEST(TrajectoryTest, FirstDefinedBudgetIsRecorded) {
  SyntheticPoolOptions opts;
  opts.size = 4000;
  opts.match_fraction = 0.01;
  opts.seed = 71;
  SyntheticPool pool = MakeSyntheticPool(opts);
  GroundTruthOracle oracle(pool.truth);
  LabelCache labels(&oracle);
  auto sampler =
      PassiveSampler::Create(&pool.scored, &labels, 0.5, Rng(5)).ValueOrDie();
  TrajectoryOptions options;
  options.budget = 1000;
  options.checkpoint_every = 100;
  Trajectory trajectory = RunTrajectory(*sampler, options).ValueOrDie();
  // With 1% positives the first positive typically needs dozens of draws.
  EXPECT_GT(trajectory.first_defined_budget, 0);
  EXPECT_LE(trajectory.first_defined_budget, 1000);
}

/// An OASIS sampler over its own fault+remote+retry stack, so every series
/// the cursor captures (cost, recovery, ESS) is populated.
struct StackedOasis {
  explicit StackedOasis(const SyntheticPool& pool, const Oracle& base)
      : stack(OracleStackBuilder()
                  .FaultInjection([] {
                    FaultInjectionOptions fault;
                    fault.transient_failure_rate = 0.05;
                    fault.item_drop_rate = 0.02;
                    return fault;
                  }())
                  .Remote([] {
                    RemoteOracleOptions remote;
                    remote.jitter_fraction = 0.25;
                    return remote;
                  }())
                  .Retry([] {
                    RetryPolicy retry;
                    retry.max_attempts = 30;
                    return retry;
                  }())
                  .Build(&base)
                  .ValueOrDie()),
        labels(&stack.top()),
        sampler(OasisSampler::CreateWithCsf(&pool.scored, &labels, 12,
                                            OasisOptions{}, Rng(21))
                    .ValueOrDie()) {}

  OracleStack stack;
  LabelCache labels;
  std::unique_ptr<OasisSampler> sampler;
};

void ExpectSameTrajectory(const Trajectory& got, const Trajectory& want) {
  EXPECT_EQ(got.budgets, want.budgets);
  ASSERT_EQ(got.snapshots.size(), want.snapshots.size());
  for (size_t i = 0; i < want.snapshots.size(); ++i) {
    EXPECT_EQ(got.snapshots[i].f_alpha, want.snapshots[i].f_alpha) << i;
    EXPECT_EQ(got.snapshots[i].precision, want.snapshots[i].precision) << i;
    EXPECT_EQ(got.snapshots[i].recall, want.snapshots[i].recall) << i;
    EXPECT_EQ(got.snapshots[i].f_defined, want.snapshots[i].f_defined) << i;
    EXPECT_EQ(got.snapshots[i].precision_defined,
              want.snapshots[i].precision_defined) << i;
    EXPECT_EQ(got.snapshots[i].recall_defined, want.snapshots[i].recall_defined)
        << i;
  }
  EXPECT_EQ(got.first_defined_budget, want.first_defined_budget);
  EXPECT_EQ(got.total_iterations, want.total_iterations);
  EXPECT_EQ(got.labels_consumed, want.labels_consumed);
  EXPECT_EQ(got.truncated, want.truncated);
  EXPECT_EQ(got.has_remote_stats, want.has_remote_stats);
  EXPECT_EQ(got.remote_round_trips, want.remote_round_trips);
  EXPECT_EQ(got.remote_seconds, want.remote_seconds);
  EXPECT_EQ(got.remote_cost, want.remote_cost);
  EXPECT_EQ(got.has_fault_stats, want.has_fault_stats);
  EXPECT_EQ(got.oracle_retries, want.oracle_retries);
  EXPECT_EQ(got.oracle_give_ups, want.oracle_give_ups);
  EXPECT_EQ(got.has_degeneracy_stats, want.has_degeneracy_stats);
  EXPECT_EQ(got.ess, want.ess);
}

// The determinism contract behind served sessions: however Advance is
// sliced, the cursor reproduces RunTrajectory field for field — estimates,
// the cost/recovery/ESS series, and the oracle attempt sequence behind them.
TEST(TrajectoryCursorTest, QuotaSlicedAdvancesMatchRunTrajectory) {
  SyntheticPoolOptions opts;
  opts.size = 600;
  opts.match_fraction = 0.1;
  const SyntheticPool pool = MakeSyntheticPool(opts);
  GroundTruthOracle oracle(pool.truth);
  TrajectoryOptions options;
  options.budget = 300;
  options.checkpoint_every = 25;

  StackedOasis whole(pool, oracle);
  const Trajectory want = RunTrajectory(*whole.sampler, options).ValueOrDie();
  ASSERT_TRUE(want.has_remote_stats);
  ASSERT_TRUE(want.has_fault_stats);
  ASSERT_TRUE(want.has_degeneracy_stats);
  ASSERT_GT(want.oracle_retries.back(), 0);

  StackedOasis sliced(pool, oracle);
  TrajectoryCursor cursor =
      TrajectoryCursor::Start(*sliced.sampler, options).ValueOrDie();
  int64_t charged = 0;
  for (const int64_t quota : {1, 7, 250}) {
    const int64_t got = cursor.Advance(quota).ValueOrDie();
    EXPECT_GE(got, quota);
    charged += got;
    ASSERT_FALSE(cursor.done()) << "quota " << quota;
    // A paused cursor holds exactly the checkpoints reached so far.
    const Trajectory& partial = cursor.trajectory();
    ASSERT_LE(partial.snapshots.size(), want.snapshots.size());
    for (size_t i = 0; i < partial.snapshots.size(); ++i) {
      EXPECT_EQ(partial.snapshots[i].f_alpha, want.snapshots[i].f_alpha);
      EXPECT_EQ(partial.remote_round_trips[i], want.remote_round_trips[i]);
      EXPECT_EQ(partial.oracle_retries[i], want.oracle_retries[i]);
      EXPECT_EQ(partial.ess[i], want.ess[i]);
    }
  }
  charged += cursor.Advance(0).ValueOrDie();
  ASSERT_TRUE(cursor.done());
  EXPECT_EQ(charged, want.labels_consumed);
  ExpectSameTrajectory(cursor.trajectory(), want);
  // A finished cursor charges nothing more.
  EXPECT_EQ(cursor.Advance(5).ValueOrDie(), 0);
}

TEST(TrajectoryCursorTest, IterationCapMidAdvanceTruncatesWithTrailingFill) {
  // 50 items, budget 100: the cap must fire inside the second Advance, well
  // before its quota is met.
  SyntheticPoolOptions opts;
  opts.size = 50;
  opts.match_fraction = 0.3;
  const SyntheticPool pool = MakeSyntheticPool(opts);
  GroundTruthOracle oracle(pool.truth);
  TrajectoryOptions options;
  options.budget = 100;
  options.checkpoint_every = 10;
  options.max_iterations = 5000;

  LabelCache whole_labels(&oracle);
  auto whole = PassiveSampler::Create(&pool.scored, &whole_labels, 0.5, Rng(4))
                   .ValueOrDie();
  const Trajectory want = RunTrajectory(*whole, options).ValueOrDie();

  LabelCache labels(&oracle);
  auto sampler =
      PassiveSampler::Create(&pool.scored, &labels, 0.5, Rng(4)).ValueOrDie();
  TrajectoryCursor cursor =
      TrajectoryCursor::Start(*sampler, options).ValueOrDie();
  const int64_t first = cursor.Advance(20).ValueOrDie();
  ASSERT_FALSE(cursor.done());
  EXPECT_FALSE(cursor.trajectory().truncated);
  const int64_t second = cursor.Advance(1000).ValueOrDie();
  ASSERT_TRUE(cursor.done());
  EXPECT_EQ(sampler->iterations(), options.max_iterations);

  const Trajectory& got = cursor.trajectory();
  EXPECT_TRUE(got.truncated);
  EXPECT_EQ(first + second, 50);
  EXPECT_EQ(got.labels_consumed, 50);
  // Trailing fill: the checkpoints past 50 labels all hold the final estimate.
  ASSERT_EQ(got.snapshots.size(), got.budgets.size());
  const EstimateSnapshot final_snap = sampler->Estimate();
  for (size_t i = 5; i < got.snapshots.size(); ++i) {
    EXPECT_EQ(got.snapshots[i].f_alpha, final_snap.f_alpha) << i;
    EXPECT_EQ(got.snapshots[i].f_defined, final_snap.f_defined) << i;
  }
  ExpectSameTrajectory(got, want);
}

}  // namespace
}  // namespace oasis
