#include "experiments/runner.h"

#include <gtest/gtest.h>

#include "oracle/ground_truth_oracle.h"
#include "strata/csf.h"
#include "test_util.h"

namespace oasis {
namespace experiments {
namespace {

using testutil::MakeSyntheticPool;
using testutil::SyntheticPool;
using testutil::SyntheticPoolOptions;

SyntheticPool MediumPool() {
  SyntheticPoolOptions options;
  options.size = 2000;
  options.match_fraction = 0.05;
  options.seed = 101;
  return MakeSyntheticPool(options);
}

TEST(RunnerTest, RejectsBadOptions) {
  SyntheticPool pool = MediumPool();
  GroundTruthOracle oracle(pool.truth);
  RunnerOptions options;
  options.repeats = 0;
  EXPECT_FALSE(RunErrorCurve(MakePassiveSpec(0.5), pool.scored, oracle,
                             pool.true_measures.f_alpha, options)
                   .ok());
  options.repeats = 2;
  options.trajectory.budget = 5;
  options.trajectory.checkpoint_every = 10;  // No checkpoint fits.
  EXPECT_FALSE(RunErrorCurve(MakePassiveSpec(0.5), pool.scored, oracle,
                             pool.true_measures.f_alpha, options)
                   .ok());
  options.trajectory.checkpoint_every = 0;
  EXPECT_FALSE(RunErrorCurve(MakePassiveSpec(0.5), pool.scored, oracle,
                             pool.true_measures.f_alpha, options)
                   .ok());
  // Sharing labels needs a remote layer to share them over.
  options.trajectory.checkpoint_every = 5;
  options.stack.share_labels = true;
  const Result<ErrorCurve> shareless =
      RunErrorCurve(MakePassiveSpec(0.5), pool.scored, oracle,
                    pool.true_measures.f_alpha, options);
  ASSERT_FALSE(shareless.ok());
  EXPECT_EQ(shareless.status().code(), StatusCode::kInvalidArgument);
}

TEST(RunnerTest, CurveShapeMatchesOptions) {
  SyntheticPool pool = MediumPool();
  GroundTruthOracle oracle(pool.truth);
  RunnerOptions options;
  options.repeats = 8;
  options.trajectory.budget = 200;
  options.trajectory.checkpoint_every = 50;
  ErrorCurve curve = RunErrorCurve(MakePassiveSpec(0.5), pool.scored, oracle,
                                   pool.true_measures.f_alpha, options)
                         .ValueOrDie();
  EXPECT_EQ(curve.method, "Passive");
  EXPECT_EQ(curve.repeats, 8);
  ASSERT_EQ(curve.budgets.size(), 4u);
  EXPECT_EQ(curve.budgets.back(), 200);
  EXPECT_EQ(curve.mean_abs_error.size(), 4u);
  EXPECT_EQ(curve.stddev.size(), 4u);
  EXPECT_EQ(curve.frac_defined.size(), 4u);
  // Every repeat charged its full budget.
  EXPECT_EQ(curve.labels_consumed, 8 * 200);
}

TEST(RunnerTest, ErrorShrinksWithBudget) {
  SyntheticPool pool = MediumPool();
  GroundTruthOracle oracle(pool.truth);
  RunnerOptions options;
  options.repeats = 24;
  options.trajectory.budget = 1500;
  options.trajectory.checkpoint_every = 100;
  ErrorCurve curve = RunErrorCurve(MakePassiveSpec(0.5), pool.scored, oracle,
                                   pool.true_measures.f_alpha, options)
                         .ValueOrDie();
  // Early error (first defined checkpoint) should exceed the final error.
  ASSERT_GT(curve.mean_abs_error.size(), 2u);
  double first_defined = -1.0;
  for (size_t i = 0; i < curve.budgets.size(); ++i) {
    if (curve.frac_defined[i] >= 0.95) {
      first_defined = curve.mean_abs_error[i];
      break;
    }
  }
  ASSERT_GE(first_defined, 0.0);
  EXPECT_LT(curve.mean_abs_error.back(), first_defined + 1e-12);
}

TEST(RunnerTest, DeterministicAcrossThreadCounts) {
  // Same base seed must yield identical aggregates whether run on one
  // thread or many (per-repeat RNG streams are scheduling-independent).
  SyntheticPool pool = MediumPool();
  GroundTruthOracle oracle(pool.truth);
  RunnerOptions options;
  options.repeats = 10;
  options.trajectory.budget = 300;
  options.trajectory.checkpoint_every = 100;
  options.base_seed = 777;

  options.num_threads = 1;
  ErrorCurve serial = RunErrorCurve(MakePassiveSpec(0.5), pool.scored, oracle,
                                    pool.true_measures.f_alpha, options)
                          .ValueOrDie();
  options.num_threads = 4;
  ErrorCurve parallel = RunErrorCurve(MakePassiveSpec(0.5), pool.scored, oracle,
                                      pool.true_measures.f_alpha, options)
                            .ValueOrDie();
  ASSERT_EQ(serial.budgets.size(), parallel.budgets.size());
  for (size_t i = 0; i < serial.budgets.size(); ++i) {
    EXPECT_NEAR(serial.mean_abs_error[i], parallel.mean_abs_error[i], 1e-12);
    EXPECT_NEAR(serial.stddev[i], parallel.stddev[i], 1e-12);
  }
}

TEST(RunnerTest, OasisSpecOutperformsPassiveOnImbalancedPool) {
  SyntheticPoolOptions pool_options;
  pool_options.size = 6000;
  pool_options.match_fraction = 0.01;
  pool_options.seed = 103;
  SyntheticPool pool = MakeSyntheticPool(pool_options);
  GroundTruthOracle oracle(pool.truth);

  auto strata = std::make_shared<const Strata>(
      StratifyCsf(pool.scored.scores, 20).ValueOrDie());

  RunnerOptions options;
  options.repeats = 16;
  options.trajectory.budget = 400;
  options.trajectory.checkpoint_every = 400;

  ErrorCurve oasis = RunErrorCurve(MakeOasisSpec(OasisOptions{}, strata),
                                   pool.scored, oracle,
                                   pool.true_measures.f_alpha, options)
                         .ValueOrDie();
  ErrorCurve passive = RunErrorCurve(MakePassiveSpec(0.5), pool.scored, oracle,
                                     pool.true_measures.f_alpha, options)
                           .ValueOrDie();
  ASSERT_EQ(oasis.frac_defined.back(), 1.0);
  // Passive may not even have defined estimates everywhere; when it does,
  // OASIS error should be smaller at this budget under 1:100 imbalance.
  if (passive.frac_defined.back() > 0.9) {
    EXPECT_LT(oasis.mean_abs_error.back(), passive.mean_abs_error.back());
  }
}

TEST(RunnerTest, AllFourMethodSpecsRun) {
  SyntheticPool pool = MediumPool();
  GroundTruthOracle oracle(pool.truth);
  auto strata = std::make_shared<const Strata>(
      StratifyCsf(pool.scored.scores, 10).ValueOrDie());

  RunnerOptions options;
  options.repeats = 3;
  options.trajectory.budget = 150;
  options.trajectory.checkpoint_every = 150;

  for (const MethodSpec& spec :
       {MakePassiveSpec(0.5), MakeStratifiedSpec(0.5, strata),
        MakeImportanceSpec(ImportanceOptions{}),
        MakeOasisSpec(OasisOptions{}, strata)}) {
    ErrorCurve curve = RunErrorCurve(spec, pool.scored, oracle,
                                     pool.true_measures.f_alpha, options)
                           .ValueOrDie();
    EXPECT_EQ(curve.repeats, 3) << spec.name;
  }
}

TEST(RunnerTest, FinalErrorSummary) {
  SyntheticPool pool = MediumPool();
  GroundTruthOracle oracle(pool.truth);
  RunnerOptions options;
  options.repeats = 12;
  options.trajectory.budget = 500;
  options.trajectory.checkpoint_every = 100;
  FinalErrorSummary summary =
      RunFinalError(MakePassiveSpec(0.5), pool.scored, oracle,
                    pool.true_measures.f_alpha, options)
          .ValueOrDie();
  EXPECT_EQ(summary.method, "Passive");
  EXPECT_EQ(summary.repeats, 12);
  EXPECT_GE(summary.mean_abs_error, 0.0);
  EXPECT_GE(summary.ci_half_width, 0.0);
}

TEST(CurveReducerTest, FoldIsIndependentOfRecordOrder) {
  const std::vector<double> f_alpha[3] = {{0.5, 0.6}, {0.7, 0.8}, {0.2, 0.9}};
  const std::vector<uint8_t> defined[3] = {{0, 1}, {1, 1}, {1, 0}};
  CurveReducer forward({10, 20}, 3, /*remote=*/false, /*fault=*/false);
  CurveReducer backward({10, 20}, 3, /*remote=*/false, /*fault=*/false);
  for (size_t r = 0; r < 3; ++r) {
    ASSERT_TRUE(forward.RecordEstimates(r, f_alpha[r], defined[r], 20).ok());
    ASSERT_TRUE(
        backward.RecordEstimates(2 - r, f_alpha[2 - r], defined[2 - r], 20).ok());
  }
  const ErrorCurve a = forward.Reduce("m", 0.75);
  const ErrorCurve b = backward.Reduce("m", 0.75);
  EXPECT_EQ(a.mean_estimate, b.mean_estimate);
  EXPECT_EQ(a.stddev, b.stddev);
  EXPECT_EQ(a.mean_abs_error, b.mean_abs_error);
  EXPECT_EQ(a.final_estimates, (std::vector<double>{0.6, 0.8, 0.9}));
  EXPECT_EQ(a.final_defined, (std::vector<uint8_t>{1, 1, 0}));
  EXPECT_EQ(a.frac_defined, (std::vector<double>{2.0 / 3.0, 2.0 / 3.0}));
  EXPECT_EQ(a.labels_consumed, 60);
  // Checkpoint 0 folds repeats 1 and 2 only: mean (0.7 + 0.2) / 2.
  EXPECT_DOUBLE_EQ(a.mean_estimate[0], 0.45);
}

TEST(CurveReducerTest, RejectsMisshapenRepeats) {
  CurveReducer reducer({10, 20}, 2, /*remote=*/false, /*fault=*/false);
  const std::vector<double> one = {0.5};
  const std::vector<double> two = {0.5, 0.6};
  const std::vector<uint8_t> defined = {1, 1};
  EXPECT_FALSE(reducer.RecordEstimates(0, one, defined, 10).ok());
  EXPECT_FALSE(reducer.RecordEstimates(2, two, defined, 10).ok());
  EXPECT_FALSE(
      reducer.RecordEstimates(0, two, std::vector<uint8_t>{1}, 10).ok());
  EXPECT_TRUE(reducer.RecordEstimates(1, two, defined, 10).ok());
}

}  // namespace
}  // namespace experiments
}  // namespace oasis
