// Deterministic-parallelism contract of the experiment runner: the same
// options must produce bit-identical ErrorCurves for every thread count, and
// match the historical sequential runner exactly (golden values below were
// captured from the pre-ThreadPool implementation at num_threads=1).

#include "experiments/runner.h"

#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>

#include "common/thread_pool.h"
#include "oracle/ground_truth_oracle.h"
#include "oracle/noisy_oracle.h"
#include "sampling/importance.h"
#include "strata/csf.h"
#include "test_util.h"

namespace oasis {
namespace experiments {
namespace {

using testutil::MakeSyntheticPool;
using testutil::SyntheticPool;
using testutil::SyntheticPoolOptions;

SyntheticPool GoldenPool() {
  SyntheticPoolOptions options;
  options.size = 2000;
  options.match_fraction = 0.05;
  options.seed = 101;
  return MakeSyntheticPool(options);
}

RunnerOptions GoldenOptions() {
  RunnerOptions options;
  options.repeats = 6;
  options.trajectory.budget = 200;
  options.trajectory.checkpoint_every = 50;
  options.base_seed = 20170626;
  return options;
}

/// Golden curve values captured from the pre-refactor sequential runner
/// (hexfloat, so the comparison is bit-exact). One row per checkpoint:
/// {mean_abs_error, stddev, mean_estimate, frac_defined}.
constexpr double kGoldenTrueF = 0x1.59cf516a98c2cp-1;
constexpr double kGoldenPassive[4][4] = {
    {0x1.529fd4a7f52ap-4, 0x1.a01a8c5358c3dp-4, 0x1.7fa94fea53fa9p-1, 0x1p+0},
    {0x1.da9da9da9daa3p-5, 0x1.30c73561d39f1p-4, 0x1.72ff2ff2ff2ffp-1, 0x1p+0},
    {0x1.9e8e883277c6ap-4, 0x1.e27a6ae161699p-4, 0x1.5d2f1185018ebp-1, 0x1p+0},
    {0x1.33abe95b0316ep-4, 0x1.90f5dd1ce1725p-4, 0x1.5b448cf430913p-1, 0x1p+0},
};
constexpr double kGoldenOasis10[4][4] = {
    {0x1.52771f829df52p-4, 0x1.cb0131656c4d6p-4, 0x1.4c7648d1b1294p-1, 0x1p+0},
    {0x1.71b8be9e6cea4p-4, 0x1.af67bed1307f1p-4, 0x1.57afb97611673p-1, 0x1p+0},
    {0x1.51c441d093feap-4, 0x1.88ad0c108a759p-4, 0x1.4e59f26818edbp-1, 0x1p+0},
    {0x1.78737a328fb3dp-5, 0x1.050df8dcbba92p-4, 0x1.50a266cf0b476p-1, 0x1p+0},
};

/// Static samplers' curves on the same pool and options, captured before
/// their sequential fallback moved into Sampler::BatchedSteps. Stratified and
/// IS under the GroundTruthOracle run the batched (pre-drawn chunk) branch;
/// Passive, Stratified and IS under a NoisyOracle (10% flips, labelling
/// consumes the RNG) run the sequential branch.
constexpr double kGoldenStratified[4][4] = {
    {0x1.3f79f8ceb7fa2p-4, 0x1.9c22bc2c54278p-4, 0x1.68c7263f5701p-1, 0x1p+0},
    {0x1.88b0306ed8e43p-4, 0x1.f9ca301c0975dp-4, 0x1.49ca9d1fe5a0ap-1, 0x1p+0},
    {0x1.43bf90ce91a4p-4, 0x1.7ed1588bd70efp-4, 0x1.5631f29bdc9ffp-1, 0x1p+0},
    {0x1.dff3dcd66d431p-5, 0x1.23fee5e203308p-4, 0x1.60d395a7e0ebfp-1, 0x1p+0},
};
constexpr double kGoldenImportance[4][4] = {
    {0x1.108f7819cdf36p-4, 0x1.73bed3208c4f5p-4, 0x1.529f9ecd2d5c5p-1, 0x1p+0},
    {0x1.ea27c055179f6p-5, 0x1.192489a736d9cp-4, 0x1.503268c39af0ep-1, 0x1p+0},
    {0x1.2728c526025e8p-5, 0x1.1fb29b61640f7p-5, 0x1.4e5cf29b5ea83p-1, 0x1p+0},
    {0x1.3e4e18d013ecbp-5, 0x1.68d92c75a5583p-5, 0x1.518782a99fa31p-1, 0x1p+0},
};
constexpr double kGoldenNoisyPassive[4][4] = {
    {0x1.2a42302796812p-3, 0x1.c439cbfb1e3e7p-4, 0x1.0f3ec560b3227p-1, 0x1p+0},
    {0x1.4433ec0bf7648p-3, 0x1.44f92957dd18ep-4, 0x1.08c256679ae9ap-1, 0x1p+0},
    {0x1.79355a1eeeaacp-3, 0x1.ada0df2dd098bp-4, 0x1.f703f5c5ba302p-2, 0x1p+0},
    {0x1.66be4f78d2d15p-3, 0x1.4f6115caaa472p-4, 0x1.001fbd8c640e7p-1, 0x1p+0},
};
constexpr double kGoldenNoisyStratified[4][4] = {
    {0x1.ee2365d921388p-3, 0x1.1b5fef34994a9p-3, 0x1.bc8cefe8a0e94p-2, 0x1p+0},
    {0x1.ea75109cc7c06p-3, 0x1.958811137dcd9p-4, 0x1.be641a86cda54p-2, 0x1p+0},
    {0x1.f40b92bcee114p-3, 0x1.5dd385cf74ba8p-4, 0x1.b998d976ba7cep-2, 0x1p+0},
    {0x1.07ae48ffa95ecp-2, 0x1.49acd56bb10d3p-5, 0x1.abf059d58826cp-2, 0x1p+0},
};
constexpr double kGoldenNoisyImportance[4][4] = {
    {0x1.0eaa4ce8833f6p-2, 0x1.66375b1a39e19p-3, 0x1.b685df28c8b9cp-2, 0x1p+0},
    {0x1.1bace04b8bfbp-2, 0x1.2a16d0f4cc6p-4, 0x1.97f1c289a58a8p-2, 0x1p+0},
    {0x1.01b885c27f8bbp-2, 0x1.1217ac09a46f4p-4, 0x1.b1e61d12b1f9dp-2, 0x1p+0},
    {0x1.efc2f22dd8b92p-3, 0x1.08046ea216f52p-4, 0x1.bbbd29be4528fp-2, 0x1p+0},
};

void ExpectCurveMatchesGolden(const ErrorCurve& curve,
                              const double golden[4][4]) {
  ASSERT_EQ(curve.budgets.size(), 4u);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(curve.mean_abs_error[i], golden[i][0]) << "checkpoint " << i;
    EXPECT_EQ(curve.stddev[i], golden[i][1]) << "checkpoint " << i;
    EXPECT_EQ(curve.mean_estimate[i], golden[i][2]) << "checkpoint " << i;
    EXPECT_EQ(curve.frac_defined[i], golden[i][3]) << "checkpoint " << i;
  }
}

TEST(RunnerParallelTest, MatchesPreRefactorSequentialGolden) {
  SyntheticPool pool = GoldenPool();
  // Guards the golden values against synthetic-pool generation drift.
  ASSERT_EQ(pool.true_measures.f_alpha, kGoldenTrueF);
  GroundTruthOracle oracle(pool.truth);
  auto strata = std::make_shared<const Strata>(
      StratifyCsf(pool.scored.scores, 10).ValueOrDie());

  for (int threads : {1, 8}) {
    RunnerOptions options = GoldenOptions();
    options.num_threads = threads;
    ErrorCurve passive =
        RunErrorCurve(MakePassiveSpec(0.5), pool.scored, oracle,
                      pool.true_measures.f_alpha, options)
            .ValueOrDie();
    ExpectCurveMatchesGolden(passive, kGoldenPassive);
    ErrorCurve oasis =
        RunErrorCurve(MakeOasisSpec(OasisOptions{}, strata), pool.scored,
                      oracle, pool.true_measures.f_alpha, options)
            .ValueOrDie();
    EXPECT_EQ(oasis.method, "OASIS-10");
    ExpectCurveMatchesGolden(oasis, kGoldenOasis10);
  }
}

TEST(RunnerParallelTest, StaticSamplersMatchGoldenOnBothScaffoldBranches) {
  SyntheticPool pool = GoldenPool();
  ASSERT_EQ(pool.true_measures.f_alpha, kGoldenTrueF);
  GroundTruthOracle oracle(pool.truth);
  NoisyOracle noisy =
      NoisyOracle::FromTruthWithFlipNoise(pool.truth, 0.1).ValueOrDie();
  ASSERT_FALSE(oracle.labelling_consumes_rng());
  ASSERT_TRUE(noisy.labelling_consumes_rng());
  auto strata = std::make_shared<const Strata>(
      StratifyCsf(pool.scored.scores, 10).ValueOrDie());
  const MethodSpec stratified = MakeStratifiedSpec(0.5, strata);
  const MethodSpec importance = MakeImportanceSpec(ImportanceOptions{});
  const double true_f = pool.true_measures.f_alpha;

  for (int threads : {1, 8}) {
    RunnerOptions options = GoldenOptions();
    options.num_threads = threads;
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ExpectCurveMatchesGolden(
        RunErrorCurve(stratified, pool.scored, oracle, true_f, options)
            .ValueOrDie(),
        kGoldenStratified);
    ExpectCurveMatchesGolden(
        RunErrorCurve(importance, pool.scored, oracle, true_f, options)
            .ValueOrDie(),
        kGoldenImportance);
    ExpectCurveMatchesGolden(
        RunErrorCurve(MakePassiveSpec(0.5), pool.scored, noisy, true_f, options)
            .ValueOrDie(),
        kGoldenNoisyPassive);
    ExpectCurveMatchesGolden(
        RunErrorCurve(stratified, pool.scored, noisy, true_f, options)
            .ValueOrDie(),
        kGoldenNoisyStratified);
    ExpectCurveMatchesGolden(
        RunErrorCurve(importance, pool.scored, noisy, true_f, options)
            .ValueOrDie(),
        kGoldenNoisyImportance);
  }
}

TEST(RunnerParallelTest, BitIdenticalAcrossThreadCounts) {
  SyntheticPool pool = GoldenPool();
  GroundTruthOracle oracle(pool.truth);
  auto strata = std::make_shared<const Strata>(
      StratifyCsf(pool.scored.scores, 10).ValueOrDie());

  for (const MethodSpec& spec :
       {MakePassiveSpec(0.5), MakeOasisSpec(OasisOptions{}, strata)}) {
    RunnerOptions options;
    options.repeats = 12;
    options.trajectory.budget = 300;
    options.trajectory.checkpoint_every = 100;
    options.base_seed = 4242;

    options.num_threads = 1;
    ErrorCurve reference = RunErrorCurve(spec, pool.scored, oracle,
                                         pool.true_measures.f_alpha, options)
                               .ValueOrDie();
    for (int threads : {2, 8}) {
      options.num_threads = threads;
      ErrorCurve curve = RunErrorCurve(spec, pool.scored, oracle,
                                       pool.true_measures.f_alpha, options)
                             .ValueOrDie();
      ASSERT_EQ(curve.budgets, reference.budgets) << spec.name;
      for (size_t i = 0; i < reference.budgets.size(); ++i) {
        // EXPECT_EQ (not NEAR): bit-identical is the contract.
        EXPECT_EQ(curve.mean_abs_error[i], reference.mean_abs_error[i])
            << spec.name << " threads=" << threads << " checkpoint " << i;
        EXPECT_EQ(curve.stddev[i], reference.stddev[i])
            << spec.name << " threads=" << threads << " checkpoint " << i;
        EXPECT_EQ(curve.mean_estimate[i], reference.mean_estimate[i])
            << spec.name << " threads=" << threads << " checkpoint " << i;
        EXPECT_EQ(curve.frac_defined[i], reference.frac_defined[i])
            << spec.name << " threads=" << threads << " checkpoint " << i;
      }
    }
  }
}

TEST(RunnerParallelTest, ThrowingFactoryPropagatesToCaller) {
  SyntheticPool pool = GoldenPool();
  GroundTruthOracle oracle(pool.truth);
  MethodSpec throwing;
  throwing.name = "Throwing";
  throwing.factory = [](const ScoredPool*, LabelCache*,
                        Rng) -> Result<std::unique_ptr<Sampler>> {
    throw std::runtime_error("factory exploded");
  };
  RunnerOptions options;
  options.repeats = 16;
  options.num_threads = 4;
  options.trajectory.budget = 100;
  options.trajectory.checkpoint_every = 50;
  EXPECT_THROW(
      (void)RunErrorCurve(throwing, pool.scored, oracle, 0.5, options),
      std::runtime_error);
}

TEST(RunnerParallelTest, FailingFactoryReturnsErrorStatus) {
  SyntheticPool pool = GoldenPool();
  GroundTruthOracle oracle(pool.truth);
  MethodSpec failing;
  failing.name = "Failing";
  failing.factory = [](const ScoredPool*, LabelCache*,
                       Rng) -> Result<std::unique_ptr<Sampler>> {
    return Status::Internal("no sampler for you");
  };
  RunnerOptions options;
  options.repeats = 16;
  options.num_threads = 4;
  options.trajectory.budget = 100;
  options.trajectory.checkpoint_every = 50;
  auto result = RunErrorCurve(failing, pool.scored, oracle, 0.5, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
  EXPECT_EQ(result.status().message(), "no sampler for you");
}

TEST(RunnerParallelTest, CancellationMidRunReturnsCancelled) {
  SyntheticPool pool = GoldenPool();
  GroundTruthOracle oracle(pool.truth);
  CancellationToken token;
  std::atomic<int> seen{0};
  RunnerOptions options;
  options.repeats = 64;
  options.num_threads = 2;
  options.trajectory.budget = 200;
  options.trajectory.checkpoint_every = 100;
  options.cancel = &token;
  options.progress = [&](int completed, int) {
    seen.fetch_add(1);
    if (completed >= 2) token.RequestCancel();
  };
  auto result =
      RunErrorCurve(MakePassiveSpec(0.5), pool.scored, oracle, 0.5, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  // The run stopped early: nowhere near all repeats finished.
  EXPECT_LT(seen.load(), 64);
}

TEST(RunnerParallelTest, PreCancelledTokenReturnsCancelledImmediately) {
  SyntheticPool pool = GoldenPool();
  GroundTruthOracle oracle(pool.truth);
  CancellationToken token;
  token.RequestCancel();
  RunnerOptions options;
  options.repeats = 8;
  options.cancel = &token;
  options.trajectory.budget = 100;
  options.trajectory.checkpoint_every = 50;
  auto result =
      RunErrorCurve(MakePassiveSpec(0.5), pool.scored, oracle, 0.5, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
}

TEST(RunnerParallelTest, ProgressReportsEveryRepeatExactlyOnce) {
  SyntheticPool pool = GoldenPool();
  GroundTruthOracle oracle(pool.truth);
  std::mutex mutex;
  std::multiset<int> completions;
  int total_seen = 0;
  RunnerOptions options;
  options.repeats = 20;
  options.num_threads = 4;
  options.trajectory.budget = 100;
  options.trajectory.checkpoint_every = 50;
  options.progress = [&](int completed, int total) {
    std::lock_guard<std::mutex> lock(mutex);
    completions.insert(completed);
    total_seen = total;
  };
  ASSERT_TRUE(RunErrorCurve(MakePassiveSpec(0.5), pool.scored, oracle, 0.5,
                            options)
                  .ok());
  EXPECT_EQ(total_seen, 20);
  ASSERT_EQ(completions.size(), 20u);
  // The running count hits each value in [1, repeats] exactly once.
  int expected = 1;
  for (int value : completions) EXPECT_EQ(value, expected++);
}

}  // namespace
}  // namespace experiments
}  // namespace oasis
