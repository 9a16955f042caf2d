// End-to-end statistical self-verification: RunScenario on known-truth pools
// must produce summaries that pass every VerifyRun check, the empirical CI
// coverage must sit near its nominal level, and — the teeth of the harness —
// a deliberately broken estimator or a tampered summary file must FAIL.

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "datagen/scenario.h"
#include "experiments/config.h"
#include "experiments/scenario_run.h"
#include "experiments/summary.h"
#include "experiments/verify.h"
#include "stats/running_stats.h"

namespace oasis {
namespace experiments {
namespace {

using datagen::GenerateScenario;
using datagen::ScenarioByName;
using datagen::ScenarioPool;

const VerifyCheck* FindCheck(const VerifyReport& report,
                             const std::string& name) {
  for (const VerifyCheck& check : report.checks) {
    if (check.name == name) return &check;
  }
  return nullptr;
}

ScenarioRunResult RunPreset(const std::string& scenario,
                            const std::string& method, int64_t budget,
                            int repeats) {
  const ScenarioPool pool =
      GenerateScenario(ScenarioByName(scenario).ValueOrDie()).ValueOrDie();
  ScenarioRunOptions options;
  options.method = method;
  options.budget = budget;
  options.checkpoint_every = budget >= 500 ? 100 : 50;
  options.repeats = repeats;
  options.seed = 7;
  return RunScenario(pool, options).ValueOrDie();
}

/// Rebuilds the summary's aggregate fields from its per-repeat estimates with
/// the runner's arithmetic — used after the tests tamper with the estimates
/// so that only the *statistical* checks can object, not the file audit.
void RecomputeAggregates(RunSummary* summary) {
  RunningStats estimates;
  RunningStats errors;
  int64_t defined = 0;
  for (size_t r = 0; r < summary->final_estimates.size(); ++r) {
    if (summary->final_defined[r] == 0) continue;
    estimates.Add(summary->final_estimates[r]);
    errors.Add(std::abs(summary->final_estimates[r] - summary->true_f));
    ++defined;
  }
  summary->final_mean_estimate = estimates.mean();
  summary->final_stddev = estimates.stddev();
  summary->final_mean_abs_error = errors.mean();
  summary->final_frac_defined =
      static_cast<double>(defined) / static_cast<double>(summary->repeats);
}

TEST(ScenarioVerifyTest, GoodRunPassesEveryCheck) {
  const ScenarioRunResult result = RunPreset("stripe-f90", "oasis", 1000, 15);
  const VerifyReport report =
      VerifyRun(result.summary, &result.curve, VerifyOptions{}).ValueOrDie();
  EXPECT_TRUE(report.passed) << report.Render();
  // All six checks ran (the curve was supplied and OASIS is monitored).
  for (const char* name :
       {"aggregate-consistency", "estimate-defined", "estimate-tolerance",
        "ci-coverage", "error-decay", "degeneracy-flag"}) {
    const VerifyCheck* check = FindCheck(report, name);
    ASSERT_NE(check, nullptr) << name;
    EXPECT_TRUE(check->passed) << check->name << ": " << check->detail;
  }
}

TEST(ScenarioVerifyTest, CiCoverageNearNominalAcrossRepeats) {
  // More repeats than the CI smoke runs use, so the empirical coverage of
  // the nominal 95% interval is meaningfully resolved. The band [0.80, 1.0]
  // sits ~3 binomial sigmas below nominal at this repeat count.
  const ScenarioRunResult result = RunPreset("stripe-f50", "oasis", 800, 30);
  ASSERT_EQ(result.summary.final_estimates.size(), 30u);
  const VerifyReport report =
      VerifyRun(result.summary, &result.curve, VerifyOptions{}).ValueOrDie();
  const VerifyCheck* coverage = FindCheck(report, "ci-coverage");
  ASSERT_NE(coverage, nullptr);
  EXPECT_TRUE(coverage->passed) << coverage->detail;
  // The check must have actually measured coverage, not skipped for lack of
  // defined repeats.
  EXPECT_EQ(coverage->detail.find("skipped"), std::string::npos)
      << coverage->detail;
}

TEST(ScenarioVerifyTest, BiasedEstimatorFailsEstimateTolerance) {
  // Simulate an estimator with a systematic bias of three tolerance widths:
  // every per-repeat estimate shifts, and the aggregates are recomputed so
  // the file is internally consistent — only the statistics can catch it.
  ScenarioRunResult result = RunPreset("stripe-f90", "oasis", 1000, 15);
  RunSummary broken = result.summary;
  const double shift = 3.0 * broken.verify_tolerance;
  for (double& estimate : broken.final_estimates) estimate += shift;
  RecomputeAggregates(&broken);

  const VerifyReport report =
      VerifyRun(broken, &result.curve, VerifyOptions{}).ValueOrDie();
  EXPECT_FALSE(report.passed);
  EXPECT_TRUE(FindCheck(report, "aggregate-consistency")->passed)
      << "the tampering above must be invisible to the file audit";
  EXPECT_FALSE(FindCheck(report, "estimate-tolerance")->passed)
      << report.Render();
}

TEST(ScenarioVerifyTest, OverdispersedEstimatorFailsCoverage) {
  // A broken estimator whose spread is far wider than its reported interval:
  // inflate deviations from the truth 20x but keep sigma-hat... impossible
  // to fake — sigma-hat is recomputed from the estimates themselves, so
  // instead plant a heavy-tailed pattern: most repeats exact, a few wild.
  // The normal-interval coverage then collapses below the band.
  ScenarioRunResult result = RunPreset("stripe-f90", "oasis", 1000, 15);
  RunSummary broken = result.summary;
  for (size_t r = 0; r < broken.final_estimates.size(); ++r) {
    // 4 of 15 repeats land far outside; the rest sit exactly on the truth.
    broken.final_estimates[r] =
        (r % 4 == 0) ? broken.true_f + 0.4 : broken.true_f;
    broken.final_defined[r] = 1;
  }
  RecomputeAggregates(&broken);
  const VerifyReport report =
      VerifyRun(broken, nullptr, VerifyOptions{}).ValueOrDie();
  EXPECT_FALSE(report.passed);
  EXPECT_FALSE(FindCheck(report, "ci-coverage")->passed) << report.Render();
}

TEST(ScenarioVerifyTest, TamperedAggregatesFailTheFileAudit) {
  ScenarioRunResult result = RunPreset("stripe-f90", "oasis", 1000, 15);
  RunSummary tampered = result.summary;
  // Hand-edit one raw estimate without refreshing the aggregates — the
  // signature of a truncated or manually doctored summary file.
  tampered.final_estimates[0] += 0.05;
  const VerifyReport report =
      VerifyRun(tampered, nullptr, VerifyOptions{}).ValueOrDie();
  EXPECT_FALSE(report.passed);
  EXPECT_FALSE(FindCheck(report, "aggregate-consistency")->passed);
}

TEST(ScenarioVerifyTest, SummaryWithoutRepeatEstimatesIsAnError) {
  ScenarioRunResult result = RunPreset("stripe-f90", "oasis", 500, 5);
  RunSummary truncated = result.summary;
  truncated.final_estimates.resize(3);
  EXPECT_FALSE(VerifyRun(truncated, nullptr, VerifyOptions{}).ok());
  RunSummary empty = result.summary;
  empty.repeats = 0;
  empty.final_estimates.clear();
  empty.final_defined.clear();
  EXPECT_FALSE(VerifyRun(empty, nullptr, VerifyOptions{}).ok());
}

TEST(ScenarioVerifyTest, StalledErrorCurveFailsDecay) {
  ScenarioRunResult result = RunPreset("stripe-f90", "oasis", 1000, 15);
  ErrorCurve stalled = result.curve;
  // An estimator whose error *grows* with budget: force the final
  // checkpoint far above the banded first checkpoint.
  stalled.mean_abs_error.back() =
      stalled.mean_abs_error.front() * 2.0 + 0.05;
  const VerifyReport report =
      VerifyRun(result.summary, &stalled, VerifyOptions{}).ValueOrDie();
  EXPECT_FALSE(report.passed);
  EXPECT_FALSE(FindCheck(report, "error-decay")->passed);
}

/// Runs a scenario at pool scale through the real config surface: a 400k-item
/// pool stratified to K = 100k by CSF, stepped by one of the sub-linear
/// backends. This is the end-to-end route of the large-K tier — the same
/// RunScenario call the apps make, not a hand-built sampler.
ScenarioRunResult RunPoolScale(const std::string& scenario,
                               const std::string& step_path, int64_t budget,
                               int repeats) {
  datagen::ScenarioSpec spec = ScenarioByName(scenario).ValueOrDie();
  spec.pool_size = 400000;
  const ScenarioPool pool = GenerateScenario(spec).ValueOrDie();
  ScenarioRunOptions options;
  options.method = "oasis";
  options.budget = budget;
  options.checkpoint_every = 500;
  options.repeats = repeats;
  options.seed = 7;
  options.target_strata = 100000;
  options.step_path = step_path;
  return RunScenario(pool, options).ValueOrDie();
}

TEST(ScenarioVerifyTest, PoolScaleSweepPassesEveryCheckOnTheSubLinearPath) {
  // K = 100k catalogue sweep: with four items per stratum and budget << K
  // the epsilon mix carries consistency, and the full verification battery
  // (including CI coverage and error decay) must still come out green for
  // the sub-linear kFenwick step path.
  for (const char* scenario : {"stripe-f90", "imbalance-1e3"}) {
    const ScenarioRunResult result = RunPoolScale(scenario, "fenwick", 6000, 20);
    const VerifyReport report =
        VerifyRun(result.summary, &result.curve, VerifyOptions{}).ValueOrDie();
    EXPECT_TRUE(report.passed) << scenario << "\n" << report.Render();
    for (const char* name :
         {"aggregate-consistency", "estimate-defined", "estimate-tolerance",
          "ci-coverage", "error-decay", "degeneracy-flag"}) {
      const VerifyCheck* check = FindCheck(report, name);
      ASSERT_NE(check, nullptr) << scenario << " " << name;
      EXPECT_TRUE(check->passed)
          << scenario << " " << check->name << ": " << check->detail;
    }
  }
}

TEST(ScenarioVerifyTest, PoolScaleAdaptiveRunOnTheBreakerIsRejected) {
  // The sis-inversion breaker at K = 100k: with budget << K the posterior
  // never accumulates enough labels per stratum to adapt away from the score
  // lie, so even the ADAPTIVE sampler's monitor trips — and the verification
  // harness must refuse to bless the run (degeneracy-flag expects adaptive
  // runs to stay healthy). This is the harness catching a real
  // misconfiguration: pool-scale K needs a budget to match, or a coarser
  // stratification (the K = 30 runs on this same preset pass).
  const ScenarioRunResult result =
      RunPoolScale("sis-inversion", "fenwick", 2500, 5);
  ASSERT_TRUE(result.summary.degeneracy_monitored);
  EXPECT_TRUE(result.summary.degeneracy_tripped)
      << "ess_fraction=" << result.summary.final_ess_fraction;
  const VerifyReport report =
      VerifyRun(result.summary, nullptr, VerifyOptions{}).ValueOrDie();
  EXPECT_FALSE(report.passed);
  const VerifyCheck* flag = FindCheck(report, "degeneracy-flag");
  ASSERT_NE(flag, nullptr);
  EXPECT_FALSE(flag->passed) << flag->detail;
}

TEST(ScenarioVerifyTest, UnknownStepPathIsRejectedByValidation) {
  ScenarioRunOptions options;
  for (const char* rejected :
       {"treap", "sharded-fenwick", "alias", "reference"}) {
    options.step_path = rejected;
    const Status status = options.Validate();
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << rejected;
    // The error names every accepted path.
    EXPECT_NE(status.message().find("expected fused or fenwick"),
              std::string::npos)
        << status.message();
  }
  for (const char* accepted : {"fused", "fenwick"}) {
    options.step_path = accepted;
    EXPECT_TRUE(options.Validate().ok()) << accepted;
  }
}

// repeats and threads are int settings: the whole int range parses (INT_MAX
// is only parsed, never run), and a value past it is rejected by name
// instead of wrapping (4294967297 = 2^32 + 1 would wrap to one repeat).
TEST(ScenarioVerifyTest, IntSettingsOutsideIntRangeAreRejectedByName) {
  for (const char* key : {"repeats", "threads"}) {
    SCOPED_TRACE(key);
    const auto from = [key](const std::string& value) {
      return ScenarioRunOptions::FromConfig(
          ConfigMap::Parse(std::string(key) + " = " + value + "\n")
              .ValueOrDie());
    };
    const ScenarioRunOptions max = from("2147483647").ValueOrDie();
    EXPECT_EQ(std::string(key) == "repeats" ? max.repeats : max.num_threads,
              2147483647);
    for (const char* value : {"2147483648", "-2147483649", "4294967297"}) {
      const Result<ScenarioRunOptions> options = from(value);
      ASSERT_FALSE(options.ok()) << value;
      EXPECT_EQ(options.status().code(), StatusCode::kInvalidArgument);
      EXPECT_NE(options.status().message().find(std::string("'") + key + "'"),
                std::string::npos)
          << options.status().message();
    }
  }
}

TEST(ScenarioVerifyTest, BudgetBeyondADeterministicPoolIsRejected) {
  // Each item of a deterministic pool is charged once, so a budget one above
  // the pool size can never be spent; the run must say so up front.
  const ScenarioPool pool =
      GenerateScenario(ScenarioByName("stripe-f90").ValueOrDie()).ValueOrDie();
  ScenarioRunOptions options;
  options.budget = pool.scored.size() + 1;
  options.checkpoint_every = 1000;
  options.repeats = 1;
  const Result<ScenarioRunResult> result = RunScenario(pool, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  const std::string message = result.status().message();
  EXPECT_NE(message.find(std::to_string(options.budget)), std::string::npos)
      << message;
  EXPECT_NE(message.find(std::to_string(pool.scored.size())),
            std::string::npos)
      << message;
}

TEST(ScenarioVerifyTest, BudgetBeyondANoisyPoolIsAllowed) {
  // A noisy oracle charges every query, so the budget may exceed the pool.
  datagen::ScenarioSpec spec = ScenarioByName("noisy-flip05").ValueOrDie();
  spec.pool_size = 400;
  spec.match_rate = 0.05;
  const ScenarioPool pool = GenerateScenario(spec).ValueOrDie();
  ScenarioRunOptions options;
  options.method = "passive";
  options.budget = 401;
  options.checkpoint_every = 401;
  options.repeats = 1;
  const Result<ScenarioRunResult> result = RunScenario(pool, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.ValueOrDie().summary.budget, 401);
}

TEST(ScenarioVerifyTest, StaticImportanceMustTripOnTheSisBreaker) {
  // The adversarial score-inversion pool exists to degenerate a static
  // score-driven proposal: the IS run's monitor must trip, and the
  // degeneracy-flag check must treat "tripped" as the PASSING outcome.
  const ScenarioRunResult result = RunPreset("sis-inversion", "is", 2000, 5);
  ASSERT_TRUE(result.summary.degeneracy_monitored);
  EXPECT_TRUE(result.summary.expect_sis_degeneracy);
  EXPECT_TRUE(result.summary.degeneracy_tripped)
      << "ess_fraction=" << result.summary.final_ess_fraction;
  const VerifyReport report =
      VerifyRun(result.summary, nullptr, VerifyOptions{}).ValueOrDie();
  const VerifyCheck* flag = FindCheck(report, "degeneracy-flag");
  ASSERT_NE(flag, nullptr);
  EXPECT_TRUE(flag->passed) << flag->detail;

  // A hypothetical IS sampler that sailed through the trap unflagged would
  // FAIL the check — silence on this pool means the monitor is broken.
  RunSummary silent = result.summary;
  silent.degeneracy_tripped = false;
  const VerifyReport silent_report =
      VerifyRun(silent, nullptr, VerifyOptions{}).ValueOrDie();
  EXPECT_FALSE(FindCheck(silent_report, "degeneracy-flag")->passed);
}

TEST(ScenarioVerifyTest, AdaptiveSamplerStaysHealthyOnTheSisBreaker) {
  const ScenarioRunResult result =
      RunPreset("sis-inversion", "oasis", 2000, 15);
  ASSERT_TRUE(result.summary.degeneracy_monitored);
  EXPECT_FALSE(result.summary.degeneracy_tripped)
      << "ess_fraction=" << result.summary.final_ess_fraction;
  const VerifyReport report =
      VerifyRun(result.summary, &result.curve, VerifyOptions{}).ValueOrDie();
  EXPECT_TRUE(report.passed) << report.Render();
}

TEST(ScenarioVerifyTest, BoundaryTruthPoolsExemptTheHealthDirection) {
  // On the no-match pool (F = 0 exactly) even the adaptive sampler's weight
  // spread legitimately explodes while its estimate pins the boundary; the
  // degeneracy-flag check must skip rather than fail there.
  const ScenarioRunResult result = RunPreset("no-match", "oasis", 500, 5);
  const VerifyReport report =
      VerifyRun(result.summary, nullptr, VerifyOptions{}).ValueOrDie();
  const VerifyCheck* flag = FindCheck(report, "degeneracy-flag");
  ASSERT_NE(flag, nullptr);
  EXPECT_TRUE(flag->passed) << flag->detail;
  EXPECT_NE(flag->detail.find("boundary-truth"), std::string::npos)
      << flag->detail;
}

TEST(ScenarioVerifyTest, UnmonitoredMethodsSkipTheDegeneracyCheck) {
  const ScenarioRunResult result =
      RunPreset("stripe-f90", "passive", 1000, 15);
  EXPECT_FALSE(result.summary.degeneracy_monitored);
  const VerifyReport report =
      VerifyRun(result.summary, &result.curve, VerifyOptions{}).ValueOrDie();
  EXPECT_TRUE(report.passed) << report.Render();
  EXPECT_EQ(FindCheck(report, "degeneracy-flag"), nullptr);
}

TEST(ScenarioVerifyTest, ToleranceOverrideTightensTheBand) {
  const ScenarioRunResult result = RunPreset("stripe-f90", "oasis", 1000, 15);
  VerifyOptions strict;
  strict.tolerance_override = 1e-9;  // nothing stochastic passes this
  const VerifyReport report =
      VerifyRun(result.summary, nullptr, strict).ValueOrDie();
  EXPECT_FALSE(FindCheck(report, "estimate-tolerance")->passed);
}

TEST(ScenarioVerifyTest, SummarySurvivesTheJsonRoundTripVerbatim) {
  // The verifier normally reads the summary back from disk; the round trip
  // must preserve verification verdicts bit-for-bit.
  const ScenarioRunResult result = RunPreset("noisy-flip05", "oasis", 800, 12);
  const RunSummary parsed =
      ParseRunSummaryJson(RunSummaryToJson(result.summary)).ValueOrDie();
  const VerifyReport direct =
      VerifyRun(result.summary, nullptr, VerifyOptions{}).ValueOrDie();
  const VerifyReport reparsed =
      VerifyRun(parsed, nullptr, VerifyOptions{}).ValueOrDie();
  EXPECT_EQ(direct.passed, reparsed.passed);
  ASSERT_EQ(direct.checks.size(), reparsed.checks.size());
  for (size_t i = 0; i < direct.checks.size(); ++i) {
    EXPECT_EQ(direct.checks[i].passed, reparsed.checks[i].passed)
        << direct.checks[i].name;
    EXPECT_EQ(direct.checks[i].detail, reparsed.checks[i].detail)
        << direct.checks[i].name;
  }
}

}  // namespace
}  // namespace experiments
}  // namespace oasis
