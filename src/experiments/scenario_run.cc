#include "experiments/scenario_run.h"

#include <memory>
#include <string>
#include <utility>

#include "common/logging.h"

#include "oracle/label_cache.h"
#include "sampling/trajectory.h"
#include "stats/degeneracy.h"
#include "strata/csf.h"

namespace oasis {
namespace experiments {

namespace {

/// The one list of step_path names: Validate and MakeMethodByName both go
/// through it, so the accepted names and the error text live here alone.
Result<OasisStepPath> StepPathFromName(const std::string& name) {
  if (name == "fused") return OasisStepPath::kFused;
  if (name == "fenwick") return OasisStepPath::kFenwick;
  return Status::InvalidArgument("unknown step_path '" + name +
                                 "' (expected fused or fenwick)");
}

}  // namespace

Status ScenarioRunOptions::Validate() const {
  if (method != "passive" && method != "stratified" && method != "is" &&
      method != "oasis") {
    return Status::InvalidArgument(
        "ScenarioRunOptions: unknown method '" + method +
        "' (expected passive, stratified, is, or oasis)");
  }
  if (budget <= 0) {
    return Status::InvalidArgument("ScenarioRunOptions: budget must be positive");
  }
  if (checkpoint_every <= 0 || checkpoint_every > budget) {
    return Status::InvalidArgument(
        "ScenarioRunOptions: checkpoint_every must lie in [1, budget]");
  }
  if (repeats <= 0) {
    return Status::InvalidArgument(
        "ScenarioRunOptions: repeats must be positive");
  }
  if (num_threads < 0) {
    return Status::InvalidArgument(
        "ScenarioRunOptions: threads must be >= 0");
  }
  if (target_strata <= 0) {
    return Status::InvalidArgument(
        "ScenarioRunOptions: strata must be positive");
  }
  return StepPathFromName(step_path).status();
}

Result<ScenarioRunOptions> ScenarioRunOptions::FromConfig(
    const ConfigMap& config) {
  ScenarioRunOptions options;
  options.method = config.GetStringOr("method", options.method);
  OASIS_ASSIGN_OR_RETURN(options.budget,
                         config.GetInt64Or("budget", options.budget));
  OASIS_ASSIGN_OR_RETURN(
      options.checkpoint_every,
      config.GetInt64Or("checkpoint_every", options.checkpoint_every));
  OASIS_ASSIGN_OR_RETURN(options.repeats,
                         config.GetIntOr("repeats", options.repeats));
  OASIS_ASSIGN_OR_RETURN(
      const int64_t seed,
      config.GetInt64Or("run_seed", static_cast<int64_t>(options.seed)));
  options.seed = static_cast<uint64_t>(seed);
  OASIS_ASSIGN_OR_RETURN(options.num_threads,
                         config.GetIntOr("threads", options.num_threads));
  OASIS_ASSIGN_OR_RETURN(options.target_strata,
                         config.GetInt64Or("strata", options.target_strata));
  options.step_path = config.GetStringOr("step_path", options.step_path);
  OASIS_ASSIGN_OR_RETURN(options.stack, StackSpecFromConfig(config, "stack_"));
  OASIS_RETURN_NOT_OK(options.Validate());
  return options;
}

Result<MethodSpec> MakeMethodByName(const std::string& method, double alpha,
                                    const ScoredPool& pool,
                                    int64_t target_strata,
                                    const std::string& step_path) {
  if (method == "passive") {
    return MakePassiveSpec(alpha);
  }
  if (method == "is") {
    ImportanceOptions options;
    options.alpha = alpha;
    return MakeImportanceSpec(options);
  }
  if (method == "stratified" || method == "oasis") {
    OASIS_ASSIGN_OR_RETURN(
        Strata strata,
        StratifyCsf(pool.scores, static_cast<size_t>(target_strata),
                    pool.scores_are_probabilities));
    auto shared = std::make_shared<const Strata>(std::move(strata));
    if (method == "stratified") {
      return MakeStratifiedSpec(alpha, std::move(shared));
    }
    OasisOptions options;
    options.alpha = alpha;
    OASIS_ASSIGN_OR_RETURN(options.step_path, StepPathFromName(step_path));
    return MakeOasisSpec(options, std::move(shared));
  }
  return Status::InvalidArgument("MakeMethodByName: unknown method '" + method +
                                 "'");
}

Result<ScenarioRunResult> SummarizeScenarioCurve(
    const datagen::ScenarioPool& pool, const ScenarioRunOptions& options,
    ErrorCurve curve) {
  OASIS_RETURN_NOT_OK(options.Validate());
  OASIS_ASSIGN_OR_RETURN(const std::unique_ptr<Oracle> oracle,
                         datagen::MakeScenarioOracle(pool));
  OASIS_ASSIGN_OR_RETURN(
      const MethodSpec method,
      MakeMethodByName(options.method, pool.spec.alpha, pool.scored,
                       options.target_strata, options.step_path));

  ScenarioRunResult result;
  RunSummary& summary = result.summary;
  summary.scenario = pool.spec.name;
  summary.method = curve.method;
  summary.alpha = pool.spec.alpha;
  summary.pool_size = pool.spec.pool_size;
  summary.scenario_seed = pool.spec.seed;
  summary.run_seed = options.seed;
  summary.true_f = pool.true_f;
  summary.budget = options.budget;
  summary.repeats = options.repeats;
  OASIS_CHECK(!curve.mean_estimate.empty());
  summary.final_mean_estimate = curve.mean_estimate.back();
  summary.final_mean_abs_error = curve.mean_abs_error.back();
  summary.final_stddev = curve.stddev.back();
  summary.final_frac_defined = curve.frac_defined.back();
  summary.expect_sis_degeneracy = pool.spec.expect_sis_degeneracy;
  summary.verify_tolerance = pool.spec.verify_tolerance;
  summary.final_estimates = curve.final_estimates;
  summary.final_defined = curve.final_defined;

  // Degeneracy probe: replay repeat 0's trajectory with direct access to the
  // sampler so the ACTUAL monitor verdict (not a mean-ESS reconstruction)
  // lands in the summary. Cheap relative to the repeated run behind `curve`.
  {
    TrajectoryOptions trajectory;
    trajectory.budget = options.budget;
    trajectory.checkpoint_every = options.checkpoint_every;
    LabelCache labels(oracle.get());
    OASIS_ASSIGN_OR_RETURN(
        const std::unique_ptr<Sampler> sampler,
        method.factory(&pool.scored, &labels, Rng::Fork(options.seed, 0)));
    OASIS_RETURN_NOT_OK(RunTrajectory(*sampler, trajectory).status());
    const DegeneracyMonitor* monitor = sampler->degeneracy_monitor();
    if (monitor != nullptr) {
      summary.degeneracy_monitored = true;
      summary.degeneracy_tripped = monitor->degenerate();
      summary.final_ess_fraction = monitor->ess_fraction();
      summary.max_weight_share = monitor->max_weight_share();
    }
  }

  result.curve = std::move(curve);
  return result;
}

Status CheckBudgetReachable(const Oracle& oracle, int64_t budget,
                            size_t pool_size, const std::string& caller) {
  if (oracle.deterministic() && budget > static_cast<int64_t>(pool_size)) {
    return Status::InvalidArgument(
        caller + ": budget " + std::to_string(budget) +
        " exceeds the pool size " + std::to_string(pool_size) +
        "; a deterministic oracle charges each item once");
  }
  return Status::OK();
}

Result<ScenarioRunResult> RunScenario(const datagen::ScenarioPool& pool,
                                      const ScenarioRunOptions& options) {
  OASIS_RETURN_NOT_OK(options.Validate());
  OASIS_ASSIGN_OR_RETURN(const std::unique_ptr<Oracle> oracle,
                         datagen::MakeScenarioOracle(pool));
  // An unreachable budget would only stop each trajectory at its iteration
  // cap.
  OASIS_RETURN_NOT_OK(CheckBudgetReachable(*oracle, options.budget,
                                           pool.scored.size(), "RunScenario"));
  OASIS_ASSIGN_OR_RETURN(
      const MethodSpec method,
      MakeMethodByName(options.method, pool.spec.alpha, pool.scored,
                       options.target_strata, options.step_path));

  RunnerOptions runner;
  runner.repeats = options.repeats;
  runner.base_seed = options.seed;
  runner.num_threads = options.num_threads;
  runner.trajectory.budget = options.budget;
  runner.trajectory.checkpoint_every = options.checkpoint_every;
  runner.stack = options.stack;
  OASIS_ASSIGN_OR_RETURN(
      ErrorCurve curve,
      RunErrorCurve(method, pool.scored, *oracle, pool.true_f, runner));
  return SummarizeScenarioCurve(pool, options, std::move(curve));
}

}  // namespace experiments
}  // namespace oasis
