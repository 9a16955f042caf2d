#ifndef OASIS_EXPERIMENTS_SCENARIO_RUN_H_
#define OASIS_EXPERIMENTS_SCENARIO_RUN_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/status.h"
#include "datagen/scenario.h"
#include "experiments/config.h"
#include "experiments/runner.h"
#include "experiments/summary.h"
#include "oracle/oracle.h"

namespace oasis {
namespace experiments {

/// Controls for one scenario experiment — the run-side half of a run config
/// file (the scenario-side half is ScenarioSpec). Small by design: everything
/// here maps 1:1 onto RunnerOptions / TrajectoryOptions fields.
struct ScenarioRunOptions {
  /// Sampler to evaluate: "passive", "stratified", "is", or "oasis".
  std::string method = "oasis";
  /// Label budget per repeat.
  int64_t budget = 2000;
  /// Checkpoint spacing of the error curve.
  int64_t checkpoint_every = 100;
  /// Independent repeats to aggregate.
  int repeats = 20;
  /// Runner base seed (repeat r runs on Rng::Fork(seed, r)).
  uint64_t seed = 0x0a515u;
  /// Worker threads for the repeat fan-out; 0 = hardware concurrency.
  int num_threads = 0;
  /// Target stratum count for the stratified/oasis methods (CSF).
  int64_t target_strata = 30;
  /// OASIS step path ("oasis" method only): "fused" (default) or
  /// "fenwick". The sub-linear "fenwick" path is the practical choice for
  /// pool-scale runs (target_strata >= 100k); both paths estimate the same
  /// quantities (see OasisStepPath).
  std::string step_path = "fused";
  /// Oracle decorator stack built per repeat over the scenario oracle (see
  /// RunnerOptions::stack); empty = label straight against the base oracle.
  StackSpec stack;

  /// Structural validation (positive budget/repeats, known method name, ...).
  Status Validate() const;

  /// Reads the run keys (method, budget, checkpoint_every, repeats,
  /// run_seed, threads, strata, and the stack_* layer keys — see
  /// AppendStackSpecConfig for the full list) from `config`, leaving absent
  /// keys at their defaults. Does NOT call CheckAllKeysUsed — callers
  /// typically share the config with a ScenarioSpec and run the typo check
  /// once at the end.
  static Result<ScenarioRunOptions> FromConfig(const ConfigMap& config);
};

/// Builds a MethodSpec by CLI-facing name. "stratified" and "oasis" stratify
/// `pool`'s scores with CSF at `target_strata` internally; "passive" and
/// "is" ignore the stratum count. `step_path` selects the OASIS step path by
/// the ScenarioRunOptions::step_path names and is ignored by every other
/// method.
Result<MethodSpec> MakeMethodByName(const std::string& method, double alpha,
                                    const ScoredPool& pool,
                                    int64_t target_strata,
                                    const std::string& step_path = "fused");

/// OK unless `oracle` is deterministic and `budget` exceeds `pool_size`: such
/// an oracle charges each item once (footnote 5), so the budget can never be
/// spent. The InvalidArgument names both numbers, prefixed by `caller`.
Status CheckBudgetReachable(const Oracle& oracle, int64_t budget,
                            size_t pool_size, const std::string& caller);

/// Everything one scenario experiment produces: the error curve (for the
/// curves CSV) and the self-contained run summary (for the JSON sidecar and
/// oasis_verify).
struct ScenarioRunResult {
  /// The aggregated error curve of the configured method.
  ErrorCurve curve;
  /// The verification-ready summary, including per-repeat final estimates
  /// and the degeneracy probe's verdict.
  RunSummary summary;
};

/// Runs `options.method` on the scenario pool: a repeated error-curve run
/// against the pool's constructed truth, plus one probe trajectory (repeat
/// 0's RNG stream) whose DegeneracyMonitor verdict feeds the summary's
/// degeneracy fields. Deterministic: a pure function of (pool, options) at
/// any thread count. Fails with InvalidArgument when the scenario oracle is
/// deterministic and `options.budget` exceeds the pool size, since each item
/// is charged once and such a budget can never be spent.
Result<ScenarioRunResult> RunScenario(const datagen::ScenarioPool& pool,
                                      const ScenarioRunOptions& options);

/// Wraps an already-computed `curve` for (pool, options) into the
/// verification-ready ScenarioRunResult: fills every summary field from the
/// curve and runs the repeat-0 degeneracy probe. This is RunScenario minus
/// the error-curve run itself — the path for callers that produced the curve
/// elsewhere (the session server's per-session trajectories, aggregated by
/// oasis_serve) but want artifacts oasis_verify accepts.
Result<ScenarioRunResult> SummarizeScenarioCurve(
    const datagen::ScenarioPool& pool, const ScenarioRunOptions& options,
    ErrorCurve curve);

}  // namespace experiments
}  // namespace oasis

#endif  // OASIS_EXPERIMENTS_SCENARIO_RUN_H_
