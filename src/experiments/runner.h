#ifndef OASIS_EXPERIMENTS_RUNNER_H_
#define OASIS_EXPERIMENTS_RUNNER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "common/status.h"
#include "common/thread_pool.h"
#include "core/oasis.h"
#include "experiments/config.h"
#include "experiments/curve_reducer.h"
#include "oracle/oracle.h"
#include "oracle/oracle_stack.h"
#include "sampling/importance.h"
#include "sampling/passive.h"
#include "sampling/sampler.h"
#include "sampling/stratified.h"
#include "sampling/trajectory.h"
#include "strata/strata.h"
#include "telemetry/heartbeat.h"

namespace oasis {

/// \namespace oasis::experiments
/// Experiment harness layer: repeated-trajectory runners, convergence
/// diagnostics, CSV/report output and timing — everything behind the paper's
/// figures and tables.
namespace experiments {

/// Factory that instantiates one fresh sampler per repeated run. The runner
/// supplies a per-repeat LabelCache and an independent RNG stream.
using SamplerFactory = std::function<Result<std::unique_ptr<Sampler>>(
    const ScoredPool* pool, LabelCache* labels, Rng rng)>;

/// A named estimation method for experiment harnesses.
struct MethodSpec {
  std::string name;        ///< Display name ("Passive", "OASIS-30", ...).
  SamplerFactory factory;  ///< Builds one sampler per repeat.
};

/// Passive (uniform) sampling method spec.
MethodSpec MakePassiveSpec(double alpha);
/// Proportional stratified sampling method spec over a shared stratification.
MethodSpec MakeStratifiedSpec(double alpha, std::shared_ptr<const Strata> strata);
/// Static importance sampling method spec.
MethodSpec MakeImportanceSpec(const ImportanceOptions& options);
/// OASIS (adaptive importance sampling) method spec over a shared
/// stratification. The first factory call runs OasisSampler::Prepare on its
/// pool; every later call, from any thread and through any copy of the spec,
/// creates its sampler from that one setup in O(K). A call with a different
/// pool returns InvalidArgument, so build one spec per pool.
MethodSpec MakeOasisSpec(const OasisOptions& options,
                         std::shared_ptr<const Strata> strata);

/// Observability controls of one RunErrorCurve call (docs/TELEMETRY.md).
/// Telemetry is strictly observe-only: the returned ErrorCurve is
/// bit-identical whatever these are set to, at any thread count.
struct RunnerTelemetryOptions {
  /// Turn the process-wide telemetry runtime switch on for the duration of
  /// the call (restored afterwards). Counters/spans accumulate into
  /// telemetry::DefaultRegistry() / DefaultTraceCollector().
  bool enable = false;
  /// When > 0 (and `enable`), print a progress heartbeat line to stderr
  /// every this many wall-clock seconds while the run is in flight.
  double heartbeat_interval_seconds = 0.0;
};

/// Controls for repeated trajectory runs.
struct RunnerOptions {
  /// Number of independent repeats to aggregate.
  int repeats = 100;
  /// Budget/checkpoint schedule of each repeat.
  TrajectoryOptions trajectory;
  /// Base seed; repeat r runs on Rng::Fork(base_seed, r).
  uint64_t base_seed = 0x0a515u;
  /// Worker threads for the repeat fan-out; 0 = hardware concurrency. The
  /// aggregate is bit-identical for every value (per-repeat RNG streams are
  /// counter-derived via Rng::Fork and results are reduced in repeat order).
  int num_threads = 0;
  /// Optional progress hook, called once per finished repeat with
  /// (completed, total). Invoked concurrently from worker threads — the
  /// callback must be thread-safe and should be cheap; `completed` is a
  /// running count, not an ordering guarantee.
  std::function<void(int completed, int total)> progress;
  /// Optional cooperative cancellation. When the token fires mid-run the
  /// runner stops scheduling repeats and returns Status::Cancelled (partial
  /// results are discarded). The token must outlive the call.
  const CancellationToken* cancel = nullptr;
  /// Declarative per-repeat oracle decorator stack. Each repeat r builds an
  /// independent stack over the caller's oracle via
  /// OracleStackBuilder(stack).ForkSeeds(r), so chaos/jitter streams are
  /// decorrelated across repeats while each stays a pure function of
  /// (options, repeat index). Layer semantics (see StackSpec and
  /// docs/ORACLES.md / docs/FAULT_MODEL.md):
  ///  * stack.remote — every repeat's labels are priced through a per-repeat
  ///    RemoteOracle; the ErrorCurve carries cost columns (has_remote_cost).
  ///    Labels are unchanged, so the error statistics are bit-identical to
  ///    an unwrapped run at any num_threads.
  ///  * stack.share_labels — requires stack.remote (the run fails with
  ///    InvalidArgument otherwise). With a deterministic RNG-free
  ///    oracle, all repeats fetch through one run-wide SharedLabelStore: an
  ///    item labelled in ANY repeat is never re-fetched over the simulated
  ///    wire. Error statistics are unaffected; the cost columns drop but
  ///    become scheduling-dependent at num_threads > 1 (SharedLabelStore).
  ///  * stack.fault_injection — a per-repeat FaultInjectingOracle spliced
  ///    UNDER the remote layer. Pair with stack.retry so the run recovers:
  ///    with transient-only faults and retries on, the error statistics are
  ///    bit-identical to a fault-free run. Without retries, injected
  ///    failures propagate out as the lowest failing repeat's status.
  ///  * stack.retry — a per-repeat RetryingOracle topping the stack (backoff
  ///    charged into the repeat's remote clock when present); the ErrorCurve
  ///    carries retries/give_ups columns (has_fault_stats).
  StackSpec stack;
  /// Observability of this run (metrics, spans, heartbeat). Observe-only —
  /// never affects the returned curve.
  RunnerTelemetryOptions telemetry;
};

/// Reads a StackSpec from `prefix`-prefixed config keys, leaving absent
/// layers unset (see AppendStackSpecConfig for the key list). Like
/// ScenarioRunOptions::FromConfig, does NOT run the unused-key check.
Result<StackSpec> StackSpecFromConfig(const ConfigMap& config,
                                      const std::string& prefix = "stack_");

/// Serialises `spec` as `key = value` config lines (only the layers that are
/// set), appended to `out`. Keys, with the default prefix: stack_fault,
/// stack_fault_transient_rate, stack_fault_timeout_rate,
/// stack_fault_item_drop_rate, stack_fault_outage_after, stack_fault_seed;
/// stack_remote, stack_remote_round_trip_seconds,
/// stack_remote_per_item_seconds, stack_remote_cost_per_label,
/// stack_remote_jitter_fraction, stack_remote_jitter_seed,
/// stack_remote_max_items_per_trip; stack_retry, stack_retry_max_attempts,
/// stack_retry_initial_backoff_seconds, stack_retry_backoff_multiplier,
/// stack_retry_max_backoff_seconds, stack_retry_jitter_fraction,
/// stack_retry_jitter_seed, stack_retry_per_attempt_timeout_seconds,
/// stack_retry_overall_deadline_seconds, stack_retry_breaker_threshold,
/// stack_retry_breaker_cooldown_calls; stack_share_labels. Round-trips
/// value-exactly through StackSpecFromConfig.
void AppendStackSpecConfig(const StackSpec& spec, const std::string& prefix,
                           std::string* out);

/// Runs `method` on the pool `options.repeats` times (fresh LabelCache and
/// counter-derived RNG stream per repeat, sharded across a work-stealing
/// thread pool) and aggregates estimate error statistics against the
/// reference value `true_f`.
///
/// Determinism: repeat r always runs on Rng::Fork(base_seed, r) and per-repeat
/// results are folded in repeat order after the fan-out, so the returned
/// curve is bit-identical for any num_threads (and to the historical
/// sequential runner). Errors are deterministic too: when several repeats
/// fail, the status of the lowest-indexed failing repeat is returned.
///
/// The oracle is shared immutably across worker threads (Oracle::Label is
/// const); each repeat owns its LabelCache, sampler, and RNG.
Result<ErrorCurve> RunErrorCurve(const MethodSpec& method, const ScoredPool& pool,
                                 const Oracle& oracle, double true_f,
                                 const RunnerOptions& options);

/// Final-budget summary of a method (used by the Figure 5 harness):
/// mean +- CI of |F-hat - F| after the full budget.
struct FinalErrorSummary {
  std::string method;           ///< Method name.
  double mean_abs_error = 0.0;  ///< Mean |F-hat - F| at the final budget.
  double ci_half_width = 0.0;   ///< 95% normal CI half-width on the mean.
  double frac_defined = 0.0;    ///< Fraction of repeats with a defined F-hat.
  int repeats = 0;              ///< Number of repeats aggregated.
};

/// Runs repeats and summarises only the final-budget error.
Result<FinalErrorSummary> RunFinalError(const MethodSpec& method,
                                        const ScoredPool& pool,
                                        const Oracle& oracle, double true_f,
                                        const RunnerOptions& options);

}  // namespace experiments
}  // namespace oasis

#endif  // OASIS_EXPERIMENTS_RUNNER_H_
