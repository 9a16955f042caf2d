#include "experiments/runner.h"

#include <atomic>
#include <cmath>
#include <cstdio>
#include <mutex>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "stats/confidence.h"
#include "stats/running_stats.h"
#include "telemetry/telemetry.h"

namespace oasis {
namespace experiments {

MethodSpec MakePassiveSpec(double alpha) {
  MethodSpec spec;
  spec.name = "Passive";
  spec.factory = [alpha](const ScoredPool* pool, LabelCache* labels,
                         Rng rng) -> Result<std::unique_ptr<Sampler>> {
    OASIS_ASSIGN_OR_RETURN(std::unique_ptr<PassiveSampler> sampler,
                           PassiveSampler::Create(pool, labels, alpha, rng));
    return std::unique_ptr<Sampler>(std::move(sampler));
  };
  return spec;
}

MethodSpec MakeStratifiedSpec(double alpha, std::shared_ptr<const Strata> strata) {
  MethodSpec spec;
  spec.name = "Stratified";
  spec.factory = [alpha, strata](const ScoredPool* pool, LabelCache* labels,
                                 Rng rng) -> Result<std::unique_ptr<Sampler>> {
    OASIS_ASSIGN_OR_RETURN(
        std::unique_ptr<StratifiedSampler> sampler,
        StratifiedSampler::Create(pool, labels, strata, alpha, rng));
    return std::unique_ptr<Sampler>(std::move(sampler));
  };
  return spec;
}

MethodSpec MakeImportanceSpec(const ImportanceOptions& options) {
  MethodSpec spec;
  spec.name = "IS";
  spec.factory = [options](const ScoredPool* pool, LabelCache* labels,
                           Rng rng) -> Result<std::unique_ptr<Sampler>> {
    OASIS_ASSIGN_OR_RETURN(std::unique_ptr<ImportanceSampler> sampler,
                           ImportanceSampler::Create(pool, labels, options, rng));
    return std::unique_ptr<Sampler>(std::move(sampler));
  };
  return spec;
}

MethodSpec MakeOasisSpec(const OasisOptions& options,
                         std::shared_ptr<const Strata> strata) {
  // The O(N) setup runs lazily, once, on the first factory call — inside the
  // runner's fan-out or the first served session — and every later repeat or
  // session shares it. Copies of the spec share it too.
  struct Prepared {
    std::once_flag once;
    const ScoredPool* pool = nullptr;
    Result<std::shared_ptr<const OasisSetup>> setup =
        Status::FailedPrecondition("OASIS setup not prepared");
  };
  auto prepared = std::make_shared<Prepared>();
  MethodSpec spec;
  spec.name = "OASIS-" + std::to_string(strata->num_strata());
  spec.factory = [options, strata, prepared](
                     const ScoredPool* pool, LabelCache* labels,
                     Rng rng) -> Result<std::unique_ptr<Sampler>> {
    std::call_once(prepared->once, [&] {
      prepared->pool = pool;
      prepared->setup = OasisSampler::Prepare(pool, strata, options);
    });
    if (pool != prepared->pool) {
      return Status::InvalidArgument(
          "MakeOasisSpec: factory called with a pool other than the one its "
          "setup was prepared for");
    }
    OASIS_RETURN_NOT_OK(prepared->setup.status());
    OASIS_ASSIGN_OR_RETURN(
        std::unique_ptr<OasisSampler> sampler,
        OasisSampler::Create(prepared->setup.ValueOrDie(), labels, rng));
    return std::unique_ptr<Sampler>(std::move(sampler));
  };
  return spec;
}

namespace {

/// Raw per-checkpoint outcome of one repeat, written by the worker that ran
/// it into a preallocated slot. Keeping raw estimates (rather than partially
/// reduced statistics) is what makes the final reduction independent of
/// which worker ran which repeat: the fold happens later, in repeat order.
struct RepeatSlots {
  /// f_alpha per (repeat, checkpoint), flattened repeat-major.
  std::vector<double> f_alpha;
  /// 1 when F-hat was defined at that (repeat, checkpoint).
  std::vector<uint8_t> defined;
  /// Remote-oracle cost per (repeat, checkpoint); allocated only when the
  /// run prices labels (RunnerOptions::remote_oracle).
  std::vector<double> round_trips;
  std::vector<double> simulated_seconds;
  std::vector<double> label_cost;
  /// Retry recovery per (repeat, checkpoint); allocated only when the run
  /// retries failures (RunnerOptions::retry_policy).
  std::vector<double> retries;
  std::vector<double> give_ups;
  /// Effective sample size per (repeat, checkpoint); always allocated (cheap)
  /// since whether the sampler monitors weights is only known once built.
  std::vector<double> ess;
  size_t checkpoints = 0;

  RepeatSlots(size_t repeats, size_t num_checkpoints, bool remote, bool fault)
      : f_alpha(repeats * num_checkpoints, 0.0),
        defined(repeats * num_checkpoints, 0),
        ess(repeats * num_checkpoints, 0.0),
        checkpoints(num_checkpoints) {
    if (remote) {
      round_trips.assign(repeats * num_checkpoints, 0.0);
      simulated_seconds.assign(repeats * num_checkpoints, 0.0);
      label_cost.assign(repeats * num_checkpoints, 0.0);
    }
    if (fault) {
      retries.assign(repeats * num_checkpoints, 0.0);
      give_ups.assign(repeats * num_checkpoints, 0.0);
    }
  }

  size_t index(size_t repeat, size_t checkpoint) const {
    return repeat * checkpoints + checkpoint;
  }
};

/// Runs one repeat and writes its trajectory into the repeat's slots.
/// Stepping goes through RunTrajectory and hence Sampler::StepBatch, so every
/// repeat uses the samplers' amortised batch hot paths. Workers touch only
/// shared-immutable state (pool, oracle, method) plus this repeat's slot
/// range — the hot path takes no locks.
///
/// The repeat's oracle decorator stack (base <- faults <- remote <- retries,
/// whichever layers `spec` configures) is built per repeat through
/// OracleStackBuilder with ForkSeeds(repeat), so chaos/jitter streams are
/// decorrelated across repeats while the cost accounting — like the
/// LabelCache — is owned by the repeat and therefore deterministic whatever
/// the fan-out does. `store` (nullable) is the run-wide SharedLabelStore of
/// spec.share_labels. `degeneracy_seen` is flipped when the sampler exposed
/// a weight monitor (only known once the sampler is built).
Status RunOneRepeat(const MethodSpec& method, const ScoredPool& pool,
                    const Oracle& oracle, const StackSpec& spec,
                    const RunnerOptions& options, Rng rng, size_t repeat,
                    RepeatSlots* slots, SharedLabelStore* store,
                    std::atomic<bool>* degeneracy_seen) {
  TELEMETRY_SPAN("repeat", "runner");
  OASIS_ASSIGN_OR_RETURN(const OracleStack stack,
                         OracleStackBuilder(spec)
                             .ShareLabels(spec.share_labels ? store : nullptr)
                             .ForkSeeds(static_cast<uint64_t>(repeat))
                             .Build(&oracle));
  LabelCache labels(&stack.top());
  OASIS_ASSIGN_OR_RETURN(std::unique_ptr<Sampler> sampler,
                         method.factory(&pool, &labels, rng));
  OASIS_ASSIGN_OR_RETURN(Trajectory trajectory,
                         RunTrajectory(*sampler, options.trajectory));
  OASIS_CHECK_EQ(trajectory.snapshots.size(), slots->checkpoints);
  for (size_t i = 0; i < trajectory.snapshots.size(); ++i) {
    const EstimateSnapshot& snap = trajectory.snapshots[i];
    const size_t slot = slots->index(repeat, i);
    slots->f_alpha[slot] = snap.f_alpha;
    slots->defined[slot] = snap.f_defined ? 1 : 0;
    if (trajectory.has_remote_stats && !slots->round_trips.empty()) {
      slots->round_trips[slot] =
          static_cast<double>(trajectory.remote_round_trips[i]);
      slots->simulated_seconds[slot] = trajectory.remote_seconds[i];
      slots->label_cost[slot] = trajectory.remote_cost[i];
    }
    if (trajectory.has_fault_stats && !slots->retries.empty()) {
      slots->retries[slot] = static_cast<double>(trajectory.oracle_retries[i]);
      slots->give_ups[slot] = static_cast<double>(trajectory.oracle_give_ups[i]);
    }
    if (trajectory.has_degeneracy_stats) {
      slots->ess[slot] = trajectory.ess[i];
    }
  }
  if (trajectory.has_degeneracy_stats) {
    degeneracy_seen->store(true, std::memory_order_release);
  }
  return Status::OK();
}

}  // namespace

StackSpec EffectiveStackSpec(const RunnerOptions& options) {
  StackSpec spec = options.stack;
  if (!spec.fault_injection.has_value()) {
    spec.fault_injection = options.fault_injection;
  }
  if (!spec.remote.has_value()) spec.remote = options.remote_oracle;
  if (!spec.retry.has_value()) spec.retry = options.retry_policy;
  // Sharing is meaningful only with a wire to share; normalising here keeps
  // the historical tolerance for remote_share_labels without remote_oracle.
  spec.share_labels = spec.remote.has_value() &&
                      (spec.share_labels || options.remote_share_labels);
  return spec;
}

Result<StackSpec> StackSpecFromConfig(const ConfigMap& config,
                                      const std::string& prefix) {
  StackSpec spec;
  OASIS_ASSIGN_OR_RETURN(const bool fault,
                         config.GetBoolOr(prefix + "fault", false));
  if (fault) {
    FaultInjectionOptions fi;
    OASIS_ASSIGN_OR_RETURN(
        fi.transient_failure_rate,
        config.GetDoubleOr(prefix + "fault_transient_rate",
                           fi.transient_failure_rate));
    OASIS_ASSIGN_OR_RETURN(
        fi.timeout_rate,
        config.GetDoubleOr(prefix + "fault_timeout_rate", fi.timeout_rate));
    OASIS_ASSIGN_OR_RETURN(
        fi.item_drop_rate,
        config.GetDoubleOr(prefix + "fault_item_drop_rate", fi.item_drop_rate));
    OASIS_ASSIGN_OR_RETURN(
        fi.outage_after_attempts,
        config.GetInt64Or(prefix + "fault_outage_after",
                          fi.outage_after_attempts));
    OASIS_ASSIGN_OR_RETURN(
        const int64_t fault_seed,
        config.GetInt64Or(prefix + "fault_seed",
                          static_cast<int64_t>(fi.seed)));
    fi.seed = static_cast<uint64_t>(fault_seed);
    spec.fault_injection = fi;
  }
  OASIS_ASSIGN_OR_RETURN(const bool remote,
                         config.GetBoolOr(prefix + "remote", false));
  if (remote) {
    RemoteOracleOptions ro;
    OASIS_ASSIGN_OR_RETURN(
        ro.round_trip_seconds,
        config.GetDoubleOr(prefix + "remote_round_trip_seconds",
                           ro.round_trip_seconds));
    OASIS_ASSIGN_OR_RETURN(
        ro.per_item_seconds,
        config.GetDoubleOr(prefix + "remote_per_item_seconds",
                           ro.per_item_seconds));
    OASIS_ASSIGN_OR_RETURN(
        ro.cost_per_label,
        config.GetDoubleOr(prefix + "remote_cost_per_label", ro.cost_per_label));
    OASIS_ASSIGN_OR_RETURN(
        ro.jitter_fraction,
        config.GetDoubleOr(prefix + "remote_jitter_fraction",
                           ro.jitter_fraction));
    OASIS_ASSIGN_OR_RETURN(
        const int64_t jitter_seed,
        config.GetInt64Or(prefix + "remote_jitter_seed",
                          static_cast<int64_t>(ro.jitter_seed)));
    ro.jitter_seed = static_cast<uint64_t>(jitter_seed);
    OASIS_ASSIGN_OR_RETURN(
        ro.max_items_per_round_trip,
        config.GetInt64Or(prefix + "remote_max_items_per_trip",
                          ro.max_items_per_round_trip));
    spec.remote = ro;
  }
  OASIS_ASSIGN_OR_RETURN(const bool retry,
                         config.GetBoolOr(prefix + "retry", false));
  if (retry) {
    RetryPolicy rp;
    OASIS_ASSIGN_OR_RETURN(
        const int64_t max_attempts,
        config.GetInt64Or(prefix + "retry_max_attempts", rp.max_attempts));
    rp.max_attempts = static_cast<int>(max_attempts);
    OASIS_ASSIGN_OR_RETURN(
        rp.initial_backoff_seconds,
        config.GetDoubleOr(prefix + "retry_initial_backoff_seconds",
                           rp.initial_backoff_seconds));
    OASIS_ASSIGN_OR_RETURN(
        rp.backoff_multiplier,
        config.GetDoubleOr(prefix + "retry_backoff_multiplier",
                           rp.backoff_multiplier));
    OASIS_ASSIGN_OR_RETURN(
        rp.max_backoff_seconds,
        config.GetDoubleOr(prefix + "retry_max_backoff_seconds",
                           rp.max_backoff_seconds));
    OASIS_ASSIGN_OR_RETURN(
        rp.jitter_fraction,
        config.GetDoubleOr(prefix + "retry_jitter_fraction",
                           rp.jitter_fraction));
    OASIS_ASSIGN_OR_RETURN(
        const int64_t retry_jitter_seed,
        config.GetInt64Or(prefix + "retry_jitter_seed",
                          static_cast<int64_t>(rp.jitter_seed)));
    rp.jitter_seed = static_cast<uint64_t>(retry_jitter_seed);
    OASIS_ASSIGN_OR_RETURN(
        rp.per_attempt_timeout_seconds,
        config.GetDoubleOr(prefix + "retry_per_attempt_timeout_seconds",
                           rp.per_attempt_timeout_seconds));
    OASIS_ASSIGN_OR_RETURN(
        rp.overall_deadline_seconds,
        config.GetDoubleOr(prefix + "retry_overall_deadline_seconds",
                           rp.overall_deadline_seconds));
    OASIS_ASSIGN_OR_RETURN(
        const int64_t breaker_threshold,
        config.GetInt64Or(prefix + "retry_breaker_threshold",
                          rp.breaker_failure_threshold));
    rp.breaker_failure_threshold = static_cast<int>(breaker_threshold);
    OASIS_ASSIGN_OR_RETURN(
        rp.breaker_cooldown_calls,
        config.GetInt64Or(prefix + "retry_breaker_cooldown_calls",
                          rp.breaker_cooldown_calls));
    spec.retry = rp;
  }
  OASIS_ASSIGN_OR_RETURN(spec.share_labels,
                         config.GetBoolOr(prefix + "share_labels", false));
  if (spec.share_labels && !spec.remote.has_value()) {
    return Status::InvalidArgument(
        "StackSpecFromConfig: " + prefix + "share_labels requires " + prefix +
        "remote = true");
  }
  return spec;
}

namespace {

/// One `key = value` config line with a %.17g number (value-exact through
/// ConfigMap's strtod/strtoll round trip).
void AppendConfigLine(const std::string& key, double value, std::string* out) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  *out += key + " = " + buffer + "\n";
}

void AppendConfigLine(const std::string& key, int64_t value, std::string* out) {
  *out += key + " = " + std::to_string(value) + "\n";
}

}  // namespace

void AppendStackSpecConfig(const StackSpec& spec, const std::string& prefix,
                           std::string* out) {
  if (spec.fault_injection.has_value()) {
    const FaultInjectionOptions& fi = *spec.fault_injection;
    *out += prefix + "fault = true\n";
    AppendConfigLine(prefix + "fault_transient_rate", fi.transient_failure_rate,
                     out);
    AppendConfigLine(prefix + "fault_timeout_rate", fi.timeout_rate, out);
    AppendConfigLine(prefix + "fault_item_drop_rate", fi.item_drop_rate, out);
    AppendConfigLine(prefix + "fault_outage_after", fi.outage_after_attempts,
                     out);
    AppendConfigLine(prefix + "fault_seed", static_cast<int64_t>(fi.seed), out);
  }
  if (spec.remote.has_value()) {
    const RemoteOracleOptions& ro = *spec.remote;
    *out += prefix + "remote = true\n";
    AppendConfigLine(prefix + "remote_round_trip_seconds",
                     ro.round_trip_seconds, out);
    AppendConfigLine(prefix + "remote_per_item_seconds", ro.per_item_seconds,
                     out);
    AppendConfigLine(prefix + "remote_cost_per_label", ro.cost_per_label, out);
    AppendConfigLine(prefix + "remote_jitter_fraction", ro.jitter_fraction,
                     out);
    AppendConfigLine(prefix + "remote_jitter_seed",
                     static_cast<int64_t>(ro.jitter_seed), out);
    AppendConfigLine(prefix + "remote_max_items_per_trip",
                     ro.max_items_per_round_trip, out);
  }
  if (spec.retry.has_value()) {
    const RetryPolicy& rp = *spec.retry;
    *out += prefix + "retry = true\n";
    AppendConfigLine(prefix + "retry_max_attempts",
                     static_cast<int64_t>(rp.max_attempts), out);
    AppendConfigLine(prefix + "retry_initial_backoff_seconds",
                     rp.initial_backoff_seconds, out);
    AppendConfigLine(prefix + "retry_backoff_multiplier", rp.backoff_multiplier,
                     out);
    AppendConfigLine(prefix + "retry_max_backoff_seconds",
                     rp.max_backoff_seconds, out);
    AppendConfigLine(prefix + "retry_jitter_fraction", rp.jitter_fraction, out);
    AppendConfigLine(prefix + "retry_jitter_seed",
                     static_cast<int64_t>(rp.jitter_seed), out);
    AppendConfigLine(prefix + "retry_per_attempt_timeout_seconds",
                     rp.per_attempt_timeout_seconds, out);
    AppendConfigLine(prefix + "retry_overall_deadline_seconds",
                     rp.overall_deadline_seconds, out);
    AppendConfigLine(prefix + "retry_breaker_threshold",
                     static_cast<int64_t>(rp.breaker_failure_threshold), out);
    AppendConfigLine(prefix + "retry_breaker_cooldown_calls",
                     rp.breaker_cooldown_calls, out);
  }
  if (spec.share_labels) {
    *out += prefix + "share_labels = true\n";
  }
}

Result<ErrorCurve> RunErrorCurve(const MethodSpec& method, const ScoredPool& pool,
                                 const Oracle& oracle, double true_f,
                                 const RunnerOptions& options) {
  if (options.repeats <= 0) {
    return Status::InvalidArgument("RunErrorCurve: repeats must be positive");
  }
  OASIS_RETURN_NOT_OK(pool.Validate());

  // Derive checkpoint count once, to shape the result slots.
  size_t num_checkpoints = 0;
  for (int64_t b = options.trajectory.checkpoint_every;
       b <= options.trajectory.budget; b += options.trajectory.checkpoint_every) {
    ++num_checkpoints;
  }
  if (num_checkpoints == 0) {
    return Status::InvalidArgument("RunErrorCurve: no checkpoints in budget");
  }

  // Observability (observe-only; see RunnerTelemetryOptions). The scoped
  // enable turns the process-wide switch on for this call and restores the
  // previous state on every exit path; the heartbeat thread, when requested,
  // reads the default registry until destroyed at return.
  std::optional<telemetry::ScopedEnable> telemetry_scope;
  std::optional<telemetry::Heartbeat> heartbeat;
  if (options.telemetry.enable) {
    telemetry_scope.emplace(true);
    if (options.telemetry.heartbeat_interval_seconds > 0.0) {
      telemetry::HeartbeatOptions beat;
      beat.interval_seconds = options.telemetry.heartbeat_interval_seconds;
      heartbeat.emplace(&telemetry::DefaultRegistry(), beat);
    }
  }
  TELEMETRY_SPAN("run_error_curve", "runner");

  const size_t repeats = static_cast<size_t>(options.repeats);
  const StackSpec stack_spec = EffectiveStackSpec(options);
  const bool remote = stack_spec.remote.has_value();
  const bool fault = stack_spec.retry.has_value();
  RepeatSlots slots(repeats, num_checkpoints, remote, fault);
  std::atomic<bool> degeneracy_seen{false};
  // Run-wide shared label store: any repeat's fetched label answers every
  // later request for that item, from any repeat (sound only for
  // deterministic RNG-free oracles; RemoteOracle enforces the gate).
  std::unique_ptr<SharedLabelStore> store;
  if (stack_spec.share_labels) {
    store = std::make_unique<SharedLabelStore>(oracle.num_items());
  }
  std::vector<Status> repeat_status(repeats);
  std::atomic<int> completed{0};
  std::atomic<bool> failed{false};
  // Internal token so a failing repeat also stops the fan-out early; user
  // cancellation is folded into it inside the body (ParallelFor polls one
  // token between chunks, the body polls the user's token per repeat).
  CancellationToken abort_remaining;

  // Never spawn more workers than there are repeats to run — including on
  // the default (hardware concurrency) path, where a small-repeat call on a
  // many-core machine would otherwise create a stack of idle threads.
  const int requested_threads = options.num_threads <= 0
                                    ? ThreadPool::DefaultThreadCount()
                                    : options.num_threads;
  ThreadPool thread_pool(std::min(requested_threads, options.repeats));
  thread_pool.ParallelFor(0, options.repeats, [&](int64_t repeat) {
    if (options.cancel != nullptr && options.cancel->cancelled()) {
      abort_remaining.RequestCancel();
      return;
    }
    telemetry::Gauge* in_flight = nullptr;
    if (OASIS_TELEMETRY_ON) {
      static telemetry::Gauge& in_flight_gauge =
          telemetry::DefaultRegistry().AddGauge(
              "oasis_runner_repeats_in_flight",
              "Repeats currently executing on pool workers.");
      in_flight = &in_flight_gauge;
      in_flight->Add(1.0);
    }
    const Status status =
        RunOneRepeat(method, pool, oracle, stack_spec, options,
                     Rng::Fork(options.base_seed, static_cast<uint64_t>(repeat)),
                     static_cast<size_t>(repeat), &slots, store.get(),
                     &degeneracy_seen);
    if (in_flight != nullptr) {
      in_flight->Add(-1.0);
      static telemetry::Counter& repeats_done =
          telemetry::DefaultRegistry().AddCounter(
              "oasis_runner_repeats_completed_total",
              "Repeats finished (successfully or not) by the fan-out.");
      repeats_done.Increment();
    }
    if (!status.ok()) {
      repeat_status[static_cast<size_t>(repeat)] = status;
      failed.store(true, std::memory_order_release);
      abort_remaining.RequestCancel();
      return;
    }
    if (options.progress) {
      options.progress(completed.fetch_add(1, std::memory_order_acq_rel) + 1,
                       options.repeats);
    }
  }, &abort_remaining);

  if (failed.load(std::memory_order_acquire)) {
    // Deterministic error selection: the lowest-indexed failing repeat wins,
    // regardless of which worker hit its failure first.
    for (const Status& status : repeat_status) {
      if (!status.ok()) return status;
    }
  }
  if (options.cancel != nullptr && options.cancel->cancelled()) {
    return Status::Cancelled("RunErrorCurve: cancelled mid-run");
  }

  // Deterministic reduction: fold raw per-repeat outcomes in repeat order.
  // This reproduces the historical sequential runner's arithmetic exactly —
  // same RunningStats::Add sequence — whatever the fan-out above did.
  TELEMETRY_SPAN("reduce", "runner");
  std::vector<RunningStats> abs_error(num_checkpoints);
  std::vector<RunningStats> estimate(num_checkpoints);
  std::vector<int64_t> defined_count(num_checkpoints, 0);
  // Cost columns fold over ALL repeats (a repeat pays for its labels whether
  // or not its estimate is defined yet), also in repeat order.
  std::vector<RunningStats> round_trips(remote ? num_checkpoints : 0);
  std::vector<RunningStats> simulated_seconds(remote ? num_checkpoints : 0);
  std::vector<RunningStats> label_cost(remote ? num_checkpoints : 0);
  const bool degeneracy = degeneracy_seen.load(std::memory_order_acquire);
  std::vector<RunningStats> retries(fault ? num_checkpoints : 0);
  std::vector<RunningStats> give_ups(fault ? num_checkpoints : 0);
  std::vector<RunningStats> ess(degeneracy ? num_checkpoints : 0);
  for (size_t r = 0; r < repeats; ++r) {
    for (size_t i = 0; i < num_checkpoints; ++i) {
      const size_t slot = slots.index(r, i);
      if (remote) {
        round_trips[i].Add(slots.round_trips[slot]);
        simulated_seconds[i].Add(slots.simulated_seconds[slot]);
        label_cost[i].Add(slots.label_cost[slot]);
      }
      if (fault) {
        retries[i].Add(slots.retries[slot]);
        give_ups[i].Add(slots.give_ups[slot]);
      }
      if (degeneracy) {
        ess[i].Add(slots.ess[slot]);
      }
      if (slots.defined[slot] == 0) continue;
      const double f = slots.f_alpha[slot];
      abs_error[i].Add(std::abs(f - true_f));
      estimate[i].Add(f);
      ++defined_count[i];
    }
  }

  ErrorCurve curve;
  curve.method = method.name;
  curve.repeats = options.repeats;
  for (int64_t b = options.trajectory.checkpoint_every;
       b <= options.trajectory.budget; b += options.trajectory.checkpoint_every) {
    curve.budgets.push_back(b);
  }
  curve.mean_abs_error.resize(num_checkpoints);
  curve.stddev.resize(num_checkpoints);
  curve.mean_estimate.resize(num_checkpoints);
  curve.frac_defined.resize(num_checkpoints);
  for (size_t i = 0; i < num_checkpoints; ++i) {
    curve.mean_abs_error[i] = abs_error[i].mean();
    curve.stddev[i] = estimate[i].stddev();
    curve.mean_estimate[i] = estimate[i].mean();
    curve.frac_defined[i] = static_cast<double>(defined_count[i]) /
                            static_cast<double>(options.repeats);
  }
  if (remote) {
    curve.has_remote_cost = true;
    curve.mean_round_trips.resize(num_checkpoints);
    curve.mean_simulated_seconds.resize(num_checkpoints);
    curve.mean_label_cost.resize(num_checkpoints);
    for (size_t i = 0; i < num_checkpoints; ++i) {
      curve.mean_round_trips[i] = round_trips[i].mean();
      curve.mean_simulated_seconds[i] = simulated_seconds[i].mean();
      curve.mean_label_cost[i] = label_cost[i].mean();
    }
  }
  if (fault) {
    curve.has_fault_stats = true;
    curve.mean_retries.resize(num_checkpoints);
    curve.mean_give_ups.resize(num_checkpoints);
    for (size_t i = 0; i < num_checkpoints; ++i) {
      curve.mean_retries[i] = retries[i].mean();
      curve.mean_give_ups[i] = give_ups[i].mean();
    }
  }
  if (degeneracy) {
    curve.has_degeneracy_stats = true;
    curve.mean_ess.resize(num_checkpoints);
    for (size_t i = 0; i < num_checkpoints; ++i) {
      curve.mean_ess[i] = ess[i].mean();
    }
  }
  // Raw final-checkpoint estimates in repeat order, for dispersion/coverage
  // consumers that need more than the aggregates above.
  curve.final_estimates.resize(repeats);
  curve.final_defined.resize(repeats);
  for (size_t r = 0; r < repeats; ++r) {
    const size_t slot = slots.index(r, num_checkpoints - 1);
    curve.final_estimates[r] = slots.f_alpha[slot];
    curve.final_defined[r] = slots.defined[slot];
  }
  return curve;
}

Result<FinalErrorSummary> RunFinalError(const MethodSpec& method,
                                        const ScoredPool& pool,
                                        const Oracle& oracle, double true_f,
                                        const RunnerOptions& options) {
  RunnerOptions final_options = options;
  // One checkpoint at the final budget is all we need.
  final_options.trajectory.checkpoint_every = final_options.trajectory.budget;
  OASIS_ASSIGN_OR_RETURN(
      ErrorCurve curve, RunErrorCurve(method, pool, oracle, true_f, final_options));

  // Recompute the CI from the curve's aggregate statistics: stddev of the
  // absolute error is not directly stored, so re-derive from a dedicated run
  // is wasteful — instead approximate with stddev of estimates, which equals
  // the error spread around a fixed truth up to bias. For the Figure 5 bars
  // we follow the paper and report the standard error of the mean |error|.
  FinalErrorSummary summary;
  summary.method = method.name;
  OASIS_CHECK(!curve.mean_abs_error.empty());
  summary.mean_abs_error = curve.mean_abs_error.back();
  summary.frac_defined = curve.frac_defined.back();
  summary.repeats = curve.repeats;
  const double n_defined =
      std::max(1.0, curve.frac_defined.back() * curve.repeats);
  summary.ci_half_width =
      NormalQuantileTwoSided(0.95) * curve.stddev.back() / std::sqrt(n_defined);
  return summary;
}

}  // namespace experiments
}  // namespace oasis
