#ifndef OASIS_SAMPLING_TRAJECTORY_H_
#define OASIS_SAMPLING_TRAJECTORY_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/status.h"
#include "oracle/remote_oracle.h"
#include "oracle/retry_policy.h"
#include "sampling/sampler.h"

namespace oasis {

/// Controls a budget-driven sampler run with checkpointed estimates.
struct TrajectoryOptions {
  /// Total label budget (distinct oracle charges).
  int64_t budget = 1000;
  /// Record an estimate snapshot every this many labels.
  int64_t checkpoint_every = 10;
  /// Iteration cap; 0 derives a generous default from the budget. Guards
  /// against the (theoretically possible) case where resampling of cached
  /// items keeps a run from ever consuming fresh budget.
  int64_t max_iterations = 0;
};

/// The estimate history of one sampler run, indexed by label budget. This is
/// the primitive behind every error-vs-budget curve in the paper (Fig. 2/3).
struct Trajectory {
  /// Checkpoint label counts: checkpoint_every, 2*checkpoint_every, ...
  std::vector<int64_t> budgets;
  /// Estimate at each checkpoint (snapshot taken when the consumed budget
  /// first reached the checkpoint).
  std::vector<EstimateSnapshot> snapshots;
  /// Budget consumed when F first became defined; -1 when it never did.
  int64_t first_defined_budget = -1;
  /// Sampling iterations the run performed in total.
  int64_t total_iterations = 0;
  /// Labels charged to the budget by the run.
  int64_t labels_consumed = 0;
  /// True when the run hit max_iterations before exhausting the budget
  /// (trailing checkpoints are filled with the final estimate).
  bool truncated = false;

  /// True when the sampler's oracle was a RemoteOracle (possibly wrapped
  /// inside retry/fault decorators — the stack is walked): the three per-
  /// checkpoint cost series below are populated (same length as budgets),
  /// measuring this run's cumulative remote activity at each checkpoint —
  /// the x-axes of cost-vs-error curves (docs/ORACLES.md).
  bool has_remote_stats = false;
  /// Cumulative simulated round trips at each checkpoint.
  std::vector<int64_t> remote_round_trips;
  /// Cumulative simulated latency (seconds) at each checkpoint.
  std::vector<double> remote_seconds;
  /// Cumulative monetary label cost at each checkpoint.
  std::vector<double> remote_cost;

  /// True when the sampler's oracle stack was topped by a RetryingOracle:
  /// the per-checkpoint recovery series below are populated (same length as
  /// budgets), charting this run's cumulative retry activity — the CSV's
  /// retries/give_ups columns (docs/FAULT_MODEL.md).
  bool has_fault_stats = false;
  /// Cumulative retry attempts (beyond each call's first) at each checkpoint.
  std::vector<int64_t> oracle_retries;
  /// Cumulative gave-up oracle calls at each checkpoint.
  std::vector<int64_t> oracle_give_ups;

  /// True when the sampler exposes a DegeneracyMonitor: `ess` is populated
  /// (same length as budgets) with the Kish effective sample size at each
  /// checkpoint.
  bool has_degeneracy_stats = false;
  /// Effective sample size of the importance weights at each checkpoint.
  std::vector<double> ess;
};

/// The checkpoint grid of `options`: checkpoint_every, 2*checkpoint_every,
/// ..., up to budget.
std::vector<int64_t> CheckpointGrid(const TrajectoryOptions& options);

/// The one trajectory loop, resumable: drives `sampler` through a budget run
/// in batches and captures the Trajectory checkpoint by checkpoint, pausing
/// between batches whenever a caller's label quota is met. RunTrajectory is
/// one unbounded Advance; a served session holds a cursor across requests.
///
/// Batch policy (Sampler::StepBatch): single steps until F first becomes
/// defined, so first_defined_budget is exact; afterwards each batch is capped
/// at the label deficit to the next checkpoint and at the remaining iteration
/// allowance. A step charges at most one label, so a batch never jumps a
/// checkpoint, and since a quota never splits a batch, the oracle attempt
/// sequence — and every estimate — is independent of how Advance is sliced.
class TrajectoryCursor {
 public:
  /// Validates `options`, lays out the checkpoint grid and takes the
  /// cost/recovery baselines: series are measured from this call, so an
  /// oracle reused across trajectories charts each run from zero. `sampler`
  /// must outlive the cursor.
  static Result<TrajectoryCursor> Start(Sampler& sampler,
                                        const TrajectoryOptions& options);

  /// Advances by at least `label_quota` charged labels (<= 0: to the end),
  /// stopping early when the budget is exhausted or the iteration cap fires;
  /// either ends the run with the trailing fill. The quota is checked only
  /// between batches, so the count may overshoot it by up to
  /// checkpoint_every. Returns the labels charged by this call; a failed
  /// batch returns its Status and records nothing.
  Result<int64_t> Advance(int64_t label_quota);

  /// Whether the run has ended (budget exhausted or truncated).
  bool done() const { return done_; }

  /// The trajectory so far: the full checkpoint grid in `budgets`, and
  /// snapshots plus series for every checkpoint reached (the whole grid,
  /// trailing fill applied, once done).
  const Trajectory& trajectory() const { return out_; }

  /// Moves the trajectory out of a finished cursor.
  Trajectory TakeTrajectory() && { return std::move(out_); }

 private:
  TrajectoryCursor(Sampler& sampler, const TrajectoryOptions& options);

  int64_t Consumed() const;
  /// Appends one checkpoint: the snapshot and every captured series.
  void Capture(const EstimateSnapshot& snap);

  Sampler* sampler_;
  int64_t budget_;
  int64_t max_iterations_;
  int64_t start_labels_;
  const RemoteOracle* remote_;
  RemoteOracleStats remote_start_;
  const RetryingOracle* retrying_;
  RetryStats retry_start_;
  const DegeneracyMonitor* monitor_;
  bool done_ = false;
  Trajectory out_;
};

/// Runs `sampler` until the label budget is exhausted (or the iteration cap
/// fires), recording estimates at each checkpoint.
Result<Trajectory> RunTrajectory(Sampler& sampler, const TrajectoryOptions& options);

}  // namespace oasis

#endif  // OASIS_SAMPLING_TRAJECTORY_H_
