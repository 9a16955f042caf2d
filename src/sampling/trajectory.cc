#include "sampling/trajectory.h"

#include <algorithm>

#include "stats/degeneracy.h"
#include "telemetry/telemetry.h"

namespace oasis {

std::vector<int64_t> CheckpointGrid(const TrajectoryOptions& options) {
  std::vector<int64_t> grid;
  if (options.checkpoint_every <= 0) return grid;
  for (int64_t b = options.checkpoint_every; b <= options.budget;
       b += options.checkpoint_every) {
    grid.push_back(b);
  }
  return grid;
}

TrajectoryCursor::TrajectoryCursor(Sampler& sampler,
                                   const TrajectoryOptions& options)
    : sampler_(&sampler),
      budget_(options.budget),
      max_iterations_(options.max_iterations > 0
                          ? options.max_iterations
                          : 50 * options.budget + 100000),
      start_labels_(sampler.labels_consumed()),
      // Cost-model capture: when the labels flow through a RemoteOracle —
      // directly or wrapped inside retry/fault decorators — chart its
      // cumulative round trips / simulated latency / monetary cost.
      remote_(FindRemoteOracle(&sampler.labels().oracle())),
      // Recovery capture: with a RetryingOracle on top of the stack, chart
      // its cumulative retries and give-ups.
      retrying_(dynamic_cast<const RetryingOracle*>(&sampler.labels().oracle())),
      // Degeneracy capture: samplers with a weight-health monitor chart their
      // effective sample size.
      monitor_(sampler.degeneracy_monitor()) {
  out_.budgets = CheckpointGrid(options);
  const size_t n = out_.budgets.size();
  out_.snapshots.reserve(n);
  if (remote_ != nullptr) {
    out_.has_remote_stats = true;
    remote_start_ = remote_->stats();
    out_.remote_round_trips.reserve(n);
    out_.remote_seconds.reserve(n);
    out_.remote_cost.reserve(n);
  }
  if (retrying_ != nullptr) {
    out_.has_fault_stats = true;
    retry_start_ = retrying_->stats();
    out_.oracle_retries.reserve(n);
    out_.oracle_give_ups.reserve(n);
  }
  if (monitor_ != nullptr) {
    out_.has_degeneracy_stats = true;
    out_.ess.reserve(n);
  }
}

Result<TrajectoryCursor> TrajectoryCursor::Start(
    Sampler& sampler, const TrajectoryOptions& options) {
  if (options.budget <= 0) {
    return Status::InvalidArgument("TrajectoryCursor: budget must be positive");
  }
  if (options.checkpoint_every <= 0) {
    return Status::InvalidArgument(
        "TrajectoryCursor: checkpoint_every must be positive");
  }
  return TrajectoryCursor(sampler, options);
}

int64_t TrajectoryCursor::Consumed() const {
  return sampler_->labels_consumed() - start_labels_;
}

void TrajectoryCursor::Capture(const EstimateSnapshot& snap) {
  out_.snapshots.push_back(snap);
  if (remote_ != nullptr) {
    const RemoteOracleStats now = remote_->stats();
    out_.remote_round_trips.push_back(now.round_trips -
                                      remote_start_.round_trips);
    out_.remote_seconds.push_back(
        static_cast<double>(now.simulated_latency_ns -
                            remote_start_.simulated_latency_ns) *
        1e-9);
    out_.remote_cost.push_back(now.label_cost - remote_start_.label_cost);
  }
  if (retrying_ != nullptr) {
    const RetryStats now = retrying_->stats();
    out_.oracle_retries.push_back(now.retries - retry_start_.retries);
    out_.oracle_give_ups.push_back(now.give_ups - retry_start_.give_ups);
  }
  if (monitor_ != nullptr) out_.ess.push_back(monitor_->ess());
}

Result<int64_t> TrajectoryCursor::Advance(int64_t label_quota) {
  const int64_t start = Consumed();
  while (!done_) {
    const bool spent = Consumed() >= budget_;
    if (!spent && label_quota > 0 && Consumed() - start >= label_quota) break;
    if (spent || sampler_->iterations() >= max_iterations_) {
      // Fill the remaining checkpoints with the final estimate so every
      // trajectory has the full grid shape.
      out_.truncated = !spent;
      const EstimateSnapshot final_snap = sampler_->Estimate();
      while (out_.snapshots.size() < out_.budgets.size()) Capture(final_snap);
      done_ = true;
      break;
    }
    // Single steps until F first defines; checkpoint-deficit batches after.
    const size_t next = out_.snapshots.size();
    int64_t batch = 1;
    if (out_.first_defined_budget >= 0) {
      const int64_t target =
          next < out_.budgets.size() ? out_.budgets[next] : budget_;
      batch = std::max<int64_t>(1, target - Consumed());
      batch = std::min(batch, max_iterations_ - sampler_->iterations());
    }
    OASIS_RETURN_NOT_OK(sampler_->StepBatch(batch));
    const int64_t consumed = Consumed();
    const EstimateSnapshot snap = sampler_->Estimate();
    if (out_.first_defined_budget < 0 && snap.f_defined) {
      out_.first_defined_budget = consumed;
    }
    while (out_.snapshots.size() < out_.budgets.size() &&
           consumed >= out_.budgets[out_.snapshots.size()]) {
      Capture(snap);
      if (OASIS_TELEMETRY_ON) {
        static telemetry::Counter& checkpoints =
            telemetry::DefaultRegistry().AddCounter(
                "oasis_runner_checkpoints_total",
                "Budget checkpoints reached across all trajectories.");
        checkpoints.Increment();
        if (monitor_ != nullptr) {
          static telemetry::Gauge& live_ess =
              telemetry::DefaultRegistry().AddGauge(
                  "oasis_runner_live_ess",
                  "Effective sample size at the most recent checkpoint "
                  "(last writer wins across repeats).");
          live_ess.Set(monitor_->ess());
        }
      }
    }
  }
  out_.total_iterations = sampler_->iterations();
  out_.labels_consumed = Consumed();
  return Consumed() - start;
}

Result<Trajectory> RunTrajectory(Sampler& sampler, const TrajectoryOptions& options) {
  OASIS_ASSIGN_OR_RETURN(TrajectoryCursor cursor,
                         TrajectoryCursor::Start(sampler, options));
  TELEMETRY_SPAN("run_trajectory", "sampler");
  OASIS_RETURN_NOT_OK(cursor.Advance(0).status());
  return std::move(cursor).TakeTrajectory();
}

}  // namespace oasis
