#include "experiments/curve_reducer.h"

#include <cmath>
#include <utility>

namespace oasis {
namespace experiments {

namespace {

/// Checkpoint `i`'s column of a checkpoint-major (checkpoint, repeat) array.
template <typename T>
std::span<const T> Column(const std::vector<T>& values, size_t i,
                          size_t repeats) {
  return std::span<const T>(values).subspan(i * repeats, repeats);
}

/// Mean over every repeat, in repeat order: a repeat pays for its labels
/// whether or not its estimate is defined yet.
double MeanOf(std::span<const double> values) {
  RunningStats stats;
  for (const double value : values) stats.Add(value);
  return stats.mean();
}

}  // namespace

CheckpointFold FoldCheckpoint(std::span<const double> f_alpha,
                              std::span<const uint8_t> defined, double true_f) {
  CheckpointFold fold;
  for (size_t r = 0; r < f_alpha.size(); ++r) {
    if (defined[r] == 0) continue;
    fold.abs_error.Add(std::abs(f_alpha[r] - true_f));
    fold.estimate.Add(f_alpha[r]);
    ++fold.defined;
  }
  return fold;
}

CurveReducer::CurveReducer(std::vector<int64_t> budgets, size_t repeats,
                           bool remote, bool fault)
    : budgets_(std::move(budgets)),
      repeats_(repeats),
      f_alpha_(budgets_.size() * repeats, 0.0),
      defined_(budgets_.size() * repeats, 0),
      ess_(budgets_.size() * repeats, 0.0),
      labels_(repeats, 0) {
  if (remote) {
    round_trips_.assign(f_alpha_.size(), 0.0);
    simulated_seconds_.assign(f_alpha_.size(), 0.0);
    label_cost_.assign(f_alpha_.size(), 0.0);
  }
  if (fault) {
    retries_.assign(f_alpha_.size(), 0.0);
    give_ups_.assign(f_alpha_.size(), 0.0);
  }
}

Status CurveReducer::CheckShape(size_t repeat, size_t checkpoints) const {
  if (repeat >= repeats_ || checkpoints != budgets_.size()) {
    return Status::InvalidArgument(
        "CurveReducer: repeat " + std::to_string(repeat) + " of " +
        std::to_string(repeats_) + " has " + std::to_string(checkpoints) +
        " of " + std::to_string(budgets_.size()) + " checkpoints");
  }
  return Status::OK();
}

Status CurveReducer::Record(size_t repeat, const Trajectory& trajectory) {
  OASIS_RETURN_NOT_OK(CheckShape(repeat, trajectory.snapshots.size()));
  for (size_t i = 0; i < budgets_.size(); ++i) {
    const size_t slot = i * repeats_ + repeat;
    f_alpha_[slot] = trajectory.snapshots[i].f_alpha;
    defined_[slot] = trajectory.snapshots[i].f_defined ? 1 : 0;
    if (trajectory.has_remote_stats && !round_trips_.empty()) {
      round_trips_[slot] = static_cast<double>(trajectory.remote_round_trips[i]);
      simulated_seconds_[slot] = trajectory.remote_seconds[i];
      label_cost_[slot] = trajectory.remote_cost[i];
    }
    if (trajectory.has_fault_stats && !retries_.empty()) {
      retries_[slot] = static_cast<double>(trajectory.oracle_retries[i]);
      give_ups_[slot] = static_cast<double>(trajectory.oracle_give_ups[i]);
    }
    if (trajectory.has_degeneracy_stats) ess_[slot] = trajectory.ess[i];
  }
  if (trajectory.has_degeneracy_stats) {
    has_ess_.store(true, std::memory_order_release);
  }
  labels_[repeat] = trajectory.labels_consumed;
  return Status::OK();
}

Status CurveReducer::RecordEstimates(size_t repeat,
                                     std::span<const double> f_alpha,
                                     std::span<const uint8_t> f_defined,
                                     int64_t labels_consumed) {
  OASIS_RETURN_NOT_OK(CheckShape(repeat, f_alpha.size()));
  OASIS_RETURN_NOT_OK(CheckShape(repeat, f_defined.size()));
  for (size_t i = 0; i < budgets_.size(); ++i) {
    f_alpha_[i * repeats_ + repeat] = f_alpha[i];
    defined_[i * repeats_ + repeat] = f_defined[i];
  }
  labels_[repeat] = labels_consumed;
  return Status::OK();
}

ErrorCurve CurveReducer::Reduce(const std::string& method,
                                double true_f) const {
  ErrorCurve curve;
  curve.method = method;
  curve.repeats = static_cast<int>(repeats_);
  curve.budgets = budgets_;
  curve.has_remote_cost = !round_trips_.empty();
  curve.has_fault_stats = !retries_.empty();
  curve.has_degeneracy_stats = has_ess_.load(std::memory_order_acquire);
  for (size_t i = 0; i < budgets_.size(); ++i) {
    const CheckpointFold fold = FoldCheckpoint(
        Column(f_alpha_, i, repeats_), Column(defined_, i, repeats_), true_f);
    curve.mean_abs_error.push_back(fold.abs_error.mean());
    curve.stddev.push_back(fold.estimate.stddev());
    curve.mean_estimate.push_back(fold.estimate.mean());
    curve.frac_defined.push_back(static_cast<double>(fold.defined) /
                                 static_cast<double>(repeats_));
    if (curve.has_remote_cost) {
      curve.mean_round_trips.push_back(MeanOf(Column(round_trips_, i, repeats_)));
      curve.mean_simulated_seconds.push_back(
          MeanOf(Column(simulated_seconds_, i, repeats_)));
      curve.mean_label_cost.push_back(MeanOf(Column(label_cost_, i, repeats_)));
    }
    if (curve.has_fault_stats) {
      curve.mean_retries.push_back(MeanOf(Column(retries_, i, repeats_)));
      curve.mean_give_ups.push_back(MeanOf(Column(give_ups_, i, repeats_)));
    }
    if (curve.has_degeneracy_stats) {
      curve.mean_ess.push_back(MeanOf(Column(ess_, i, repeats_)));
    }
  }
  // Raw final-checkpoint estimates in repeat order, for dispersion/coverage
  // consumers that need more than the aggregates above.
  if (!budgets_.empty()) {
    const size_t last = budgets_.size() - 1;
    const std::span<const double> finals = Column(f_alpha_, last, repeats_);
    const std::span<const uint8_t> defined = Column(defined_, last, repeats_);
    curve.final_estimates.assign(finals.begin(), finals.end());
    curve.final_defined.assign(defined.begin(), defined.end());
  }
  for (const int64_t labels : labels_) curve.labels_consumed += labels;
  return curve;
}

}  // namespace experiments
}  // namespace oasis
