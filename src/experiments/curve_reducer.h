#ifndef OASIS_EXPERIMENTS_CURVE_REDUCER_H_
#define OASIS_EXPERIMENTS_CURVE_REDUCER_H_

#include <atomic>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "sampling/trajectory.h"
#include "stats/running_stats.h"

namespace oasis {
namespace experiments {

/// Aggregated error statistics of one method on one pool, indexed by label
/// budget — the data behind each curve of the paper's Figure 2.
struct ErrorCurve {
  /// Method name ("Passive", "OASIS-30", ...).
  std::string method;
  /// Checkpoint label budgets (the curve's x axis).
  std::vector<int64_t> budgets;
  /// E|F-hat - F| over repeats whose estimate was defined at the checkpoint.
  std::vector<double> mean_abs_error;
  /// Standard deviation of the estimates across (defined) repeats.
  std::vector<double> stddev;
  /// Mean estimate across (defined) repeats.
  std::vector<double> mean_estimate;
  /// Fraction of repeats whose estimate was defined at the checkpoint; the
  /// paper starts plotting once this exceeds 0.95.
  std::vector<double> frac_defined;
  /// Number of repeats aggregated.
  int repeats = 0;

  /// True when the run priced labels through a remote layer (StackSpec::remote):
  /// the three cost series below are populated (same length as budgets) and
  /// give alternative x axes — error against simulated round trips, hours,
  /// or dollars instead of bare label counts.
  bool has_remote_cost = false;
  /// Mean (over repeats) cumulative round trips at each checkpoint.
  std::vector<double> mean_round_trips;
  /// Mean (over repeats) cumulative simulated latency, seconds.
  std::vector<double> mean_simulated_seconds;
  /// Mean (over repeats) cumulative monetary label cost.
  std::vector<double> mean_label_cost;

  /// True when the run retried oracle failures (StackSpec::retry):
  /// the two recovery series below are populated (same length as budgets) —
  /// how much repair work the fault-tolerant stack did to deliver the error
  /// statistics above (docs/FAULT_MODEL.md).
  bool has_fault_stats = false;
  /// Mean (over repeats) cumulative retry attempts at each checkpoint.
  std::vector<double> mean_retries;
  /// Mean (over repeats) cumulative gave-up oracle calls at each checkpoint.
  std::vector<double> mean_give_ups;

  /// True when the method's sampler exposes a DegeneracyMonitor: `mean_ess`
  /// is populated (same length as budgets).
  bool has_degeneracy_stats = false;
  /// Mean (over repeats) effective sample size at each checkpoint.
  std::vector<double> mean_ess;

  /// Per-repeat F-hat at the FINAL checkpoint, in repeat order (length ==
  /// repeats). The raw material behind cross-repeat dispersion statistics —
  /// empirical CI coverage in particular (src/experiments/verify.h) needs
  /// the individual estimates, not just their mean/stddev above.
  std::vector<double> final_estimates;
  /// 1 where the corresponding final_estimates entry was defined, else 0
  /// (and the estimate value is meaningless). Same length as final_estimates.
  std::vector<uint8_t> final_defined;

  /// Labels charged by the repeats behind this curve, summed (not written to
  /// the curves CSV): the count behind the apps' labels/s lines.
  int64_t labels_consumed = 0;
};

/// One checkpoint's estimates folded across repeats, defined repeats only.
struct CheckpointFold {
  RunningStats estimate;   ///< F-hat over the defined repeats.
  RunningStats abs_error;  ///< |F-hat - true F| over the defined repeats.
  int64_t defined = 0;     ///< Number of defined repeats.
};

/// Folds one checkpoint's per-repeat estimates (`defined[r] != 0` marks the
/// ones that count; both spans have one entry per repeat) with
/// RunningStats::Add in repeat order. The one fold
/// behind every ErrorCurve estimate column and behind VerifyRun's
/// aggregate-consistency check, so both agree to the bit.
CheckpointFold FoldCheckpoint(std::span<const double> f_alpha,
                              std::span<const uint8_t> defined, double true_f);

/// Reduces per-repeat trajectories into an ErrorCurve. Repeats are recorded
/// in any order — concurrently, for distinct repeats — into compact
/// preallocated (checkpoint, repeat) columns, and Reduce folds them in
/// repeat order, so the curve is independent of who recorded what when.
class CurveReducer {
 public:
  /// Columns for `repeats` repeats over the checkpoint grid `budgets`;
  /// `remote` and `fault` add the cost and recovery columns.
  CurveReducer(std::vector<int64_t> budgets, size_t repeats, bool remote,
               bool fault);

  /// Records repeat `repeat`'s trajectory: estimates, labels charged, and
  /// whichever cost/recovery/ESS series it carries. InvalidArgument when
  /// its snapshot count differs from the grid.
  Status Record(size_t repeat, const Trajectory& trajectory);

  /// Records estimate columns only (a served session's checkpoint reply).
  Status RecordEstimates(size_t repeat, std::span<const double> f_alpha,
                         std::span<const uint8_t> f_defined,
                         int64_t labels_consumed);

  /// Folds every repeat, in repeat order, into `method`'s curve against the
  /// reference value `true_f`.
  ErrorCurve Reduce(const std::string& method, double true_f) const;

 private:
  Status CheckShape(size_t repeat, size_t checkpoints) const;

  const std::vector<int64_t> budgets_;
  const size_t repeats_;
  /// Checkpoint-major: checkpoint i of repeat r lives at i * repeats_ + r.
  std::vector<double> f_alpha_;
  std::vector<uint8_t> defined_;
  std::vector<double> round_trips_;
  std::vector<double> simulated_seconds_;
  std::vector<double> label_cost_;
  std::vector<double> retries_;
  std::vector<double> give_ups_;
  /// Always allocated: whether a sampler monitors its weights is only known
  /// once it is built.
  std::vector<double> ess_;
  std::atomic<bool> has_ess_{false};
  std::vector<int64_t> labels_;
};

}  // namespace experiments
}  // namespace oasis

#endif  // OASIS_EXPERIMENTS_CURVE_REDUCER_H_
