#ifndef OASIS_STATS_DEGENERACY_H_
#define OASIS_STATS_DEGENERACY_H_

#include <cstdint>
#include <string>

namespace oasis {

/// Thresholds of a DegeneracyMonitor (see that class). Defaults are
/// deliberately conservative: OASIS's epsilon-greedy floor already bounds
/// weights by 1/epsilon, so a healthy run never trips them.
struct DegeneracyOptions {
  /// Observations required before degenerate() may fire — ESS estimates from
  /// a handful of weights are noise.
  int64_t min_observations = 64;

  /// Degenerate when ESS / n falls below this fraction (kish effective
  /// sample size collapsing to a vanishing share of the sample).
  double ess_floor_fraction = 0.02;

  /// Degenerate when a single observation's weight carries more than this
  /// share of the total weight mass (one-draw-dominates tail collapse, the
  /// classic SIS failure mode).
  double tail_mass_ceiling = 0.9;
};

/// Streaming importance-weight health monitor: tracks the Kish effective
/// sample size ESS = (sum w)^2 / sum w^2 and the largest single weight's
/// share of the total mass, the two standard early warnings of importance-
/// sampling degeneracy (weights concentrating on a vanishing subset of
/// draws; see docs/FAULT_MODEL.md for the estimator-consistency discussion).
///
/// Samplers feed every accepted observation's weight through Observe(); no
/// sampler reacts to degenerate(). Harnesses read ess() per checkpoint for
/// trajectories and CSV output, and the run summary carries the verdict.
/// Plain value type, one per sampler; not thread-safe (samplers are
/// single-threaded by contract).
class DegeneracyMonitor {
 public:
  /// Monitor with default thresholds.
  DegeneracyMonitor() = default;

  /// Monitor with explicit thresholds.
  explicit DegeneracyMonitor(const DegeneracyOptions& options)
      : options_(options) {}

  /// Folds one observation's importance weight (>= 0) into the running
  /// moments.
  void Observe(double weight) {
    ++observations_;
    sum_w_ += weight;
    sum_w2_ += weight * weight;
    if (weight > max_w_) max_w_ = weight;
  }

  /// Observations folded in so far.
  int64_t observations() const { return observations_; }

  /// Kish effective sample size (sum w)^2 / sum w^2; equals observations()
  /// for uniform weights, collapses towards 1 as the weights degenerate.
  /// 0 before any observation (or when every weight was 0).
  double ess() const {
    return sum_w2_ > 0.0 ? (sum_w_ * sum_w_) / sum_w2_ : 0.0;
  }

  /// ESS as a fraction of observations (1 = perfectly uniform weights).
  double ess_fraction() const {
    return observations_ > 0 ? ess() / static_cast<double>(observations_) : 0.0;
  }

  /// Largest single weight's share of the total weight mass.
  double max_weight_share() const {
    return sum_w_ > 0.0 ? max_w_ / sum_w_ : 0.0;
  }

  /// Whether the weight history looks degenerate: enough observations AND
  /// (ESS collapsed below the floor OR one weight dominates the mass).
  bool degenerate() const {
    if (observations_ < options_.min_observations) return false;
    return ess_fraction() < options_.ess_floor_fraction ||
           max_weight_share() > options_.tail_mass_ceiling;
  }

  /// The thresholds in force.
  const DegeneracyOptions& options() const { return options_; }

  /// One-line human-readable snapshot ("ess=12.3/400 (3.1%) max_share=0.42
  /// degenerate") for logs and failure messages.
  std::string Summary() const;

  /// Forgets all observations (thresholds are kept).
  void Reset() {
    observations_ = 0;
    sum_w_ = 0.0;
    sum_w2_ = 0.0;
    max_w_ = 0.0;
  }

 private:
  DegeneracyOptions options_;
  int64_t observations_ = 0;
  double sum_w_ = 0.0;
  double sum_w2_ = 0.0;
  double max_w_ = 0.0;
};

}  // namespace oasis

#endif  // OASIS_STATS_DEGENERACY_H_
