#ifndef OASIS_SAMPLING_AIS_ESTIMATOR_H_
#define OASIS_SAMPLING_AIS_ESTIMATOR_H_

#include <cstdint>

#include "common/logging.h"
#include "sampling/sampler.h"

namespace oasis {

/// The ratios of paper Eqn. (3) over its three weighted sums:
///   F_alpha   = num / (alpha den_pred + (1-alpha) den_true),
///   precision = num / den_pred,
///   recall    = num / den_true,
/// each defined only where its denominator is positive (the 0/0 regime).
/// Every estimator in the repo prices its sums here: the AIS samplers, the
/// passive sampler (unit weights), the stratified sampler (population-
/// weighted stratum means) and MultiAlphaEstimator (one call per alpha).
EstimateSnapshot SnapshotFromSums(double num, double den_pred, double den_true,
                                  double alpha);

/// Running form of the adaptive-importance-sampling F-measure estimator
/// (paper Eqn. 3).
///
/// Maintains the three weighted sums
///   num      = sum_t w_t l_t l-hat_t
///   den_pred = sum_t w_t l-hat_t
///   den_true = sum_t w_t l_t
/// from which F_alpha, precision and recall all follow (SnapshotFromSums) —
/// the alpha=1 and alpha=0 specialisations of the same statistic.
class AisEstimator {
 public:
  /// `alpha` is the F-measure weight the F_alpha snapshot reports (the sums
  /// themselves are alpha-free; see MultiAlphaEstimator for pricing a grid).
  explicit AisEstimator(double alpha);

  /// Folds one weighted observation (w_t, l_t, l-hat_t) into the sums.
  void Add(double weight, bool label, bool prediction) {
    OASIS_DCHECK(weight >= 0.0);
    if (label && prediction) num_ += weight;
    if (prediction) den_pred_ += weight;
    if (label) den_true_ += weight;
    ++observations_;
  }

  /// Current snapshot; fields are undefined until the corresponding
  /// denominator is positive (the 0/0 regime of Eqn. 3).
  EstimateSnapshot Snapshot() const {
    return SnapshotFromSums(num_, den_pred_, den_true_, alpha_);
  }

  /// F_alpha if defined, otherwise `fallback` — OASIS feeds this into the
  /// instrumental-distribution update with fallback = F-hat(0).
  double FAlphaOr(double fallback) const;

  /// Number of observations folded in so far.
  int64_t observations() const { return observations_; }
  /// Raw weighted sum num = sum_t w_t l_t l-hat_t.
  double numerator() const { return num_; }
  /// Raw weighted sum den_pred = sum_t w_t l-hat_t.
  double denominator_predicted() const { return den_pred_; }
  /// Raw weighted sum den_true = sum_t w_t l_t.
  double denominator_true() const { return den_true_; }

 private:
  double alpha_;
  double num_ = 0.0;
  double den_pred_ = 0.0;
  double den_true_ = 0.0;
  int64_t observations_ = 0;
};

}  // namespace oasis

#endif  // OASIS_SAMPLING_AIS_ESTIMATOR_H_
