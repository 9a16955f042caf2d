#include "sampling/ais_estimator.h"

namespace oasis {

EstimateSnapshot SnapshotFromSums(double num, double den_pred, double den_true,
                                  double alpha) {
  EstimateSnapshot snap;
  const double denom = alpha * den_pred + (1.0 - alpha) * den_true;
  if (denom > 0.0) {
    snap.f_alpha = num / denom;
    snap.f_defined = true;
  }
  if (den_pred > 0.0) {
    snap.precision = num / den_pred;
    snap.precision_defined = true;
  }
  if (den_true > 0.0) {
    snap.recall = num / den_true;
    snap.recall_defined = true;
  }
  return snap;
}

AisEstimator::AisEstimator(double alpha) : alpha_(alpha) {
  OASIS_CHECK(alpha >= 0.0 && alpha <= 1.0);
}

double AisEstimator::FAlphaOr(double fallback) const {
  // SnapshotFromSums's f_alpha expression alone: every step asks for F-hat,
  // and the precision and recall divisions are not needed for it.
  const double denom = alpha_ * den_pred_ + (1.0 - alpha_) * den_true_;
  return denom > 0.0 ? num_ / denom : fallback;
}

}  // namespace oasis
