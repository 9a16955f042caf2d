#include "core/ais_estimator.h"

#include "common/logging.h"

namespace oasis {

AisEstimator::AisEstimator(double alpha) : alpha_(alpha) {
  OASIS_CHECK(alpha >= 0.0 && alpha <= 1.0);
}

void AisEstimator::Add(double weight, bool label, bool prediction) {
  OASIS_DCHECK(weight >= 0.0);
  if (label && prediction) num_ += weight;
  if (prediction) den_pred_ += weight;
  if (label) den_true_ += weight;
  ++observations_;
}

EstimateSnapshot AisEstimator::Snapshot() const {
  EstimateSnapshot snap;
  const double denom = alpha_ * den_pred_ + (1.0 - alpha_) * den_true_;
  if (denom > 0.0) {
    snap.f_alpha = num_ / denom;
    snap.f_defined = true;
  }
  if (den_pred_ > 0.0) {
    snap.precision = num_ / den_pred_;
    snap.precision_defined = true;
  }
  if (den_true_ > 0.0) {
    snap.recall = num_ / den_true_;
    snap.recall_defined = true;
  }
  return snap;
}

double AisEstimator::FAlphaOr(double fallback) const {
  // Snapshot()'s f_alpha expression alone: every step asks for F-hat, and the
  // precision and recall divisions are not needed for it.
  const double denom = alpha_ * den_pred_ + (1.0 - alpha_) * den_true_;
  return denom > 0.0 ? num_ / denom : fallback;
}

}  // namespace oasis
