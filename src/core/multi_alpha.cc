#include "core/multi_alpha.h"

#include <cmath>
#include <utility>

namespace oasis {

MultiAlphaEstimator::MultiAlphaEstimator(std::vector<double> alphas)
    : alphas_(std::move(alphas)), sums_(alphas_.front()) {}

Result<MultiAlphaEstimator> MultiAlphaEstimator::Create(std::vector<double> alphas) {
  if (alphas.empty()) {
    return Status::InvalidArgument("MultiAlphaEstimator: empty alpha grid");
  }
  for (double alpha : alphas) {
    if (std::isnan(alpha) || alpha < 0.0 || alpha > 1.0) {
      return Status::InvalidArgument("MultiAlphaEstimator: alpha outside [0, 1]");
    }
  }
  return MultiAlphaEstimator(std::move(alphas));
}

std::vector<MultiAlphaEstimator::GridEstimate> MultiAlphaEstimator::Estimates()
    const {
  std::vector<GridEstimate> out;
  out.reserve(alphas_.size());
  for (double alpha : alphas_) {
    const EstimateSnapshot snap =
        SnapshotFromSums(sums_.numerator(), sums_.denominator_predicted(),
                         sums_.denominator_true(), alpha);
    out.push_back({alpha, snap.f_alpha, snap.f_defined});
  }
  return out;
}

}  // namespace oasis
