#ifndef OASIS_CORE_MULTI_ALPHA_H_
#define OASIS_CORE_MULTI_ALPHA_H_

#include <vector>

#include "common/status.h"
#include "sampling/ais_estimator.h"

namespace oasis {

/// Joint F-measure estimation over a grid of alpha weights from one label
/// stream.
///
/// Eqn. (3)'s three weighted sums (num, den_pred, den_true) do not depend on
/// alpha, so a single sampler run prices the entire precision-recall
/// trade-off curve F_alpha for alpha in [0, 1] simultaneously — the
/// "precision-recall curve" use case of Welinder et al. that the paper's
/// related work discusses, here with consistent AIS estimates.
///
/// Note the sampling distribution itself is optimised for one alpha (the one
/// the driving OasisSampler was configured with); estimates at other alphas
/// remain consistent but carry higher variance the further they sit from the
/// optimised weight.
class MultiAlphaEstimator {
 public:
  /// Builds with the alpha evaluation grid (each in [0, 1], non-empty).
  static Result<MultiAlphaEstimator> Create(std::vector<double> alphas);

  /// Folds one importance-weighted observation into the shared sums.
  void Add(double weight, bool label, bool prediction) {
    sums_.Add(weight, label, prediction);
  }

  /// F_alpha estimate for grid entry i; undefined (false) until the
  /// corresponding denominator is positive.
  struct GridEstimate {
    double alpha = 0.0;
    double f_alpha = 0.0;
    bool defined = false;
  };
  std::vector<GridEstimate> Estimates() const;

  /// The alpha evaluation grid, as passed to Create.
  const std::vector<double>& alphas() const { return alphas_; }
  /// Number of observations folded in so far.
  int64_t observations() const { return sums_.observations(); }

 private:
  explicit MultiAlphaEstimator(std::vector<double> alphas);

  std::vector<double> alphas_;
  // The alpha-free sums; its own alpha (the grid's first) is never read.
  AisEstimator sums_;
};

}  // namespace oasis

#endif  // OASIS_CORE_MULTI_ALPHA_H_
