#include "sampling/instrumental.h"

#include <algorithm>
#include <cmath>

#include "stats/transforms.h"

namespace oasis {

Result<std::vector<double>> OptimalStratifiedInstrumental(
    std::span<const double> weights, std::span<const double> lambda,
    std::span<const double> pi, double f_measure, double alpha) {
  const size_t k = weights.size();
  if (k == 0) {
    return Status::InvalidArgument("OptimalStratifiedInstrumental: no strata");
  }
  if (lambda.size() != k || pi.size() != k) {
    return Status::InvalidArgument("OptimalStratifiedInstrumental: length mismatch");
  }
  if (!(alpha >= 0.0 && alpha <= 1.0)) {
    return Status::InvalidArgument("OptimalStratifiedInstrumental: alpha in [0,1]");
  }
  if (std::isnan(f_measure)) {
    return Status::InvalidArgument("OptimalStratifiedInstrumental: NaN F");
  }
  const double f = Clamp(f_measure, 0.0, 1.0);

  std::vector<double> v(k);
  double total = 0.0;
  for (size_t i = 0; i < k; ++i) {
    if (std::isnan(pi[i]) || pi[i] < 0.0 || pi[i] > 1.0) {
      return Status::InvalidArgument(
          "OptimalStratifiedInstrumental: pi outside [0, 1]");
    }
    const double not_pred =
        (1.0 - alpha) * (1.0 - lambda[i]) * f * std::sqrt(pi[i]);
    const double pred =
        lambda[i] * std::sqrt(alpha * alpha * f * f * (1.0 - pi[i]) +
                              (1.0 - f) * (1.0 - f) * pi[i]);
    v[i] = weights[i] * (not_pred + pred);
    total += v[i];
  }
  if (total <= 0.0) {
    // Degenerate estimates: fall back to the underlying stratum weights so
    // downstream sampling remains well defined.
    std::copy(weights.begin(), weights.end(), v.begin());
    NormalizeInPlace(v);
    return v;
  }
  for (size_t i = 0; i < k; ++i) v[i] /= total;
  return v;
}

Result<std::vector<double>> EpsilonGreedyMix(std::span<const double> weights,
                                             std::span<const double> v_star,
                                             double epsilon) {
  if (weights.size() != v_star.size() || weights.empty()) {
    return Status::InvalidArgument("EpsilonGreedyMix: length mismatch or empty");
  }
  if (std::isnan(epsilon) || epsilon <= 0.0 || epsilon > 1.0) {
    return Status::InvalidArgument("EpsilonGreedyMix: epsilon must be in (0, 1]");
  }
  std::vector<double> v(weights.size());
  for (size_t i = 0; i < weights.size(); ++i) {
    v[i] = epsilon * weights[i] + (1.0 - epsilon) * v_star[i];
  }
  return v;
}

}  // namespace oasis
