#include "core/initialization.h"

#include "sampling/importance.h"
#include "stats/transforms.h"

namespace oasis {

Result<InitialEstimates> InitializeFromScores(const Strata& strata,
                                              const ScoredPool& pool, double alpha) {
  OASIS_RETURN_NOT_OK(pool.Validate());
  if (static_cast<int64_t>(strata.num_items()) != pool.size()) {
    return Status::InvalidArgument("InitializeFromScores: strata/pool size mismatch");
  }
  if (!(alpha >= 0.0 && alpha <= 1.0)) {
    return Status::InvalidArgument("InitializeFromScores: alpha must be in [0, 1]");
  }

  InitialEstimates init;
  const size_t k = strata.num_strata();

  // Lines 2-5: mean score per stratum, mapped to (0, 1) when raw. Clamp away
  // from {0, 1} so the values are usable as beta-prior means.
  init.pi = strata.MeanPerStratum(
      std::span<const double>(pool.scores.data(), pool.scores.size()));
  for (double& p : init.pi) {
    p = ScoreToProbability(p, pool.scores_are_probabilities, pool.threshold);
    p = Clamp(p, 1e-6, 1.0 - 1e-6);
  }

  // Line 6: mean prediction per stratum.
  init.lambda = strata.MeanPerStratum(
      std::span<const uint8_t>(pool.predictions.data(), pool.predictions.size()));

  // Line 8: F-hat(0) from the stratum-level plug-in counts.
  double tp_mass = 0.0;
  double pred_mass = 0.0;
  double true_mass = 0.0;
  for (size_t i = 0; i < k; ++i) {
    const double size_k = static_cast<double>(strata.size(i));
    tp_mass += size_k * init.pi[i] * init.lambda[i];
    pred_mass += size_k * init.lambda[i];
    true_mass += size_k * init.pi[i];
  }
  const double denom = alpha * pred_mass + (1.0 - alpha) * true_mass;
  init.f_alpha = denom > 0.0 ? tp_mass / denom : 0.5;
  init.f_alpha = Clamp(init.f_alpha, 0.0, 1.0);
  return init;
}

}  // namespace oasis
