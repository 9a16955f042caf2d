#ifndef OASIS_SAMPLING_PASSIVE_H_
#define OASIS_SAMPLING_PASSIVE_H_

#include <memory>

#include "sampling/ais_estimator.h"
#include "sampling/sampler.h"

namespace oasis {

/// Passive (uniform i.i.d.) sampler — the paper's first baseline.
///
/// Each iteration draws a pool item uniformly with replacement, queries its
/// label, and estimates F_alpha with the plain sample statistic of Eqn. (1):
/// Eqn. (3) with unit weights. Under ER's extreme class imbalance the estimator stays undefined until the
/// first (predicted or true) positive is drawn, which is exactly the failure
/// mode the paper illustrates on DBLP-ACM.
class PassiveSampler : public Sampler {
 public:
  /// `pool` and `labels` must outlive the sampler.
  static Result<std::unique_ptr<PassiveSampler>> Create(const ScoredPool* pool,
                                                        LabelCache* labels,
                                                        double alpha, Rng rng);

  Status Step() override;
  Status StepBatch(int64_t n) override;
  EstimateSnapshot Estimate() const override;
  std::string name() const override { return "Passive"; }

 private:
  PassiveSampler(const ScoredPool* pool, LabelCache* labels, double alpha, Rng rng);

  // Eqn. (3)'s sums with every weight 1: the sample counts of true
  // positives, predicted positives and actual positives.
  AisEstimator estimator_;
};

}  // namespace oasis

#endif  // OASIS_SAMPLING_PASSIVE_H_
