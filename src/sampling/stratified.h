#ifndef OASIS_SAMPLING_STRATIFIED_H_
#define OASIS_SAMPLING_STRATIFIED_H_

#include <memory>
#include <vector>

#include "sampling/sampler.h"
#include "strata/strata.h"

namespace oasis {

/// Proportional stratified sampler — the Druck & McCallum baseline.
///
/// Each iteration draws a stratum with probability omega_k = |P_k|/N, then an
/// item uniformly within it, and estimates F_alpha with the stratified
/// estimator: per-stratum sample means of (l * l-hat) and l are combined with
/// the population stratum weights; the predicted-positive mass is known
/// exactly from the pool (no labels needed). The three totals then go
/// through Eqn. (3)'s ratios (SnapshotFromSums). The sampling distribution
/// equals the uniform distribution over items, i.e. it is neither adaptive
/// nor biased — which is why the paper finds it barely beats Passive.
class StratifiedSampler : public Sampler {
 public:
  /// `pool` and `labels` must outlive the sampler; `strata` is shared so that
  /// repeated experiment runs reuse one stratification.
  static Result<std::unique_ptr<StratifiedSampler>> Create(
      const ScoredPool* pool, LabelCache* labels,
      std::shared_ptr<const Strata> strata, double alpha, Rng rng);

  Status Step() override;
  Status StepBatch(int64_t n) override;
  EstimateSnapshot Estimate() const override;
  std::string name() const override { return "Stratified"; }

  const Strata& strata() const { return *strata_; }

 private:
  StratifiedSampler(const ScoredPool* pool, LabelCache* labels,
                    std::shared_ptr<const Strata> strata, double alpha, Rng rng);

  std::shared_ptr<const Strata> strata_;
  // Per-stratum tallies over sampled draws.
  std::vector<double> samples_;   // n_k
  std::vector<double> tp_sum_;    // sum of l * l-hat
  std::vector<double> pos_sum_;   // sum of l
  // Known exactly from the pool: per-stratum mean prediction lambda_k.
  std::vector<double> lambda_;
  // Scratch: stratum index per StepBatch draw position (the base class holds
  // the item/label scratch), reused across batches; one chunk long.
  std::vector<size_t> batch_strata_;
};

}  // namespace oasis

#endif  // OASIS_SAMPLING_STRATIFIED_H_
