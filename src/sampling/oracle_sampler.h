#ifndef OASIS_SAMPLING_ORACLE_SAMPLER_H_
#define OASIS_SAMPLING_ORACLE_SAMPLER_H_

#include <memory>
#include <vector>

#include "sampling/ais_estimator.h"
#include "sampling/sampler.h"
#include "strata/strata.h"

namespace oasis {

/// Reference sampler that draws from the TRUE asymptotically optimal
/// stratified instrumental distribution — computed from the ground-truth
/// per-stratum match rates and the true F-measure, quantities no real
/// evaluator has.
///
/// This is not a usable estimation method; it is the performance ceiling
/// OASIS adapts toward (v(t) -> v*), used by ablation benches and tests to
/// report how much of the oracle-optimal variance reduction the adaptive
/// scheme actually captures.
class OracleOptimalSampler : public Sampler {
 public:
  /// `truth` is the ground-truth label per pool item (used only to build the
  /// fixed instrumental distribution). The usual epsilon floor applies so
  /// weights stay bounded.
  static Result<std::unique_ptr<OracleOptimalSampler>> Create(
      const ScoredPool* pool, LabelCache* labels,
      std::shared_ptr<const Strata> strata, std::span<const uint8_t> truth,
      double alpha, double epsilon, Rng rng);

  Status Step() override;
  EstimateSnapshot Estimate() const override;
  std::string name() const override { return "OracleOptimal"; }

  /// The fixed instrumental distribution over strata.
  const std::vector<double>& instrumental() const { return v_; }

 private:
  OracleOptimalSampler(const ScoredPool* pool, LabelCache* labels,
                       std::shared_ptr<const Strata> strata,
                       std::vector<double> v, double alpha, Rng rng);

  std::shared_ptr<const Strata> strata_;
  std::vector<double> v_;
  AisEstimator estimator_;
};

}  // namespace oasis

#endif  // OASIS_SAMPLING_ORACLE_SAMPLER_H_
