#include "sampling/oracle_sampler.h"

#include <utility>

#include "eval/measures.h"
#include "sampling/instrumental.h"

namespace oasis {

OracleOptimalSampler::OracleOptimalSampler(const ScoredPool* pool,
                                           LabelCache* labels,
                                           std::shared_ptr<const Strata> strata,
                                           std::vector<double> v, double alpha,
                                           Rng rng)
    : Sampler(pool, labels, alpha, rng),
      strata_(std::move(strata)),
      v_(std::move(v)),
      estimator_(alpha) {}

Result<std::unique_ptr<OracleOptimalSampler>> OracleOptimalSampler::Create(
    const ScoredPool* pool, LabelCache* labels,
    std::shared_ptr<const Strata> strata, std::span<const uint8_t> truth,
    double alpha, double epsilon, Rng rng) {
  if (pool == nullptr || labels == nullptr || strata == nullptr) {
    return Status::InvalidArgument("OracleOptimalSampler: null argument");
  }
  OASIS_RETURN_NOT_OK(pool->Validate());
  if (static_cast<int64_t>(truth.size()) != pool->size()) {
    return Status::InvalidArgument("OracleOptimalSampler: truth size mismatch");
  }
  if (static_cast<int64_t>(strata->num_items()) != pool->size()) {
    return Status::InvalidArgument("OracleOptimalSampler: strata size mismatch");
  }

  // True per-stratum quantities from full ground truth.
  const std::vector<double> pi = strata->MeanPerStratum(truth);
  const std::vector<double> lambda = strata->MeanPerStratum(
      std::span<const uint8_t>(pool->predictions.data(), pool->predictions.size()));

  double tp = 0.0;
  double pred = 0.0;
  double pos = 0.0;
  for (size_t i = 0; i < truth.size(); ++i) {
    if (truth[i] && pool->predictions[i]) tp += 1.0;
    if (pool->predictions[i]) pred += 1.0;
    if (truth[i]) pos += 1.0;
  }
  const MaybeValue true_f = FAlpha(tp, pred - tp, pos - tp, alpha);
  if (!true_f.defined) {
    return Status::FailedPrecondition(
        "OracleOptimalSampler: true F undefined on this pool");
  }

  OASIS_ASSIGN_OR_RETURN(std::vector<double> v_star,
                         OptimalStratifiedInstrumental(
                             strata->weights(), lambda, pi, true_f.value, alpha));
  OASIS_ASSIGN_OR_RETURN(std::vector<double> v,
                         EpsilonGreedyMix(strata->weights(), v_star, epsilon));
  return std::unique_ptr<OracleOptimalSampler>(new OracleOptimalSampler(
      pool, labels, std::move(strata), std::move(v), alpha, rng));
}

Status OracleOptimalSampler::Step() {
  const size_t k = rng().NextDiscreteLinear(v_);
  const int64_t item = strata_->SampleItem(k, rng());
  const double weight = strata_->weight(k) / v_[k];
  OASIS_ASSIGN_OR_RETURN(const bool label, QueryLabel(item));
  estimator_.Add(weight, label,
                 pool().predictions[static_cast<size_t>(item)] != 0);
  return Status::OK();
}

EstimateSnapshot OracleOptimalSampler::Estimate() const {
  return estimator_.Snapshot();
}

}  // namespace oasis
