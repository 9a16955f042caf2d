#include "sampling/stratified.h"

#include <algorithm>
#include <utility>

#include "sampling/ais_estimator.h"

namespace oasis {

StratifiedSampler::StratifiedSampler(const ScoredPool* pool, LabelCache* labels,
                                     std::shared_ptr<const Strata> strata,
                                     double alpha, Rng rng)
    : Sampler(pool, labels, alpha, rng), strata_(std::move(strata)) {
  const size_t k = strata_->num_strata();
  samples_.assign(k, 0.0);
  tp_sum_.assign(k, 0.0);
  pos_sum_.assign(k, 0.0);
  lambda_ = strata_->MeanPerStratum(
      std::span<const uint8_t>(pool->predictions.data(), pool->predictions.size()));
}

Result<std::unique_ptr<StratifiedSampler>> StratifiedSampler::Create(
    const ScoredPool* pool, LabelCache* labels,
    std::shared_ptr<const Strata> strata, double alpha, Rng rng) {
  if (pool == nullptr || labels == nullptr || strata == nullptr) {
    return Status::InvalidArgument("StratifiedSampler: null pool/labels/strata");
  }
  OASIS_RETURN_NOT_OK(pool->Validate());
  if (!(alpha >= 0.0 && alpha <= 1.0)) {
    return Status::InvalidArgument("StratifiedSampler: alpha must be in [0, 1]");
  }
  if (static_cast<int64_t>(strata->num_items()) != pool->size()) {
    return Status::InvalidArgument("StratifiedSampler: strata/pool size mismatch");
  }
  OASIS_RETURN_NOT_OK(strata->Validate());
  return std::unique_ptr<StratifiedSampler>(
      new StratifiedSampler(pool, labels, std::move(strata), alpha, rng));
}

Status StratifiedSampler::Step() { return StepBatch(1); }

Status StratifiedSampler::StepBatch(int64_t n) {
  // Proportional allocation: stratum ~ omega, item ~ Uniform(P_k). It never
  // depends on observed labels, so BatchedSteps may pre-draw a chunk; the
  // draw records each position's stratum for the tally. One chunk of
  // scratch (the sequential path uses position 0).
  const std::vector<double>& omega = strata_->weights();
  const uint8_t* predictions = pool().predictions.data();
  batch_strata_.resize(
      static_cast<size_t>(std::clamp<int64_t>(n, 0, kQueryBatchChunk)));
  return BatchedSteps(
      n,
      [&](int64_t i) {
        const size_t k = rng().NextDiscreteLinear(omega);
        batch_strata_[static_cast<size_t>(i)] = k;
        return static_cast<int64_t>(strata_->SampleItem(k, rng()));
      },
      [&](int64_t i, int64_t item, bool label) {
        const size_t k = batch_strata_[static_cast<size_t>(i)];
        const bool prediction = predictions[static_cast<size_t>(item)] != 0;
        samples_[k] += 1.0;
        if (label && prediction) tp_sum_[k] += 1.0;
        if (label) pos_sum_[k] += 1.0;
      });
}

EstimateSnapshot StratifiedSampler::Estimate() const {
  // Population-weighted combination of per-stratum sample means. Strata with
  // no samples contribute zero to the label-dependent terms.
  double tp = 0.0;
  double actual_pos = 0.0;
  double predicted_pos = 0.0;
  bool any_samples = false;
  for (size_t k = 0; k < strata_->num_strata(); ++k) {
    predicted_pos += strata_->weight(k) * lambda_[k];
    if (samples_[k] <= 0.0) continue;
    any_samples = true;
    tp += strata_->weight(k) * tp_sum_[k] / samples_[k];
    actual_pos += strata_->weight(k) * pos_sum_[k] / samples_[k];
  }
  if (!any_samples) return EstimateSnapshot{};
  return SnapshotFromSums(tp, predicted_pos, actual_pos, alpha());
}

}  // namespace oasis
