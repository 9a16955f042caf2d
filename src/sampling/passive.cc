#include "sampling/passive.h"

namespace oasis {

PassiveSampler::PassiveSampler(const ScoredPool* pool, LabelCache* labels,
                               double alpha, Rng rng)
    : Sampler(pool, labels, alpha, rng), estimator_(alpha) {}

Result<std::unique_ptr<PassiveSampler>> PassiveSampler::Create(
    const ScoredPool* pool, LabelCache* labels, double alpha, Rng rng) {
  if (pool == nullptr || labels == nullptr) {
    return Status::InvalidArgument("PassiveSampler: null pool or labels");
  }
  OASIS_RETURN_NOT_OK(pool->Validate());
  if (!(alpha >= 0.0 && alpha <= 1.0)) {
    return Status::InvalidArgument("PassiveSampler: alpha must be in [0, 1]");
  }
  return std::unique_ptr<PassiveSampler>(
      new PassiveSampler(pool, labels, alpha, rng));
}

Status PassiveSampler::Step() { return StepBatch(1); }

Status PassiveSampler::StepBatch(int64_t n) {
  // Uniform draws never depend on the labels, so BatchedSteps may pre-draw
  // them a chunk at a time.
  const uint64_t size = static_cast<uint64_t>(pool().size());
  const uint8_t* predictions = pool().predictions.data();
  return BatchedSteps(
      n, [&](int64_t) { return static_cast<int64_t>(rng().NextBounded(size)); },
      [&](int64_t, int64_t item, bool label) {
        estimator_.Add(1.0, label,
                       predictions[static_cast<size_t>(item)] != 0);
      });
}

EstimateSnapshot PassiveSampler::Estimate() const {
  return estimator_.Snapshot();
}

}  // namespace oasis
