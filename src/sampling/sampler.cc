#include "sampling/sampler.h"

#include <cmath>

#include "common/logging.h"
#include "telemetry/telemetry.h"

namespace oasis {

Status ScoredPool::Validate() const {
  if (scores.empty()) return Status::InvalidArgument("ScoredPool: empty pool");
  if (scores.size() != predictions.size()) {
    return Status::InvalidArgument("ScoredPool: scores/predictions length mismatch");
  }
  for (double s : scores) {
    if (!std::isfinite(s)) {
      return Status::InvalidArgument("ScoredPool: non-finite score");
    }
    if (scores_are_probabilities && (s < 0.0 || s > 1.0)) {
      return Status::InvalidArgument(
          "ScoredPool: probability score outside [0, 1]");
    }
  }
  for (uint8_t p : predictions) {
    if (p > 1) return Status::InvalidArgument("ScoredPool: prediction not in {0,1}");
  }
  return Status::OK();
}

int64_t ScoredPool::NumPredictedPositives() const {
  int64_t count = 0;
  for (uint8_t p : predictions) count += (p != 0);
  return count;
}

Sampler::Sampler(const ScoredPool* pool, LabelCache* labels, double alpha, Rng rng)
    : pool_(pool), labels_(labels), alpha_(alpha), rng_(rng) {
  OASIS_CHECK(pool != nullptr);
  OASIS_CHECK(labels != nullptr);
  OASIS_CHECK(alpha >= 0.0 && alpha <= 1.0);
  OASIS_CHECK_EQ(pool->size(), labels->oracle().num_items());
}

Result<bool> Sampler::QueryLabel(int64_t item) {
  OASIS_ASSIGN_OR_RETURN(const bool label, labels_->TryQuery(item, rng_));
  ++iterations_;
  return label;
}

Status Sampler::QueryLabels(std::span<const int64_t> items,
                            std::span<uint8_t> out_labels) {
  const auto query = [&]() -> Status {
    OASIS_RETURN_NOT_OK(labels_->QueryBatch(items, rng_, out_labels));
    iterations_ += static_cast<int64_t>(items.size());
    return Status::OK();
  };
  // One span per batched query (at most kQueryBatchChunk items): the oracle
  // work of the static samplers' batched paths. A one-item batch (the
  // single steps before F is defined) is a step, and steps are not traced.
  // OASIS never batches.
  if (items.size() <= 1) return query();
  TELEMETRY_SPAN("label_batch", "oracle");
  return query();
}

Status Sampler::StepBatch(int64_t n) {
  if (n < 0) {
    return Status::InvalidArgument("StepBatch: n must be non-negative");
  }
  for (int64_t i = 0; i < n; ++i) {
    OASIS_RETURN_NOT_OK(Step());
  }
  return Status::OK();
}

}  // namespace oasis
