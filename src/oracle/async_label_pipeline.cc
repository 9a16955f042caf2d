#include "oracle/async_label_pipeline.h"

#include "common/logging.h"
#include "telemetry/telemetry.h"

namespace oasis {

AsyncLabelPipeline::AsyncLabelPipeline(LabelCache* labels, ThreadPool* pool)
    : labels_(labels), pool_(pool) {
  OASIS_CHECK(labels != nullptr);
  OASIS_CHECK(pool != nullptr);
}

AsyncLabelPipeline::~AsyncLabelPipeline() {
  if (!in_flight_) return;
  try {
    handle_.Wait();
  } catch (...) {
    // Wait() rethrows the batch's exception; a destructor must swallow it
    // (the drained batch's outcome — status or exception — is discarded).
  }
}

Status AsyncLabelPipeline::Prefetch(std::span<const int64_t> items, Rng* rng,
                                    std::span<uint8_t> out_labels) {
  if (in_flight_) {
    return Status::FailedPrecondition(
        "AsyncLabelPipeline: a batch is already in flight; Collect() first");
  }
  if (labels_->oracle().labelling_consumes_rng()) {
    return Status::FailedPrecondition(
        "AsyncLabelPipeline: prefetching an RNG-consuming oracle would "
        "reorder its label draws relative to the caller's stream");
  }
  OASIS_CHECK(rng != nullptr);
  batch_status_ = Status::OK();
  handle_ = pool_->Submit([this, items, rng, out_labels] {
    TELEMETRY_SPAN("label_batch", "oracle");
    batch_status_ = labels_->QueryBatch(items, *rng, out_labels);
  });
  in_flight_ = true;
  return Status::OK();
}

Status AsyncLabelPipeline::Collect() {
  if (!in_flight_) {
    return Status::FailedPrecondition(
        "AsyncLabelPipeline: Collect() without a batch in flight");
  }
  handle_.Wait();
  in_flight_ = false;
  return batch_status_;
}

}  // namespace oasis
