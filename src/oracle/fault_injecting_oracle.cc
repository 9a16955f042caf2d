#include "oracle/fault_injecting_oracle.h"

#include <vector>

#include "common/logging.h"

namespace oasis {

FaultInjectingOracle::FaultInjectingOracle(const Oracle* inner,
                                           const FaultInjectionOptions& options)
    : inner_(inner), options_(options) {
  OASIS_CHECK(inner != nullptr);
  OASIS_CHECK(options.transient_failure_rate >= 0.0 &&
              options.transient_failure_rate <= 1.0);
  OASIS_CHECK(options.timeout_rate >= 0.0 && options.timeout_rate <= 1.0);
  OASIS_CHECK(options.item_drop_rate >= 0.0 && options.item_drop_rate <= 1.0);
}

bool FaultInjectingOracle::AnyFaultsConfigured() const {
  return options_.transient_failure_rate > 0.0 || options_.timeout_rate > 0.0 ||
         options_.item_drop_rate > 0.0 || options_.outage_after_attempts >= 0;
}

bool FaultInjectingOracle::Label(int64_t item, Rng& rng) const {
  return inner_->Label(item, rng);
}

void FaultInjectingOracle::LabelBatch(std::span<const int64_t> items, Rng& rng,
                                      std::span<uint8_t> out) const {
  inner_->LabelBatch(items, rng, out);
}

Status FaultInjectingOracle::TryLabelBatch(std::span<const int64_t> items,
                                           Rng& rng, std::span<uint8_t> out,
                                           std::span<uint8_t> resolved) const {
  OASIS_DCHECK(items.size() == out.size());
  OASIS_DCHECK(items.size() == resolved.size());
  // The attempt number is consumed even on the zero-fault fast path so that
  // turning faults on/off never shifts a later decorator's schedule.
  const int64_t attempt = next_attempt_.fetch_add(1, std::memory_order_relaxed);
  if (!AnyFaultsConfigured()) {
    return inner_->TryLabelBatch(items, rng, out, resolved);
  }

  if (options_.outage_after_attempts >= 0 &&
      attempt >= options_.outage_after_attempts) {
    for (size_t i = 0; i < resolved.size(); ++i) resolved[i] = 0;
    outage_failures_.fetch_add(1, std::memory_order_relaxed);
    return Status::Unavailable(
        "FaultInjectingOracle: permanent outage (injected)");
  }

  // One forked stream per attempt; the draw order below is fixed, so the
  // whole schedule is a pure function of (seed, attempt number).
  Rng fault_rng = Rng::Fork(options_.seed, static_cast<uint64_t>(attempt));
  if (fault_rng.NextDouble() < options_.transient_failure_rate) {
    for (size_t i = 0; i < resolved.size(); ++i) resolved[i] = 0;
    injected_failures_.fetch_add(1, std::memory_order_relaxed);
    return Status::Unavailable(
        "FaultInjectingOracle: transient failure (injected)");
  }
  if (fault_rng.NextDouble() < options_.timeout_rate) {
    for (size_t i = 0; i < resolved.size(); ++i) resolved[i] = 0;
    injected_timeouts_.fetch_add(1, std::memory_order_relaxed);
    return Status::DeadlineExceeded(
        "FaultInjectingOracle: timeout (injected)");
  }
  if (options_.item_drop_rate <= 0.0 || items.empty()) {
    return inner_->TryLabelBatch(items, rng, out, resolved);
  }

  // Partial batch: draw every item's drop decision first, in item order,
  // marking the survivors in `resolved`. When nothing dropped, the caller's
  // buffers go straight down; otherwise the surviving subset is delegated in
  // original order and the results scattered back. Delegating a subset keeps
  // the inner oracle's per-item work identical to a direct request for
  // exactly those items — the canonical (RNG-free deterministic) inner
  // oracles return the same labels whichever subsets they arrive in.
  size_t kept = 0;
  for (size_t i = 0; i < items.size(); ++i) {
    const bool dropped = fault_rng.NextBernoulli(options_.item_drop_rate);
    resolved[i] = dropped ? 0 : 1;
    kept += dropped ? 0 : 1;
  }
  if (kept == items.size()) {
    return inner_->TryLabelBatch(items, rng, out, resolved);
  }
  dropped_items_.fetch_add(static_cast<int64_t>(items.size() - kept),
                           std::memory_order_relaxed);
  if (kept == 0) return Status::OK();
  std::vector<int64_t> kept_items;
  kept_items.reserve(kept);
  for (size_t i = 0; i < items.size(); ++i) {
    if (resolved[i] != 0) kept_items.push_back(items[i]);
  }
  std::vector<uint8_t> kept_out(kept);
  std::vector<uint8_t> kept_resolved(kept);
  const Status status =
      inner_->TryLabelBatch(kept_items, rng, kept_out, kept_resolved);
  for (size_t i = 0, j = 0; i < items.size(); ++i) {
    if (resolved[i] == 0) continue;
    if (kept_resolved[j] != 0) out[i] = kept_out[j];
    resolved[i] = kept_resolved[j] != 0 ? 1 : 0;
    ++j;
  }
  return status;
}

double FaultInjectingOracle::TrueProbability(int64_t item) const {
  return inner_->TrueProbability(item);
}

bool FaultInjectingOracle::deterministic() const {
  return inner_->deterministic();
}

bool FaultInjectingOracle::labelling_consumes_rng() const {
  return inner_->labelling_consumes_rng();
}

int64_t FaultInjectingOracle::num_items() const { return inner_->num_items(); }

FaultInjectionStats FaultInjectingOracle::stats() const {
  FaultInjectionStats stats;
  stats.attempts = next_attempt_.load(std::memory_order_relaxed);
  stats.injected_failures = injected_failures_.load(std::memory_order_relaxed);
  stats.injected_timeouts = injected_timeouts_.load(std::memory_order_relaxed);
  stats.dropped_items = dropped_items_.load(std::memory_order_relaxed);
  stats.outage_failures = outage_failures_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace oasis
