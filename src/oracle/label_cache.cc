#include "oracle/label_cache.h"

#include "common/logging.h"
#include "telemetry/telemetry.h"

namespace oasis {

namespace {

/// Replays answered from the cache without a charged oracle label.
telemetry::Counter& CacheHits() {
  static telemetry::Counter& counter = telemetry::DefaultRegistry().AddCounter(
      "oasis_labelcache_hits_total",
      "Label queries answered from the cache (free replays).");
  return counter;
}

/// Charged oracle labels — the budget the paper's x axes count.
telemetry::Counter& CacheMisses() {
  static telemetry::Counter& counter = telemetry::DefaultRegistry().AddCounter(
      "oasis_labelcache_misses_total",
      "Charged oracle labels (cache misses / noisy draws).");
  return counter;
}

/// Pending markers rolled back to "never queried" by a failed batch.
telemetry::Counter& PendingRollbacks() {
  static telemetry::Counter& counter = telemetry::DefaultRegistry().AddCounter(
      "oasis_labelcache_pending_rollbacks_total",
      "Pending cache markers rolled back by a failed fallible batch.");
  return counter;
}

size_t Word(int64_t item) { return static_cast<size_t>(item) >> 6; }
uint64_t Bit(int64_t item) { return uint64_t{1} << (item & 63); }

bool TestBit(const std::vector<uint64_t>& bits, int64_t item) {
  return (bits[Word(item)] & Bit(item)) != 0;
}

/// Sets `item`'s bit; true when it was clear (a first touch).
bool SetBit(std::vector<uint64_t>& bits, int64_t item) {
  uint64_t& word = bits[Word(item)];
  const bool was_clear = (word & Bit(item)) == 0;
  word |= Bit(item);
  return was_clear;
}

/// ORs `label` into `item`'s (clear) bit without branching on it: a branch
/// on the label mispredicts at the positive rate and flushes the queries in
/// flight behind it.
void StoreLabel(std::vector<uint64_t>& bits, int64_t item, bool label) {
  bits[Word(item)] |= static_cast<uint64_t>(label) << (item & 63);
}

}  // namespace

LabelCache::LabelCache(const Oracle* oracle) : oracle_(oracle) {
  OASIS_CHECK(oracle != nullptr);
  deterministic_ = oracle->deterministic();
  fallible_ = oracle->fallible();
  const size_t words = static_cast<size_t>(oracle->num_items() + 63) / 64;
  seen_.assign(words, 0);
  if (deterministic_) label_.assign(words, 0);
}

bool LabelCache::Query(int64_t item, Rng& rng) {
  OASIS_DCHECK(item >= 0 && item < oracle_->num_items());
  ++total_queries_;
  if (deterministic_) {
    if (TestBit(seen_, item)) {
      if (OASIS_TELEMETRY_ON) CacheHits().Increment();
      return TestBit(label_, item);  // Free replay of the cached label.
    }
    const bool label = oracle_->Label(item, rng);
    SetBit(seen_, item);
    StoreLabel(label_, item, label);
    ++labels_consumed_;
    ++distinct_items_;
    if (OASIS_TELEMETRY_ON) CacheMisses().Increment();
    return label;
  }
  // Noisy oracle: every draw costs budget; remember first touch for
  // distinct-item accounting.
  if (SetBit(seen_, item)) ++distinct_items_;
  ++labels_consumed_;
  if (OASIS_TELEMETRY_ON) CacheMisses().Increment();
  return oracle_->Label(item, rng);
}

Result<bool> LabelCache::TryQuery(int64_t item, Rng& rng) {
  if (!fallible_) {
    return Query(item, rng);  // Reliable stack: the zero-overhead hot path.
  }
  const int64_t batch[1] = {item};
  uint8_t label = 0;
  OASIS_RETURN_NOT_OK(QueryBatch(std::span<const int64_t>(batch, 1), rng,
                                 std::span<uint8_t>(&label, 1)));
  return label != 0;
}

Status LabelCache::QueryBatch(std::span<const int64_t> items, Rng& rng,
                              std::span<uint8_t> out_labels) {
  if (items.size() != out_labels.size()) {
    return Status::InvalidArgument(
        "LabelCache::QueryBatch: items/out_labels length mismatch");
  }
  total_queries_ += static_cast<int64_t>(items.size());
  if (items.empty()) return Status::OK();
  if (fallible_) return QueryBatchFallible(items, rng, out_labels);

  if (!deterministic_) {
    // Noisy oracle: every query is a fresh charged draw; the batched oracle
    // call consumes the RNG in item order, i.e. on the identical stream the
    // sequential Query loop would use (the bookkeeping between draws never
    // touches the RNG).
    for (int64_t item : items) {
      OASIS_DCHECK(item >= 0 && item < oracle_->num_items());
      if (SetBit(seen_, item)) ++distinct_items_;
    }
    labels_consumed_ += static_cast<int64_t>(items.size());
    if (OASIS_TELEMETRY_ON) CacheMisses().Add(static_cast<int64_t>(items.size()));
    oracle_->LabelBatch(items, rng, out_labels);
    return Status::OK();
  }

  // Deterministic oracle. Pass 1: collect the batch's cache misses in
  // first-occurrence order (duplicates after the first occurrence behave as
  // free replays, exactly as in the sequential loop), setting their seen bit
  // as the pending marker so a duplicate is not queried twice.
  miss_items_.clear();
  for (int64_t item : items) {
    OASIS_DCHECK(item >= 0 && item < oracle_->num_items());
    // Pending: resolved by the single round-trip below.
    if (SetBit(seen_, item)) miss_items_.push_back(item);
  }
  // One oracle round-trip for every miss (deterministic oracles ignore the
  // RNG, so batching does not perturb the seeded stream).
  if (!miss_items_.empty()) {
    miss_labels_.resize(miss_items_.size());
    oracle_->LabelBatch(miss_items_, rng, miss_labels_);
    for (size_t i = 0; i < miss_items_.size(); ++i) {
      StoreLabel(label_, miss_items_[i], miss_labels_[i] != 0);
    }
    labels_consumed_ += static_cast<int64_t>(miss_items_.size());
    distinct_items_ += static_cast<int64_t>(miss_items_.size());
  }
  if (OASIS_TELEMETRY_ON) {
    CacheMisses().Add(static_cast<int64_t>(miss_items_.size()));
    CacheHits().Add(static_cast<int64_t>(items.size() - miss_items_.size()));
  }
  // Pass 2: answer everything from the (now fully populated) cache.
  for (size_t i = 0; i < items.size(); ++i) {
    out_labels[i] = TestBit(label_, items[i]) ? 1 : 0;
  }
  return Status::OK();
}

Status LabelCache::QueryBatchFallible(std::span<const int64_t> items, Rng& rng,
                                      std::span<uint8_t> out_labels) {
  if (!deterministic_) {
    // Noisy + fallible: every RESOLVED draw is charged (footnote-5 noisy
    // regime); an unresolved position is re-requested — a fresh draw, which
    // is exactly what a sequential re-Query would have produced — and
    // charged only when its label arrives. First-touch accounting happens at
    // first resolution, so a batch that fails outright changes no counter
    // except total_queries_.
    const auto commit = [this](int64_t item) {
      if (SetBit(seen_, item)) ++distinct_items_;
      ++labels_consumed_;
      if (OASIS_TELEMETRY_ON) CacheMisses().Increment();
    };
    // The first round trip writes straight into the caller's buffers; the
    // pending positions are gathered only if something is left unresolved,
    // and only they are re-requested.
    miss_resolved_.resize(items.size());
    Status status = oracle_->TryLabelBatch(items, rng, out_labels, miss_resolved_);
    pending_positions_.clear();
    for (size_t i = 0; i < items.size(); ++i) {
      OASIS_DCHECK(items[i] >= 0 && items[i] < oracle_->num_items());
      if (miss_resolved_[i] != 0) {
        commit(items[i]);
      } else {
        pending_positions_.push_back(i);
      }
    }
    size_t newly = items.size() - pending_positions_.size();
    for (;;) {
      OASIS_RETURN_NOT_OK(status);
      if (pending_positions_.empty()) return Status::OK();
      if (newly == 0) {
        return Status::Unavailable(
            "LabelCache::QueryBatch: oracle made no progress on partial batch");
      }
      miss_items_.clear();
      for (size_t pos : pending_positions_) miss_items_.push_back(items[pos]);
      miss_labels_.assign(miss_items_.size(), 0);
      miss_resolved_.assign(miss_items_.size(), 0);
      status =
          oracle_->TryLabelBatch(miss_items_, rng, miss_labels_, miss_resolved_);
      size_t kept = 0;
      for (size_t j = 0; j < pending_positions_.size(); ++j) {
        const size_t pos = pending_positions_[j];
        if (miss_resolved_[j] != 0) {
          out_labels[pos] = miss_labels_[j] ? 1 : 0;
          commit(items[pos]);
        } else {
          pending_positions_[kept++] = pos;
        }
      }
      newly = pending_positions_.size() - kept;
      pending_positions_.resize(kept);
    }
  }

  // Deterministic + fallible. Same two-pass structure as the reliable path,
  // but the miss round-trip becomes a re-request loop over whatever is still
  // missing. Each miss is charged exactly once, when its label resolves.
  miss_items_.clear();
  for (int64_t item : items) {
    OASIS_DCHECK(item >= 0 && item < oracle_->num_items());
    // Pending: resolved (or rolled back) below.
    if (SetBit(seen_, item)) miss_items_.push_back(item);
  }
  if (OASIS_TELEMETRY_ON) {
    CacheHits().Add(static_cast<int64_t>(items.size() - miss_items_.size()));
  }
  while (!miss_items_.empty()) {
    miss_labels_.assign(miss_items_.size(), 0);
    miss_resolved_.assign(miss_items_.size(), 0);
    const Status status =
        oracle_->TryLabelBatch(miss_items_, rng, miss_labels_, miss_resolved_);
    size_t kept = 0;
    int64_t newly = 0;
    for (size_t i = 0; i < miss_items_.size(); ++i) {
      if (miss_resolved_[i] != 0) {
        StoreLabel(label_, miss_items_[i], miss_labels_[i] != 0);
        ++newly;
      } else {
        miss_items_[kept++] = miss_items_[i];
      }
    }
    miss_items_.resize(kept);
    labels_consumed_ += newly;
    distinct_items_ += newly;
    if (OASIS_TELEMETRY_ON) CacheMisses().Add(newly);
    if (!status.ok() || (newly == 0 && !miss_items_.empty())) {
      // Roll the pending seen bits back to "never queried" so a later call
      // re-attempts (and only then charges) them; their label bits were never
      // set. Labels that DID resolve stay cached and charged — they were
      // delivered and paid for.
      if (OASIS_TELEMETRY_ON) {
        PendingRollbacks().Add(static_cast<int64_t>(miss_items_.size()));
      }
      for (int64_t item : miss_items_) seen_[Word(item)] &= ~Bit(item);
      if (!status.ok()) return status;
      return Status::Unavailable(
          "LabelCache::QueryBatch: oracle made no progress on partial batch");
    }
  }
  // Everything resolved: answer the whole batch from the cache.
  for (size_t i = 0; i < items.size(); ++i) {
    out_labels[i] = TestBit(label_, items[i]) ? 1 : 0;
  }
  return Status::OK();
}

bool LabelCache::IsLabelled(int64_t item) const {
  OASIS_DCHECK(item >= 0 && item < oracle_->num_items());
  return TestBit(seen_, item);
}

}  // namespace oasis
