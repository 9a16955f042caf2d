#ifndef OASIS_ORACLE_LABEL_CACHE_H_
#define OASIS_ORACLE_LABEL_CACHE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"
#include "oracle/oracle.h"

namespace oasis {

/// Budget-accounting front-end to an Oracle.
///
/// All samplers in this library sample with replacement; per the paper
/// (footnote 5), a pool item is charged to the label budget only the first
/// time its label is queried. For deterministic oracles the first label is
/// cached and replayed for free on re-queries. For noisy oracles every query
/// is a fresh Bernoulli draw and every query is charged — matching the
/// "repeated labelling to average out noise" regime of Section 2.2.
class LabelCache {
 public:
  /// The oracle must outlive the cache. Caching behaviour follows
  /// oracle->deterministic(); it and oracle->fallible() are read once, here
  /// (both are fixed for an oracle's lifetime). The cache only ever reads
  /// from the oracle (labelling is const), so many caches — one per
  /// experiment repeat, possibly on different threads — can safely share one
  /// oracle.
  explicit LabelCache(const Oracle* oracle);

  /// Returns a label for `item`, charging the budget per the policy above.
  bool Query(int64_t item, Rng& rng);

  /// Fallible single-item query: over a reliable oracle this is exactly
  /// Query() (same code path, zero overhead); over a fallible stack (see
  /// Oracle::fallible()) it is a one-item QueryBatch, so a failure is
  /// reported as a Status instead of crashing and NOTHING is charged for the
  /// failed item (budget counters move only when a label actually arrives).
  Result<bool> TryQuery(int64_t item, Rng& rng);

  /// Labels a whole batch with semantics exactly equal to calling Query()
  /// once per item of `items` in order — same labels, same budget counters
  /// (including free replays of items already cached, and of duplicates
  /// *within* the batch after their first occurrence), and the same RNG
  /// stream — but with at most ONE Oracle::LabelBatch round-trip for all of
  /// the batch's cache misses. This is what lets Sampler::StepBatch amortise
  /// oracle round-trips rather than just virtual dispatch. `out_labels` must
  /// have items.size() entries (each receives 0 or 1); an empty batch is a
  /// no-op. Fails with InvalidArgument on a size mismatch.
  ///
  /// Over a fallible oracle stack (Oracle::fallible()), the miss round-trip
  /// may fail or resolve only a subset; the cache then re-requests ONLY the
  /// still-missing items until everything resolves, the stack reports an
  /// error, or a round makes no progress (reported as kUnavailable). Each
  /// miss is charged to the budget exactly once, at the moment its label
  /// actually arrives — retries and re-requests never double-charge, and a
  /// failed call charges nothing for the items that never resolved (their
  /// labels stay cached-and-paid if a LATER call succeeds). On a non-OK
  /// return `out_labels` is unspecified and no caller-visible label was
  /// consumed for the unresolved items.
  Status QueryBatch(std::span<const int64_t> items, Rng& rng,
                    std::span<uint8_t> out_labels);

  /// Labels charged to the budget so far.
  int64_t labels_consumed() const { return labels_consumed_; }

  /// Total queries including free cache hits.
  int64_t total_queries() const { return total_queries_; }

  /// Number of distinct items labelled at least once.
  int64_t distinct_items_labelled() const { return distinct_items_; }

  /// True when a label for `item` has been delivered before: a cached label
  /// for a deterministic oracle, a first touch for a noisy one. A failed
  /// fallible batch leaves its unresolved items unlabelled.
  bool IsLabelled(int64_t item) const;

  /// The wrapped oracle (e.g. to check deterministic() or num_items()).
  const Oracle& oracle() const { return *oracle_; }

 private:
  /// The re-request loop behind QueryBatch when the oracle stack is fallible
  /// (see QueryBatch's fallible contract).
  Status QueryBatchFallible(std::span<const int64_t> items, Rng& rng,
                            std::span<uint8_t> out_labels);

  const Oracle* oracle_;
  // oracle_->deterministic() and oracle_->fallible(), read at construction so
  // the per-query hot path makes no virtual calls to re-ask them.
  bool deterministic_ = false;
  bool fallible_ = false;
  // Two bits per pool item, packed 64 to a word. A set `seen_` bit means the
  // item was labelled before, or (deterministic mode, inside a QueryBatch
  // call only) that its miss is pending; a failed batch clears it again.
  // `label_` holds the cached label and is allocated for deterministic
  // oracles only; a noisy oracle tracks first touch in `seen_` alone.
  std::vector<uint64_t> seen_;
  std::vector<uint64_t> label_;
  // Scratch for QueryBatch (first-occurrence cache misses and their labels),
  // reused across calls so steady-state batches do not allocate.
  std::vector<int64_t> miss_items_;
  std::vector<uint8_t> miss_labels_;
  // Extra scratch for the fallible paths: per-request resolution flags and
  // (noisy mode) the batch positions still awaiting a label.
  std::vector<uint8_t> miss_resolved_;
  std::vector<size_t> pending_positions_;
  int64_t labels_consumed_ = 0;
  int64_t total_queries_ = 0;
  int64_t distinct_items_ = 0;
};

}  // namespace oasis

#endif  // OASIS_ORACLE_LABEL_CACHE_H_
