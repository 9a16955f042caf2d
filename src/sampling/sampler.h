#ifndef OASIS_SAMPLING_SAMPLER_H_
#define OASIS_SAMPLING_SAMPLER_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "oracle/label_cache.h"

namespace oasis {

class DegeneracyMonitor;

/// The evaluation view of a record-pair pool: one similarity score and one
/// predicted label per pair (Definition 4). Ground truth lives behind the
/// Oracle, never here — estimators can only see it one label at a time.
struct ScoredPool {
  /// Similarity score s(z) per pool item.
  std::vector<double> scores;
  /// Predicted labels l-hat(z) in {0, 1} per pool item (z in R-hat or not).
  std::vector<uint8_t> predictions;
  /// Whether scores already live in [0, 1] and approximate probabilities
  /// (calibrated); when false the initialisation logit-maps them around
  /// `threshold`.
  bool scores_are_probabilities = false;
  /// Classifier decision threshold tau on the raw score scale (Algorithm 2's
  /// optional input); ignored when scores_are_probabilities.
  double threshold = 0.0;

  int64_t size() const { return static_cast<int64_t>(scores.size()); }

  /// Checks structural validity (non-empty, equal lengths, finite scores,
  /// 0/1 predictions, probability scores in range when declared).
  Status Validate() const;

  /// Number of predicted positives (|R-hat| restricted to the pool).
  int64_t NumPredictedPositives() const;
};

/// Point-in-time estimate of the three evaluation measures. `*_defined`
/// mirrors the paper's observation that Eqn. (1)/(3) are 0/0 until a
/// (predicted or true) positive enters the sample.
struct EstimateSnapshot {
  double f_alpha = 0.0;
  double precision = 0.0;
  double recall = 0.0;
  bool f_defined = false;
  bool precision_defined = false;
  bool recall_defined = false;
};

/// Base class for all pool evaluation samplers (Passive, Stratified, IS,
/// OASIS). One Step() = one sampling iteration: draw a pool item according to
/// the method's (possibly adaptive) distribution, query the oracle through
/// the shared LabelCache, and fold the observation into the running
/// estimator. Sampling is with replacement; budget accounting (first query
/// per item is charged, replays are free for deterministic oracles) is
/// centralised in LabelCache.
class Sampler {
 public:
  virtual ~Sampler() = default;

  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;

  /// Performs one sampling iteration.
  virtual Status Step() = 0;

  /// Performs `n` sampling iterations as one call. Behaviourally identical to
  /// calling Step() `n` times — same RNG stream, same oracle queries, same
  /// estimate sequence — but lets implementations amortise virtual dispatch,
  /// validation and invariant loads across the batch. Subclasses that
  /// override it must preserve the exact per-step equivalence (it is tested).
  /// The base implementation simply loops Step(). n must be >= 0; n == 0 is a
  /// no-op.
  virtual Status StepBatch(int64_t n);

  /// Current estimates of F_alpha / precision / recall.
  virtual EstimateSnapshot Estimate() const = 0;

  /// Short method name used in reports ("Passive", "OASIS-30", ...).
  virtual std::string name() const = 0;

  /// The sampler's importance-weight degeneracy monitor, when it has one
  /// (OASIS and the importance sampler do), else nullptr. Harnesses use it to
  /// thread per-checkpoint ESS diagnostics into trajectories and CSV output
  /// (see docs/FAULT_MODEL.md).
  virtual const DegeneracyMonitor* degeneracy_monitor() const {
    return nullptr;
  }

  /// Labels charged to the budget so far.
  int64_t labels_consumed() const { return labels_->labels_consumed(); }

  /// Sampling iterations performed so far (>= labels_consumed in the
  /// deterministic-oracle regime).
  int64_t iterations() const { return iterations_; }

  const ScoredPool& pool() const { return *pool_; }
  LabelCache& labels() { return *labels_; }
  double alpha() const { return alpha_; }

 protected:
  /// Chunk size used by the batched StepBatch overrides: items are drawn and
  /// queried in groups of at most this many, bounding scratch memory while
  /// still amortising the oracle round-trip.
  static constexpr int64_t kQueryBatchChunk = 512;

  /// `pool` and `labels` must outlive the sampler.
  Sampler(const ScoredPool* pool, LabelCache* labels, double alpha, Rng rng);

  /// Queries the oracle for `item` and bumps the iteration counter — AFTER
  /// the label arrives, so a failed query (fallible oracle stack) leaves the
  /// sampler's counters untouched and the step can be reported as never
  /// having happened (exception safety of Step/StepBatch).
  Result<bool> QueryLabel(int64_t item);

  /// Queries the oracle for a batch of items in one LabelCache::QueryBatch
  /// round-trip and bumps the iteration counter by the batch size. Exactly
  /// equivalent to calling QueryLabel() per item in order (same labels,
  /// counters and RNG stream). `out_labels` must match `items` in length.
  /// Like QueryLabel, the iteration counter moves only on success.
  Status QueryLabels(std::span<const int64_t> items, std::span<uint8_t> out_labels);

  /// Whether pre-drawing a chunk of items and batch-querying them preserves
  /// exact sequential equivalence: true iff labelling never consumes the
  /// caller's RNG, so the item-draw deviates cannot interleave with label
  /// deviates. Note this is deliberately NOT Oracle::deterministic() — a
  /// NoisyOracle with degenerate {0,1} probabilities is deterministic yet
  /// still burns one deviate per labelled miss, which would reorder the
  /// stream. BatchedSteps takes its sequential path when this is false.
  bool CanBatchQueries() const {
    return !labels_->oracle().labelling_consumes_rng();
  }

  /// The one StepBatch of the samplers with static instrumental
  /// distributions (passive / importance / stratified): runs `n` iterations
  /// of draw, query, tally, and rejects n < 0.
  ///
  /// `draw(i)` returns the item for position i (and may record side state,
  /// e.g. the stratum it drew); `tally(i, item, label)` folds the resolved
  /// observation into the estimator. Positions are always
  /// < kQueryBatchChunk, so draw-side scratch indexed by position needs one
  /// chunk. A position is never reused before its tally ran.
  ///
  /// When !CanBatchQueries() (labelling consumes the RNG) every iteration
  /// runs draw(0), QueryLabel, tally(0, ...) in turn: the exact sequential
  /// interleaving of item and label deviates.
  ///
  /// Otherwise iterations run in chunks of kQueryBatchChunk, pre-drawing
  /// each chunk's items and resolving them in ONE LabelCache::QueryBatch
  /// round-trip before tallying. The pre-draw reorders item draws relative
  /// to label queries, which is stream-preserving exactly when labelling is
  /// RNG-free, so this is the identical item/label/counter sequence as `n`
  /// sequential Step() calls. Scratch buffers are reused, so steady-state
  /// batches do not allocate.
  ///
  /// Forced inline into the one caller, each sampler's StepBatch, where the
  /// draw/tally closures stay in registers. Left to the compiler, StepBatch
  /// shrinks to a call, is inlined into Step() as well, and the scaffold is
  /// emitted out of line: BM_PassiveStep measured ~4% slower per step.
  template <typename DrawFn, typename TallyFn>
  [[gnu::always_inline]] Status BatchedSteps(int64_t n, DrawFn&& draw,
                                             TallyFn&& tally) {
    if (n < 0) {
      return Status::InvalidArgument("StepBatch: n must be non-negative");
    }
    if (!CanBatchQueries()) {
      for (int64_t i = 0; i < n; ++i) {
        const int64_t item = draw(0);
        OASIS_ASSIGN_OR_RETURN(const bool label, QueryLabel(item));
        tally(0, item, label);
      }
      return Status::OK();
    }
    for (int64_t done = 0; done < n;) {
      const int64_t chunk = std::min(kQueryBatchChunk, n - done);
      batch_items_.resize(static_cast<size_t>(chunk));
      batch_labels_.resize(static_cast<size_t>(chunk));
      for (int64_t i = 0; i < chunk; ++i) {
        batch_items_[static_cast<size_t>(i)] = draw(i);
      }
      OASIS_RETURN_NOT_OK(QueryLabels(batch_items_, batch_labels_));
      for (int64_t i = 0; i < chunk; ++i) {
        tally(i, batch_items_[static_cast<size_t>(i)],
              batch_labels_[static_cast<size_t>(i)] != 0);
      }
      done += chunk;
    }
    return Status::OK();
  }

  Rng& rng() { return rng_; }

 private:
  const ScoredPool* pool_;
  LabelCache* labels_;
  double alpha_;
  Rng rng_;
  int64_t iterations_ = 0;
  std::vector<int64_t> batch_items_;
  std::vector<uint8_t> batch_labels_;
};

}  // namespace oasis

#endif  // OASIS_SAMPLING_SAMPLER_H_
