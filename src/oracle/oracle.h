#ifndef OASIS_ORACLE_ORACLE_H_
#define OASIS_ORACLE_ORACLE_H_

#include <cstdint>
#include <span>

#include "common/random.h"
#include "common/status.h"

/// \namespace oasis
/// Root namespace of the OASIS reproduction: samplers, oracles, strata,
/// estimators and the supporting infrastructure.
namespace oasis {

/// Randomised labelling oracle (Definition 4 of the paper).
///
/// A query for pool item z returns one draw from Bernoulli(p(1|z)), where
/// p(1|z) is the oracle probability of item z being a match. A deterministic
/// oracle has p(1|z) in {0, 1} (the regime of the paper's experiments); a
/// noisy oracle models crowdsourced annotators.
///
/// Labelling is const: all randomness comes from the caller's RNG and all
/// oracle state is immutable after construction. This is what lets the
/// parallel experiment runner share ONE oracle instance across worker
/// threads without synchronisation — implementations must keep Label() free
/// of mutable members (add per-call state to the caller's Rng instead).
class Oracle {
 public:
  virtual ~Oracle() = default;  ///< Oracles are deleted via the interface.

  /// Draws one label for pool item `item` using the caller's RNG, so that the
  /// complete experiment is reproducible from a single seed. Thread-safe for
  /// concurrent callers with distinct RNGs.
  virtual bool Label(int64_t item, Rng& rng) const = 0;

  /// Draws labels for a batch of items in one round-trip. Exactly equivalent
  /// to calling Label() once per item in `items` order — in particular the
  /// RNG is consumed in the same sequence, so a batched caller stays on the
  /// same seeded stream as a sequential one. `out` must have items.size()
  /// entries; each receives 0 or 1. The base implementation loops over
  /// Label(); concrete oracles override it to amortise the per-item virtual
  /// dispatch (and, for remote/crowd oracles, the round-trip itself).
  virtual void LabelBatch(std::span<const int64_t> items, Rng& rng,
                          std::span<uint8_t> out) const;

  /// True oracle probability p(1|item). Exposed for constructing ground-truth
  /// reference values in benches/tests; estimators never call this.
  virtual double TrueProbability(int64_t item) const = 0;

  /// Whether p(1|z) is degenerate ({0,1}) for every item. Deterministic
  /// oracles admit label caching (paper footnote 5: a pair is charged to the
  /// budget only the first time). Must not change over the oracle's
  /// lifetime: LabelCache reads it once, at construction.
  virtual bool deterministic() const = 0;

  /// Whether Label()/LabelBatch() draw from the caller's RNG. True for any
  /// oracle that realises labels by sampling (NoisyOracle always burns one
  /// deviate per label, even when its probabilities are degenerate); false
  /// only when labelling is a pure lookup (GroundTruthOracle). Samplers use
  /// this — not deterministic() — to decide whether pre-drawing a batch of
  /// items and querying them afterwards preserves the exact sequential RNG
  /// stream. The conservative default is true.
  virtual bool labelling_consumes_rng() const { return true; }

  /// Whether labelling can FAIL (timeouts, outages, dropped items). False for
  /// every in-process oracle; decorators that model failure — FaultInjecting-
  /// Oracle, RetryingOracle, and RemoteOracle over a fallible inner — return
  /// true, which routes LabelCache through the fallible TryLabelBatch() path
  /// below instead of the infallible LabelBatch(). See docs/FAULT_MODEL.md.
  /// Like deterministic(), fixed for the oracle's lifetime (decorators
  /// forward their construction-time inner oracle's answer).
  virtual bool fallible() const { return false; }

  /// Fallible batched labelling. On return, resolved[i] != 0 iff out[i] holds
  /// a valid label for items[i]; every entry of `resolved` is written (0 or
  /// 1). A non-OK status reports why the attempt stopped — entries resolved
  /// before the failure are still valid and MAY be committed by the caller
  /// (this is what lets a retrying caller re-request only the missing items
  /// of a partial batch). An OK status with unresolved entries is a *partial
  /// batch* (e.g. a crowd platform returning a subset); the caller decides
  /// whether to re-request the rest. `items`, `out` and `resolved` must have
  /// equal lengths. The base implementation delegates to the infallible
  /// LabelBatch() and resolves everything — correct for every oracle with
  /// fallible() == false.
  virtual Status TryLabelBatch(std::span<const int64_t> items, Rng& rng,
                               std::span<uint8_t> out,
                               std::span<uint8_t> resolved) const;

  /// Number of items the oracle covers.
  virtual int64_t num_items() const = 0;
};

}  // namespace oasis

#endif  // OASIS_ORACLE_ORACLE_H_
