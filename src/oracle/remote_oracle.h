#ifndef OASIS_ORACLE_REMOTE_ORACLE_H_
#define OASIS_ORACLE_REMOTE_ORACLE_H_

#include <atomic>
#include <cstdint>
#include <span>

#include "oracle/oracle.h"
#include "oracle/shared_label_store.h"

namespace oasis {

/// Latency/cost model of a remote labelling service (a crowdsourcing
/// platform, an expert-review queue, a paid labelling API). All times are
/// *simulated* — nothing ever sleeps — so experiments can price
/// label-acquisition strategies without waiting for them.
struct RemoteOracleOptions {
  /// Fixed latency charged per round trip, independent of batch size: task
  /// posting, network, annotator pickup (seconds).
  double round_trip_seconds = 30.0;

  /// Marginal latency per item in a round trip: one annotator judging one
  /// pair (seconds).
  double per_item_seconds = 12.0;

  /// Monetary cost per label sent over the wire (same currency the caller
  /// thinks in; labels replayed from a cache or shared store are free).
  double cost_per_label = 0.05;

  /// Multiplicative round-trip jitter: each trip's latency is scaled by
  /// (1 + jitter_fraction * u) with u ~ U[0, 1) drawn from an `Rng::Fork`
  /// stream keyed on (jitter_seed, fingerprint of the trip's items). Keying
  /// on trip *content* rather than a call counter makes the jitter — and
  /// hence every simulated clock — a pure function of what was queried,
  /// bit-identical at any thread count. Must lie in [0, 1).
  double jitter_fraction = 0.0;

  /// Seed of the jitter streams (see jitter_fraction).
  uint64_t jitter_seed = 0x0a515cafeULL;

  /// Largest number of items one round trip may carry (a crowd platform's
  /// task-page size); a larger batch is split into ceil(n / max) trips.
  /// 0 means unbounded (every LabelBatch call is one trip).
  int64_t max_items_per_round_trip = 0;
};

/// Point-in-time snapshot of a RemoteOracle's accounting (see
/// RemoteOracle::stats()).
struct RemoteOracleStats {
  /// Items requested of the remote service (cache hits in a front-end
  /// LabelCache never reach it; store hits do, but are answered locally).
  int64_t queries = 0;

  /// Simulated round trips actually sent over the wire.
  int64_t round_trips = 0;

  /// Items sent over the wire (= queries minus store hits).
  int64_t labels_fetched = 0;

  /// Queries answered by the SharedLabelStore instead of the wire.
  int64_t store_hits = 0;

  /// Total simulated latency, in integer nanoseconds. Integer so that
  /// concurrent accumulation is an order-independent sum — totals are
  /// bit-identical at any thread count (see docs/ORACLES.md).
  int64_t simulated_latency_ns = 0;

  /// Total simulated latency in seconds.
  double simulated_seconds() const {
    return static_cast<double>(simulated_latency_ns) * 1e-9;
  }

  /// Total monetary cost (labels_fetched * cost_per_label).
  double label_cost = 0.0;
};

/// Decorator that turns any local `Oracle` into a simulated *remote* one:
/// labels are delegated verbatim to the wrapped oracle (same values, same RNG
/// stream — a RemoteOracle-wrapped run is bit-identical to an unwrapped one),
/// while every query is priced under a deterministic latency/cost model and
/// accounted per round trip. Latency is always simulated: the decorator
/// adds to its clock and never blocks the caller.
///
/// This is the repo's model of the paper's core premise — oracle labels are
/// the scarce resource (Definition 4; Sec. 1) — made quantitative: with it,
/// `LabelCache::QueryBatch`'s one-round-trip-per-miss-batch contract and the
/// samplers' batched `StepBatch` fast paths have something real to amortise,
/// and error curves can be plotted against simulated hours and dollars
/// instead of bare label counts (see experiments::RunnerOptions::remote_oracle).
///
/// Accounting model, per `LabelBatch` call of n items (a single `Label` call
/// is a batch of one):
///  - the call is split into ceil(n / max_items_per_round_trip) round trips;
///  - each trip of k items costs
///      (round_trip_seconds + k * per_item_seconds) * (1 + jitter)
///    of simulated latency, quantised to integer nanoseconds;
///  - each item on the wire costs cost_per_label.
/// With a SharedLabelStore attached (and a deterministic, RNG-free inner
/// oracle), items some caller already fetched are answered from the store:
/// zero trips, zero latency, zero cost; a call answered entirely by the
/// store does not touch the wire at all.
///
/// Thread-safety and determinism: labelling is const and all counters are
/// atomic integers, so one RemoteOracle may be shared across worker threads
/// exactly like any other Oracle. Without a store every stat is bit-identical
/// at any thread count (per-caller call sequences are deterministic, jitter
/// is keyed on trip content, and integer sums are order-independent); with a
/// store, labels / labels_fetched / label_cost stay scheduling-independent
/// but round-trip clustering does not — see SharedLabelStore.
class RemoteOracle : public Oracle {
 public:
  /// Wraps `inner` (which must outlive this oracle and be non-null). `store`
  /// may be null; it is engaged only when the inner oracle is deterministic
  /// and RNG-free (label replay is unsound otherwise), and must cover
  /// inner->num_items(). Checks option validity (non-negative latencies and
  /// cost, jitter_fraction in [0, 1)).
  RemoteOracle(const Oracle* inner, const RemoteOracleOptions& options,
               SharedLabelStore* store = nullptr);

  /// Delegates to the wrapped oracle's Label and accounts one round trip of
  /// one item (zero-cost when the shared store already has it).
  bool Label(int64_t item, Rng& rng) const override;

  /// Delegates to the wrapped oracle's LabelBatch (RNG consumed in item
  /// order, exactly as the inner oracle would) and accounts the batch per
  /// the model above.
  void LabelBatch(std::span<const int64_t> items, Rng& rng,
                  std::span<uint8_t> out) const override;

  /// Fallible path: with an infallible inner oracle this is the LabelBatch
  /// accounting with everything resolved; with a fallible inner (e.g. a
  /// FaultInjectingOracle underneath) the batch is paged into round trips
  /// and each trip's TryLabelBatch is delegated separately — every attempted
  /// trip is charged its full latency whether or not it succeeds (the wire
  /// time is spent either way), while label_cost is charged only for items
  /// actually delivered. A failing trip stops the call; later pages are left
  /// unresolved and uncharged.
  Status TryLabelBatch(std::span<const int64_t> items, Rng& rng,
                       std::span<uint8_t> out,
                       std::span<uint8_t> resolved) const override;

  /// Forwards the wrapped oracle's fallibility: a RemoteOracle over a
  /// fault-injecting inner is itself fallible (and the shared store is
  /// disabled — replaying possibly-failed fetches is unsound).
  bool fallible() const override;

  /// Charges `ns` of simulated latency that did NOT come from a round trip —
  /// a retrying caller's backoff waits, so cost-vs-error curves price the
  /// time lost to failures, not just the trips (see RetryingOracle).
  void ChargeAuxiliaryLatencyNs(int64_t ns) const;

  /// The wrapped oracle's true probability (the decorator changes cost, not
  /// ground truth).
  double TrueProbability(int64_t item) const override;

  /// Forwards the wrapped oracle's determinism, so LabelCache's footnote-5
  /// charging policy is unchanged by wrapping.
  bool deterministic() const override;

  /// Forwards the wrapped oracle's RNG discipline, so the samplers' batched
  /// fast paths are unchanged by wrapping.
  bool labelling_consumes_rng() const override;

  /// The wrapped oracle's item count.
  int64_t num_items() const override;

  /// Snapshot of the cost accounting so far. Safe to call concurrently with
  /// labelling; the snapshot is per-counter atomic (not a consistent cut
  /// across counters, which only matters mid-flight).
  RemoteOracleStats stats() const;

  /// The simulated clock alone: stats().simulated_latency_ns as one relaxed
  /// load, for callers that time attempts against it on the hot path (see
  /// RetryingOracle) and need none of the other counters.
  int64_t simulated_latency_ns() const {
    return simulated_latency_ns_.load(std::memory_order_relaxed);
  }

  /// The latency/cost model in force.
  const RemoteOracleOptions& options() const { return options_; }

  /// The wrapped oracle.
  const Oracle& inner() const { return *inner_; }

  /// Whether the shared store is engaged (attached AND sound for the inner
  /// oracle).
  bool sharing_labels() const { return store_ != nullptr; }

  /// Simulated latency of one round trip carrying `trip` (exposed so tests
  /// and harnesses can predict clocks exactly): base latency scaled by the
  /// content-keyed jitter, quantised to nanoseconds.
  int64_t TripLatencyNs(std::span<const int64_t> trip) const;

 private:
  /// Accounts the wire activity of fetching `fetched` in
  /// max_items_per_round_trip-sized trips.
  void AccountFetch(std::span<const int64_t> fetched) const;

  const Oracle* inner_;
  RemoteOracleOptions options_;
  SharedLabelStore* store_;
  mutable std::atomic<int64_t> queries_{0};
  mutable std::atomic<int64_t> round_trips_{0};
  mutable std::atomic<int64_t> labels_fetched_{0};
  mutable std::atomic<int64_t> store_hits_{0};
  mutable std::atomic<int64_t> simulated_latency_ns_{0};
};

}  // namespace oasis

#endif  // OASIS_ORACLE_REMOTE_ORACLE_H_
