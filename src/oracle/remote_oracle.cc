#include "oracle/remote_oracle.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "telemetry/telemetry.h"

namespace oasis {

namespace {

/// Registry-side mirrors of the RemoteOracle atomics, shared by every
/// instance (the registry aggregates where per-instance stats() separates).
struct OracleMetrics {
  telemetry::Counter& round_trips;
  telemetry::Counter& labels_fetched;
  telemetry::Counter& latency_ns;
  telemetry::Counter& store_hits;
};

OracleMetrics& Metrics() {
  telemetry::MetricRegistry& registry = telemetry::DefaultRegistry();
  static OracleMetrics metrics{
      registry.AddCounter("oasis_oracle_round_trips_total",
                          "Simulated wire round trips issued to the remote "
                          "oracle (batched fetch pages)."),
      registry.AddCounter("oasis_oracle_labels_fetched_total",
                          "Labels delivered over the wire (billed labels)."),
      registry.AddCounter("oasis_oracle_simulated_latency_ns_total",
                          "Simulated wire latency accumulated by the "
                          "latency model, in nanoseconds."),
      registry.AddCounter("oasis_oracle_store_hits_total",
                          "Queries answered by the shared label store "
                          "without touching the wire."),
  };
  return metrics;
}

/// Order-sensitive 64-bit fingerprint of a trip's items (FNV-1a over the
/// item ids). Keys the jitter stream: the same trip content always draws the
/// same jitter, whichever thread sends it and in whatever global order.
uint64_t FingerprintItems(std::span<const int64_t> items) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (int64_t item : items) {
    h ^= static_cast<uint64_t>(item);
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace

RemoteOracle::RemoteOracle(const Oracle* inner, const RemoteOracleOptions& options,
                           SharedLabelStore* store)
    : inner_(inner), options_(options), store_(store) {
  OASIS_CHECK(inner != nullptr);
  OASIS_CHECK(options.round_trip_seconds >= 0.0);
  OASIS_CHECK(options.per_item_seconds >= 0.0);
  OASIS_CHECK(options.cost_per_label >= 0.0);
  OASIS_CHECK(options.jitter_fraction >= 0.0 && options.jitter_fraction < 1.0);
  OASIS_CHECK(options.max_items_per_round_trip >= 0);
  // Sharing fetched labels is only sound when a replay is indistinguishable
  // from a fresh query: deterministic labels that never consume the caller's
  // RNG, from an inner oracle that cannot fail mid-fetch. Otherwise the
  // store is ignored (documented on SharedLabelStore).
  if (store_ != nullptr &&
      (!inner_->deterministic() || inner_->labelling_consumes_rng() ||
       inner_->fallible())) {
    store_ = nullptr;
  }
  if (store_ != nullptr) {
    OASIS_CHECK(store_->num_items() >= inner_->num_items());
  }
}

int64_t RemoteOracle::TripLatencyNs(std::span<const int64_t> trip) const {
  double seconds = options_.round_trip_seconds +
                   static_cast<double>(trip.size()) * options_.per_item_seconds;
  if (options_.jitter_fraction > 0.0) {
    Rng jitter_rng = Rng::Fork(options_.jitter_seed, FingerprintItems(trip));
    seconds *= 1.0 + options_.jitter_fraction * jitter_rng.NextDouble();
  }
  return static_cast<int64_t>(std::llround(seconds * 1e9));
}

void RemoteOracle::AccountFetch(std::span<const int64_t> fetched) const {
  if (fetched.empty()) return;
  const int64_t n = static_cast<int64_t>(fetched.size());
  const int64_t per_trip = options_.max_items_per_round_trip > 0
                               ? options_.max_items_per_round_trip
                               : n;
  int64_t latency_ns = 0;
  int64_t trips = 0;
  for (int64_t lo = 0; lo < n; lo += per_trip) {
    const int64_t hi = std::min(n, lo + per_trip);
    latency_ns += TripLatencyNs(fetched.subspan(static_cast<size_t>(lo),
                                                static_cast<size_t>(hi - lo)));
    ++trips;
  }
  round_trips_.fetch_add(trips, std::memory_order_relaxed);
  labels_fetched_.fetch_add(n, std::memory_order_relaxed);
  simulated_latency_ns_.fetch_add(latency_ns, std::memory_order_relaxed);
  if (OASIS_TELEMETRY_ON) {
    OracleMetrics& metrics = Metrics();
    metrics.round_trips.Add(trips);
    metrics.labels_fetched.Add(n);
    metrics.latency_ns.Add(latency_ns);
  }
}

bool RemoteOracle::Label(int64_t item, Rng& rng) const {
  uint8_t label = 0;
  const int64_t items[1] = {item};
  LabelBatch(items, rng, std::span<uint8_t>(&label, 1));
  return label != 0;
}

void RemoteOracle::LabelBatch(std::span<const int64_t> items, Rng& rng,
                              std::span<uint8_t> out) const {
  OASIS_DCHECK(items.size() == out.size());
  if (items.empty()) return;
  queries_.fetch_add(static_cast<int64_t>(items.size()),
                     std::memory_order_relaxed);
  if (store_ == nullptr) {
    AccountFetch(items);
    inner_->LabelBatch(items, rng, out);
    return;
  }
  // Shared store: only globally-novel items touch the wire; everything else
  // is a free replay. The store holds its lock across the fetch, so each
  // item is fetched exactly once however many repeats race for it. The inner
  // oracle is RNG-free here (store gate), so the fetch never consumes `rng`
  // and the caller's stream is identical with or without the store.
  const int64_t hits = store_->FetchThrough(
      items, out, [&](std::span<const int64_t> novel, std::span<uint8_t> novel_out) {
        AccountFetch(novel);
        inner_->LabelBatch(novel, rng, novel_out);
      });
  store_hits_.fetch_add(hits, std::memory_order_relaxed);
  if (OASIS_TELEMETRY_ON) Metrics().store_hits.Add(hits);
}

Status RemoteOracle::TryLabelBatch(std::span<const int64_t> items, Rng& rng,
                                   std::span<uint8_t> out,
                                   std::span<uint8_t> resolved) const {
  OASIS_DCHECK(items.size() == out.size());
  OASIS_DCHECK(items.size() == resolved.size());
  if (!inner_->fallible()) {
    LabelBatch(items, rng, out);
    for (size_t i = 0; i < resolved.size(); ++i) resolved[i] = 1;
    return Status::OK();
  }
  for (size_t i = 0; i < resolved.size(); ++i) resolved[i] = 0;
  if (items.empty()) return Status::OK();
  queries_.fetch_add(static_cast<int64_t>(items.size()),
                     std::memory_order_relaxed);
  // Page into round trips exactly like AccountFetch, but attempt each trip
  // separately: a failing trip still costs its latency (the wire time was
  // spent), while only delivered items are billed per label.
  const int64_t n = static_cast<int64_t>(items.size());
  const int64_t per_trip =
      options_.max_items_per_round_trip > 0 ? options_.max_items_per_round_trip
                                            : n;
  for (int64_t lo = 0; lo < n; lo += per_trip) {
    const int64_t hi = std::min(n, lo + per_trip);
    const size_t trip_lo = static_cast<size_t>(lo);
    const size_t trip_len = static_cast<size_t>(hi - lo);
    const std::span<const int64_t> trip = items.subspan(trip_lo, trip_len);
    const int64_t latency_ns = TripLatencyNs(trip);
    round_trips_.fetch_add(1, std::memory_order_relaxed);
    simulated_latency_ns_.fetch_add(latency_ns, std::memory_order_relaxed);
    if (OASIS_TELEMETRY_ON) {
      OracleMetrics& metrics = Metrics();
      metrics.round_trips.Increment();
      metrics.latency_ns.Add(latency_ns);
    }
    const Status status = inner_->TryLabelBatch(
        trip, rng, out.subspan(trip_lo, trip_len),
        resolved.subspan(trip_lo, trip_len));
    int64_t delivered = 0;
    for (size_t i = 0; i < trip_len; ++i) {
      delivered += resolved[trip_lo + i] != 0 ? 1 : 0;
    }
    labels_fetched_.fetch_add(delivered, std::memory_order_relaxed);
    if (OASIS_TELEMETRY_ON) Metrics().labels_fetched.Add(delivered);
    OASIS_RETURN_NOT_OK(status);
  }
  return Status::OK();
}

bool RemoteOracle::fallible() const { return inner_->fallible(); }

void RemoteOracle::ChargeAuxiliaryLatencyNs(int64_t ns) const {
  if (ns <= 0) return;
  simulated_latency_ns_.fetch_add(ns, std::memory_order_relaxed);
}

double RemoteOracle::TrueProbability(int64_t item) const {
  return inner_->TrueProbability(item);
}

bool RemoteOracle::deterministic() const { return inner_->deterministic(); }

bool RemoteOracle::labelling_consumes_rng() const {
  return inner_->labelling_consumes_rng();
}

int64_t RemoteOracle::num_items() const { return inner_->num_items(); }

RemoteOracleStats RemoteOracle::stats() const {
  RemoteOracleStats stats;
  stats.queries = queries_.load(std::memory_order_relaxed);
  stats.round_trips = round_trips_.load(std::memory_order_relaxed);
  stats.labels_fetched = labels_fetched_.load(std::memory_order_relaxed);
  stats.store_hits = store_hits_.load(std::memory_order_relaxed);
  stats.simulated_latency_ns = simulated_latency_ns();
  stats.label_cost =
      static_cast<double>(stats.labels_fetched) * options_.cost_per_label;
  return stats;
}

}  // namespace oasis
