#include "oracle/remote_oracle.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "experiments/runner.h"
#include "oracle/ground_truth_oracle.h"
#include "oracle/label_cache.h"
#include "oracle/noisy_oracle.h"
#include "oracle/shared_label_store.h"
#include "strata/csf.h"
#include "tests/test_util.h"

namespace oasis {
namespace {

RemoteOracleOptions NoJitterOptions() {
  RemoteOracleOptions options;
  options.round_trip_seconds = 10.0;
  options.per_item_seconds = 2.0;
  options.cost_per_label = 0.25;
  options.jitter_fraction = 0.0;
  return options;
}

int64_t Ns(double seconds) {
  return static_cast<int64_t>(std::llround(seconds * 1e9));
}

// ---------------------------------------------------------------------------
// Label bit-identity with the wrapped oracle.
// ---------------------------------------------------------------------------

TEST(RemoteOracleTest, ForwardsGroundTruthLabelsExactly) {
  GroundTruthOracle inner({1, 0, 1, 0, 0, 1});
  RemoteOracle remote(&inner, NoJitterOptions());

  Rng rng_raw(7);
  Rng rng_wrapped(7);
  for (int64_t item = 0; item < inner.num_items(); ++item) {
    EXPECT_EQ(inner.Label(item, rng_raw), remote.Label(item, rng_wrapped))
        << "item " << item;
  }
  // Neither consumed the RNG (ground truth is a pure lookup); both streams
  // must still be in lock-step with a fresh generator.
  Rng fresh(7);
  EXPECT_EQ(rng_raw.NextUint64(), fresh.NextUint64());
  EXPECT_EQ(rng_wrapped.NextUint64(), Rng(7).NextUint64());

  EXPECT_TRUE(remote.deterministic());
  EXPECT_FALSE(remote.labelling_consumes_rng());
  EXPECT_EQ(remote.num_items(), inner.num_items());
  EXPECT_DOUBLE_EQ(remote.TrueProbability(0), 1.0);
}

TEST(RemoteOracleTest, ForwardsNoisyLabelsAndRngStreamExactly) {
  NoisyOracle inner =
      NoisyOracle::FromProbabilities({0.3, 0.8, 0.5, 0.1}).ValueOrDie();
  RemoteOracle remote(&inner, NoJitterOptions());
  EXPECT_FALSE(remote.deterministic());
  EXPECT_TRUE(remote.labelling_consumes_rng());

  const std::vector<int64_t> items = {0, 1, 2, 3, 2, 1, 0, 3, 3};
  std::vector<uint8_t> raw(items.size()), wrapped(items.size());
  Rng rng_raw(99);
  Rng rng_wrapped(99);
  inner.LabelBatch(items, rng_raw, raw);
  remote.LabelBatch(items, rng_wrapped, wrapped);
  EXPECT_EQ(raw, wrapped);
  // Identical RNG consumption: the next deviate agrees.
  EXPECT_EQ(rng_raw.NextUint64(), rng_wrapped.NextUint64());
}

// ---------------------------------------------------------------------------
// Cost-accounting invariants.
// ---------------------------------------------------------------------------

TEST(RemoteOracleTest, AccountsOneTripPerUnboundedBatch) {
  GroundTruthOracle inner(std::vector<uint8_t>(100, 1));
  RemoteOracleOptions options = NoJitterOptions();
  RemoteOracle remote(&inner, options);

  const std::vector<int64_t> items = {5, 9, 11, 42};
  std::vector<uint8_t> out(items.size());
  Rng rng(1);
  remote.LabelBatch(items, rng, out);

  const RemoteOracleStats stats = remote.stats();
  EXPECT_EQ(stats.queries, 4);
  EXPECT_EQ(stats.round_trips, 1);
  EXPECT_EQ(stats.labels_fetched, 4);
  EXPECT_EQ(stats.store_hits, 0);
  EXPECT_EQ(stats.simulated_latency_ns, Ns(10.0 + 4 * 2.0));
  EXPECT_DOUBLE_EQ(stats.label_cost, 4 * 0.25);
}

TEST(RemoteOracleTest, SplitsBatchesIntoCeilMissesOverBatchTrips) {
  GroundTruthOracle inner(std::vector<uint8_t>(1000, 0));
  RemoteOracleOptions options = NoJitterOptions();
  options.max_items_per_round_trip = 16;
  RemoteOracle remote(&inner, options);

  std::vector<int64_t> items(100);
  for (int64_t i = 0; i < 100; ++i) items[static_cast<size_t>(i)] = i;
  std::vector<uint8_t> out(items.size());
  Rng rng(1);
  remote.LabelBatch(items, rng, out);

  const RemoteOracleStats stats = remote.stats();
  // ceil(100 / 16) = 7 trips: six full pages of 16 plus one of 4.
  EXPECT_EQ(stats.round_trips, 7);
  EXPECT_EQ(stats.labels_fetched, 100);
  EXPECT_EQ(stats.simulated_latency_ns, 7 * Ns(10.0) + 100 * Ns(2.0));
}

TEST(RemoteOracleTest, CacheHitsCostNothing) {
  GroundTruthOracle inner({1, 0, 1, 0});
  RemoteOracleOptions options = NoJitterOptions();
  RemoteOracle remote(&inner, options);
  LabelCache cache(&remote);
  Rng rng(3);

  const std::vector<int64_t> items = {0, 1, 2, 1, 0};
  std::vector<uint8_t> out(items.size());
  ASSERT_TRUE(cache.QueryBatch(items, rng, out).ok());
  const RemoteOracleStats cold = remote.stats();
  // The cache deduplicates: three distinct misses reach the wire, in one
  // round trip (footnote-5 charging: in-batch duplicates replay for free).
  EXPECT_EQ(cold.queries, 3);
  EXPECT_EQ(cold.round_trips, 1);
  EXPECT_EQ(cold.labels_fetched, 3);
  EXPECT_EQ(cold.simulated_latency_ns, Ns(10.0 + 3 * 2.0));

  // Fully-cached re-query: zero wire activity of any kind.
  ASSERT_TRUE(cache.QueryBatch(items, rng, out).ok());
  const RemoteOracleStats warm = remote.stats();
  EXPECT_EQ(warm.queries, cold.queries);
  EXPECT_EQ(warm.round_trips, cold.round_trips);
  EXPECT_EQ(warm.labels_fetched, cold.labels_fetched);
  EXPECT_EQ(warm.simulated_latency_ns, cold.simulated_latency_ns);
  EXPECT_DOUBLE_EQ(warm.label_cost, cold.label_cost);
}

TEST(RemoteOracleTest, SingleLabelIsATripOfOne) {
  GroundTruthOracle inner({1, 0});
  RemoteOracle remote(&inner, NoJitterOptions());
  Rng rng(5);
  EXPECT_TRUE(remote.Label(0, rng));
  const RemoteOracleStats stats = remote.stats();
  EXPECT_EQ(stats.queries, 1);
  EXPECT_EQ(stats.round_trips, 1);
  EXPECT_EQ(stats.simulated_latency_ns, Ns(10.0 + 2.0));
}

// ---------------------------------------------------------------------------
// Jitter: Fork-seeded, content-keyed, bounded, deterministic.
// ---------------------------------------------------------------------------

TEST(RemoteOracleTest, JitterIsDeterministicInTripContent) {
  GroundTruthOracle inner(std::vector<uint8_t>(64, 1));
  RemoteOracleOptions options = NoJitterOptions();
  options.jitter_fraction = 0.5;
  RemoteOracle a(&inner, options);
  RemoteOracle b(&inner, options);

  const std::vector<int64_t> trip = {3, 1, 4, 1, 5};
  // Same content, same seed: bit-identical latency across instances.
  EXPECT_EQ(a.TripLatencyNs(trip), b.TripLatencyNs(trip));
  // And across calls.
  EXPECT_EQ(a.TripLatencyNs(trip), a.TripLatencyNs(trip));

  // Jitter is bounded: base <= latency < base * (1 + fraction).
  const int64_t base = Ns(10.0 + 5 * 2.0);
  EXPECT_GE(a.TripLatencyNs(trip), base);
  EXPECT_LT(a.TripLatencyNs(trip),
            static_cast<int64_t>(static_cast<double>(base) * 1.5) + 1);

  // Different content or different seed moves the draw.
  const std::vector<int64_t> other = {2, 7, 1, 8, 2};
  EXPECT_NE(a.TripLatencyNs(trip), a.TripLatencyNs(other));
  options.jitter_seed ^= 0xdeadbeefULL;
  RemoteOracle c(&inner, options);
  EXPECT_NE(a.TripLatencyNs(trip), c.TripLatencyNs(trip));
}

// ---------------------------------------------------------------------------
// SharedLabelStore: cross-cache round-trip aggregation.
// ---------------------------------------------------------------------------

TEST(RemoteOracleTest, SharedStoreReplaysAcrossCaches) {
  GroundTruthOracle inner({1, 0, 1, 0, 1, 0, 1, 0});
  SharedLabelStore store(inner.num_items());
  RemoteOracleOptions options = NoJitterOptions();
  RemoteOracle remote(&inner, options, &store);
  ASSERT_TRUE(remote.sharing_labels());

  Rng rng(11);
  std::vector<uint8_t> out(4);

  // Repeat A fetches {0,1,2,3}: all novel, one trip.
  LabelCache cache_a(&remote);
  ASSERT_TRUE(
      cache_a.QueryBatch(std::vector<int64_t>{0, 1, 2, 3}, rng, out).ok());
  EXPECT_EQ(out, (std::vector<uint8_t>{1, 0, 1, 0}));
  EXPECT_EQ(remote.stats().round_trips, 1);
  EXPECT_EQ(remote.stats().labels_fetched, 4);

  // Repeat B misses {2,3,4,5} in its own cache, but {2,3} ride repeat A's
  // round trip: only {4,5} touch the wire.
  LabelCache cache_b(&remote);
  ASSERT_TRUE(
      cache_b.QueryBatch(std::vector<int64_t>{2, 3, 4, 5}, rng, out).ok());
  EXPECT_EQ(out[0], 1);
  EXPECT_EQ(out[1], 0);
  const RemoteOracleStats stats = remote.stats();
  EXPECT_EQ(stats.round_trips, 2);
  EXPECT_EQ(stats.labels_fetched, 6);
  EXPECT_EQ(stats.store_hits, 2);
  EXPECT_EQ(stats.simulated_latency_ns, Ns(10.0 + 4 * 2.0) + Ns(10.0 + 2 * 2.0));
  EXPECT_DOUBLE_EQ(stats.label_cost, 6 * 0.25);
  EXPECT_EQ(store.items_stored(), 6);
  EXPECT_EQ(store.total_hits(), 2);

  // Repeat C is answered entirely by the store: no wire activity at all.
  LabelCache cache_c(&remote);
  ASSERT_TRUE(
      cache_c.QueryBatch(std::vector<int64_t>{0, 2, 4, 5}, rng, out).ok());
  EXPECT_EQ(remote.stats().round_trips, 2);
  EXPECT_EQ(remote.stats().labels_fetched, 6);
  EXPECT_EQ(remote.stats().store_hits, 6);
}

TEST(RemoteOracleTest, SharedStoreIsBypassedForRngConsumingOracles) {
  NoisyOracle inner = NoisyOracle::FromProbabilities({0.4, 0.6}).ValueOrDie();
  SharedLabelStore store(inner.num_items());
  RemoteOracle remote(&inner, NoJitterOptions(), &store);
  // Replaying a noisy label would change the distribution; the store must
  // not engage.
  EXPECT_FALSE(remote.sharing_labels());

  // Labels still follow the raw oracle's stream exactly.
  Rng rng_raw(21), rng_wrapped(21);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(inner.Label(i % 2, rng_raw), remote.Label(i % 2, rng_wrapped));
  }
  EXPECT_EQ(store.items_stored(), 0);
}

// ---------------------------------------------------------------------------
// Runner integration: curves are bit-identical to unwrapped runs at any
// thread count, and the cost columns are themselves deterministic.
// ---------------------------------------------------------------------------

experiments::RunnerOptions BaseRunnerOptions() {
  experiments::RunnerOptions options;
  options.repeats = 12;
  options.trajectory.budget = 300;
  options.trajectory.checkpoint_every = 50;
  options.base_seed = 0xfeedULL;
  return options;
}

TEST(RemoteOracleRunnerTest, CurvesBitIdenticalToUnwrappedAtAnyThreadCount) {
  const testutil::SyntheticPool pool = testutil::MakeSyntheticPool({});
  GroundTruthOracle oracle(pool.truth);
  const double true_f = pool.true_measures.f_alpha;
  const experiments::MethodSpec method = experiments::MakeImportanceSpec({});

  experiments::RunnerOptions plain = BaseRunnerOptions();
  plain.num_threads = 1;
  const experiments::ErrorCurve reference =
      experiments::RunErrorCurve(method, pool.scored, oracle, true_f, plain)
          .ValueOrDie();
  EXPECT_FALSE(reference.has_remote_cost);

  RemoteOracleOptions remote = NoJitterOptions();
  remote.jitter_fraction = 0.3;
  for (int threads : {1, 2, 8}) {
    experiments::RunnerOptions options = BaseRunnerOptions();
    options.num_threads = threads;
    options.stack.remote = remote;
    const experiments::ErrorCurve curve =
        experiments::RunErrorCurve(method, pool.scored, oracle, true_f, options)
            .ValueOrDie();
    ASSERT_TRUE(curve.has_remote_cost);
    ASSERT_EQ(curve.budgets, reference.budgets);
    for (size_t i = 0; i < reference.budgets.size(); ++i) {
      // Bit-identical error statistics: wrapping only prices labels.
      EXPECT_EQ(curve.mean_abs_error[i], reference.mean_abs_error[i])
          << "threads=" << threads << " checkpoint " << i;
      EXPECT_EQ(curve.stddev[i], reference.stddev[i]);
      EXPECT_EQ(curve.mean_estimate[i], reference.mean_estimate[i]);
      EXPECT_EQ(curve.frac_defined[i], reference.frac_defined[i]);
    }
  }
}

TEST(RemoteOracleRunnerTest, CostColumnsBitIdenticalAcrossThreadCounts) {
  const testutil::SyntheticPool pool = testutil::MakeSyntheticPool({});
  GroundTruthOracle oracle(pool.truth);
  const double true_f = pool.true_measures.f_alpha;
  const experiments::MethodSpec method = experiments::MakePassiveSpec(0.5);

  RemoteOracleOptions remote = NoJitterOptions();
  remote.jitter_fraction = 0.25;
  remote.max_items_per_round_trip = 32;

  experiments::ErrorCurve reference;
  bool have_reference = false;
  for (int threads : {1, 2, 8}) {
    experiments::RunnerOptions options = BaseRunnerOptions();
    options.num_threads = threads;
    options.stack.remote = remote;
    const experiments::ErrorCurve curve =
        experiments::RunErrorCurve(method, pool.scored, oracle, true_f, options)
            .ValueOrDie();
    ASSERT_TRUE(curve.has_remote_cost);
    // Costs accumulate along the budget axis.
    for (size_t i = 1; i < curve.mean_round_trips.size(); ++i) {
      EXPECT_GE(curve.mean_round_trips[i], curve.mean_round_trips[i - 1]);
      EXPECT_GE(curve.mean_simulated_seconds[i],
                curve.mean_simulated_seconds[i - 1]);
      EXPECT_GE(curve.mean_label_cost[i], curve.mean_label_cost[i - 1]);
    }
    EXPECT_GT(curve.mean_round_trips.back(), 0.0);
    EXPECT_GT(curve.mean_simulated_seconds.back(), 0.0);
    EXPECT_GT(curve.mean_label_cost.back(), 0.0);
    if (!have_reference) {
      reference = curve;
      have_reference = true;
      continue;
    }
    for (size_t i = 0; i < reference.mean_round_trips.size(); ++i) {
      EXPECT_EQ(curve.mean_round_trips[i], reference.mean_round_trips[i])
          << "threads=" << threads << " checkpoint " << i;
      EXPECT_EQ(curve.mean_simulated_seconds[i],
                reference.mean_simulated_seconds[i]);
      EXPECT_EQ(curve.mean_label_cost[i], reference.mean_label_cost[i]);
    }
  }
}

TEST(RemoteOracleRunnerTest, SharedLabelsCutCostWithoutChangingCurves) {
  const testutil::SyntheticPool pool = testutil::MakeSyntheticPool({});
  GroundTruthOracle oracle(pool.truth);
  const double true_f = pool.true_measures.f_alpha;
  const experiments::MethodSpec method = experiments::MakePassiveSpec(0.5);

  experiments::RunnerOptions unshared = BaseRunnerOptions();
  unshared.num_threads = 2;
  unshared.stack.remote = NoJitterOptions();
  const experiments::ErrorCurve curve_unshared =
      experiments::RunErrorCurve(method, pool.scored, oracle, true_f, unshared)
          .ValueOrDie();

  experiments::RunnerOptions shared = unshared;
  shared.stack.share_labels = true;
  const experiments::ErrorCurve curve_shared =
      experiments::RunErrorCurve(method, pool.scored, oracle, true_f, shared)
          .ValueOrDie();

  ASSERT_EQ(curve_shared.budgets, curve_unshared.budgets);
  for (size_t i = 0; i < curve_unshared.budgets.size(); ++i) {
    // Error statistics never move: the store only changes who pays.
    EXPECT_EQ(curve_shared.mean_abs_error[i], curve_unshared.mean_abs_error[i]);
    EXPECT_EQ(curve_shared.mean_estimate[i], curve_unshared.mean_estimate[i]);
    // Costs can only drop when fetches are shared.
    EXPECT_LE(curve_shared.mean_label_cost[i], curve_unshared.mean_label_cost[i]);
    EXPECT_LE(curve_shared.mean_round_trips[i], curve_unshared.mean_round_trips[i]);
  }
  // And on an overlapping workload they must actually drop by the end.
  EXPECT_LT(curve_shared.mean_label_cost.back(),
            curve_unshared.mean_label_cost.back());
}

}  // namespace
}  // namespace oasis
