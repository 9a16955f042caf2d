#include "oracle/label_cache.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "oracle/ground_truth_oracle.h"
#include "oracle/noisy_oracle.h"
#include "oracle/oracle_stack.h"
#include "tests/alloc_counter.h"

namespace oasis {
namespace {

TEST(LabelCacheTest, DeterministicRepeatsAreFree) {
  // Paper footnote 5: a pair counts toward the budget only on first query.
  GroundTruthOracle oracle({1, 0, 1});
  LabelCache cache(&oracle);
  Rng rng(1);

  EXPECT_TRUE(cache.Query(0, rng));
  EXPECT_EQ(cache.labels_consumed(), 1);
  EXPECT_TRUE(cache.Query(0, rng));  // Replay.
  EXPECT_TRUE(cache.Query(0, rng));
  EXPECT_EQ(cache.labels_consumed(), 1);
  EXPECT_EQ(cache.total_queries(), 3);
  EXPECT_EQ(cache.distinct_items_labelled(), 1);

  EXPECT_FALSE(cache.Query(1, rng));
  EXPECT_EQ(cache.labels_consumed(), 2);
}

TEST(LabelCacheTest, CachedLabelsAreConsistent) {
  GroundTruthOracle oracle({1, 0});
  LabelCache cache(&oracle);
  Rng rng(3);
  const bool first = cache.Query(0, rng);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(cache.Query(0, rng), first);
  }
}

TEST(LabelCacheTest, IsLabelledTracksFirstTouch) {
  GroundTruthOracle oracle({1, 0});
  LabelCache cache(&oracle);
  Rng rng(4);
  EXPECT_FALSE(cache.IsLabelled(0));
  cache.Query(0, rng);
  EXPECT_TRUE(cache.IsLabelled(0));
  EXPECT_FALSE(cache.IsLabelled(1));
}

TEST(LabelCacheTest, NoisyOracleChargesEveryQuery) {
  NoisyOracle oracle = NoisyOracle::FromProbabilities({0.5, 0.5}).ValueOrDie();
  LabelCache cache(&oracle);
  Rng rng(5);
  for (int i = 0; i < 7; ++i) cache.Query(0, rng);
  EXPECT_EQ(cache.labels_consumed(), 7);
  EXPECT_EQ(cache.total_queries(), 7);
  EXPECT_EQ(cache.distinct_items_labelled(), 1);
}

TEST(LabelCacheTest, NoisyQueriesAreFreshDraws) {
  NoisyOracle oracle = NoisyOracle::FromProbabilities({0.5}).ValueOrDie();
  LabelCache cache(&oracle);
  Rng rng(6);
  int ones = 0;
  const int n = 2000;
  for (int i = 0; i < n; ++i) ones += cache.Query(0, rng) ? 1 : 0;
  // A caching bug would produce 0 or n; fresh draws give ~n/2.
  EXPECT_GT(ones, n / 3);
  EXPECT_LT(ones, 2 * n / 3);
}

// The served OASIS path: one-item fallible queries on a noisy oracle under
// fault + remote + retry. With faults armed (non-zero rates, so every layer
// takes its fallible code path) but none firing, every layer passes the
// caller's buffers straight down and a query allocates nothing.
TEST(LabelCacheTest, FallibleStackQueryPerformsZeroHeapAllocations) {
  NoisyOracle noisy =
      NoisyOracle::FromProbabilities(std::vector<double>(64, 0.3)).ValueOrDie();
  FaultInjectionOptions faults;
  faults.transient_failure_rate = 1e-12;
  faults.timeout_rate = 1e-12;
  faults.item_drop_rate = 1e-12;
  RetryPolicy policy;
  policy.max_attempts = 8;
  const OracleStack stack = OracleStackBuilder()
                                .FaultInjection(faults)
                                .Remote(RemoteOracleOptions{})
                                .Retry(policy)
                                .Build(&noisy)
                                .ValueOrDie();
  LabelCache cache(&stack.top());
  Rng rng(7);
  ASSERT_TRUE(cache.TryQuery(0, rng).ok());  // Warm-up sizes the scratch.

  constexpr int64_t kQueries = 1000;
  g_allocation_count.store(0);
  g_count_allocations.store(true);
  bool all_ok = true;
  for (int64_t i = 0; i < kQueries; ++i) {
    all_ok = cache.TryQuery(i % noisy.num_items(), rng).ok() && all_ok;
  }
  g_count_allocations.store(false);
  ASSERT_TRUE(all_ok);
  EXPECT_EQ(g_allocation_count.load(), 0);

  // Every label was delivered on its first attempt, through all three layers.
  EXPECT_EQ(cache.labels_consumed(), kQueries + 1);
  EXPECT_EQ(stack.fault_injecting()->stats().attempts, kQueries + 1);
  EXPECT_EQ(stack.fault_injecting()->stats().dropped_items, 0);
  EXPECT_EQ(stack.remote()->stats().labels_fetched, kQueries + 1);
  EXPECT_EQ(stack.retrying()->stats().retries, 0);
}

}  // namespace
}  // namespace oasis
