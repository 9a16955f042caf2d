#include "oracle/label_cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <numeric>
#include <span>
#include <utility>
#include <vector>

#include "oracle/fault_injecting_oracle.h"
#include "oracle/ground_truth_oracle.h"
#include "oracle/noisy_oracle.h"
#include "oracle/oracle_stack.h"
#include "tests/alloc_counter.h"

namespace oasis {
namespace {

/// Chaos seed override for CI sweeps (docs/FAULT_MODEL.md); a plain test run
/// uses a fixed value, so it is reproducible.
uint64_t ChaosSeed() {
  const char* env = std::getenv("OASIS_CHAOS_SEED");
  if (env == nullptr || *env == '\0') return 0xfa17ULL;
  return static_cast<uint64_t>(std::strtoull(env, nullptr, 10));
}

/// The cache's byte-per-item state machine, kept as a reference for the
/// packed bitmaps: 0 = never queried, 1 = cached label 0, 2 = cached label 1,
/// 3 = noisy first touch, 4 = deterministic miss pending inside a QueryBatch
/// call (rolled back to 0 if the batch fails). It makes the same oracle calls
/// in the same order as LabelCache, so over an identically seeded oracle the
/// two must agree on every label, status and counter.
class ByteCacheReference {
 public:
  explicit ByteCacheReference(const Oracle* oracle)
      : oracle_(oracle),
        deterministic_(oracle->deterministic()),
        fallible_(oracle->fallible()),
        state_(static_cast<size_t>(oracle->num_items()), 0) {}

  bool Query(int64_t item, Rng& rng) {
    ++total_queries_;
    uint8_t& state = state_[static_cast<size_t>(item)];
    if (deterministic_) {
      if (state != 0) return state == 2;
      const bool label = oracle_->Label(item, rng);
      state = label ? 2 : 1;
      ++labels_consumed_;
      ++distinct_items_;
      return label;
    }
    if (state == 0) {
      state = 3;
      ++distinct_items_;
    }
    ++labels_consumed_;
    return oracle_->Label(item, rng);
  }

  Result<bool> TryQuery(int64_t item, Rng& rng) {
    if (!fallible_) return Query(item, rng);
    uint8_t label = 0;
    OASIS_RETURN_NOT_OK(QueryBatch(std::span<const int64_t>(&item, 1), rng,
                                   std::span<uint8_t>(&label, 1)));
    return label != 0;
  }

  Status QueryBatch(std::span<const int64_t> items, Rng& rng,
                    std::span<uint8_t> out) {
    total_queries_ += static_cast<int64_t>(items.size());
    if (items.empty()) return Status::OK();
    return deterministic_ ? DeterministicBatch(items, rng, out)
                          : NoisyBatch(items, rng, out);
  }

  int64_t labels_consumed() const { return labels_consumed_; }
  int64_t total_queries() const { return total_queries_; }
  int64_t distinct_items_labelled() const { return distinct_items_; }
  bool IsLabelled(int64_t item) const {
    return state_[static_cast<size_t>(item)] != 0;
  }

 private:
  static Status NoProgress() {
    return Status::Unavailable(
        "LabelCache::QueryBatch: oracle made no progress on partial batch");
  }

  // One round trip: TryLabelBatch over a fallible oracle, else LabelBatch
  // with every item resolved.
  Status RoundTrip(const std::vector<int64_t>& items, Rng& rng,
                   std::vector<uint8_t>& labels,
                   std::vector<uint8_t>& resolved) const {
    labels.assign(items.size(), 0);
    resolved.assign(items.size(), 1);
    if (!fallible_) {
      oracle_->LabelBatch(items, rng, labels);
      return Status::OK();
    }
    return oracle_->TryLabelBatch(items, rng, labels, resolved);
  }

  // Every resolved draw is charged; unresolved positions are re-requested
  // until all resolve, the oracle fails, or a round makes no progress.
  Status NoisyBatch(std::span<const int64_t> items, Rng& rng,
                    std::span<uint8_t> out) {
    std::vector<size_t> pending(items.size());
    std::iota(pending.begin(), pending.end(), size_t{0});
    std::vector<int64_t> request;
    std::vector<uint8_t> labels;
    std::vector<uint8_t> resolved;
    for (;;) {
      request.clear();
      for (size_t pos : pending) request.push_back(items[pos]);
      const Status status = RoundTrip(request, rng, labels, resolved);
      std::vector<size_t> still;
      for (size_t j = 0; j < pending.size(); ++j) {
        if (resolved[j] == 0) {
          still.push_back(pending[j]);
          continue;
        }
        out[pending[j]] = labels[j];
        uint8_t& state = state_[static_cast<size_t>(items[pending[j]])];
        if (state == 0) {
          state = 3;
          ++distinct_items_;
        }
        ++labels_consumed_;
      }
      OASIS_RETURN_NOT_OK(status);
      if (still.empty()) return Status::OK();
      if (still.size() == pending.size()) return NoProgress();
      pending = std::move(still);
    }
  }

  // First-occurrence misses are marked pending (4) and labelled by round
  // trips until all resolve; if the oracle fails or stalls, the unresolved
  // ones roll back to 0.
  Status DeterministicBatch(std::span<const int64_t> items, Rng& rng,
                            std::span<uint8_t> out) {
    std::vector<int64_t> misses;
    for (int64_t item : items) {
      uint8_t& state = state_[static_cast<size_t>(item)];
      if (state == 0) {
        state = 4;
        misses.push_back(item);
      }
    }
    std::vector<uint8_t> labels;
    std::vector<uint8_t> resolved;
    while (!misses.empty()) {
      const Status status = RoundTrip(misses, rng, labels, resolved);
      std::vector<int64_t> still;
      for (size_t i = 0; i < misses.size(); ++i) {
        if (resolved[i] == 0) {
          still.push_back(misses[i]);
          continue;
        }
        state_[static_cast<size_t>(misses[i])] = labels[i] != 0 ? 2 : 1;
        ++labels_consumed_;
        ++distinct_items_;
      }
      if (!status.ok() || still.size() == misses.size()) {
        for (int64_t item : still) state_[static_cast<size_t>(item)] = 0;
        return status.ok() ? NoProgress() : status;
      }
      misses = std::move(still);
    }
    for (size_t i = 0; i < items.size(); ++i) {
      out[i] = state_[static_cast<size_t>(items[i])] == 2 ? 1 : 0;
    }
    return Status::OK();
  }

  const Oracle* oracle_;
  bool deterministic_;
  bool fallible_;
  std::vector<uint8_t> state_;
  int64_t labels_consumed_ = 0;
  int64_t total_queries_ = 0;
  int64_t distinct_items_ = 0;
};

/// Pool sizes around the 64-item word: a lone item, both sides of one and
/// two words, a partial last word, and the serve-noisy-stack pool.
constexpr int64_t kDiffPoolSizes[] = {1, 63, 64, 65, 127, 129, 20000};

/// Drives a LabelCache and a ByteCacheReference through the same seeded mix
/// of Query / TryQuery / QueryBatch calls (batches repeat items), each over
/// its own copy of `base` — behind its own FaultInjectingOracle when
/// `faulty`, so batches fail, come back partial and roll back. After every
/// call compares labels, status, the three counters and IsLabelled for every
/// item. Returns the number of calls that failed.
int64_t ExpectMatchesByteReference(const Oracle& base, bool faulty,
                                   uint64_t seed) {
  FaultInjectionOptions faults;
  faults.transient_failure_rate = 0.15;
  faults.timeout_rate = 0.1;
  faults.item_drop_rate = 0.25;
  faults.outage_after_attempts = 150;
  faults.seed = seed;
  FaultInjectingOracle packed_faults(&base, faults);
  FaultInjectingOracle reference_faults(&base, faults);
  LabelCache cache(faulty ? &packed_faults : &base);
  ByteCacheReference reference(faulty ? &reference_faults : &base);

  const int64_t n = base.num_items();
  Rng packed_rng(seed + 1);
  Rng reference_rng(seed + 1);
  Rng call_rng(seed + 2);
  // Half the draws come from a small hot range, so items repeat across and
  // within calls even in the 20,000-item pool.
  const auto draw_item = [&] {
    const int64_t range =
        call_rng.NextBernoulli(0.5) ? std::min<int64_t>(n, 40) : n;
    return static_cast<int64_t>(
        call_rng.NextBounded(static_cast<uint64_t>(range)));
  };
  std::vector<int64_t> batch;
  std::vector<uint8_t> packed_labels;
  std::vector<uint8_t> reference_labels;
  int64_t failed = 0;
  constexpr int kCalls = 300;
  for (int call = 0; call < kCalls; ++call) {
    SCOPED_TRACE(testing::Message() << "n=" << n << " faulty=" << faulty
                                    << " call=" << call);
    const uint64_t kind = call_rng.NextBounded(3);
    if (kind == 0) {
      const int64_t item = draw_item();
      EXPECT_EQ(cache.Query(item, packed_rng),
                reference.Query(item, reference_rng));
    } else if (kind == 1) {
      const int64_t item = draw_item();
      const Result<bool> got = cache.TryQuery(item, packed_rng);
      const Result<bool> want = reference.TryQuery(item, reference_rng);
      EXPECT_EQ(got.status(), want.status());
      if (got.ok() && want.ok()) {
        EXPECT_EQ(got.ValueOrDie(), want.ValueOrDie());
      }
      failed += got.ok() ? 0 : 1;
    } else {
      batch.resize(1 + call_rng.NextBounded(12));
      for (int64_t& item : batch) item = draw_item();
      if (batch.size() > 1 && call_rng.NextBernoulli(0.5)) {
        batch.back() = batch.front();
      }
      packed_labels.assign(batch.size(), 0);
      reference_labels.assign(batch.size(), 0);
      const Status got = cache.QueryBatch(batch, packed_rng, packed_labels);
      const Status want =
          reference.QueryBatch(batch, reference_rng, reference_labels);
      EXPECT_EQ(got, want);
      if (got.ok() && want.ok()) {
        EXPECT_EQ(packed_labels, reference_labels);
      }
      failed += got.ok() ? 0 : 1;
    }
    EXPECT_EQ(cache.labels_consumed(), reference.labels_consumed());
    EXPECT_EQ(cache.total_queries(), reference.total_queries());
    EXPECT_EQ(cache.distinct_items_labelled(),
              reference.distinct_items_labelled());
    int64_t mismatched = 0;
    for (int64_t item = 0; item < n; ++item) {
      mismatched += cache.IsLabelled(item) != reference.IsLabelled(item);
    }
    EXPECT_EQ(mismatched, 0);
    if (testing::Test::HasFailure()) break;
  }
  return failed;
}

/// Runs ExpectMatchesByteReference on `make_oracle(n)` for every pool size,
/// reliable (no call may fail) and faulty; returns the faulty runs' failed
/// calls.
template <typename MakeOracle>
int64_t FailedCallsAcrossPoolSizes(const MakeOracle& make_oracle) {
  int64_t failed = 0;
  for (const int64_t n : kDiffPoolSizes) {
    const auto oracle = make_oracle(n);
    const uint64_t seed = ChaosSeed() + static_cast<uint64_t>(n);
    EXPECT_EQ(ExpectMatchesByteReference(oracle, /*faulty=*/false, seed), 0);
    failed += ExpectMatchesByteReference(oracle, /*faulty=*/true, seed);
  }
  return failed;
}

TEST(LabelCacheTest, DeterministicMatchesByteReference) {
  const int64_t failed = FailedCallsAcrossPoolSizes([](int64_t n) {
    Rng rng(static_cast<uint64_t>(n));
    std::vector<uint8_t> truth(static_cast<size_t>(n));
    for (uint8_t& t : truth) t = rng.NextBernoulli(0.4) ? 1 : 0;
    return GroundTruthOracle(std::move(truth));
  });
  EXPECT_GT(failed, 0);  // The faulty runs really rolled batches back.
}

TEST(LabelCacheTest, NoisyMatchesByteReference) {
  const int64_t failed = FailedCallsAcrossPoolSizes([](int64_t n) {
    Rng rng(static_cast<uint64_t>(n));
    std::vector<double> probabilities(static_cast<size_t>(n));
    for (double& p : probabilities) p = rng.NextDouble();
    return NoisyOracle::FromProbabilities(std::move(probabilities))
        .ValueOrDie();
  });
  EXPECT_GT(failed, 0);
}

// At most two bits per pool item: a noisy oracle's cache keeps one bitmap
// (first touch), a deterministic one's two (seen, cached label). A return to
// one byte per item (20,000 bytes here) fails this.
TEST(LabelCacheTest, FootprintIsAtMostTwoBitsPerItem) {
  constexpr int64_t kItems = 20000;
  constexpr int64_t kBitmapBytes = (kItems + 63) / 64 * 8;
  constexpr int64_t kFixedBytes = 64;
  const auto bytes_allocated = [](const Oracle& oracle) {
    g_allocated_bytes.store(0);
    g_count_allocations.store(true);
    { const LabelCache cache(&oracle); }
    g_count_allocations.store(false);
    return g_allocated_bytes.load();
  };
  const NoisyOracle noisy =
      NoisyOracle::FromProbabilities(std::vector<double>(kItems, 0.5))
          .ValueOrDie();
  const GroundTruthOracle truth(std::vector<uint8_t>(kItems, 1));
  EXPECT_LE(bytes_allocated(noisy), kBitmapBytes + kFixedBytes);
  EXPECT_LE(bytes_allocated(truth), 2 * kBitmapBytes + kFixedBytes);
}

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
