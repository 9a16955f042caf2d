// FaultInjectingOracle tests: the chaos schedule is deterministic (a pure
// function of options + attempt sequence, independent of the caller's RNG),
// each failure kind maps to its documented status, partial batches drop the
// scheduled items while delegating the survivors verbatim, and a zero-rate
// schedule is a transparent pass-through.
//
// Chaos tests honour OASIS_CHAOS_SEED (see docs/FAULT_MODEL.md): assertions
// are seed-independent — they check the failure taxonomy and label fidelity,
// never a particular fault landing on a particular attempt.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <vector>

#include "common/random.h"
#include "oracle/fault_injecting_oracle.h"
#include "oracle/ground_truth_oracle.h"

namespace oasis {
namespace {

/// Chaos seed override for CI sweeps; defaults to a fixed value so a plain
/// test run is reproducible.
uint64_t ChaosSeed() {
  const char* env = std::getenv("OASIS_CHAOS_SEED");
  if (env == nullptr || *env == '\0') return 0xfa17ULL;
  return static_cast<uint64_t>(std::strtoull(env, nullptr, 10));
}

std::vector<uint8_t> MakeTruth(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint8_t> truth(n);
  for (auto& t : truth) t = rng.NextBernoulli(0.4) ? 1 : 0;
  return truth;
}

TEST(FaultInjectingOracleTest, ZeroRateScheduleIsTransparent) {
  const std::vector<uint8_t> truth = MakeTruth(64, 11);
  GroundTruthOracle inner(truth);
  FaultInjectingOracle oracle(&inner, FaultInjectionOptions{});
  EXPECT_TRUE(oracle.fallible());
  EXPECT_EQ(oracle.num_items(), inner.num_items());
  EXPECT_EQ(oracle.deterministic(), inner.deterministic());
  EXPECT_EQ(oracle.labelling_consumes_rng(), inner.labelling_consumes_rng());

  std::vector<int64_t> items;
  for (int64_t i = 0; i < 64; ++i) items.push_back(i);
  std::vector<uint8_t> out(items.size(), 0xcc);
  std::vector<uint8_t> resolved(items.size(), 0);
  Rng rng(12);
  ASSERT_TRUE(oracle.TryLabelBatch(items, rng, out, resolved).ok());
  for (size_t i = 0; i < items.size(); ++i) {
    EXPECT_NE(resolved[i], 0) << "position " << i;
    EXPECT_EQ(out[i], truth[i]) << "position " << i;
  }
  // Even the zero-fault fast path consumes an attempt number, so splicing
  // faults in later never renumbers the schedule suffix.
  EXPECT_EQ(oracle.stats().attempts, 1);
  EXPECT_EQ(oracle.stats().injected_failures, 0);
  EXPECT_EQ(oracle.stats().dropped_items, 0);
}

TEST(FaultInjectingOracleTest, ScheduleIsDeterministicAndCallerRngFree) {
  const std::vector<uint8_t> truth = MakeTruth(100, 21);
  GroundTruthOracle inner(truth);
  FaultInjectionOptions options;
  options.transient_failure_rate = 0.3;
  options.timeout_rate = 0.2;
  options.item_drop_rate = 0.25;
  options.seed = ChaosSeed();

  // Two decorators on the same schedule, driven with DIFFERENT caller RNGs:
  // the fault pattern must be identical attempt for attempt.
  FaultInjectingOracle a(&inner, options);
  FaultInjectingOracle b(&inner, options);
  Rng rng_a(1);
  Rng rng_b(999);
  std::vector<int64_t> items{5, 17, 3, 42, 99, 0, 63, 28};
  for (int attempt = 0; attempt < 200; ++attempt) {
    std::vector<uint8_t> out_a(items.size()), out_b(items.size());
    std::vector<uint8_t> res_a(items.size()), res_b(items.size());
    const Status sa = a.TryLabelBatch(items, rng_a, out_a, res_a);
    const Status sb = b.TryLabelBatch(items, rng_b, out_b, res_b);
    EXPECT_EQ(sa.code(), sb.code()) << "attempt " << attempt;
    EXPECT_EQ(res_a, res_b) << "attempt " << attempt;
    for (size_t i = 0; i < items.size(); ++i) {
      if (res_a[i] != 0) {
        // Whatever got through is the inner oracle's verbatim answer.
        EXPECT_EQ(out_a[i], truth[static_cast<size_t>(items[i])]);
        EXPECT_EQ(out_b[i], truth[static_cast<size_t>(items[i])]);
      }
    }
  }
  const FaultInjectionStats stats = a.stats();
  EXPECT_EQ(stats.attempts, 200);
  EXPECT_EQ(stats.injected_failures, b.stats().injected_failures);
  EXPECT_EQ(stats.injected_timeouts, b.stats().injected_timeouts);
  EXPECT_EQ(stats.dropped_items, b.stats().dropped_items);
  // With these rates over 200 attempts, every fault kind fires (true for any
  // seed with overwhelming probability; rates are not tuned to a seed).
  EXPECT_GT(stats.injected_failures, 0);
  EXPECT_GT(stats.injected_timeouts, 0);
  EXPECT_GT(stats.dropped_items, 0);
}

// Pins the documented draw order: attempt a's outcome is recomputed here,
// independently, from Rng::Fork(seed, a) — the transient draw, then the
// timeout draw, then one Bernoulli per item in item order — and must match
// what the decorator reports, call for call, for one-item (the served OASIS
// step) and 8-item batches alike.
TEST(FaultInjectingOracleTest, ScheduleMatchesIndependentRecomputation) {
  const std::vector<uint8_t> truth = MakeTruth(500, 23);
  GroundTruthOracle inner(truth);
  FaultInjectionOptions options;
  options.transient_failure_rate = 0.1;
  options.timeout_rate = 0.1;
  options.item_drop_rate = 0.2;
  options.seed = ChaosSeed();
  FaultInjectingOracle oracle(&inner, options);

  constexpr int kCallsPerSize = 10000;
  Rng rng(5);
  uint64_t attempt = 0;
  int64_t expected_dropped = 0;
  for (const size_t batch_size : {size_t{1}, size_t{8}}) {
    for (int call = 0; call < kCallsPerSize; ++call, ++attempt) {
      std::vector<int64_t> items(batch_size);
      for (size_t i = 0; i < batch_size; ++i) {
        items[i] = static_cast<int64_t>((attempt * 31 + i * 7) % truth.size());
      }
      std::vector<uint8_t> out(batch_size, 0xcc);
      std::vector<uint8_t> resolved(batch_size, 0xee);
      const Status status = oracle.TryLabelBatch(items, rng, out, resolved);

      Rng fault_rng = Rng::Fork(options.seed, attempt);
      StatusCode expected_code = StatusCode::kOk;
      std::vector<uint8_t> expected_resolved(batch_size, 0);
      if (fault_rng.NextDouble() < options.transient_failure_rate) {
        expected_code = StatusCode::kUnavailable;
      } else if (fault_rng.NextDouble() < options.timeout_rate) {
        expected_code = StatusCode::kDeadlineExceeded;
      } else {
        for (size_t i = 0; i < batch_size; ++i) {
          const bool dropped = fault_rng.NextBernoulli(options.item_drop_rate);
          expected_resolved[i] = dropped ? 0 : 1;
          expected_dropped += dropped ? 1 : 0;
        }
      }
      ASSERT_EQ(status.code(), expected_code) << "attempt " << attempt;
      ASSERT_EQ(resolved, expected_resolved) << "attempt " << attempt;
      ASSERT_EQ(oracle.stats().dropped_items, expected_dropped)
          << "attempt " << attempt;
      for (size_t i = 0; i < batch_size; ++i) {
        if (resolved[i] != 0) {
          EXPECT_EQ(out[i], truth[static_cast<size_t>(items[i])]);
        }
      }
    }
  }
  EXPECT_EQ(oracle.stats().attempts, static_cast<int64_t>(attempt));
  EXPECT_GT(expected_dropped, 0);
}

TEST(FaultInjectingOracleTest, FailureKindsMapToDocumentedStatuses) {
  const std::vector<uint8_t> truth = MakeTruth(32, 31);
  GroundTruthOracle inner(truth);
  const std::vector<int64_t> items{1, 2, 3, 4};

  {
    FaultInjectionOptions options;
    options.transient_failure_rate = 1.0;
    options.seed = ChaosSeed();
    FaultInjectingOracle oracle(&inner, options);
    std::vector<uint8_t> out(items.size()), resolved(items.size(), 0xee);
    Rng rng(1);
    const Status status = oracle.TryLabelBatch(items, rng, out, resolved);
    EXPECT_EQ(status.code(), StatusCode::kUnavailable);
    for (uint8_t r : resolved) EXPECT_EQ(r, 0);
  }
  {
    FaultInjectionOptions options;
    options.timeout_rate = 1.0;
    options.seed = ChaosSeed();
    FaultInjectingOracle oracle(&inner, options);
    std::vector<uint8_t> out(items.size()), resolved(items.size(), 0xee);
    Rng rng(1);
    const Status status = oracle.TryLabelBatch(items, rng, out, resolved);
    EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded);
    for (uint8_t r : resolved) EXPECT_EQ(r, 0);
    EXPECT_EQ(oracle.stats().injected_timeouts, 1);
  }
  {
    // Full drop rate: the attempt "succeeds" but resolves nothing — the
    // partial-batch contract's extreme case.
    FaultInjectionOptions options;
    options.item_drop_rate = 1.0;
    options.seed = ChaosSeed();
    FaultInjectingOracle oracle(&inner, options);
    std::vector<uint8_t> out(items.size()), resolved(items.size(), 0xee);
    Rng rng(1);
    ASSERT_TRUE(oracle.TryLabelBatch(items, rng, out, resolved).ok());
    for (uint8_t r : resolved) EXPECT_EQ(r, 0);
    EXPECT_EQ(oracle.stats().dropped_items,
              static_cast<int64_t>(items.size()));
  }
}

TEST(FaultInjectingOracleTest, PartialBatchResolvesExactlyTheKeptSubset) {
  const std::vector<uint8_t> truth = MakeTruth(256, 41);
  GroundTruthOracle inner(truth);
  FaultInjectionOptions options;
  options.item_drop_rate = 0.5;
  options.seed = ChaosSeed();
  FaultInjectingOracle oracle(&inner, options);

  std::vector<int64_t> items;
  for (int64_t i = 0; i < 256; ++i) items.push_back((i * 7) % 256);
  std::vector<uint8_t> out(items.size(), 0xcc);
  std::vector<uint8_t> resolved(items.size(), 0xee);
  Rng rng(7);
  ASSERT_TRUE(oracle.TryLabelBatch(items, rng, out, resolved).ok());

  int64_t kept = 0;
  for (size_t i = 0; i < items.size(); ++i) {
    if (resolved[i] != 0) {
      ++kept;
      EXPECT_EQ(out[i], truth[static_cast<size_t>(items[i])]) << "position " << i;
    }
  }
  // Half-rate drops on 256 items: both outcomes occur (seed-independent with
  // overwhelming probability).
  EXPECT_GT(kept, 0);
  EXPECT_LT(kept, static_cast<int64_t>(items.size()));
  EXPECT_EQ(oracle.stats().dropped_items,
            static_cast<int64_t>(items.size()) - kept);
}

TEST(FaultInjectingOracleTest, OutageRefusesEveryAttemptAfterGracePeriod) {
  const std::vector<uint8_t> truth = MakeTruth(16, 51);
  GroundTruthOracle inner(truth);
  FaultInjectionOptions options;
  options.outage_after_attempts = 3;
  options.seed = ChaosSeed();
  FaultInjectingOracle oracle(&inner, options);

  const std::vector<int64_t> items{0, 1, 2};
  Rng rng(9);
  for (int attempt = 0; attempt < 10; ++attempt) {
    std::vector<uint8_t> out(items.size()), resolved(items.size());
    const Status status = oracle.TryLabelBatch(items, rng, out, resolved);
    if (attempt < 3) {
      EXPECT_TRUE(status.ok()) << "attempt " << attempt;
    } else {
      EXPECT_EQ(status.code(), StatusCode::kUnavailable) << "attempt " << attempt;
      for (uint8_t r : resolved) EXPECT_EQ(r, 0);
    }
  }
  EXPECT_EQ(oracle.stats().outage_failures, 7);
}

TEST(FaultInjectingOracleTest, InfalliblePathsBypassInjection) {
  const std::vector<uint8_t> truth = MakeTruth(32, 61);
  GroundTruthOracle inner(truth);
  FaultInjectionOptions options;
  options.transient_failure_rate = 1.0;  // Would fail every fallible attempt.
  FaultInjectingOracle oracle(&inner, options);

  Rng rng(3);
  EXPECT_EQ(oracle.Label(5, rng), truth[5] != 0);
  const std::vector<int64_t> items{0, 7, 31};
  std::vector<uint8_t> out(items.size());
  oracle.LabelBatch(items, rng, out);
  for (size_t i = 0; i < items.size(); ++i) {
    EXPECT_EQ(out[i], truth[static_cast<size_t>(items[i])]);
  }
  EXPECT_EQ(oracle.TrueProbability(5), inner.TrueProbability(5));
}

}  // namespace
}  // namespace oasis
