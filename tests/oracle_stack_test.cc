// OracleStackBuilder tests: the single sanctioned way to compose the repo's
// oracle decorators (base <- FaultInjecting <- Remote <- Retrying). Locks
// the composition order, the ForkSeeds decorrelation contract (bit-equal to
// the experiment runner's historical per-repeat forking), the StackSpec
// config round-trip, the share-without-remote gate, and the deprecated
// RunnerOptions aliases' equivalence to the declarative spec.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/random.h"
#include "experiments/config.h"
#include "experiments/runner.h"
#include "oracle/ground_truth_oracle.h"
#include "oracle/label_cache.h"
#include "oracle/oracle_stack.h"
#include "test_util.h"

namespace oasis {
namespace {

testutil::SyntheticPool SmallPool() {
  testutil::SyntheticPoolOptions options;
  options.size = 400;
  options.match_fraction = 0.08;
  options.seed = 77;
  return testutil::MakeSyntheticPool(options);
}

/// A StackSpec exercising every layer and every non-default field.
StackSpec FullSpec() {
  StackSpec spec;
  FaultInjectionOptions fault;
  fault.transient_failure_rate = 0.125;
  fault.timeout_rate = 0.0625;
  fault.item_drop_rate = 0.03125;
  fault.outage_after_attempts = 33;
  fault.seed = 0x5eedULL;
  spec.fault_injection = fault;
  RemoteOracleOptions remote;
  remote.round_trip_seconds = 3.5;
  remote.per_item_seconds = 0.75;
  remote.cost_per_label = 0.015625;
  remote.jitter_fraction = 0.25;
  remote.jitter_seed = 0xabcdULL;
  remote.max_items_per_round_trip = 64;
  spec.remote = remote;
  RetryPolicy retry;
  retry.max_attempts = 7;
  retry.initial_backoff_seconds = 0.5;
  retry.backoff_multiplier = 1.5;
  retry.max_backoff_seconds = 12.0;
  retry.jitter_fraction = 0.125;
  retry.jitter_seed = 0x1234ULL;
  retry.per_attempt_timeout_seconds = 90.0;
  retry.overall_deadline_seconds = 600.0;
  retry.breaker_failure_threshold = 5;
  retry.breaker_cooldown_calls = 11;
  spec.retry = retry;
  spec.share_labels = true;
  return spec;
}

TEST(OracleStackBuilder, EmptySpecIsPassThrough) {
  const testutil::SyntheticPool pool = SmallPool();
  GroundTruthOracle base(pool.truth);
  const OracleStack stack = OracleStackBuilder().Build(&base).ValueOrDie();
  EXPECT_EQ(&stack.top(), &base);
  EXPECT_EQ(stack.fault_injecting(), nullptr);
  EXPECT_EQ(stack.remote(), nullptr);
  EXPECT_EQ(stack.retrying(), nullptr);
  EXPECT_FALSE(stack.spec().any());
}

TEST(OracleStackBuilder, FullStackComposesInFixedOrder) {
  const testutil::SyntheticPool pool = SmallPool();
  GroundTruthOracle base(pool.truth);
  SharedLabelStore store(base.num_items());
  // Every layer present, but the fault layer kept quiet (FullSpec's rates
  // and outage threshold would take the stack down mid-test).
  StackSpec spec = FullSpec();
  spec.fault_injection = FaultInjectionOptions{};
  const OracleStack stack =
      OracleStackBuilder(spec).ShareLabels(&store).Build(&base).ValueOrDie();
  // Every layer present, retry on top — the oracle a LabelCache talks to.
  ASSERT_NE(stack.fault_injecting(), nullptr);
  ASSERT_NE(stack.remote(), nullptr);
  ASSERT_NE(stack.retrying(), nullptr);
  EXPECT_EQ(&stack.top(), stack.retrying());
  EXPECT_EQ(stack.retrying()->policy().max_attempts, 7);

  // Labels still flow end to end through the whole stack, verbatim.
  LabelCache labels(&stack.top());
  Rng rng(5);
  for (int64_t i = 0; i < 50; ++i) {
    EXPECT_EQ(labels.TryQuery(i, rng).ValueOrDie(),
              pool.truth[static_cast<size_t>(i)] != 0)
        << "item " << i;
  }
}

TEST(OracleStackBuilder, MovingTheStackKeepsLayerAddressesStable) {
  const testutil::SyntheticPool pool = SmallPool();
  GroundTruthOracle base(pool.truth);
  SharedLabelStore store(base.num_items());
  OracleStack stack = OracleStackBuilder(FullSpec())
                          .ShareLabels(&store)
                          .Build(&base)
                          .ValueOrDie();
  const Oracle* top_before = &stack.top();
  const OracleStack moved = std::move(stack);
  EXPECT_EQ(&moved.top(), top_before);
}

TEST(OracleStackBuilder, ForkSeedsMatchesHistoricRunnerForking) {
  const testutil::SyntheticPool pool = SmallPool();
  GroundTruthOracle base(pool.truth);
  SharedLabelStore store(base.num_items());
  const StackSpec spec = FullSpec();
  for (const uint64_t stream : {uint64_t{0}, uint64_t{3}, uint64_t{41}}) {
    const OracleStack stack = OracleStackBuilder(spec)
                                  .ShareLabels(&store)
                                  .ForkSeeds(stream)
                                  .Build(&base)
                                  .ValueOrDie();
    // The exact per-repeat derivation the experiment runner has always used:
    // seed' = Rng::Fork(seed, repeat).NextUint64().
    EXPECT_EQ(stack.spec().fault_injection->seed,
              Rng::Fork(spec.fault_injection->seed, stream).NextUint64());
    EXPECT_EQ(stack.spec().remote->jitter_seed,
              Rng::Fork(spec.remote->jitter_seed, stream).NextUint64());
    // Everything else in the spec is untouched by forking.
    EXPECT_EQ(stack.spec().fault_injection->transient_failure_rate,
              spec.fault_injection->transient_failure_rate);
    EXPECT_EQ(stack.spec().remote->round_trip_seconds,
              spec.remote->round_trip_seconds);
  }
  // Without ForkSeeds the seeds pass through verbatim.
  const OracleStack unforked =
      OracleStackBuilder(spec).ShareLabels(&store).Build(&base).ValueOrDie();
  EXPECT_EQ(unforked.spec().fault_injection->seed, spec.fault_injection->seed);
  EXPECT_EQ(unforked.spec().remote->jitter_seed, spec.remote->jitter_seed);
}

TEST(OracleStackBuilder, ShareLabelsRequiresARemoteLayer) {
  const testutil::SyntheticPool pool = SmallPool();
  GroundTruthOracle base(pool.truth);
  SharedLabelStore store(base.num_items());
  const Result<OracleStack> no_wire =
      OracleStackBuilder().ShareLabels(&store).Build(&base);
  ASSERT_FALSE(no_wire.ok());
  EXPECT_EQ(no_wire.status().code(), StatusCode::kInvalidArgument);

  // A spec that claims sharing but configures no remote fails the same way
  // even when no store is attached.
  StackSpec spec;
  spec.share_labels = true;
  EXPECT_FALSE(OracleStackBuilder(spec).Build(&base).ok());

  // Null base is rejected before anything is composed.
  EXPECT_FALSE(OracleStackBuilder().Build(nullptr).ok());
}

/// `text` (config lines) with the value of `key` replaced by `value`.
std::string WithValue(const std::string& text, const std::string& key,
                      const std::string& value) {
  const std::string prefix = key + " = ";
  const size_t begin = text.find(prefix);
  EXPECT_NE(begin, std::string::npos) << key;
  const size_t end = text.find('\n', begin);
  return text.substr(0, begin) + prefix + value + text.substr(end);
}

/// Builds the stack of the config `text` describes over `base`.
Result<OracleStack> BuildFromConfig(const std::string& text,
                                    const Oracle& base) {
  const experiments::ConfigMap config =
      experiments::ConfigMap::Parse(text).ValueOrDie();
  OASIS_ASSIGN_OR_RETURN(const StackSpec spec,
                         experiments::StackSpecFromConfig(config, "stack_"));
  return OracleStackBuilder(spec).Build(&base);
}

// Every option the three decorators' constructors check, set out of range
// (and to NaN where it is a double) through its config key: Build returns
// InvalidArgument naming that key instead of aborting, and the boundary
// values on the valid side still build. The int options also reject values
// past int's range at parse (4294967297 = 2^32 + 1 would wrap to 1).
TEST(OracleStackBuilder, RejectsEveryOutOfRangeOptionByName) {
  const testutil::SyntheticPool pool = SmallPool();
  GroundTruthOracle base(pool.truth);
  std::string text;
  experiments::AppendStackSpecConfig(FullSpec(), "stack_", &text);
  ASSERT_TRUE(BuildFromConfig(text, base).ok());

  struct Case {
    const char* key;
    std::vector<const char*> bad;
    const char* boundary;
  };
  const std::vector<Case> cases = {
      {"stack_fault_transient_rate", {"-0.25", "1.5", "nan"}, "1"},
      {"stack_fault_timeout_rate", {"-0.25", "1.5", "nan"}, "1"},
      {"stack_fault_item_drop_rate", {"-0.25", "1.5", "nan"}, "1"},
      {"stack_remote_round_trip_seconds", {"-1", "nan"}, "0"},
      {"stack_remote_per_item_seconds", {"-1", "nan"}, "0"},
      {"stack_remote_cost_per_label", {"-1", "nan"}, "0"},
      {"stack_remote_jitter_fraction", {"-0.25", "1", "nan"}, "0"},
      {"stack_remote_max_items_per_trip", {"-1"}, "0"},
      {"stack_retry_max_attempts", {"0", "-3"}, "1"},
      {"stack_retry_max_attempts",
       {"2147483648", "-2147483649", "4294967297"},
       "2147483647"},
      {"stack_retry_breaker_threshold",
       {"2147483648", "-2147483649", "4294967297"},
       "2147483647"},
      {"stack_retry_initial_backoff_seconds", {"-1", "nan"}, "0"},
      {"stack_retry_backoff_multiplier", {"0.5", "nan"}, "1"},
      {"stack_retry_max_backoff_seconds", {"-1", "nan"}, "0"},
      {"stack_retry_jitter_fraction", {"-0.25", "1", "nan"}, "0"},
      {"stack_retry_per_attempt_timeout_seconds", {"-1", "nan"}, "0"},
      {"stack_retry_overall_deadline_seconds", {"-1", "nan"}, "0"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.key);
    for (const char* value : c.bad) {
      SCOPED_TRACE(value);
      const Result<OracleStack> built =
          BuildFromConfig(WithValue(text, c.key, value), base);
      ASSERT_FALSE(built.ok());
      EXPECT_EQ(built.status().code(), StatusCode::kInvalidArgument);
      EXPECT_NE(built.status().message().find(c.key), std::string::npos)
          << built.status().message();
    }
    EXPECT_TRUE(BuildFromConfig(WithValue(text, c.key, c.boundary), base).ok());
  }
}

TEST(OracleStackBuilder, StackSpecConfigRoundTripsValueExactly) {
  const StackSpec spec = FullSpec();
  std::string text;
  experiments::AppendStackSpecConfig(spec, "stack_", &text);
  const experiments::ConfigMap config =
      experiments::ConfigMap::Parse(text).ValueOrDie();
  const StackSpec back =
      experiments::StackSpecFromConfig(config, "stack_").ValueOrDie();
  ASSERT_TRUE(config.CheckAllKeysUsed().ok());

  ASSERT_TRUE(back.fault_injection.has_value());
  EXPECT_EQ(back.fault_injection->transient_failure_rate,
            spec.fault_injection->transient_failure_rate);
  EXPECT_EQ(back.fault_injection->timeout_rate,
            spec.fault_injection->timeout_rate);
  EXPECT_EQ(back.fault_injection->item_drop_rate,
            spec.fault_injection->item_drop_rate);
  EXPECT_EQ(back.fault_injection->outage_after_attempts,
            spec.fault_injection->outage_after_attempts);
  EXPECT_EQ(back.fault_injection->seed, spec.fault_injection->seed);
  ASSERT_TRUE(back.remote.has_value());
  EXPECT_EQ(back.remote->round_trip_seconds, spec.remote->round_trip_seconds);
  EXPECT_EQ(back.remote->per_item_seconds, spec.remote->per_item_seconds);
  EXPECT_EQ(back.remote->cost_per_label, spec.remote->cost_per_label);
  EXPECT_EQ(back.remote->jitter_fraction, spec.remote->jitter_fraction);
  EXPECT_EQ(back.remote->jitter_seed, spec.remote->jitter_seed);
  EXPECT_EQ(back.remote->max_items_per_round_trip,
            spec.remote->max_items_per_round_trip);
  ASSERT_TRUE(back.retry.has_value());
  EXPECT_EQ(back.retry->max_attempts, spec.retry->max_attempts);
  EXPECT_EQ(back.retry->initial_backoff_seconds,
            spec.retry->initial_backoff_seconds);
  EXPECT_EQ(back.retry->backoff_multiplier, spec.retry->backoff_multiplier);
  EXPECT_EQ(back.retry->max_backoff_seconds, spec.retry->max_backoff_seconds);
  EXPECT_EQ(back.retry->jitter_fraction, spec.retry->jitter_fraction);
  EXPECT_EQ(back.retry->jitter_seed, spec.retry->jitter_seed);
  EXPECT_EQ(back.retry->per_attempt_timeout_seconds,
            spec.retry->per_attempt_timeout_seconds);
  EXPECT_EQ(back.retry->overall_deadline_seconds,
            spec.retry->overall_deadline_seconds);
  EXPECT_EQ(back.retry->breaker_failure_threshold,
            spec.retry->breaker_failure_threshold);
  EXPECT_EQ(back.retry->breaker_cooldown_calls,
            spec.retry->breaker_cooldown_calls);
  EXPECT_TRUE(back.share_labels);

  // An empty spec serialises to nothing and parses back empty.
  std::string empty;
  experiments::AppendStackSpecConfig(StackSpec{}, "stack_", &empty);
  EXPECT_TRUE(empty.empty());
}

}  // namespace
}  // namespace oasis
