// RetryingOracle / CircuitBreaker tests, from the unit level up to the
// experiment runner:
//  * the breaker's closed -> open -> half-open state machine, including the
//    disabled (threshold 0) mode;
//  * retries recover transient failures and re-request ONLY missing items;
//  * backoff time lands on the RemoteOracle's simulated clock, per-attempt
//    timeouts discard late labels, the overall deadline stops the loop;
//  * give-ups surface the last failure with partial progress intact;
//  * the headline robustness guarantee: a fault-injected run with retries on
//    produces BIT-IDENTICAL error curves to a fault-free run at any thread
//    count, while a permanent outage surfaces kUnavailable/kDeadlineExceeded
//    from RunErrorCurve instead of crashing;
//  * the same guarantee in the served regime — fused OASIS, K=30, one-item
//    label requests on a noisy oracle under fault + remote + retry;
//  * WriteCurvesCsv carries the retries/give_ups and ess columns.
//
// Chaos assertions are OASIS_CHAOS_SEED-independent: they compare against a
// fault-free baseline or check the failure taxonomy, never a particular
// fault landing on a particular attempt.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/random.h"
#include "datagen/scenario.h"
#include "experiments/csv.h"
#include "experiments/runner.h"
#include "oracle/fault_injecting_oracle.h"
#include "oracle/ground_truth_oracle.h"
#include "oracle/oracle_stack.h"
#include "oracle/remote_oracle.h"
#include "oracle/retry_policy.h"
#include "strata/csf.h"
#include "tests/test_util.h"

namespace oasis {
namespace {

/// Chaos seed override for CI sweeps; defaults to a fixed value so a plain
/// test run is reproducible.
uint64_t ChaosSeed() {
  const char* env = std::getenv("OASIS_CHAOS_SEED");
  if (env == nullptr || *env == '\0') return 0xfa17ULL;
  return static_cast<uint64_t>(std::strtoull(env, nullptr, 10));
}

/// Scripted fallible oracle: attempt number a performs script[a] (the last
/// action repeats once the script is exhausted) and every attempt records the
/// exact items requested, so tests can assert the retry loop's re-request
/// behaviour precisely.
class ScriptedOracle : public Oracle {
 public:
  enum class Action {
    kResolveAll,        ///< OK; every requested item resolved with its truth.
    kResolveFirstHalf,  ///< OK; only the first ceil(n/2) items resolved.
    kResolveNone,       ///< OK; nothing resolved (stalled partial batch).
    kFailUnavailable,   ///< kUnavailable; nothing resolved.
    kFailTimeout,       ///< kDeadlineExceeded; nothing resolved.
  };

  ScriptedOracle(std::vector<uint8_t> truth, std::vector<Action> script)
      : truth_(std::move(truth)), script_(std::move(script)) {}

  bool Label(int64_t item, Rng&) const override {
    return truth_[static_cast<size_t>(item)] != 0;
  }
  double TrueProbability(int64_t item) const override {
    return truth_[static_cast<size_t>(item)] != 0 ? 1.0 : 0.0;
  }
  bool deterministic() const override { return true; }
  bool labelling_consumes_rng() const override { return false; }
  bool fallible() const override { return true; }
  int64_t num_items() const override {
    return static_cast<int64_t>(truth_.size());
  }

  Status TryLabelBatch(std::span<const int64_t> items, Rng&,
                       std::span<uint8_t> out,
                       std::span<uint8_t> resolved) const override {
    requests_.emplace_back(items.begin(), items.end());
    const Action action =
        script_.empty() ? Action::kResolveAll
                        : script_[std::min(calls_, script_.size() - 1)];
    ++calls_;
    for (size_t i = 0; i < resolved.size(); ++i) resolved[i] = 0;
    switch (action) {
      case Action::kFailUnavailable:
        return Status::Unavailable("scripted transient failure");
      case Action::kFailTimeout:
        return Status::DeadlineExceeded("scripted timeout");
      case Action::kResolveNone:
        return Status::OK();
      case Action::kResolveFirstHalf:
      case Action::kResolveAll: {
        const size_t keep = action == Action::kResolveAll
                                ? items.size()
                                : (items.size() + 1) / 2;
        for (size_t i = 0; i < keep; ++i) {
          out[i] = truth_[static_cast<size_t>(items[i])];
          resolved[i] = 1;
        }
        return Status::OK();
      }
    }
    return Status::Internal("unreachable");
  }

  /// Items requested by each TryLabelBatch attempt, in call order.
  const std::vector<std::vector<int64_t>>& requests() const {
    return requests_;
  }

 private:
  std::vector<uint8_t> truth_;
  std::vector<Action> script_;
  mutable size_t calls_ = 0;
  mutable std::vector<std::vector<int64_t>> requests_;
};

using Action = ScriptedOracle::Action;

// --- CircuitBreaker state machine -----------------------------------------

TEST(CircuitBreakerTest, StateMachineTransitions) {
  CircuitBreaker breaker(/*failure_threshold=*/2, /*cooldown_calls=*/2);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  EXPECT_TRUE(breaker.Admit());

  breaker.RecordFailure();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  breaker.RecordFailure();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);

  // Two rejected calls spend the cooldown; the third admits a half-open
  // probe.
  EXPECT_FALSE(breaker.Admit());
  EXPECT_FALSE(breaker.Admit());
  EXPECT_TRUE(breaker.Admit());
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);
  // While the probe is outstanding, nothing else gets through.
  EXPECT_FALSE(breaker.Admit());

  // Probe failure re-opens immediately (no threshold accumulation).
  breaker.RecordFailure();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);

  EXPECT_FALSE(breaker.Admit());
  EXPECT_FALSE(breaker.Admit());
  EXPECT_TRUE(breaker.Admit());
  breaker.RecordSuccess();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  EXPECT_TRUE(breaker.Admit());
}

TEST(CircuitBreakerTest, RecordsTransitionHistoryWithSimClockTimestamps) {
  CircuitBreaker breaker(/*failure_threshold=*/2, /*cooldown_calls=*/2);
  using State = CircuitBreaker::State;

  breaker.RecordFailure(/*now_ns=*/10);
  breaker.RecordFailure(/*now_ns=*/20);  // closed -> open
  EXPECT_FALSE(breaker.Admit(/*now_ns=*/30));
  EXPECT_FALSE(breaker.Admit(/*now_ns=*/40));
  EXPECT_TRUE(breaker.Admit(/*now_ns=*/50));  // open -> half-open probe
  breaker.RecordFailure(/*now_ns=*/60);       // half-open -> open
  EXPECT_FALSE(breaker.Admit(/*now_ns=*/70));
  EXPECT_FALSE(breaker.Admit(/*now_ns=*/80));
  EXPECT_TRUE(breaker.Admit(/*now_ns=*/90));  // open -> half-open probe
  breaker.RecordSuccess(/*now_ns=*/100);      // half-open -> closed

  const std::vector<CircuitBreaker::Transition> transitions =
      breaker.transitions();
  ASSERT_EQ(transitions.size(), 5u);
  const State expected[5][2] = {
      {State::kClosed, State::kOpen},     {State::kOpen, State::kHalfOpen},
      {State::kHalfOpen, State::kOpen},   {State::kOpen, State::kHalfOpen},
      {State::kHalfOpen, State::kClosed},
  };
  const int64_t expected_ns[5] = {20, 50, 60, 90, 100};
  for (size_t i = 0; i < transitions.size(); ++i) {
    EXPECT_EQ(transitions[i].from, expected[i][0]) << "transition " << i;
    EXPECT_EQ(transitions[i].to, expected[i][1]) << "transition " << i;
    EXPECT_EQ(transitions[i].sim_ns, expected_ns[i]) << "transition " << i;
    // Each transition chains from the previous one's destination, and the
    // sim-clock timestamps never run backwards.
    if (i > 0) {
      EXPECT_EQ(transitions[i].from, transitions[i - 1].to);
      EXPECT_GE(transitions[i].sim_ns, transitions[i - 1].sim_ns);
    }
  }
}

TEST(CircuitBreakerTest, DisabledBreakerAdmitsEverything) {
  CircuitBreaker breaker(/*failure_threshold=*/0, /*cooldown_calls=*/1);
  for (int i = 0; i < 10; ++i) {
    breaker.RecordFailure();
    EXPECT_TRUE(breaker.Admit());
  }
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
}

// --- RetryingOracle unit behaviour ----------------------------------------

std::vector<uint8_t> MakeTruth(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint8_t> truth(n);
  for (auto& t : truth) t = rng.NextBernoulli(0.5) ? 1 : 0;
  return truth;
}

TEST(RetryingOracleTest, InfallibleInnerIsNoOpDecorator) {
  const std::vector<uint8_t> truth = MakeTruth(16, 5);
  GroundTruthOracle inner(truth);
  RetryingOracle oracle(&inner, RetryPolicy{});
  EXPECT_FALSE(oracle.fallible());

  const std::vector<int64_t> items{3, 0, 15, 7};
  std::vector<uint8_t> out(items.size()), resolved(items.size());
  Rng rng(1);
  ASSERT_TRUE(oracle.TryLabelBatch(items, rng, out, resolved).ok());
  for (size_t i = 0; i < items.size(); ++i) {
    EXPECT_NE(resolved[i], 0);
    EXPECT_EQ(out[i], truth[static_cast<size_t>(items[i])]);
  }
  // No retry machinery engaged: the fallible counters never move.
  EXPECT_EQ(oracle.stats().attempts, 0);
}

TEST(RetryingOracleTest, RetriesTransientFailuresUntilSuccess) {
  const std::vector<uint8_t> truth = MakeTruth(32, 7);
  ScriptedOracle inner(truth, {Action::kFailUnavailable, Action::kFailTimeout,
                               Action::kResolveAll});
  RetryPolicy policy;
  policy.max_attempts = 5;
  policy.initial_backoff_seconds = 0.0;
  RetryingOracle oracle(&inner, policy);

  const std::vector<int64_t> items{1, 9, 17, 25};
  std::vector<uint8_t> out(items.size()), resolved(items.size());
  Rng rng(2);
  ASSERT_TRUE(oracle.TryLabelBatch(items, rng, out, resolved).ok());
  for (size_t i = 0; i < items.size(); ++i) {
    EXPECT_NE(resolved[i], 0);
    EXPECT_EQ(out[i], truth[static_cast<size_t>(items[i])]);
  }
  const RetryStats stats = oracle.stats();
  EXPECT_EQ(stats.attempts, 3);
  EXPECT_EQ(stats.retries, 2);
  EXPECT_EQ(stats.give_ups, 0);
  // Whole-attempt failures resolve nothing, so every retry re-requests the
  // full batch.
  ASSERT_EQ(inner.requests().size(), 3u);
  EXPECT_EQ(inner.requests()[1], items);
  EXPECT_EQ(inner.requests()[2], items);
}

TEST(RetryingOracleTest, ReRequestsOnlyMissingItemsAndCountsRecovered) {
  const std::vector<uint8_t> truth = MakeTruth(64, 9);
  ScriptedOracle inner(truth, {Action::kResolveFirstHalf,
                               Action::kResolveFirstHalf, Action::kResolveAll});
  RetryPolicy policy;
  policy.max_attempts = 5;
  policy.initial_backoff_seconds = 0.0;
  RetryingOracle oracle(&inner, policy);

  const std::vector<int64_t> items{10, 20, 30, 40, 50, 60, 2, 4};
  std::vector<uint8_t> out(items.size()), resolved(items.size());
  Rng rng(3);
  ASSERT_TRUE(oracle.TryLabelBatch(items, rng, out, resolved).ok());
  for (size_t i = 0; i < items.size(); ++i) {
    EXPECT_NE(resolved[i], 0);
    EXPECT_EQ(out[i], truth[static_cast<size_t>(items[i])]);
  }
  // Attempt 1 resolves the first 4 of 8; attempt 2 re-requests exactly the
  // missing 4 and resolves 2; attempt 3 re-requests the last 2.
  ASSERT_EQ(inner.requests().size(), 3u);
  EXPECT_EQ(inner.requests()[0], items);
  EXPECT_EQ(inner.requests()[1], (std::vector<int64_t>{50, 60, 2, 4}));
  EXPECT_EQ(inner.requests()[2], (std::vector<int64_t>{2, 4}));
  EXPECT_EQ(oracle.stats().items_recovered, 4);
  EXPECT_EQ(oracle.stats().give_ups, 0);
}

TEST(RetryingOracleTest, GivesUpWithWrappedLastFailureKeepingPartialProgress) {
  const std::vector<uint8_t> truth = MakeTruth(16, 11);
  ScriptedOracle inner(truth,
                       {Action::kResolveFirstHalf, Action::kFailUnavailable});
  RetryPolicy policy;
  policy.max_attempts = 2;
  policy.initial_backoff_seconds = 0.0;
  RetryingOracle oracle(&inner, policy);

  const std::vector<int64_t> items{0, 1, 2, 3};
  std::vector<uint8_t> out(items.size()), resolved(items.size());
  Rng rng(4);
  const Status status = oracle.TryLabelBatch(items, rng, out, resolved);
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  EXPECT_NE(status.message().find("gave up after 2 attempts"),
            std::string::npos)
      << status.message();
  // The attempt-1 labels survive the give-up: the caller may commit them.
  EXPECT_NE(resolved[0], 0);
  EXPECT_NE(resolved[1], 0);
  EXPECT_EQ(resolved[2], 0);
  EXPECT_EQ(resolved[3], 0);
  EXPECT_EQ(out[0], truth[0]);
  EXPECT_EQ(out[1], truth[1]);
  EXPECT_EQ(oracle.stats().give_ups, 1);
}

TEST(RetryingOracleTest, StalledPartialBatchGivesUpUnavailable) {
  const std::vector<uint8_t> truth = MakeTruth(8, 13);
  ScriptedOracle inner(truth, {Action::kResolveNone});
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.initial_backoff_seconds = 0.0;
  RetryingOracle oracle(&inner, policy);

  const std::vector<int64_t> items{0, 1};
  std::vector<uint8_t> out(items.size()), resolved(items.size());
  Rng rng(5);
  const Status status = oracle.TryLabelBatch(items, rng, out, resolved);
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  EXPECT_NE(status.message().find("partial batch never completed"),
            std::string::npos)
      << status.message();
  EXPECT_EQ(oracle.stats().give_ups, 1);
}

TEST(RetryingOracleTest, BackoffIsChargedIntoTheRemoteClock) {
  const std::vector<uint8_t> truth = MakeTruth(16, 15);
  ScriptedOracle base(truth, {Action::kFailUnavailable,
                              Action::kFailUnavailable, Action::kResolveAll});
  RemoteOracleOptions remote_options;
  remote_options.round_trip_seconds = 30.0;
  remote_options.per_item_seconds = 0.0;
  remote_options.cost_per_label = 0.0;
  RetryPolicy policy;
  policy.max_attempts = 4;
  policy.initial_backoff_seconds = 1.0;
  policy.backoff_multiplier = 2.0;
  const OracleStack stack = OracleStackBuilder()
                                .Remote(remote_options)
                                .Retry(policy)
                                .Build(&base)
                                .ValueOrDie();

  const std::vector<int64_t> items{0, 1, 2};
  std::vector<uint8_t> out(items.size()), resolved(items.size());
  Rng rng(6);
  ASSERT_TRUE(stack.top().TryLabelBatch(items, rng, out, resolved).ok());
  // Two backoff waits (1 s, then 2 s) on top of three attempted trips of
  // 30 s each: the simulated clock sees all of it.
  EXPECT_EQ(stack.retrying()->stats().backoff_ns, 3'000'000'000);
  EXPECT_EQ(stack.remote()->stats().simulated_latency_ns, 93'000'000'000);
}

TEST(RetryingOracleTest, PerAttemptTimeoutDiscardsLateLabels) {
  const std::vector<uint8_t> truth = MakeTruth(16, 17);
  ScriptedOracle base(truth, {Action::kResolveAll});
  RemoteOracleOptions remote_options;
  remote_options.round_trip_seconds = 30.0;
  remote_options.per_item_seconds = 0.0;
  RetryPolicy policy;
  policy.max_attempts = 2;
  policy.initial_backoff_seconds = 0.0;
  policy.per_attempt_timeout_seconds = 10.0;  // Every 30 s trip is too slow.
  const OracleStack stack = OracleStackBuilder()
                                .Remote(remote_options)
                                .Retry(policy)
                                .Build(&base)
                                .ValueOrDie();

  const std::vector<int64_t> items{0, 1};
  std::vector<uint8_t> out(items.size()), resolved(items.size());
  Rng rng(7);
  const Status status = stack.top().TryLabelBatch(items, rng, out, resolved);
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded);
  // The labels arrived after the caller stopped waiting: none are usable,
  // but the wire time stays charged.
  EXPECT_EQ(resolved[0], 0);
  EXPECT_EQ(resolved[1], 0);
  EXPECT_EQ(stack.remote()->stats().simulated_latency_ns, 60'000'000'000);
  EXPECT_EQ(stack.retrying()->stats().give_ups, 1);
}

TEST(RetryingOracleTest, OverallDeadlineStopsBackingOff) {
  const std::vector<uint8_t> truth = MakeTruth(8, 19);
  ScriptedOracle inner(truth, {Action::kFailUnavailable});
  RetryPolicy policy;
  policy.max_attempts = 5;
  policy.initial_backoff_seconds = 100.0;
  policy.overall_deadline_seconds = 50.0;  // The first backoff would bust it.
  RetryingOracle oracle(&inner, policy);

  const std::vector<int64_t> items{0};
  std::vector<uint8_t> out(1), resolved(1);
  Rng rng(8);
  const Status status = oracle.TryLabelBatch(items, rng, out, resolved);
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(status.message().find("overall deadline"), std::string::npos);
  const RetryStats stats = oracle.stats();
  EXPECT_EQ(stats.attempts, 1);
  EXPECT_EQ(stats.give_ups, 1);
  EXPECT_EQ(stats.backoff_ns, 0);  // Gave up instead of waiting.
}

TEST(RetryingOracleTest, BreakerOpensFastFailsThenRecovers) {
  const std::vector<uint8_t> truth = MakeTruth(8, 21);
  ScriptedOracle inner(truth, {Action::kFailUnavailable,
                               Action::kFailUnavailable, Action::kResolveAll});
  RetryPolicy policy;
  policy.max_attempts = 1;
  policy.initial_backoff_seconds = 0.0;
  policy.breaker_failure_threshold = 1;
  policy.breaker_cooldown_calls = 1;
  RetryingOracle oracle(&inner, policy);

  const std::vector<int64_t> items{0, 1};
  std::vector<uint8_t> out(items.size()), resolved(items.size());
  Rng rng(9);
  auto call = [&] { return oracle.TryLabelBatch(items, rng, out, resolved); };

  // Call 1: the attempt fails and trips the breaker (threshold 1).
  EXPECT_EQ(call().code(), StatusCode::kUnavailable);
  EXPECT_EQ(oracle.breaker().state(), CircuitBreaker::State::kOpen);
  // Call 2: fast-failed without touching the inner oracle.
  const size_t inner_calls_before = inner.requests().size();
  EXPECT_EQ(call().code(), StatusCode::kUnavailable);
  EXPECT_EQ(inner.requests().size(), inner_calls_before);
  EXPECT_EQ(oracle.stats().breaker_fast_fails, 1);
  // Call 3: the cooldown is spent, a half-open probe goes through — and
  // fails, re-opening the breaker.
  EXPECT_EQ(call().code(), StatusCode::kUnavailable);
  EXPECT_EQ(inner.requests().size(), inner_calls_before + 1);
  EXPECT_EQ(oracle.breaker().state(), CircuitBreaker::State::kOpen);
  // Call 4: fast-failed again; call 5: the probe succeeds and closes.
  EXPECT_EQ(call().code(), StatusCode::kUnavailable);
  ASSERT_TRUE(call().ok());
  EXPECT_EQ(oracle.breaker().state(), CircuitBreaker::State::kClosed);
  EXPECT_EQ(oracle.stats().breaker_fast_fails, 2);
  // Call 6: normal operation resumed.
  EXPECT_TRUE(call().ok());

  // The full state history surfaces through RetryStats: open, probe, re-open,
  // probe, close. Without a remote clock below, every timestamp is 0.
  const std::vector<CircuitBreaker::Transition> transitions =
      oracle.stats().breaker_transitions;
  ASSERT_EQ(transitions.size(), 5u);
  EXPECT_EQ(transitions.front().from, CircuitBreaker::State::kClosed);
  EXPECT_EQ(transitions.front().to, CircuitBreaker::State::kOpen);
  EXPECT_EQ(transitions.back().to, CircuitBreaker::State::kClosed);
  for (size_t i = 1; i < transitions.size(); ++i) {
    EXPECT_EQ(transitions[i].from, transitions[i - 1].to);
    EXPECT_GE(transitions[i].sim_ns, transitions[i - 1].sim_ns);
  }
}

// --- Runner-level robustness ----------------------------------------------

namespace exp = ::oasis::experiments;

testutil::SyntheticPool SmallPool() {
  testutil::SyntheticPoolOptions options;
  options.size = 1200;
  options.match_fraction = 0.08;
  options.seed = 404;
  return testutil::MakeSyntheticPool(options);
}

exp::RunnerOptions BaseRunnerOptions() {
  exp::RunnerOptions options;
  options.repeats = 6;
  options.trajectory.budget = 180;
  options.trajectory.checkpoint_every = 60;
  options.base_seed = 31337;
  options.num_threads = 1;
  return options;
}

FaultInjectionOptions TransientChaos() {
  FaultInjectionOptions faults;
  faults.transient_failure_rate = 0.25;
  faults.timeout_rate = 0.15;
  faults.item_drop_rate = 0.3;
  faults.seed = ChaosSeed();
  return faults;
}

TEST(RetryRunnerTest, TransientChaosCurvesBitIdenticalToFaultFree) {
  const testutil::SyntheticPool pool = SmallPool();
  GroundTruthOracle oracle(pool.truth);
  const exp::MethodSpec spec = exp::MakePassiveSpec(0.5);

  const exp::ErrorCurve baseline =
      exp::RunErrorCurve(spec, pool.scored, oracle,
                         pool.true_measures.f_alpha, BaseRunnerOptions())
          .ValueOrDie();
  EXPECT_FALSE(baseline.has_fault_stats);

  for (const int threads : {1, 2, 8}) {
    exp::RunnerOptions chaos_options = BaseRunnerOptions();
    chaos_options.num_threads = threads;
    chaos_options.stack.fault_injection = TransientChaos();
    RetryPolicy policy;
    // Generous attempt budget: with the rates above, the probability of any
    // batch exhausting 30 attempts is ~1e-8 — the test is seed-robust.
    policy.max_attempts = 30;
    chaos_options.stack.retry = policy;
    const exp::ErrorCurve chaos =
        exp::RunErrorCurve(spec, pool.scored, oracle,
                           pool.true_measures.f_alpha, chaos_options)
            .ValueOrDie();

    // The headline guarantee: transient faults fully recovered by retries
    // leave every error statistic BIT-identical to the fault-free run,
    // whatever the thread count.
    ASSERT_EQ(chaos.budgets, baseline.budgets) << "threads=" << threads;
    for (size_t i = 0; i < baseline.budgets.size(); ++i) {
      EXPECT_EQ(chaos.mean_abs_error[i], baseline.mean_abs_error[i])
          << "threads=" << threads << " checkpoint " << i;
      EXPECT_EQ(chaos.stddev[i], baseline.stddev[i]);
      EXPECT_EQ(chaos.mean_estimate[i], baseline.mean_estimate[i]);
      EXPECT_EQ(chaos.frac_defined[i], baseline.frac_defined[i]);
    }
    // The repair work shows up in the recovery columns instead.
    ASSERT_TRUE(chaos.has_fault_stats);
    ASSERT_EQ(chaos.mean_retries.size(), chaos.budgets.size());
    EXPECT_GT(chaos.mean_retries.back(), 0.0);
    EXPECT_EQ(chaos.mean_give_ups.back(), 0.0);
  }
}

// The served regime (the serve-noisy-stack benchmark workload): fused OASIS
// at K=30 on the noisy-flip05 scenario, so every label is its own one-item
// fallible request through fault + remote + retry. Every fault is recovered
// before the noisy oracle draws from the caller's RNG, so the curve must
// match the bare noisy oracle's bit for bit, at any thread count.
TEST(RetryRunnerTest, ServeRegimeNoisyOasisCurvesBitIdenticalToBareOracle) {
  const datagen::ScenarioPool pool =
      datagen::GenerateScenario(
          datagen::ScenarioByName("noisy-flip05").ValueOrDie())
          .ValueOrDie();
  const std::unique_ptr<Oracle> oracle =
      datagen::MakeScenarioOracle(pool).ValueOrDie();
  ASSERT_FALSE(oracle->deterministic());
  OasisOptions oasis_options;
  oasis_options.alpha = pool.spec.alpha;
  oasis_options.step_path = OasisStepPath::kFused;
  const exp::MethodSpec spec = exp::MakeOasisSpec(
      oasis_options, std::make_shared<const Strata>(
                         StratifyCsf(pool.scored.scores, 30, false).ValueOrDie()));
  exp::RunnerOptions options;
  options.repeats = 4;
  options.trajectory.budget = 1000;
  options.trajectory.checkpoint_every = 250;
  options.base_seed = 2024;

  const exp::ErrorCurve baseline =
      exp::RunErrorCurve(spec, pool.scored, *oracle, pool.true_f, options)
          .ValueOrDie();

  FaultInjectionOptions faults;
  faults.transient_failure_rate = 0.05;
  faults.timeout_rate = 0.01;
  faults.item_drop_rate = 0.02;
  faults.seed = ChaosSeed();
  RetryPolicy policy;
  policy.max_attempts = 8;
  for (const int threads : {1, 2}) {
    exp::RunnerOptions served = options;
    served.num_threads = threads;
    served.stack.fault_injection = faults;
    served.stack.remote = RemoteOracleOptions{};
    served.stack.retry = policy;
    const exp::ErrorCurve chaos =
        exp::RunErrorCurve(spec, pool.scored, *oracle, pool.true_f, served)
            .ValueOrDie();

    ASSERT_EQ(chaos.budgets, baseline.budgets) << "threads=" << threads;
    for (size_t i = 0; i < baseline.budgets.size(); ++i) {
      EXPECT_EQ(chaos.mean_abs_error[i], baseline.mean_abs_error[i])
          << "threads=" << threads << " checkpoint " << i;
      EXPECT_EQ(chaos.stddev[i], baseline.stddev[i]);
      EXPECT_EQ(chaos.mean_estimate[i], baseline.mean_estimate[i]);
      EXPECT_EQ(chaos.frac_defined[i], baseline.frac_defined[i]);
    }
    ASSERT_TRUE(chaos.has_fault_stats);
    EXPECT_GT(chaos.mean_retries.back(), 0.0) << "threads=" << threads;
    EXPECT_EQ(chaos.mean_give_ups.back(), 0.0) << "threads=" << threads;
  }
}

TEST(RetryRunnerTest, PermanentOutageSurfacesUnavailable) {
  const testutil::SyntheticPool pool = SmallPool();
  GroundTruthOracle oracle(pool.truth);
  exp::RunnerOptions options = BaseRunnerOptions();
  options.repeats = 2;
  FaultInjectionOptions faults;
  faults.outage_after_attempts = 0;  // Down from the first attempt.
  options.stack.fault_injection = faults;
  RetryPolicy policy;
  policy.max_attempts = 2;
  policy.initial_backoff_seconds = 0.0;
  options.stack.retry = policy;

  const auto result = exp::RunErrorCurve(exp::MakePassiveSpec(0.5), pool.scored,
                                         oracle, pool.true_measures.f_alpha,
                                         options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable)
      << result.status().ToString();
}

TEST(RetryRunnerTest, PermanentTimeoutsSurfaceDeadlineExceeded) {
  const testutil::SyntheticPool pool = SmallPool();
  GroundTruthOracle oracle(pool.truth);
  exp::RunnerOptions options = BaseRunnerOptions();
  options.repeats = 2;
  FaultInjectionOptions faults;
  faults.timeout_rate = 1.0;  // Every attempt times out, forever.
  faults.seed = ChaosSeed();
  options.stack.fault_injection = faults;
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.initial_backoff_seconds = 0.0;
  options.stack.retry = policy;

  const auto result = exp::RunErrorCurve(exp::MakePassiveSpec(0.5), pool.scored,
                                         oracle, pool.true_measures.f_alpha,
                                         options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded)
      << result.status().ToString();
}

TEST(RetryRunnerTest, CsvCarriesRetryAndEssColumns) {
  const testutil::SyntheticPool pool = SmallPool();
  GroundTruthOracle oracle(pool.truth);
  auto strata = std::make_shared<const Strata>(
      StratifyCsf(pool.scored.scores, 12, false).ValueOrDie());

  exp::RunnerOptions options = BaseRunnerOptions();
  options.repeats = 3;
  options.stack.fault_injection = TransientChaos();
  RetryPolicy policy;
  policy.max_attempts = 30;  // Seed-robust: give-ups are ~impossible.
  options.stack.retry = policy;
  const exp::ErrorCurve curve =
      exp::RunErrorCurve(exp::MakeOasisSpec(OasisOptions{}, strata),
                         pool.scored, oracle, pool.true_measures.f_alpha,
                         options)
          .ValueOrDie();
  ASSERT_TRUE(curve.has_fault_stats);
  ASSERT_TRUE(curve.has_degeneracy_stats);
  EXPECT_GT(curve.mean_ess.back(), 0.0);

  const std::string path = "/tmp/oasis_retry_policy_test_curves.csv";
  std::remove(path.c_str());
  ASSERT_TRUE(exp::WriteCurvesCsv(path, {curve}).ok());
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string header;
  ASSERT_TRUE(std::getline(in, header));
  EXPECT_EQ(header,
            "method,labels,mean_abs_error,stddev,mean_estimate,frac_defined"
            ",retries,give_ups,ess");
  // Every data row carries all nine cells.
  std::string row;
  size_t rows = 0;
  while (std::getline(in, row)) {
    if (row.empty()) continue;
    ++rows;
    EXPECT_EQ(exp::SplitCsvLine(row).size(), 9u) << row;
  }
  EXPECT_EQ(rows, curve.budgets.size());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace oasis
