// The telemetry subsystem's own contract: registry semantics (idempotent
// registration, labelled families, find-or-nullptr), histogram bucketing,
// the runtime kill switches, trace-span collection, the heartbeat line — and
// the two properties everything else leans on: concurrent increments are
// safe (this test runs under TSan in CI) and telemetry is observe-only, so
// an instrumented run's ErrorCurve is bit-identical with telemetry on or
// off at any thread count.

#include "telemetry/telemetry.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <thread>
#include <vector>

#include "experiments/runner.h"
#include "oracle/ground_truth_oracle.h"
#include "strata/csf.h"
#include "telemetry/export.h"
#include "telemetry/heartbeat.h"
#include "test_util.h"

namespace oasis {
namespace telemetry {
namespace {

// --- Registry semantics ----------------------------------------------------

TEST(MetricRegistryTest, CounterGaugeBasics) {
  MetricRegistry registry;
  Counter& counter = registry.AddCounter("oasis_test_total", "help");
  EXPECT_EQ(counter.value(), 0);
  counter.Increment();
  counter.Add(41);
  EXPECT_EQ(counter.value(), 42);
  counter.Reset();
  EXPECT_EQ(counter.value(), 0);

  Gauge& gauge = registry.AddGauge("oasis_test_gauge", "help");
  gauge.Set(2.5);
  EXPECT_DOUBLE_EQ(gauge.value(), 2.5);
  gauge.Add(-1.0);
  EXPECT_DOUBLE_EQ(gauge.value(), 1.5);
}

TEST(MetricRegistryTest, RegistrationIsIdempotentPerNameAndLabels) {
  MetricRegistry registry;
  Counter& a = registry.AddCounter("oasis_test_total", "help");
  Counter& b = registry.AddCounter("oasis_test_total", "help");
  EXPECT_EQ(&a, &b);  // Same child, stable address.

  Counter& own = registry.AddCounter("oasis_test_kinds_total", "help",
                                     {{"kind", "own"}});
  Counter& steal = registry.AddCounter("oasis_test_kinds_total", "help",
                                       {{"kind", "steal"}});
  EXPECT_NE(&own, &steal);
  own.Add(3);
  steal.Add(1);
  EXPECT_EQ(registry.CounterFamilyTotal("oasis_test_kinds_total"), 4);
  EXPECT_EQ(registry.CounterFamilyTotal("oasis_test_total"), 0);
  EXPECT_EQ(registry.CounterFamilyTotal("oasis_absent_total"), 0);
}

TEST(MetricRegistryTest, RepeatedSessionCyclesRegisterNothingNew) {
  // The app-harness pattern: every TelemetrySession (one per oasis_sweep
  // invocation, one per serve run, ...) re-touches the same instrument names
  // on its way through the instrumented layers. N cycles must behave exactly
  // like one — same child addresses, same family count, values accumulating
  // rather than resetting — or a sweep's later cells would shear off the
  // earlier cells' counts.
  MetricRegistry registry;
  Counter* counter = nullptr;
  Gauge* gauge = nullptr;
  Histogram* histogram = nullptr;
  for (int cycle = 0; cycle < 3; ++cycle) {
    Counter& c = registry.AddCounter("oasis_test_labels_total", "help");
    Gauge& g = registry.AddGauge("oasis_test_active", "help");
    Histogram& h = registry.AddHistogram("oasis_test_lat", "help", {1.0, 2.0});
    if (cycle == 0) {
      counter = &c;
      gauge = &g;
      histogram = &h;
    }
    EXPECT_EQ(&c, counter);
    EXPECT_EQ(&g, gauge);
    EXPECT_EQ(&h, histogram);
    c.Increment();
    g.Set(static_cast<double>(cycle));
    h.Observe(0.5);
  }
  EXPECT_EQ(counter->value(), 3);
  EXPECT_DOUBLE_EQ(gauge->value(), 2.0);
  EXPECT_EQ(histogram->count(), 3);
  EXPECT_EQ(registry.Snapshot().size(), 3u);
}

TEST(MetricRegistryTest, FindReturnsNullptrWhenAbsentOrWrongType) {
  MetricRegistry registry;
  registry.AddCounter("oasis_test_total", "help").Add(7);
  registry.AddGauge("oasis_test_gauge", "help").Set(1.0);

  ASSERT_NE(registry.FindCounter("oasis_test_total"), nullptr);
  EXPECT_EQ(registry.FindCounter("oasis_test_total")->value(), 7);
  EXPECT_EQ(registry.FindCounter("oasis_absent_total"), nullptr);
  EXPECT_EQ(registry.FindCounter("oasis_test_gauge"), nullptr);  // Wrong type.
  EXPECT_EQ(registry.FindGauge("oasis_test_total"), nullptr);
  EXPECT_EQ(registry.FindCounter("oasis_test_total", {{"kind", "x"}}),
            nullptr);  // No such child.
}

TEST(MetricRegistryTest, HistogramBucketsObservationsAndOverflow) {
  MetricRegistry registry;
  Histogram& hist =
      registry.AddHistogram("oasis_test_hist", "help", {0.5, 2.0, 8.0});
  hist.Observe(0.25);  // bucket 0
  hist.Observe(0.5);   // bucket 0 (le is inclusive)
  hist.Observe(1.0);   // bucket 1
  hist.Observe(100.0);  // overflow
  ASSERT_EQ(hist.num_buckets(), 3u);
  EXPECT_EQ(hist.bucket_count(0), 2);
  EXPECT_EQ(hist.bucket_count(1), 1);
  EXPECT_EQ(hist.bucket_count(2), 0);
  EXPECT_EQ(hist.overflow_count(), 1);
  EXPECT_EQ(hist.count(), 4);
  EXPECT_DOUBLE_EQ(hist.sum(), 101.75);
  hist.Reset();
  EXPECT_EQ(hist.count(), 0);
  EXPECT_DOUBLE_EQ(hist.sum(), 0.0);
  EXPECT_EQ(hist.overflow_count(), 0);
}

TEST(MetricRegistryTest, SnapshotPreservesRegistrationOrder) {
  MetricRegistry registry;
  registry.AddCounter("oasis_test_b_total", "help");
  registry.AddGauge("oasis_test_a_gauge", "help");
  registry.AddCounter("oasis_test_b_total", "help");  // Re-registration.
  const std::vector<MetricSnapshot> snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.size(), 2u);
  EXPECT_EQ(snapshot[0].name, "oasis_test_b_total");
  EXPECT_EQ(snapshot[1].name, "oasis_test_a_gauge");
}

// --- Concurrency (this test is in CI's TSan shard) -------------------------

TEST(MetricRegistryTest, ConcurrentIncrementsAreExactAndRaceFree) {
  MetricRegistry registry;
  constexpr int kThreads = 8;
  constexpr int kIterations = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry] {
      // Every thread registers through Add* itself, so registration races
      // against registration and against updates.
      Counter& counter = registry.AddCounter("oasis_test_total", "help");
      Gauge& gauge = registry.AddGauge("oasis_test_gauge", "help");
      Histogram& hist =
          registry.AddHistogram("oasis_test_hist", "help", {1.0, 4.0});
      for (int i = 0; i < kIterations; ++i) {
        counter.Increment();
        gauge.Add(0.5);
        hist.Observe(static_cast<double>(i % 8));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(registry.FindCounter("oasis_test_total")->value(),
            int64_t{kThreads} * kIterations);
  EXPECT_DOUBLE_EQ(registry.FindGauge("oasis_test_gauge")->value(),
                   kThreads * kIterations * 0.5);
  EXPECT_EQ(registry.FindHistogram("oasis_test_hist")->count(),
            int64_t{kThreads} * kIterations);
}

// --- Kill switches and spans -----------------------------------------------

TEST(TelemetryGateTest, SpansAreInertWhileDisabled) {
  ScopedEnable off(false);
  TraceCollector& collector = DefaultTraceCollector();
  collector.Clear();
  { TELEMETRY_SPAN("inert", "test"); }
  EXPECT_EQ(collector.size(), 0);
}

#if !defined(OASIS_TELEMETRY_DISABLED)
TEST(TelemetryGateTest, SpansRecordWhileEnabled) {
  ScopedEnable on(true);
  TraceCollector& collector = DefaultTraceCollector();
  collector.Clear();
  { TELEMETRY_SPAN("recorded", "test"); }
  ASSERT_EQ(collector.size(), 1);
  const std::vector<TraceEvent> events = collector.Snapshot();
  EXPECT_EQ(events[0].name, "recorded");
  EXPECT_EQ(events[0].category, "test");
  EXPECT_GE(events[0].dur_us, 0.0);
  collector.Clear();
}

TEST(TelemetryGateTest, ScopedEnableRestoresPreviousSetting) {
  SetEnabled(false);
  {
    ScopedEnable on(true);
    EXPECT_TRUE(Enabled());
    {
      ScopedEnable off_again(false);
      EXPECT_FALSE(Enabled());
    }
    EXPECT_TRUE(Enabled());
  }
  EXPECT_FALSE(Enabled());
}
#endif  // !defined(OASIS_TELEMETRY_DISABLED)

TEST(TraceCollectorTest, CapacityBoundDropsAndCounts) {
  TraceCollector collector(/*capacity=*/2);
  TraceEvent event;
  event.name = "e";
  event.category = "test";
  for (int i = 0; i < 5; ++i) collector.Append(event);
  EXPECT_EQ(collector.size(), 2);
  EXPECT_EQ(collector.dropped(), 3);
  collector.Clear();
  EXPECT_EQ(collector.size(), 0);
  EXPECT_EQ(collector.dropped(), 0);
}

TEST(TraceCollectorTest, ThreadLanesAreStablePerThread) {
  TraceCollector collector;
  const int lane = collector.CurrentThreadLane();
  EXPECT_EQ(collector.CurrentThreadLane(), lane);
  int other_lane = lane;
  std::thread([&] { other_lane = collector.CurrentThreadLane(); }).join();
  EXPECT_NE(other_lane, lane);
}

// --- Heartbeat line --------------------------------------------------------

TEST(HeartbeatTest, FormatsWellKnownCountersAndRates) {
  MetricRegistry registry;
  registry.AddCounter("oasis_sampler_steps_total", "help").Add(1000);
  registry.AddCounter("oasis_labelcache_misses_total", "help").Add(40);
  registry.AddCounter("oasis_runner_repeats_completed_total", "help").Add(3);
  registry.AddCounter("oasis_oracle_round_trips_total", "help").Add(7);
  registry.AddGauge("oasis_runner_live_ess", "help").Set(123.45);
  registry.AddGauge("oasis_runner_repeats_in_flight", "help").Set(2.0);

  const std::string line = FormatHeartbeatLine(
      registry, /*uptime_seconds=*/2.0, /*steps_delta=*/500,
      /*labels_delta=*/20, /*interval_seconds=*/1.0);
  EXPECT_EQ(line,
            "[telemetry] t=2.0s steps=1000 labels=40 (500 steps/s, "
            "20 labels/s) repeats=3 in_flight=2 rt=7 ess=123.5");
}

TEST(HeartbeatTest, ToleratesEmptyRegistry) {
  MetricRegistry registry;
  const std::string line =
      FormatHeartbeatLine(registry, 0.5, 0, 0, /*interval_seconds=*/0.0);
  EXPECT_EQ(line,
            "[telemetry] t=0.5s steps=0 labels=0 repeats=0 in_flight=0 rt=0 "
            "ess=0.0");
}

// --- The determinism contract ----------------------------------------------

// Telemetry is observe-only: running the full experiment pipeline with
// RunnerOptions::telemetry enabled must produce the bit-identical ErrorCurve
// the uninstrumented run produces, at every thread count. A single stray RNG
// draw or label reordering inside an instrumentation site breaks this.
TEST(TelemetryDeterminismTest, ErrorCurveBitIdenticalWithTelemetryOnOrOff) {
  testutil::SyntheticPoolOptions pool_options;
  pool_options.size = 1500;
  pool_options.match_fraction = 0.05;
  pool_options.seed = 303;
  testutil::SyntheticPool pool = testutil::MakeSyntheticPool(pool_options);
  GroundTruthOracle oracle(pool.truth);
  auto strata = std::make_shared<const Strata>(
      StratifyCsf(pool.scored.scores, 10).ValueOrDie());

  for (int threads : {1, 8}) {
    experiments::RunnerOptions options;
    options.repeats = 8;
    options.trajectory.budget = 250;
    options.trajectory.checkpoint_every = 50;
    options.base_seed = 777;
    options.num_threads = threads;

    options.telemetry.enable = false;
    const experiments::ErrorCurve reference =
        RunErrorCurve(experiments::MakeOasisSpec(OasisOptions{}, strata),
                      pool.scored, oracle, pool.true_measures.f_alpha, options)
            .ValueOrDie();

    options.telemetry.enable = true;
    SetDetailEnabled(true);  // Exercise the per-step weight histogram too.
    const experiments::ErrorCurve instrumented =
        RunErrorCurve(experiments::MakeOasisSpec(OasisOptions{}, strata),
                      pool.scored, oracle, pool.true_measures.f_alpha, options)
            .ValueOrDie();
    SetDetailEnabled(false);

    ASSERT_EQ(instrumented.budgets, reference.budgets) << threads;
    for (size_t i = 0; i < reference.budgets.size(); ++i) {
      EXPECT_EQ(instrumented.mean_abs_error[i], reference.mean_abs_error[i])
          << "threads=" << threads << " checkpoint " << i;
      EXPECT_EQ(instrumented.stddev[i], reference.stddev[i])
          << "threads=" << threads << " checkpoint " << i;
      EXPECT_EQ(instrumented.mean_estimate[i], reference.mean_estimate[i])
          << "threads=" << threads << " checkpoint " << i;
      EXPECT_EQ(instrumented.frac_defined[i], reference.frac_defined[i])
          << "threads=" << threads << " checkpoint " << i;
    }
#if !defined(OASIS_TELEMETRY_DISABLED)
    // The instrumented run actually collected: the sampler step counter
    // moved (it counts every step of every repeat).
    const Counter* steps =
        DefaultRegistry().FindCounter("oasis_sampler_steps_total");
    ASSERT_NE(steps, nullptr);
    EXPECT_GT(steps->value(), 0);
#endif
  }
}

#if !defined(OASIS_TELEMETRY_DISABLED)
// The exports cover all three instrumented layers: a run priced through the
// remote-oracle stack must surface sampler, runner AND oracle metrics in
// the Prometheus text, and spans from every layer category in the trace.
TEST(TelemetryCoverageTest, ExportsCoverSamplerRunnerAndOracleLayers) {
  testutil::SyntheticPoolOptions pool_options;
  pool_options.size = 800;
  pool_options.match_fraction = 0.1;
  pool_options.seed = 99;
  testutil::SyntheticPool pool = testutil::MakeSyntheticPool(pool_options);
  GroundTruthOracle oracle(pool.truth);
  auto strata = std::make_shared<const Strata>(
      StratifyCsf(pool.scored.scores, 10).ValueOrDie());

  experiments::RunnerOptions options;
  options.repeats = 3;
  options.trajectory.budget = 100;
  options.trajectory.checkpoint_every = 50;
  options.base_seed = 11;
  options.num_threads = 1;
  options.stack.remote = RemoteOracleOptions{};
  options.telemetry.enable = true;

  DefaultTraceCollector().Clear();
  ASSERT_TRUE(
      RunErrorCurve(experiments::MakeOasisSpec(OasisOptions{}, strata),
                    pool.scored, oracle, pool.true_measures.f_alpha, options)
          .ok());

  const std::string prom = PrometheusText(DefaultRegistry());
  for (const char* name :
       {"oasis_sampler_steps_total", "oasis_runner_repeats_completed_total",
        "oasis_oracle_round_trips_total", "oasis_labelcache_misses_total"}) {
    EXPECT_NE(prom.find(name), std::string::npos) << name;
  }
  const Counter* round_trips =
      DefaultRegistry().FindCounter("oasis_oracle_round_trips_total");
  ASSERT_NE(round_trips, nullptr);
  EXPECT_GT(round_trips->value(), 0);

  std::set<std::string> categories;
  for (const TraceEvent& event : DefaultTraceCollector().Snapshot()) {
    categories.insert(event.category);
  }
  EXPECT_TRUE(categories.count("runner")) << "missing runner spans";
  EXPECT_TRUE(categories.count("sampler")) << "missing sampler spans";
  EXPECT_TRUE(categories.count("oracle")) << "missing oracle spans";
  DefaultTraceCollector().Clear();
}
#endif  // !defined(OASIS_TELEMETRY_DISABLED)

}  // namespace
}  // namespace telemetry
}  // namespace oasis
