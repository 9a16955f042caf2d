// The telemetry subsystem's own contract: registry semantics (idempotent
// registration, labelled families, find-or-nullptr), histogram bucketing,
// the runtime kill switches, trace-span collection, the heartbeat line — and
// the two properties everything else leans on: concurrent increments are
// safe (this test runs under TSan in CI) and telemetry is observe-only, so
// an instrumented run's ErrorCurve is bit-identical with telemetry on or
// off at any thread count.

#include "telemetry/telemetry.h"

#include <gtest/gtest.h>

#include <atomic>
#include <latch>
#include <map>
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

// Per-thread metric cells: each live thread writes its own slot, threads
// beyond the slot count share one read-modify-write cell, and slots of
// exited threads are reused. Every case checks exact totals after the join.

TEST(MetricCellTest, MoreThreadsThanSlotsKeepExactTotals) {
  MetricRegistry registry;
  Counter& counter = registry.AddCounter("oasis_test_total", "help");
  Histogram& hist = registry.AddHistogram("oasis_test_hist", "help", {1.0, 4.0});
  constexpr int kThreads = internal::kMetricSlots + 8;
  constexpr int kIterations = 2000;
  // Every thread takes its slot, then waits until all are alive, so at least
  // 8 of them cannot find a free slot and land on the shared cell.
  std::latch all_alive(kThreads);
  std::atomic<int> on_shared_cell{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      counter.Increment();
      hist.Observe(0.5);
      if (internal::MetricSlot() == internal::kSharedMetricSlot) {
        on_shared_cell.fetch_add(1);
      }
      all_alive.arrive_and_wait();
      for (int i = 1; i < kIterations; ++i) {
        counter.Increment();
        hist.Observe(static_cast<double>(i % 8));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_GE(on_shared_cell.load(), 8);
  EXPECT_EQ(counter.value(), int64_t{kThreads} * kIterations);
  EXPECT_EQ(hist.count(), int64_t{kThreads} * kIterations);
  // i % 8 for i in [1, kIterations): 0 and 1 fall in bucket 0 (le 1), 2..4
  // in bucket 1 (le 4), 5..7 overflow; plus each thread's first 0.5.
  int64_t low = 0, mid = 0, high = 0;
  double sum = 0.0;
  for (int i = 1; i < kIterations; ++i) {
    const int v = i % 8;
    (v <= 1 ? low : v <= 4 ? mid : high) += 1;
    sum += v;
  }
  EXPECT_EQ(hist.bucket_count(0), int64_t{kThreads} * (low + 1));
  EXPECT_EQ(hist.bucket_count(1), int64_t{kThreads} * mid);
  EXPECT_EQ(hist.overflow_count(), int64_t{kThreads} * high);
  // Integer-valued observations: every partial sum is exact.
  EXPECT_EQ(hist.sum(), kThreads * (sum + 0.5));
}

TEST(MetricCellTest, SlotsOfExitedThreadsAreReusedExactly) {
  MetricRegistry registry;
  Counter& counter = registry.AddCounter("oasis_test_total", "help");
  Histogram& hist = registry.AddHistogram("oasis_test_hist", "help", {2.0});
  // 3x the slot count of short-lived threads, in waves of at most 8 alive,
  // like the fresh ThreadPool each RunErrorCurve call builds. Without reuse,
  // two thirds of them would fall through to the shared cell.
  constexpr int kThreads = 3 * internal::kMetricSlots;
  constexpr int kWave = 8;
  constexpr int kIterations = 500;
  std::atomic<int> on_shared_cell{0};
  for (int started = 0; started < kThreads; started += kWave) {
    std::vector<std::thread> wave;
    for (int t = 0; t < kWave; ++t) {
      wave.emplace_back([&] {
        for (int i = 0; i < kIterations; ++i) {
          counter.Add(2);
          hist.Observe(1.0);
        }
        if (internal::MetricSlot() == internal::kSharedMetricSlot) {
          on_shared_cell.fetch_add(1);
        }
      });
    }
    for (std::thread& thread : wave) thread.join();
  }
  EXPECT_EQ(on_shared_cell.load(), 0);
  EXPECT_EQ(counter.value(), int64_t{2} * kThreads * kIterations);
  EXPECT_EQ(hist.count(), int64_t{kThreads} * kIterations);
  EXPECT_EQ(hist.bucket_count(0), int64_t{kThreads} * kIterations);
  EXPECT_EQ(hist.overflow_count(), 0);
  EXPECT_EQ(hist.sum(), static_cast<double>(kThreads) * kIterations);
}

TEST(MetricCellTest, ResetValuesZeroesEveryCell) {
  MetricRegistry registry;
  Counter& counter = registry.AddCounter("oasis_test_total", "help");
  Histogram& hist =
      registry.AddHistogram("oasis_test_hist", "help", {1.0, 2.0, 3.0, 4.0,
                                                        5.0, 6.0, 7.0, 8.0});
  Gauge& gauge = registry.AddGauge("oasis_test_gauge", "help");
  // Fill cells on several threads (own slots) and on this one.
  std::vector<std::thread> threads;
  for (int t = 0; t < 6; ++t) {
    threads.emplace_back([&, t] {
      counter.Add(t + 1);
      hist.Observe(static_cast<double>(t) + 0.5);
    });
  }
  for (std::thread& thread : threads) thread.join();
  counter.Add(100);
  hist.Observe(100.0);
  gauge.Set(3.0);
  ASSERT_EQ(counter.value(), 121);
  ASSERT_EQ(hist.count(), 7);

  registry.ResetValues();
  EXPECT_EQ(counter.value(), 0);
  EXPECT_EQ(hist.count(), 0);
  EXPECT_EQ(hist.sum(), 0.0);
  EXPECT_EQ(hist.overflow_count(), 0);
  for (size_t i = 0; i < hist.num_buckets(); ++i) {
    EXPECT_EQ(hist.bucket_count(i), 0) << i;
  }
  EXPECT_EQ(gauge.value(), 0.0);

  // Cells keep accumulating from zero after the reset.
  std::thread([&] { counter.Add(5); }).join();
  counter.Add(1);
  EXPECT_EQ(counter.value(), 6);
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

#if !defined(OASIS_TELEMETRY_DISABLED)
TEST(TraceCollectorTest, ConcurrentSpansKeepDistinctStableLanesAndLoseNothing) {
  ScopedEnable on(true);
  TraceCollector& collector = DefaultTraceCollector();
  collector.Clear();
  constexpr int kThreads = 8;
  constexpr int kSpans = 1000;
  std::vector<int> lanes(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&collector, &lanes, t] {
      lanes[static_cast<size_t>(t)] = collector.CurrentThreadLane();
      for (int i = 0; i < kSpans; ++i) {
        TELEMETRY_SPAN("lane_test", "test");
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  const std::set<int> distinct(lanes.begin(), lanes.end());
  EXPECT_EQ(distinct.size(), static_cast<size_t>(kThreads));
  std::map<int, int> spans_per_lane;
  for (const TraceEvent& event : collector.Snapshot()) {
    ASSERT_EQ(event.name, "lane_test");
    ++spans_per_lane[event.tid];
  }
  EXPECT_EQ(collector.dropped(), 0);
  ASSERT_EQ(spans_per_lane.size(), static_cast<size_t>(kThreads));
  for (int lane : lanes) EXPECT_EQ(spans_per_lane[lane], kSpans) << lane;
  collector.Clear();
}
#endif  // !defined(OASIS_TELEMETRY_DISABLED)

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
    const experiments::ErrorCurve instrumented =
        RunErrorCurve(experiments::MakeOasisSpec(OasisOptions{}, strata),
                      pool.scored, oracle, pool.true_measures.f_alpha, options)
            .ValueOrDie();

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
// the Prometheus text, and spans from every layer category in the trace —
// without a span per label. OASIS asks for one label per round trip, so its
// oracle work shows only in the counters; the oracle spans come from a
// static sampler's batched queries through the same stack.
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
  const std::vector<TraceEvent> oasis_events = DefaultTraceCollector().Snapshot();
  for (const TraceEvent& event : oasis_events) {
    categories.insert(event.category);
  }
  EXPECT_TRUE(categories.count("runner")) << "missing runner spans";
  EXPECT_TRUE(categories.count("sampler")) << "missing sampler spans";
  // A few spans per repeat (repeat, run_trajectory) plus the run's own
  // (run_error_curve, reduce) — never one per label: 3 repeats x 100 labels
  // would be 300 and more.
  constexpr size_t kMaxSpansPerRepeat = 4;
  EXPECT_LE(oasis_events.size(),
            kMaxSpansPerRepeat * static_cast<size_t>(options.repeats));

  DefaultTraceCollector().Clear();
  ASSERT_TRUE(RunErrorCurve(experiments::MakePassiveSpec(/*alpha=*/0.5),
                            pool.scored, oracle, pool.true_measures.f_alpha,
                            options)
                  .ok());
  categories.clear();
  for (const TraceEvent& event : DefaultTraceCollector().Snapshot()) {
    categories.insert(event.category);
  }
  EXPECT_TRUE(categories.count("oracle")) << "missing oracle spans";
  DefaultTraceCollector().Clear();
}
#endif  // !defined(OASIS_TELEMETRY_DISABLED)

}  // namespace
}  // namespace telemetry
}  // namespace oasis
