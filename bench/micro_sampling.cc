// google-benchmark micro-benches for the sampling hot paths: alias-table vs
// linear-scan discrete draws (the Table 3 cost asymmetry at its core), the
// per-iteration cost of each sampler as a function of K and N, the fused
// zero-allocation OASIS step against the Fenwick step path, the
// per-repeat label-cache cost, and CSF stratification construction cost.
//
// Besides the console output, every run writes a machine-readable
// BENCH_micro.json (path override: OASIS_BENCH_JSON) with steps/sec per
// sampler and configuration, so the perf trajectory is trackable across
// commits.

#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "common/alias_table.h"
#include "common/logging.h"
#include "common/fenwick_tree.h"
#include "common/random.h"
#include "core/mass_kernel.h"
#include "core/oasis.h"
#include "datagen/scenario.h"
#include "experiments/runner.h"
#include "oracle/fault_injecting_oracle.h"
#include "oracle/ground_truth_oracle.h"
#include "oracle/oracle_stack.h"
#include "oracle/remote_oracle.h"
#include "oracle/retry_policy.h"
#include "sampling/importance.h"
#include "sampling/passive.h"
#include "service/client.h"
#include "service/session_manager.h"
#include "strata/csf.h"
#include "telemetry/telemetry.h"

namespace oasis {
namespace {

/// Synthetic imbalanced pool of size n for sampler benches.
struct BenchPool {
  ScoredPool scored;
  std::vector<uint8_t> truth;
};

BenchPool MakePool(int64_t n) {
  Rng rng(99);
  BenchPool pool;
  for (int64_t i = 0; i < n; ++i) {
    const bool match = rng.NextBernoulli(0.01);
    const double margin = (match ? 1.0 : -1.0) + 0.6 * rng.NextGaussian();
    pool.truth.push_back(match ? 1 : 0);
    pool.scored.scores.push_back(margin);
    pool.scored.predictions.push_back(margin >= 0.0 ? 1 : 0);
  }
  return pool;
}

/// Pool-scale fixture for the large-K tier (K >= 100k): four items per
/// stratum over a 4K-item pool, assigned in contiguous blocks. CSF targets
/// stratum counts in the tens-to-hundreds; the pool-scale tier assigns
/// directly (as the large-K tests do), so the bench measures the step paths
/// and not the stratifier.
struct LargeKBench {
  BenchPool pool;
  std::shared_ptr<const Strata> strata;
};

const LargeKBench& LargeKFixture(size_t k) {
  static auto* cache = new std::map<size_t, LargeKBench>();
  auto it = cache->find(k);
  if (it == cache->end()) {
    LargeKBench fixture;
    fixture.pool = MakePool(static_cast<int64_t>(4 * k));
    std::vector<int32_t> assignment(4 * k);
    for (size_t i = 0; i < assignment.size(); ++i) {
      assignment[i] = static_cast<int32_t>(i / 4);
    }
    fixture.strata = std::make_shared<const Strata>(
        Strata::FromAssignment(assignment).ValueOrDie());
    it = cache->emplace(k, std::move(fixture)).first;
  }
  return it->second;
}

/// Everything one OASIS step bench run needs, with K routing: CSF
/// stratification of the shared 100k pool below 100k strata, the pool-scale
/// fixture above.
struct StepBenchContext {
  std::unique_ptr<GroundTruthOracle> oracle;
  std::unique_ptr<LabelCache> labels;
  std::unique_ptr<OasisSampler> sampler;
};

StepBenchContext MakeStepBench(size_t k, OasisOptions options) {
  StepBenchContext ctx;
  if (k >= 1000000) {
    // At K = 1M the timed window holds only a few hundred iterations while a
    // single drift rebuild costs milliseconds, so how many rebuilds happen to
    // land in the window dominates the measurement (huge run-to-run
    // variance). Widen the drift gate so these rows measure the steady-state
    // sub-linear draw/update path, not the rebuild.
    options.fenwick_rebuild_tol = 0.1;
  }
  if (k >= 100000) {
    const LargeKBench& fixture = LargeKFixture(k);
    ctx.oracle = std::make_unique<GroundTruthOracle>(fixture.pool.truth);
    ctx.labels = std::make_unique<LabelCache>(ctx.oracle.get());
    ctx.sampler = OasisSampler::Create(&fixture.pool.scored, ctx.labels.get(),
                                       fixture.strata, options, Rng(4))
                      .ValueOrDie();
  } else {
    static BenchPool* pool = new BenchPool(MakePool(100000));
    ctx.oracle = std::make_unique<GroundTruthOracle>(pool->truth);
    ctx.labels = std::make_unique<LabelCache>(ctx.oracle.get());
    ctx.sampler = OasisSampler::CreateWithCsf(&pool->scored, ctx.labels.get(),
                                              k, options, Rng(4))
                      .ValueOrDie();
  }
  // Warm to steady state before the framework starts timing: while F-hat is
  // still converging, every few steps cross the drift gate and trigger an
  // O(K) rebuild, so the early-phase rate is a different (and iteration-count
  // dependent) quantity from the steady-state rate the sweep compares across
  // K. ~2k labels settle F-hat enough that rebuilds become rare.
  for (int i = 0; i < 2000; ++i) {
    OASIS_CHECK_OK(ctx.sampler->Step());
  }
  return ctx;
}

void BM_AliasTableSample(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(1);
  std::vector<double> weights(n);
  for (double& w : weights) w = rng.NextDouble() + 1e-6;
  AliasTable table = AliasTable::Build(weights).ValueOrDie();
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.Sample(rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AliasTableSample)->Arg(1000)->Arg(100000)->Arg(1000000);

void BM_LinearScanSample(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(2);
  std::vector<double> weights(n);
  for (double& w : weights) w = rng.NextDouble() + 1e-6;
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.NextDiscreteLinear(weights));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LinearScanSample)->Arg(1000)->Arg(100000)->Arg(1000000);

/// O(log n) Fenwick inverse-CDF draw — the dynamic middle ground between the
/// O(1)-draw/O(n)-rebuild alias table and the O(n) linear scan.
void BM_FenwickSample(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(8);
  std::vector<double> weights(n);
  for (double& w : weights) w = rng.NextDouble() + 1e-6;
  FenwickTree tree = FenwickTree::Build(weights).ValueOrDie();
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.Sample(rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FenwickSample)->Arg(1000)->Arg(100000)->Arg(1000000);

/// O(log n) Fenwick point update — the cost of keeping the distribution
/// current after a single-coordinate change (alias tables pay O(n) here).
void BM_FenwickUpdate(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(9);
  std::vector<double> weights(n);
  for (double& w : weights) w = rng.NextDouble() + 1e-6;
  FenwickTree tree = FenwickTree::Build(weights).ValueOrDie();
  size_t i = 0;
  for (auto _ : state) {
    tree.Update(i, 0.5 + 0.25 * static_cast<double>(i % 7));
    benchmark::DoNotOptimize(tree);
    i = (i + 7919) % n;  // Prime stride: touch varied tree paths.
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FenwickUpdate)->Arg(1000)->Arg(100000)->Arg(1000000);

void BM_AliasTableBuild(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(3);
  std::vector<double> weights(n);
  for (double& w : weights) w = rng.NextDouble() + 1e-6;
  for (auto _ : state) {
    auto table = AliasTable::Build(weights);
    benchmark::DoNotOptimize(table);
  }
}
BENCHMARK(BM_AliasTableBuild)->Arg(1000)->Arg(100000)->Arg(1000000);

/// The fused step's stratum draw alone (CertifiedMixtureDraw) over fixed
/// prefix sums shaped like a sampler's: stratum weights summing to ~1 and v*
/// masses spread over three orders of magnitude, at the default epsilon.
void BM_CertifiedMixtureDraw(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(5);
  std::vector<double> weight_prefix(n), mass_prefix(n);
  double weight_sum = 0.0, mass_sum = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double weight = (0.5 + rng.NextDouble()) / static_cast<double>(n);
    weight_sum += weight;
    mass_sum += weight * std::pow(10.0, -3.0 * rng.NextDouble());
    weight_prefix[i] = weight_sum;
    mass_prefix[i] = mass_sum;
  }
  const double epsilon = OasisOptions{}.epsilon;
  for (auto _ : state) {
    benchmark::DoNotOptimize(CertifiedMixtureDraw(
        weight_prefix.data(), mass_prefix.data(), epsilon, rng.NextDouble(), n));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CertifiedMixtureDraw)->Arg(30)->Arg(1000)->Arg(100000);

/// One OASIS iteration through the fused zero-allocation path (the default).
void BM_OasisStep(benchmark::State& state) {
  const size_t k = static_cast<size_t>(state.range(0));
  static BenchPool* pool = new BenchPool(MakePool(100000));
  GroundTruthOracle oracle(pool->truth);
  LabelCache labels(&oracle);
  auto sampler = OasisSampler::CreateWithCsf(&pool->scored, &labels, k,
                                             OasisOptions{}, Rng(4))
                     .ValueOrDie();
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler->Step().ok());
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["K"] = static_cast<double>(sampler->strata().num_strata());
  state.SetLabel("K=" + std::to_string(sampler->strata().num_strata()));
}
BENCHMARK(BM_OasisStep)
    ->Arg(10)
    ->Arg(30)
    ->Arg(60)
    ->Arg(120)
    ->Arg(1000)
    ->Arg(10000);

/// One OASIS iteration through the Fenwick-tree path: O(log K) draw +
/// single-stratum update, with O(K) mass rebuilds only on F-hat drift. The
/// point of comparison for BM_OasisStep (fused O(K)) as K grows; the 100k and
/// 1M rows are the pool-scale tier.
void BM_OasisStepFenwick(benchmark::State& state) {
  const size_t k = static_cast<size_t>(state.range(0));
  OasisOptions options;
  options.step_path = OasisStepPath::kFenwick;
  StepBenchContext ctx = MakeStepBench(k, options);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctx.sampler->Step().ok());
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["K"] =
      static_cast<double>(ctx.sampler->strata().num_strata());
  state.SetLabel("K=" + std::to_string(ctx.sampler->strata().num_strata()));
}
BENCHMARK(BM_OasisStepFenwick)
    ->Arg(10)
    ->Arg(30)
    ->Arg(60)
    ->Arg(120)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(100000)
    ->Arg(1000000);

/// Batched OASIS stepping: each bench iteration performs range(1) fused
/// steps through StepBatch, amortising dispatch and validation.
void BM_OasisStepBatch(benchmark::State& state) {
  const size_t k = static_cast<size_t>(state.range(0));
  const int64_t batch = state.range(1);
  static BenchPool* pool = new BenchPool(MakePool(100000));
  GroundTruthOracle oracle(pool->truth);
  LabelCache labels(&oracle);
  auto sampler = OasisSampler::CreateWithCsf(&pool->scored, &labels, k,
                                             OasisOptions{}, Rng(4))
                     .ValueOrDie();
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler->StepBatch(batch).ok());
  }
  state.SetItemsProcessed(state.iterations() * batch);
  state.counters["K"] = static_cast<double>(sampler->strata().num_strata());
  state.counters["batch"] = static_cast<double>(batch);
  state.SetLabel("K=" + std::to_string(sampler->strata().num_strata()) +
                 " batch=" + std::to_string(batch));
}
BENCHMARK(BM_OasisStepBatch)
    ->Args({30, 64})
    ->Args({30, 256})
    ->Args({120, 64})
    ->Args({120, 256});

/// Per-repeat sampler creation through a shared MethodSpec over a 20k pool
/// at K = range(0): what the runner pays per repeat and the session server
/// per session. The spec prepares its setup (validation, Algorithm 2) on the
/// first factory call, made before timing starts, so each timed call is the
/// O(K) create alone. Items/sec counts samplers created.
void BM_OasisCreate(benchmark::State& state) {
  const size_t k = static_cast<size_t>(state.range(0));
  static BenchPool* pool = new BenchPool(MakePool(20000));
  static GroundTruthOracle* oracle = new GroundTruthOracle(pool->truth);
  auto strata = std::make_shared<const Strata>(
      StratifyCsf(pool->scored.scores, k).ValueOrDie());
  const experiments::MethodSpec spec =
      experiments::MakeOasisSpec(OasisOptions{}, strata);
  LabelCache labels(oracle);
  OASIS_CHECK_OK(spec.factory(&pool->scored, &labels, Rng(0)).status());
  uint64_t seed = 1;
  for (auto _ : state) {
    auto sampler = spec.factory(&pool->scored, &labels, Rng(seed++));
    benchmark::DoNotOptimize(sampler.ok());
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["K"] = static_cast<double>(strata->num_strata());
}
BENCHMARK(BM_OasisCreate)->Arg(30);

void BM_PassiveStep(benchmark::State& state) {
  static BenchPool* pool = new BenchPool(MakePool(100000));
  GroundTruthOracle oracle(pool->truth);
  LabelCache labels(&oracle);
  auto sampler =
      PassiveSampler::Create(&pool->scored, &labels, 0.5, Rng(5)).ValueOrDie();
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler->Step().ok());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PassiveStep);

void BM_PassiveStepBatch(benchmark::State& state) {
  const int64_t batch = state.range(0);
  static BenchPool* pool = new BenchPool(MakePool(100000));
  GroundTruthOracle oracle(pool->truth);
  LabelCache labels(&oracle);
  auto sampler =
      PassiveSampler::Create(&pool->scored, &labels, 0.5, Rng(5)).ValueOrDie();
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler->StepBatch(batch).ok());
  }
  state.SetItemsProcessed(state.iterations() * batch);
  state.counters["batch"] = static_cast<double>(batch);
}
BENCHMARK(BM_PassiveStepBatch)->Arg(256);

void BM_ImportanceStepAlias(benchmark::State& state) {
  const int64_t n = state.range(0);
  BenchPool pool = MakePool(n);
  GroundTruthOracle oracle(pool.truth);
  LabelCache labels(&oracle);
  auto sampler = ImportanceSampler::Create(&pool.scored, &labels,
                                           ImportanceOptions{}, Rng(6))
                     .ValueOrDie();
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler->Step().ok());
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["N"] = static_cast<double>(n);
}
BENCHMARK(BM_ImportanceStepAlias)->Arg(10000)->Arg(100000)->Arg(300000);

void BM_ImportanceStepLinear(benchmark::State& state) {
  const int64_t n = state.range(0);
  BenchPool pool = MakePool(n);
  GroundTruthOracle oracle(pool.truth);
  LabelCache labels(&oracle);
  ImportanceOptions options;
  options.backend = SamplingBackend::kLinearScan;
  auto sampler =
      ImportanceSampler::Create(&pool.scored, &labels, options, Rng(7))
          .ValueOrDie();
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler->Step().ok());
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["N"] = static_cast<double>(n);
}
BENCHMARK(BM_ImportanceStepLinear)->Arg(10000)->Arg(100000)->Arg(300000);

/// Whole-experiment fan-out: one iteration = one RunErrorCurve of 32 OASIS
/// repeats sharded over range(0) worker threads. Items/sec counts labels
/// (repeats x budget), so the speedup at t threads is the ratio of this
/// row's steps/sec to the threads=1 row — main() also folds that ratio into
/// BENCH_micro.json as a `speedup_vs_1thread` metric per row.
void BM_RunnerParallel(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  static BenchPool* pool = new BenchPool(MakePool(20000));
  static GroundTruthOracle* oracle = new GroundTruthOracle(pool->truth);
  static auto* strata = new std::shared_ptr<const Strata>(
      std::make_shared<const Strata>(
          StratifyCsf(pool->scored.scores, 30).ValueOrDie()));

  experiments::RunnerOptions options;
  options.repeats = 32;
  options.num_threads = threads;
  options.trajectory.budget = 2000;
  options.trajectory.checkpoint_every = 500;
  const experiments::MethodSpec spec =
      experiments::MakeOasisSpec(OasisOptions{}, *strata);
  for (auto _ : state) {
    auto curve = experiments::RunErrorCurve(spec, pool->scored, *oracle,
                                            /*true_f=*/0.5, options);
    benchmark::DoNotOptimize(curve.ok());
  }
  state.SetItemsProcessed(state.iterations() * options.repeats *
                          options.trajectory.budget);
  state.counters["threads"] = static_cast<double>(threads);
  state.counters["repeats"] = static_cast<double>(options.repeats);
  state.SetLabel("threads=" + std::to_string(threads));
}
BENCHMARK(BM_RunnerParallel)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/// Remote-oracle batching: one bench iteration runs a fresh ImportanceSampler
/// for kRemoteLabels iterations against a RemoteOracle-wrapped ground truth,
/// stepping in range(0)-sized batches (1 = per-query labelling). Wall-clock
/// throughput is the real number; the counters carry the *simulated* economy:
/// round trips per 1k charged labels and effective labels per simulated
/// second. main() derives `round_trips_saved_vs_perquery` for the batched
/// rows — the headline ratio (>= 4x at batch 64 is the subsystem's
/// acceptance bar; kQueryBatchChunk-capped batches approach ~64x).
void BM_RemoteOracle(benchmark::State& state) {
  const int64_t batch = state.range(0);
  constexpr int64_t kRemoteLabels = 2048;
  static BenchPool* pool = new BenchPool(MakePool(100000));
  static GroundTruthOracle* inner = new GroundTruthOracle(pool->truth);
  RemoteOracleOptions remote_options;
  remote_options.round_trip_seconds = 30.0;
  remote_options.per_item_seconds = 12.0;
  remote_options.cost_per_label = 0.05;
  remote_options.jitter_fraction = 0.0;

  int64_t labels = 0;
  int64_t round_trips = 0;
  int64_t latency_ns = 0;
  for (auto _ : state) {
    RemoteOracle remote(inner, remote_options);
    LabelCache cache(&remote);
    auto sampler = ImportanceSampler::Create(&pool->scored, &cache,
                                             ImportanceOptions{}, Rng(12))
                       .ValueOrDie();
    for (int64_t done = 0; done < kRemoteLabels; done += batch) {
      benchmark::DoNotOptimize(
          sampler->StepBatch(std::min(batch, kRemoteLabels - done)).ok());
    }
    const RemoteOracleStats stats = remote.stats();
    labels += stats.labels_fetched;
    round_trips += stats.round_trips;
    latency_ns += stats.simulated_latency_ns;
  }
  state.SetItemsProcessed(state.iterations() * kRemoteLabels);
  state.counters["batch"] = static_cast<double>(batch);
  state.counters["round_trips_per_1k_labels"] =
      labels > 0 ? 1000.0 * static_cast<double>(round_trips) /
                       static_cast<double>(labels)
                 : 0.0;
  state.counters["effective_labels_per_sim_sec"] =
      latency_ns > 0 ? static_cast<double>(labels) /
                           (static_cast<double>(latency_ns) * 1e-9)
                     : 0.0;
  state.SetLabel("batch=" + std::to_string(batch));
}
BENCHMARK(BM_RemoteOracle)->Arg(1)->Arg(64)->Arg(256);

/// Happy-path cost of the fault-tolerant oracle stack: an ImportanceSampler
/// labels kRetryLabels items in 256-item batches against three stacks of
/// increasing depth — range(0) = 0: bare GroundTruthOracle (infallible fast
/// path), 1: + FaultInjectingOracle with all rates zero (fallible path, no
/// faults fired), 2: + RetryingOracle on top (full retry/breaker machinery,
/// single attempt per batch). The gap between rows is pure decorator
/// overhead — no fault ever fires, no retry ever happens — and bounds what
/// `RunnerOptions::retry_policy` costs a fault-free experiment. main()
/// derives `retry_stack_overhead_pct` from rows 0 and 2.
void BM_RetryOverhead(benchmark::State& state) {
  const int64_t depth = state.range(0);
  constexpr int64_t kRetryLabels = 4096;
  constexpr int64_t kBatch = 256;
  static BenchPool* pool = new BenchPool(MakePool(100000));
  static GroundTruthOracle* inner = new GroundTruthOracle(pool->truth);
  // All-zero rates: the schedule RNG still advances per attempt (that is the
  // determinism contract), but every batch resolves on the first try.
  const FaultInjectionOptions calm;
  RetryPolicy policy;

  int64_t attempts = 0;
  for (auto _ : state) {
    OracleStackBuilder builder;
    if (depth >= 1) builder.FaultInjection(calm);
    if (depth >= 2) builder.Retry(policy);
    const OracleStack stack = builder.Build(inner).ValueOrDie();
    LabelCache cache(&stack.top());
    auto sampler = ImportanceSampler::Create(&pool->scored, &cache,
                                             ImportanceOptions{}, Rng(12))
                       .ValueOrDie();
    for (int64_t done = 0; done < kRetryLabels; done += kBatch) {
      benchmark::DoNotOptimize(
          sampler->StepBatch(std::min(kBatch, kRetryLabels - done)).ok());
    }
    if (depth >= 2) attempts += stack.retrying()->stats().attempts;
  }
  state.SetItemsProcessed(state.iterations() * kRetryLabels);
  state.counters["stack_depth"] = static_cast<double>(depth);
  if (depth >= 2) {
    state.counters["attempts_per_iter"] =
        state.iterations() > 0
            ? static_cast<double>(attempts) /
                  static_cast<double>(state.iterations())
            : 0.0;
  }
  state.SetLabel(depth == 0   ? "bare"
                 : depth == 1 ? "fault-inject(calm)"
                              : "retry+fault-inject(calm)");
}
BENCHMARK(BM_RetryOverhead)->Arg(0)->Arg(1)->Arg(2);

/// The served OASIS step: fused K=30 on the noisy-flip05 scenario, so every
/// step is one charged one-item label request — the label-sequential regime
/// `oasis_serve` runs. range(0) = 0: the bare noisy oracle (infallible
/// path); 1: through the serve-noisy-stack workload's stack, built by
/// OracleStackBuilder — fault injection (transient 0.05, timeout 0.01, item
/// drop 0.02) under the default remote latency model under retry (8
/// attempts), so faults really fire and are retried. The gap between the
/// rows is the fallible stack's per-label cost; `attempts_per_label` counts
/// the retry layer's attempts per step (row 1 only).
void BM_FallibleOasisStep(benchmark::State& state) {
  const bool stacked = state.range(0) != 0;
  static const datagen::ScenarioPool* pool = new datagen::ScenarioPool(
      datagen::GenerateScenario(
          datagen::ScenarioByName("noisy-flip05").ValueOrDie())
          .ValueOrDie());
  const std::unique_ptr<Oracle> noisy =
      datagen::MakeScenarioOracle(*pool).ValueOrDie();
  OracleStackBuilder builder;
  if (stacked) {
    FaultInjectionOptions faults;
    faults.transient_failure_rate = 0.05;
    faults.timeout_rate = 0.01;
    faults.item_drop_rate = 0.02;
    RetryPolicy policy;
    policy.max_attempts = 8;
    builder.FaultInjection(faults).Remote(RemoteOracleOptions{}).Retry(policy);
  }
  const OracleStack stack = builder.Build(noisy.get()).ValueOrDie();
  LabelCache labels(&stack.top());
  OasisOptions options;
  options.alpha = pool->spec.alpha;
  auto sampler = OasisSampler::CreateWithCsf(&pool->scored, &labels, 30,
                                             options, Rng(4))
                     .ValueOrDie();
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler->Step().ok());
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["K"] = static_cast<double>(sampler->strata().num_strata());
  if (stacked && state.iterations() > 0) {
    state.counters["attempts_per_label"] =
        static_cast<double>(stack.retrying()->stats().attempts) /
        static_cast<double>(labels.labels_consumed());
  }
  state.SetLabel(stacked ? "noisy, fault+remote+retry" : "noisy, bare");
}
BENCHMARK(BM_FallibleOasisStep)->Arg(0)->Arg(1);

/// The label-cache cost one experiment repeat pays at pool scale: build a
/// LabelCache over a GroundTruthOracle of range(0) items (zeroing its
/// bitmaps), then make uniform random Query calls until 5000 labels are
/// charged, the batch workloads' budget. Items/sec counts charged labels;
/// `queries_per_repeat` also counts the free replays.
void BM_LabelCacheRepeat(benchmark::State& state) {
  const int64_t n = state.range(0);
  constexpr int64_t kBudget = 5000;
  Rng truth_rng(5);
  std::vector<uint8_t> truth(static_cast<size_t>(n));
  for (uint8_t& t : truth) t = truth_rng.NextBernoulli(0.1) ? 1 : 0;
  const GroundTruthOracle oracle(std::move(truth));
  Rng rng(6);
  int64_t queries = 0;
  for (auto _ : state) {
    LabelCache cache(&oracle);
    while (cache.labels_consumed() < kBudget) {
      const auto item = static_cast<int64_t>(
          rng.NextBounded(static_cast<uint64_t>(n)));
      benchmark::DoNotOptimize(cache.Query(item, rng));
    }
    queries += cache.total_queries();
  }
  state.SetItemsProcessed(state.iterations() * kBudget);
  if (state.iterations() > 0) {
    state.counters["queries_per_repeat"] =
        static_cast<double>(queries) / static_cast<double>(state.iterations());
  }
}
BENCHMARK(BM_LabelCacheRepeat)->Arg(20000)->Arg(400000);

/// Telemetry cost on the hottest loop in the repo: the fused OASIS step at
/// K=1000, with the registry runtime switch range(0) = 0: off (the production
/// default — one relaxed atomic load per instrumented site), 1: on (counters
/// and gauges live). The gap between rows 0 and 1 is the whole price of
/// enabling telemetry; main() derives `telemetry_overhead_pct` from it, and
/// CI gates the enabled overhead at <= 2% (compiled out entirely under
/// -DOASIS_TELEMETRY=OFF).
/// The threads:4 rows run one sampler per thread, all bumping the same
/// process-wide counters — the shape of a 4-worker RunErrorCurve — and are
/// gated against their own 4-thread off row.
void BM_TelemetryOverhead(benchmark::State& state) {
  const int64_t mode = state.range(0);
  static BenchPool* pool = new BenchPool(MakePool(100000));
  GroundTruthOracle oracle(pool->truth);
  LabelCache labels(&oracle);
  auto sampler = OasisSampler::CreateWithCsf(
                     &pool->scored, &labels, 1000, OasisOptions{},
                     Rng(4 + static_cast<uint64_t>(state.thread_index())))
                     .ValueOrDie();
  // Every thread sets the same value before the start barrier of the timed
  // loop and resets it after the stop barrier.
  telemetry::SetEnabled(mode == 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler->Step().ok());
  }
  telemetry::SetEnabled(false);
  state.SetItemsProcessed(state.iterations());
  state.counters["telemetry_mode"] = benchmark::Counter(
      static_cast<double>(mode), benchmark::Counter::kAvgThreads);
  state.SetLabel(mode == 0 ? "off" : "on");
}
BENCHMARK(BM_TelemetryOverhead)->Arg(0)->Arg(1);
BENCHMARK(BM_TelemetryOverhead)->Arg(0)->Arg(1)->Threads(4)->UseRealTime();

/// Known-truth scenario-pool generation (datagen/scenario.h): the fixed cost
/// every oasis_gen / oasis_run invocation and scenario test pays before a
/// single label is drawn. range(0) indexes kGenScenarios, spanning the cheap
/// stripe construction, a 50k-item imbalance pool, the cluster sampler, and
/// the SIS-breaker inversion layout. Items/sec counts pool items.
const char* const kGenScenarios[] = {"stripe-f90", "imbalance-1e3",
                                     "clustered", "sis-inversion"};

void BM_ScenarioGen(benchmark::State& state) {
  const datagen::ScenarioSpec spec =
      datagen::ScenarioByName(kGenScenarios[state.range(0)]).ValueOrDie();
  for (auto _ : state) {
    auto pool = datagen::GenerateScenario(spec);
    benchmark::DoNotOptimize(pool);
  }
  state.SetItemsProcessed(state.iterations() * spec.pool_size);
  state.counters["N"] = static_cast<double>(spec.pool_size);
  state.SetLabel(spec.name);
}
BENCHMARK(BM_ScenarioGen)->Arg(0)->Arg(1)->Arg(2)->Arg(3);

void BM_CsfStratify(benchmark::State& state) {
  const int64_t n = state.range(0);
  BenchPool pool = MakePool(n);
  for (auto _ : state) {
    auto strata = StratifyCsf(pool.scored.scores, 30, pool.scored.scores_are_probabilities);
    benchmark::DoNotOptimize(strata);
  }
  state.counters["N"] = static_cast<double>(n);
}
BENCHMARK(BM_CsfStratify)->Arg(10000)->Arg(100000)->Arg(1000000);

/// End-to-end session-server throughput: range(0) concurrent passive
/// sessions (stream s = Rng::Fork stream s) served to completion through the
/// FULL wire protocol — start, one asynchronous full-budget advance each,
/// checkpoint settle, close. One iteration = one complete serve of all
/// sessions on a fresh manager (backend generation included, as in
/// oasis_serve); items/sec therefore counts sessions served per second. The
/// 1000-session row is the scale contract of the service subsystem
/// (tests/session_server_test.cc ThousandSessionsStress).
void BM_SessionServer(benchmark::State& state) {
  const int64_t sessions = state.range(0);
  int64_t requests = 0;
  for (auto _ : state) {
    service::SessionManager manager;
    service::InProcessTransport transport(&manager);
    service::ServiceClient client(&transport);
    std::vector<int64_t> ids;
    ids.reserve(static_cast<size_t>(sessions));
    for (int64_t s = 0; s < sessions; ++s) {
      service::SessionSpec spec;
      spec.scenario = "stripe-f90";
      spec.method = "passive";
      spec.budget = 60;
      spec.checkpoint_every = 30;
      spec.stream = static_cast<uint64_t>(s);
      ids.push_back(client.Start(spec).ValueOrDie());
      ++requests;
    }
    for (const int64_t id : ids) {
      OASIS_CHECK(client.EnqueueLabels(id, 0).ok());
      ++requests;
    }
    for (const int64_t id : ids) {
      benchmark::DoNotOptimize(client.Close(id).ValueOrDie().labels_consumed);
      ++requests;
    }
  }
  state.SetItemsProcessed(state.iterations() * sessions);
  state.counters["sessions"] = static_cast<double>(sessions);
  state.counters["requests_per_iter"] =
      state.iterations() > 0
          ? static_cast<double>(requests) /
                static_cast<double>(state.iterations())
          : 0.0;
}
BENCHMARK(BM_SessionServer)->Arg(64)->Arg(1000);

/// Protocol v1 codec cost per exchange, with no session work: one iteration
/// encodes a request, decodes it (the server's side), encodes the reply and
/// decodes that (the client's side). range(0) = 0: RequestLabels +
/// LabelArrived, the exchange an OASIS session repeats once per slice;
/// 1: StartSession carrying serve-noisy-stack's fault+remote+retry stack +
/// SessionStarted. Items/sec counts round trips; `wire_bytes` is the request
/// plus reply size.
void BM_ProtocolRoundTrip(benchmark::State& state) {
  service::Request request;
  service::Response response;
  if (state.range(0) == 0) {
    request = service::RequestLabels{12, 100, true};
    service::LabelArrived arrived;
    arrived.report = {12,   1300, 1412, 0.83333333333333337, true,
                      0.78, true, 0.89285714285714279,       true,
                      false, false};
    arrived.labels_charged = 100;
    response = arrived;
  } else {
    service::StartSession start;
    start.spec.scenario = "noisy-flip05";
    start.spec.stream = 417;
    FaultInjectionOptions fault;
    fault.transient_failure_rate = 0.05;
    fault.timeout_rate = 0.01;
    fault.item_drop_rate = 0.02;
    start.spec.stack.fault_injection = fault;
    start.spec.stack.remote = RemoteOracleOptions{};
    RetryPolicy retry;
    retry.max_attempts = 8;
    start.spec.stack.retry = retry;
    request = start;
    response = service::SessionStarted{417};
  }
  size_t wire_bytes = 0;
  for (auto _ : state) {
    const std::string request_bytes = service::SerializeRequest(request);
    Result<service::Request> decoded = service::ParseRequest(request_bytes);
    benchmark::DoNotOptimize(decoded);
    const std::string response_bytes = service::SerializeResponse(response);
    Result<service::Response> reply = service::ParseResponse(response_bytes);
    benchmark::DoNotOptimize(reply);
    wire_bytes = request_bytes.size() + response_bytes.size();
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["wire_bytes"] = static_cast<double>(wire_bytes);
  state.SetLabel(state.range(0) == 0 ? "request_labels+label_arrived"
                                     : "start_session(stack)+session_started");
}
BENCHMARK(BM_ProtocolRoundTrip)->Arg(0)->Arg(1);

/// Console reporter that additionally captures every finished run into the
/// bench_util JSON writer, keyed by benchmark name with items/sec as the
/// primary throughput number.
class JsonCaptureReporter : public benchmark::ConsoleReporter {
 public:
  explicit JsonCaptureReporter(bench::JsonBenchWriter* writer)
      : writer_(writer) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    benchmark::ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      if (run.error_occurred) continue;
      bench::JsonBenchResult result;
      result.name = run.benchmark_name();
      result.iterations = run.iterations;
      result.metrics["real_time_per_iter_ns"] = run.GetAdjustedRealTime();
      for (const auto& [counter_name, counter] : run.counters) {
        if (counter_name == "items_per_second") {
          result.steps_per_sec = static_cast<double>(counter);
        } else {
          result.metrics[counter_name] = static_cast<double>(counter);
        }
      }
      writer_->Add(std::move(result));
    }
  }

 private:
  bench::JsonBenchWriter* writer_;
};

}  // namespace
}  // namespace oasis

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;

  oasis::bench::JsonBenchWriter writer("micro_sampling");
  oasis::JsonCaptureReporter reporter(&writer);
  benchmark::RunSpecifiedBenchmarks(&reporter);

  // Derived metric: each BM_RunnerParallel row gets its speedup over the
  // threads=1 row of the same sweep, so the JSON artifact carries the
  // scaling curve directly instead of leaving the division to the reader.
  {
    auto& results = writer.mutable_results();
    // Only plain per-run rows participate: with --benchmark_repetitions the
    // reporter also emits .../real_time_mean, _median, _stddev, _cv rows
    // whose "throughput" is a dispersion statistic, not a rate.
    const auto is_sweep_row = [](const oasis::bench::JsonBenchResult& r) {
      return r.name.rfind("BM_RunnerParallel/", 0) == 0 &&
             r.name.size() >= 10 &&
             r.name.compare(r.name.size() - 10, 10, "/real_time") == 0;
    };
    double base_steps_per_sec = 0.0;
    for (const auto& r : results) {
      // First-wins so repeated repetition rows don't silently shift the base.
      if (base_steps_per_sec == 0.0 && r.steps_per_sec > 0 &&
          r.name == "BM_RunnerParallel/1/real_time") {
        base_steps_per_sec = r.steps_per_sec;
      }
    }
    if (base_steps_per_sec > 0.0) {
      for (auto& r : results) {
        if (is_sweep_row(r)) {
          r.metrics["speedup_vs_1thread"] = r.steps_per_sec / base_steps_per_sec;
        }
      }
    }
  }

  // Derived metric: each batched BM_RemoteOracle row gets its round-trip
  // saving over the per-query (batch=1) row — the subsystem's headline
  // number (>= 4x at batch 64) — so the JSON artifact carries the ratio
  // directly.
  {
    auto& results = writer.mutable_results();
    double per_query_trips = 0.0;
    for (const auto& r : results) {
      if (r.name == "BM_RemoteOracle/1") {
        const auto it = r.metrics.find("round_trips_per_1k_labels");
        if (it != r.metrics.end()) per_query_trips = it->second;
        break;
      }
    }
    if (per_query_trips > 0.0) {
      for (auto& r : results) {
        if (r.name.rfind("BM_RemoteOracle/", 0) == 0 &&
            r.name != "BM_RemoteOracle/1") {
          const auto it = r.metrics.find("round_trips_per_1k_labels");
          if (it != r.metrics.end() && it->second > 0.0) {
            r.metrics["round_trips_saved_vs_perquery"] =
                per_query_trips / it->second;
          }
        }
      }
    }
  }

  // Derived metric: the full retry stack's happy-path overhead over the bare
  // oracle, as a percentage — the number docs/FAULT_MODEL.md quotes for
  // "what does arming retry_policy cost a fault-free run".
  {
    auto& results = writer.mutable_results();
    double bare_steps_per_sec = 0.0;
    for (const auto& r : results) {
      if (r.name == "BM_RetryOverhead/0") {
        bare_steps_per_sec = r.steps_per_sec;
        break;
      }
    }
    if (bare_steps_per_sec > 0.0) {
      for (auto& r : results) {
        if (r.name.rfind("BM_RetryOverhead/", 0) == 0 &&
            r.name != "BM_RetryOverhead/0" && r.steps_per_sec > 0.0) {
          r.metrics["retry_stack_overhead_pct"] =
              100.0 * (bare_steps_per_sec / r.steps_per_sec - 1.0);
        }
      }
    }
  }

  // Derived metric: what turning the registry on costs the fused step path,
  // as a percentage over the telemetry-off row of the same shape (same
  // suffix after the mode, e.g. "/real_time/threads:4") — the number
  // docs/TELEMETRY.md quotes and tools/check_bench_regression.py
  // --max-metric gates in CI.
  {
    auto& results = writer.mutable_results();
    const std::string prefix = "BM_TelemetryOverhead/";
    // "BM_TelemetryOverhead/<mode><suffix>" -> {mode, suffix}.
    const auto split = [&prefix](const std::string& name) {
      const size_t end = name.find('/', prefix.size());
      const size_t cut = end == std::string::npos ? name.size() : end;
      return std::make_pair(name.substr(prefix.size(), cut - prefix.size()),
                            name.substr(cut));
    };
    std::map<std::string, double> off_steps_per_sec;  // By suffix.
    for (const auto& r : results) {
      if (r.name.rfind(prefix, 0) != 0) continue;
      const auto [mode, suffix] = split(r.name);
      // First-wins, like the runner sweep above.
      if (mode == "0" && r.steps_per_sec > 0.0) {
        off_steps_per_sec.emplace(suffix, r.steps_per_sec);
      }
    }
    for (auto& r : results) {
      if (r.name.rfind(prefix, 0) != 0 || r.steps_per_sec <= 0.0) continue;
      const auto [mode, suffix] = split(r.name);
      const auto off = off_steps_per_sec.find(suffix);
      if (mode == "0" || off == off_steps_per_sec.end()) continue;
      r.metrics["telemetry_overhead_pct"] =
          100.0 * (off->second / r.steps_per_sec - 1.0);
    }
  }

  const std::string path = oasis::bench::BenchJsonPath("micro");
  if (!writer.WriteToFile(path)) {
    std::fprintf(stderr, "failed to write %s\n", path.c_str());
    return 1;
  }
  std::printf("wrote %s (%zu results)\n", path.c_str(), writer.size());
  benchmark::Shutdown();
  return 0;
}
