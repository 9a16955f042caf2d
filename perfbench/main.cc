// oasis_e2e — runs one end-to-end benchmark workload (perfbench/e2e.h) and
// prints its metrics. perfbench/run.py builds it and renders the workload's
// config from perfbench/workloads.json.
//
// Usage: oasis_e2e --workload=NAME --config=PATH --seed=N --seconds=S
//                  --trace=0|1 --out=DIR
//
// --trace=0 prints the end-to-end metrics of untraced iterations (telemetry
// off); --trace=1 prints the per-layer metrics of a traced run and writes
// DIR/NAME.layers.json and DIR/NAME.trace.json (chrome://tracing). The last
// stdout line is {"correct", "attempted", "failed", "metrics"}; the exit
// status is 0 only when every correctness check passed.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "experiments/config.h"
#include "experiments/runner.h"
#include "perfbench/e2e.h"
#include "telemetry/export.h"
#include "telemetry/telemetry.h"

namespace oasis {
namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

/// Setups setup_s is the median of in an end-to-end run, at the least.
constexpr size_t kSetupSamples = 25;

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Everything a run reports: the operation tally, the correctness verdict
/// and the metrics.
struct Outcome {
  int64_t attempted = 0;
  std::vector<std::string> failures;
  std::vector<Metric> metrics;

  bool correct() const { return failures.empty(); }
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, std::isfinite(value) ? value : 0.0, unit});
  }
};

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : 0.5 * (values[mid - 1] + values[mid]);
}

/// Nearest-rank percentile, p in (0, 1].
double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t rank = static_cast<size_t>(
      std::ceil(p * static_cast<double>(values.size())));
  return values[std::clamp<size_t>(rank, 1, values.size()) - 1];
}

double Ratio(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : 0.0;
}

/// Run seed of iteration i: --seed itself for iteration 0, a splitmix64
/// derivation after that.
uint64_t IterationSeed(uint64_t seed, int i) {
  if (i == 0) return seed;
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL * static_cast<uint64_t>(i);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

/// Labels the workload's own repeats or sessions charged in `it`: counted
/// when observable, else repeats x budget (which the replay pass checks).
double Labels(const Workload& workload, const Iteration& it) {
  if (it.charged_labels >= 0) return static_cast<double>(it.charged_labels);
  return static_cast<double>(workload.run.repeats) *
         static_cast<double>(workload.run.budget);
}

double LabelsPerSecond(const Workload& workload, const Iteration& it) {
  return Ratio(Labels(workload, it), it.run_s);
}

/// Runs one iteration and folds its correctness check into `outcome`.
std::optional<Iteration> RunChecked(const Workload& workload, uint64_t seed,
                                    int parallelism,
                                    const std::string& out_prefix,
                                    std::optional<uint64_t> reference_hash,
                                    Outcome* outcome) {
  outcome->attempted += workload.run.repeats;
  Result<Iteration> it =
      RunIteration(workload, seed, parallelism, out_prefix);
  if (!it.ok()) {
    outcome->failures.push_back("iteration failed: " + it.status().ToString());
    return std::nullopt;
  }
  const CheckReport check = CheckIteration(it.ValueOrDie(), reference_hash);
  outcome->failures.insert(outcome->failures.end(), check.failures.begin(),
                           check.failures.end());
  return std::move(it).ValueOrDie();
}

std::string Quote(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c == '\n' ? ' ' : c;
  }
  return out + "\"";
}

std::string Number(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g",
                std::isfinite(value) ? value : 0.0);
  return buffer;
}

/// The self-describing workload row: the spec as configured (target) next
/// to what the iteration realised.
std::string RowJson(const Workload& workload, const Iteration& it,
                    uint64_t seed, int parallelism) {
  const experiments::ScenarioRunOptions& run = workload.run;
  std::string stack;
  experiments::AppendStackSpecConfig(run.stack, "", &stack);
  std::string row = "{\"name\": " + Quote(workload.name);
  row += ", \"mode\": " + Quote(workload.serve ? "serve" : "batch");
  row += ", \"scenario\": " + Quote(workload.scenario);
  row += ", \"pool_size\": " + Number(static_cast<double>(it.result.summary.pool_size));
  row += ", \"target_k\": " + Number(static_cast<double>(run.target_strata));
  row += ", \"realised_k\": " + Number(static_cast<double>(it.realised_k));
  row += ", \"step_path\": " + Quote(run.step_path);
  row += ", \"budget\": " + Number(static_cast<double>(run.budget));
  row += std::string(workload.serve ? ", \"sessions\": " : ", \"repeats\": ") +
         Number(run.repeats);
  row += std::string(workload.serve ? ", \"clients\": " : ", \"threads\": ") +
         Number(parallelism);
  row += ", \"slice\": " +
         Number(workload.serve ? static_cast<double>(workload.request_slice) : 0.0);
  row += ", \"stack\": " + Quote(stack);
  row += ", \"seed\": " + Number(static_cast<double>(seed)) + "}";
  return row;
}

/// End-to-end mode: an untimed warm-up iteration, untraced iterations until
/// `seconds` have passed, then the replay pass.
Outcome TimedRun(const Workload& workload, uint64_t seed, double seconds,
                 const std::string& out_prefix) {
  Outcome outcome;
  const int parallelism = workload.Parallelism();
  const int cycle = workload.seeds_per_run;
  std::vector<Iteration> runs;
  std::vector<uint64_t> hashes;
  // The warm-up is checked but not timed: first-touch page faults and cold
  // caches land in it, not in the first timed iteration.
  if (!RunChecked(workload, seed, parallelism, out_prefix, std::nullopt,
                  &outcome)
           .has_value()) {
    return outcome;
  }
  const Clock::time_point start = Clock::now();
  for (int i = 0; i < cycle || SecondsSince(start) < seconds; ++i) {
    // A cycle's second pass over a seed must reproduce the first bit for bit.
    const std::optional<uint64_t> reference =
        i < cycle ? std::nullopt : std::optional<uint64_t>(hashes[i % cycle]);
    std::optional<Iteration> it =
        RunChecked(workload, IterationSeed(seed, i % cycle), parallelism,
                   out_prefix, reference, &outcome);
    if (!it.has_value()) break;
    if (i < cycle) hashes.push_back(FinalEstimatesHash(it->result.summary));
    std::fprintf(stderr, "iteration %d: setup %.4f s, run %.4f s, %.4g labels/s\n",
                 i, it->setup_s, it->run_s, LabelsPerSecond(workload, *it));
    runs.push_back(std::move(*it));
  }
  // Replay pass (untimed): iteration 0's seed again with the telemetry
  // registry on. Its estimates must hash identically — runs are
  // deterministic and telemetry is observe-only — and it supplies the exact
  // step and label counts an untraced batch iteration cannot observe.
  std::optional<Iteration> replay;
  if (!runs.empty()) {
    telemetry::ScopedEnable enable(true);
    telemetry::DefaultRegistry().ResetValues();
    replay = RunChecked(workload, seed, parallelism, out_prefix, hashes[0],
                        &outcome);
    telemetry::DefaultTraceCollector().Clear();
  }

  // A whole iteration's times are medians over the timed iterations, so one
  // disturbed iteration cannot move a run's figure.
  std::vector<double> setup, wall, rate, p50, p99;
  size_t requests = 0;
  double abs_err = 0.0;
  const size_t error_iterations =
      std::min(runs.size(), static_cast<size_t>(cycle));
  for (size_t i = 0; i < runs.size(); ++i) {
    const Iteration& it = runs[i];
    setup.push_back(it.setup_s);
    wall.push_back(it.setup_s + it.run_s);
    rate.push_back(LabelsPerSecond(workload, it));
    p50.push_back(Percentile(it.request_ms, 0.50));
    p99.push_back(Percentile(it.request_ms, 0.99));
    requests += it.request_ms.size();
    if (i < error_iterations) {
      abs_err += it.result.summary.final_mean_abs_error /
                 static_cast<double>(error_iterations);
    }
  }
  // Setup is short next to a run on most workloads, so it gets more samples
  // than there are iterations: setups stopped at the first label request.
  while (!runs.empty() && outcome.correct() && setup.size() < kSetupSamples) {
    const Result<double> setup_s = SetupSeconds(workload, seed, parallelism);
    if (!setup_s.ok()) {
      outcome.failures.push_back("setup failed: " +
                                 setup_s.status().ToString());
      break;
    }
    setup.push_back(setup_s.ValueOrDie());
  }
  outcome.Add("wall_s", Median(wall), "s");
  outcome.Add("setup_s", Median(setup), "s");
  outcome.Add("labels_per_s", Median(rate), "labels/s");
  outcome.Add("steps_per_label",
              replay.has_value() ? Ratio(static_cast<double>(replay->steps),
                                         static_cast<double>(replay->charged_labels))
                                 : 0.0,
              "ratio");
  // A latency percentile is a statistic of thousands of requests within one
  // iteration, and its tail is where a shared host's other tenants land, so
  // the run reports the least disturbed iteration's: the lowest.
  const auto lowest = [](const std::vector<double>& values) {
    return values.empty() ? 0.0
                          : *std::min_element(values.begin(), values.end());
  };
  outcome.Add("request_p50_ms", lowest(p50), "ms");
  outcome.Add("request_p99_ms", lowest(p99), "ms");
  outcome.Add("final_abs_err", abs_err, "abs_F");
  outcome.Add("peak_rss_mb", PeakRssMb(), "MB");
  if (!runs.empty()) {
    std::printf("workload %s\n",
                RowJson(workload, runs[0], seed, parallelism).c_str());
  }
  std::printf("iterations %zu, request latency samples %zu\n", runs.size(),
              requests);
  return outcome;
}

/// Span totals the per-layer numbers need from the in-program trace.
struct SpanTotals {
  double repeat_s = 0.0;
  double trajectory_s = 0.0;
  double nested_trajectory_s = 0.0;  // Inside a repeat span on its lane.
  double reduce_s = 0.0;
};

SpanTotals SumSpans(const std::vector<telemetry::TraceEvent>& events) {
  SpanTotals totals;
  std::map<int, std::vector<std::pair<double, double>>> repeats;
  for (const telemetry::TraceEvent& event : events) {
    if (event.name == "repeat") {
      repeats[event.tid].push_back({event.ts_us, event.ts_us + event.dur_us});
      totals.repeat_s += event.dur_us * 1e-6;
    } else if (event.name == "reduce") {
      totals.reduce_s += event.dur_us * 1e-6;
    }
  }
  for (auto& [lane, intervals] : repeats) {
    std::sort(intervals.begin(), intervals.end());
  }
  for (const telemetry::TraceEvent& event : events) {
    if (event.name != "run_trajectory") continue;
    totals.trajectory_s += event.dur_us * 1e-6;
    const auto lane = repeats.find(event.tid);
    if (lane == repeats.end()) continue;
    const auto& intervals = lane->second;
    auto after = std::upper_bound(
        intervals.begin(), intervals.end(),
        std::make_pair(event.ts_us, std::numeric_limits<double>::infinity()));
    if (after != intervals.begin() &&
        std::prev(after)->second >= event.ts_us + event.dur_us) {
      totals.nested_trajectory_s += event.dur_us * 1e-6;
    }
  }
  return totals;
}

/// Per-layer mode: an untraced reference iteration, traced iterations until
/// `seconds` have passed, and an untraced one-thread (one-client) pass.
Outcome TracedRun(const Workload& workload, uint64_t seed, double seconds,
                  const std::string& out_prefix) {
  Outcome outcome;
  const int parallelism = workload.Parallelism();
  const std::optional<Iteration> reference =
      RunChecked(workload, seed, parallelism, out_prefix, std::nullopt,
                 &outcome);
  std::optional<uint64_t> hash;
  if (reference.has_value()) hash = FinalEstimatesHash(reference->result.summary);

  Probe probe;
  std::vector<Iteration> traced;
  Counters counters;
  {
    telemetry::ScopedEnable enable(true);
    telemetry::DefaultRegistry().ResetValues();
    telemetry::DefaultTraceCollector().Clear();
    Probe::Attach(&probe);
    const Clock::time_point start = Clock::now();
    for (int i = 0; reference.has_value() && (i < 1 || SecondsSince(start) < seconds);
         ++i) {
      const int k = i % workload.seeds_per_run;
      std::optional<Iteration> it =
          RunChecked(workload, IterationSeed(seed, k), parallelism, out_prefix,
                     k == 0 ? hash : std::nullopt, &outcome);
      if (!it.has_value()) break;
      if (it->counters.has_value()) counters.Add(*it->counters);
      traced.push_back(std::move(*it));
    }
    Probe::Attach(nullptr);
  }
  const std::vector<telemetry::TraceEvent> events =
      telemetry::DefaultTraceCollector().Snapshot();
  const int64_t dropped = telemetry::DefaultTraceCollector().dropped();
  const std::optional<Iteration> single =
      reference.has_value()
          ? RunChecked(workload, seed, 1, out_prefix, hash, &outcome)
          : std::nullopt;

  const double n = static_cast<double>(std::max<size_t>(traced.size(), 1));
  double charged = 0.0;
  double shortfall = 0.0;
  std::vector<double> rate;
  for (const Iteration& it : traced) {
    charged += Labels(workload, it);
    shortfall += static_cast<double>(workload.run.repeats) *
                     static_cast<double>(workload.run.budget) -
                 Labels(workload, it);
    rate.push_back(LabelsPerSecond(workload, it));
  }
  const SpanTotals spans = SumSpans(events);
  const double run_s = probe.run.seconds();
  const auto steal = static_cast<double>(counters.tasks_steal);
  const auto attempts = static_cast<double>(counters.attempts);
  const double untraced_rate =
      reference.has_value() ? LabelsPerSecond(workload, *reference) : 0.0;

  outcome.Add("datagen.generate_s", probe.generate.seconds() / n, "s");
  outcome.Add("strata.stratify_s", probe.stratify.seconds() / n, "s");
  outcome.Add("strata.calls", static_cast<double>(probe.stratify.count()) / n,
              "count");
  outcome.Add("strata.k", static_cast<double>(probe.strata_k.load()), "count");
  outcome.Add("core.create_s", probe.create.seconds() / n, "s");
  outcome.Add("core.steps", static_cast<double>(counters.steps) / n, "count");
  outcome.Add("core.alias_rebuilds",
              static_cast<double>(counters.alias_rebuilds) / n, "count");
  outcome.Add("sampling.trajectory_s", spans.trajectory_s / n, "s");
  outcome.Add("sampling.label_shortfall", shortfall, "labels");
  outcome.Add("oracle.base_s", probe.oracle.seconds() / n, "s");
  outcome.Add("oracle.base_calls",
              static_cast<double>(probe.oracle.count()) / n, "count");
  outcome.Add("oracle.items_per_call",
              Ratio(static_cast<double>(probe.oracle_items.load()),
                    static_cast<double>(probe.oracle.count())),
              "items");
  outcome.Add("oracle.cache_hit_frac",
              Ratio(static_cast<double>(counters.cache_hits),
                    static_cast<double>(counters.cache_hits +
                                        counters.cache_misses)),
              "ratio");
  outcome.Add("oracle.attempts_per_label", Ratio(attempts, charged), "ratio");
  outcome.Add("oracle.retry_frac",
              Ratio(static_cast<double>(counters.retries), attempts), "ratio");
  outcome.Add("oracle.give_ups", static_cast<double>(counters.give_ups) / n,
              "count");
  outcome.Add("oracle.round_trips_per_1k",
              1000.0 * Ratio(static_cast<double>(counters.round_trips), charged),
              "count");
  outcome.Add("oracle.rollbacks", static_cast<double>(counters.rollbacks) / n,
              "count");
  outcome.Add("experiments.run_s", run_s / n, "s");
  outcome.Add("experiments.repeat_setup_s",
              (spans.repeat_s - spans.nested_trajectory_s) / n, "s");
  outcome.Add("experiments.busy_frac",
              Ratio(spans.repeat_s, static_cast<double>(parallelism) * run_s),
              "ratio");
  outcome.Add("experiments.speedup_vs_1t",
              reference.has_value() && single.has_value()
                  ? Ratio(single->fanout_s, reference->fanout_s)
                  : 0.0,
              "ratio");
  outcome.Add("experiments.reduce_s", spans.reduce_s / n, "s");
  outcome.Add("experiments.replay_s", probe.replay.seconds() / n, "s");
  outcome.Add("experiments.write_s", probe.write.seconds() / n, "s");
  outcome.Add("common.steal_frac",
              Ratio(steal, steal + static_cast<double>(counters.tasks_own)),
              "ratio");
  outcome.Add("service.protocol_s",
              (probe.parse.seconds() + probe.serialize.seconds()) / n, "s");
  outcome.Add("service.handle_s", probe.handle.seconds() / n, "s");
  outcome.Add("service.bytes_per_request",
              Ratio(static_cast<double>(probe.wire_bytes.load()),
                    static_cast<double>(probe.handle.count())),
              "bytes");
  outcome.Add("service.start_s", probe.start.seconds() / n, "s");
  outcome.Add("service.requests",
              static_cast<double>(probe.handle.count()) / n, "count");
  outcome.Add("service.sessions_failed",
              static_cast<double>(counters.sessions_failed) / n, "count");
  outcome.Add("telemetry.trace_dropped", static_cast<double>(dropped), "count");
  outcome.Add("telemetry.overhead_frac",
              untraced_rate > 0.0 ? 1.0 - Median(rate) / untraced_rate : 0.0,
              "ratio");
  outcome.Add("failed_frac", outcome.correct() ? 0.0 : 1.0, "ratio");

  // The layer report (workload row + every per-layer metric) and the chrome
  // trace: the program's spans plus the benchmark's own.
  std::string report = "{\n  \"workload\": ";
  report += reference.has_value()
                ? RowJson(workload, *reference, seed, parallelism)
                : std::string("null");
  report += ",\n  \"traced_iterations\": " + Number(static_cast<double>(traced.size()));
  report += ",\n  \"per_layer\": {";
  for (size_t i = 0; i < outcome.metrics.size(); ++i) {
    const Metric& m = outcome.metrics[i];
    report += std::string(i == 0 ? "\n" : ",\n") + "    " + Quote(m.name) +
              ": {\"value\": " + Number(m.value) + ", \"unit\": " +
              Quote(m.unit) + "}";
  }
  report += "\n  }\n}\n";
  std::vector<telemetry::TraceEvent> trace = events;
  const std::vector<telemetry::TraceEvent> own = probe.Spans();
  trace.insert(trace.end(), own.begin(), own.end());
  const Status report_written =
      telemetry::WriteTextFile(out_prefix + ".layers.json", report);
  const Status trace_written =
      telemetry::WriteTextFile(out_prefix + ".trace.json", telemetry::TraceJson(trace));
  if (!report_written.ok()) outcome.failures.push_back(report_written.ToString());
  if (!trace_written.ok()) outcome.failures.push_back(trace_written.ToString());
  if (reference.has_value()) {
    std::printf("workload %s\n",
                RowJson(workload, *reference, seed, parallelism).c_str());
  }
  std::printf("traced iterations %zu; wrote %s.layers.json and %s.trace.json\n",
              traced.size(), out_prefix.c_str(), out_prefix.c_str());
  return outcome;
}

void PrintResult(const Outcome& outcome) {
  const int64_t failed = outcome.correct() ? 0 : outcome.attempted;
  std::string line = std::string("{\"correct\": ") +
                     (outcome.correct() ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(outcome.attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (size_t i = 0; i < outcome.metrics.size(); ++i) {
    const Metric& m = outcome.metrics[i];
    line += std::string(i == 0 ? "" : ", ") + Quote(m.name) +
            ": {\"value\": " + Number(m.value) + ", \"unit\": " +
            Quote(m.unit) + "}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

int Main(int argc, char** argv) {
  Result<experiments::CommandLine> args_or =
      experiments::CommandLine::Parse(argc, argv);
  if (!args_or.ok()) {
    std::fprintf(stderr, "error: %s\n", args_or.status().ToString().c_str());
    return 2;
  }
  const experiments::CommandLine& args = args_or.ValueOrDie();
  const std::string name = args.FlagOr("workload", "");
  const std::string config_path = args.FlagOr("config", "");
  const std::string out_dir = args.FlagOr("out", ".");
  const Result<int64_t> seed = args.FlagInt64Or("seed", 1);
  const Result<double> seconds = args.FlagDoubleOr("seconds", 10.0);
  const Result<int64_t> trace = args.FlagInt64Or("trace", 0);
  Status status = args.CheckAllFlagsUsed();
  if (status.ok()) status = seed.status();
  if (status.ok()) status = seconds.status();
  if (status.ok()) status = trace.status();
  if (status.ok() && (name.empty() || config_path.empty())) {
    status = Status::InvalidArgument(
        "usage: oasis_e2e --workload=NAME --config=PATH [--seed=N] "
        "[--seconds=S] [--trace=0|1] [--out=DIR]");
  }
  Result<Workload> workload = Status::InvalidArgument("unparsed");
  if (status.ok()) {
    Result<experiments::ConfigMap> config =
        experiments::ConfigMap::ParseFile(config_path);
    workload = config.ok() ? Workload::FromConfig(name, config.ValueOrDie())
                           : Result<Workload>(config.status());
    status = workload.status();
  }
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return 2;
  }
  const std::string out_prefix = out_dir + "/" + name;
  const uint64_t run_seed = static_cast<uint64_t>(seed.ValueOrDie());
  const Outcome outcome =
      trace.ValueOrDie() != 0
          ? TracedRun(workload.ValueOrDie(), run_seed, seconds.ValueOrDie(),
                      out_prefix)
          : TimedRun(workload.ValueOrDie(), run_seed, seconds.ValueOrDie(),
                     out_prefix);
  for (const std::string& failure : outcome.failures) {
    std::fprintf(stderr, "check failed: %s\n", failure.c_str());
  }
  PrintResult(outcome);
  return outcome.correct() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench
}  // namespace oasis

int main(int argc, char** argv) {
  return oasis::perfbench::Main(argc, argv);
}
