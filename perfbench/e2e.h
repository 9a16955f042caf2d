// End-to-end OASIS benchmark: the workload runners, the built-in correctness
// check, and the traced-run probe. Every workload calls the library through
// the public entry points the apps use (oasis_run, oasis_serve); nothing is
// instrumented inside src/. See perfbench/README.md.
#ifndef OASIS_PERFBENCH_E2E_H_
#define OASIS_PERFBENCH_E2E_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "experiments/config.h"
#include "experiments/scenario_run.h"
#include "telemetry/trace.h"

namespace oasis {
namespace perfbench {

/// One benchmark workload: an oasis_run / oasis_serve config (the keys
/// ScenarioRunOptions::FromConfig reads, plus `scenario` and oasis_serve's
/// `sessions` / `request_slice`) and the benchmark-only keys that shape the
/// load.
struct Workload {
  /// Workload name (the BENCHMARK.json row).
  std::string name;
  /// Catalogue scenario the pool is generated from.
  std::string scenario;
  /// `mode = serve` drives the session server; `mode = batch` the runner.
  bool serve = false;
  /// Batch only: pool size override; 0 keeps the catalogue size.
  int64_t pool_size = 0;
  /// Serve only: labels per RequestLabels call.
  int64_t request_slice = 100;
  /// Run seeds (derived from --seed) the iterations of a run cycle through;
  /// a run makes at least this many iterations and final_abs_err averages
  /// over them. Every seed also meets VerifyRun's repeat-0 degeneracy probe,
  /// which trips on a small share of seeds, so keep this as low as the
  /// error metric's steadiness allows.
  int seeds_per_run = 1;
  /// Method, budget, checkpoints, repeats (= sessions), runner or server
  /// threads, strata, step path and oracle stack.
  experiments::ScenarioRunOptions run;

  /// Parses a workload config; unknown keys are an error.
  static Result<Workload> FromConfig(const std::string& name,
                                     const experiments::ConfigMap& config);
  /// Runner threads (batch) or closed-loop clients (serve): the config's
  /// `threads`, 0 resolved to the hardware concurrency.
  int Parallelism() const;
};

/// The registry counters the exact counts and per-layer ratios come from.
struct Counters {
  int64_t steps = 0;
  int64_t alias_rebuilds = 0;
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
  int64_t rollbacks = 0;
  int64_t attempts = 0;
  int64_t retries = 0;
  int64_t give_ups = 0;
  int64_t round_trips = 0;
  int64_t tasks_own = 0;
  int64_t tasks_steal = 0;
  int64_t sessions_failed = 0;

  /// Reads telemetry::DefaultRegistry() now.
  static Counters Read();
  /// Field-wise `*this - start`.
  Counters Since(const Counters& start) const;
  /// Field-wise `*this += other`.
  void Add(const Counters& other);
};

/// Traced-run accumulators filled by the benchmark's own spans around calls
/// into each layer's public functions. Attached process-wide while traced
/// iterations run; every member is safe to update from any thread.
class Probe {
 public:
  /// Total time and call count of one layer boundary.
  struct Timer {
    std::atomic<int64_t> ns{0};
    std::atomic<int64_t> calls{0};

    void Add(int64_t elapsed_ns, int64_t n = 1) {
      ns.fetch_add(elapsed_ns, std::memory_order_relaxed);
      calls.fetch_add(n, std::memory_order_relaxed);
    }
    double seconds() const {
      return static_cast<double>(ns.load(std::memory_order_relaxed)) * 1e-9;
    }
    int64_t count() const { return calls.load(std::memory_order_relaxed); }
  };

  Timer generate;   ///< datagen::GenerateScenario.
  Timer stratify;   ///< StratifyCsf.
  Timer create;     ///< The MethodSpec factory (one sampler per repeat).
  Timer run;        ///< experiments::RunErrorCurve.
  Timer replay;     ///< experiments::SummarizeScenarioCurve.
  Timer write;      ///< WriteCurvesCsv + WriteRunSummaryJson.
  Timer start;      ///< ServiceClient::Start.
  Timer parse;      ///< service::ParseRequest, server side.
  Timer handle;     ///< service::SessionManager::Handle.
  Timer serialize;  ///< service::SerializeResponse, server side.
  Timer oracle;     ///< Base-oracle labelling calls.
  /// Items the base oracle labelled.
  std::atomic<int64_t> oracle_items{0};
  /// Request plus response bytes through the benchmark's transport.
  std::atomic<int64_t> wire_bytes{0};
  /// Stratum count of the last StratifyCsf call.
  std::atomic<int64_t> strata_k{0};

  /// Records one coarse benchmark span for the chrome trace (timestamps on
  /// telemetry::DefaultTraceCollector()'s clock).
  void AddSpan(const char* name, const char* category, double start_us,
               double dur_us);
  /// The benchmark spans recorded so far.
  std::vector<telemetry::TraceEvent> Spans() const;

  /// The attached probe, or nullptr outside traced iterations.
  static Probe* Current() { return current_.load(std::memory_order_acquire); }
  /// Attaches `probe`; nullptr detaches.
  static void Attach(Probe* probe) {
    current_.store(probe, std::memory_order_release);
  }

 private:
  static std::atomic<Probe*> current_;
  mutable std::mutex spans_mu_;
  std::vector<telemetry::TraceEvent> spans_;
};

/// Times its scope into one Probe timer — and, when `name` is non-null,
/// records a span — while a probe is attached; inert otherwise.
class ScopedLayer {
 public:
  ScopedLayer(Probe::Timer Probe::*timer, const char* name,
              const char* category);
  ~ScopedLayer();
  ScopedLayer(const ScopedLayer&) = delete;
  ScopedLayer& operator=(const ScopedLayer&) = delete;

 private:
  Probe* probe_;
  Probe::Timer Probe::*timer_;
  const char* name_;
  const char* category_;
  double start_us_ = 0.0;
  int64_t start_ns_ = 0;
};

/// What one workload iteration produced.
struct Iteration {
  /// Workload start until the first label can be requested: pool
  /// generation, stratification, method and backend construction. Batch
  /// setup ends when RunScenario calls RunErrorCurve, which e2e.cc
  /// interposes (-Wl,--wrap).
  double setup_s = 0.0;
  /// First label request until the artifacts are written (batch) or the
  /// last session is closed (serve).
  double run_s = 0.0;
  /// The fan-out alone: RunErrorCurve (batch) or the client loop (serve).
  double fanout_s = 0.0;
  /// Labels charged by the workload's own repeats or sessions; -1 when not
  /// observable (a batch iteration with telemetry off).
  int64_t charged_labels = -1;
  /// Sampler iterations behind charged_labels; -1 when not observable.
  int64_t steps = -1;
  /// Latency of every RequestLabels round trip (serve) or of every repeat
  /// from sampler creation to completion (batch), in milliseconds of the
  /// CPU time of the thread that ran it.
  std::vector<double> request_ms;
  /// Registry deltas over the fan-out, when telemetry was on.
  std::optional<Counters> counters;
  /// The verification-ready artifacts: error curve and run summary.
  experiments::ScenarioRunResult result;
  /// Realised stratum count (0 for unstratified methods).
  int64_t realised_k = 0;
};

/// Runs one iteration of `workload` on run seed `seed` with `parallelism`
/// runner threads (batch) or clients (serve). Batch iterations write their
/// artifacts to `out_prefix`.curves.csv / .summary.json, as oasis_run does.
/// Any failing repeat or session fails the whole iteration.
Result<Iteration> RunIteration(const Workload& workload, uint64_t seed,
                               int parallelism, const std::string& out_prefix);

/// Setup time of one more iteration of `workload`, stopped where its first
/// label would be requested.
Result<double> SetupSeconds(const Workload& workload, uint64_t seed,
                            int parallelism);

/// Order-sensitive FNV-1a hash of a summary's per-repeat final estimates.
uint64_t FinalEstimatesHash(const experiments::RunSummary& summary);

/// The correctness verdict of one iteration.
struct CheckReport {
  bool passed = true;
  std::vector<std::string> failures;
};

/// The built-in correctness check: VerifyRun passes all six checks on the
/// iteration's summary and curve; the final-estimates hash equals
/// `reference_hash` when one is given; the charged labels equal repeats x
/// budget when they are observable.
CheckReport CheckIteration(const Iteration& iteration,
                           std::optional<uint64_t> reference_hash);

}  // namespace perfbench
}  // namespace oasis

#endif  // OASIS_PERFBENCH_E2E_H_
