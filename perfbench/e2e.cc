#include "perfbench/e2e.h"

#include <time.h>

#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <span>
#include <thread>
#include <utility>

#include "common/thread_pool.h"
#include "datagen/scenario.h"
#include "experiments/csv.h"
#include "experiments/summary.h"
#include "experiments/verify.h"
#include "service/client.h"
#include "service/protocol.h"
#include "service/session_manager.h"
#include "stats/running_stats.h"
#include "strata/csf.h"
#include "telemetry/telemetry.h"

// The library's RunErrorCurve, reached past the -Wl,--wrap interposition
// (CMakeLists.txt; the wrapper is at the end of this file).
extern "C" oasis::Result<oasis::experiments::ErrorCurve>
__real__ZN5oasis11experiments13RunErrorCurveERKNS0_10MethodSpecERKNS_10ScoredPoolERKNS_6OracleEdRKNS0_13RunnerOptionsE(
    const oasis::experiments::MethodSpec& method,
    const oasis::ScoredPool& pool, const oasis::Oracle& oracle, double true_f,
    const oasis::experiments::RunnerOptions& options);

namespace oasis {
namespace perfbench {

std::atomic<Probe*> Probe::current_{nullptr};

namespace {

using Clock = std::chrono::steady_clock;

Result<experiments::ErrorCurve> RealRunErrorCurve(
    const experiments::MethodSpec& method, const ScoredPool& pool,
    const Oracle& oracle, double true_f,
    const experiments::RunnerOptions& options) {
  return __real__ZN5oasis11experiments13RunErrorCurveERKNS0_10MethodSpecERKNS_10ScoredPoolERKNS_6OracleEdRKNS0_13RunnerOptionsE(
      method, pool, oracle, true_f, options);
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Stratum count from a MethodSpec name ("OASIS-30" -> 30); 0 for the
/// unstratified methods.
int64_t RealisedStrata(const std::string& method_name) {
  const size_t dash = method_name.rfind('-');
  if (dash == std::string::npos) return 0;
  return std::strtoll(method_name.c_str() + dash + 1, nullptr, 10);
}

/// Dense index of the calling thread, assigned on first use.
int ThreadLane() {
  static std::atomic<int> next{0};
  thread_local const int lane = next.fetch_add(1, std::memory_order_relaxed);
  return lane;
}

/// CPU time the calling thread has run, in nanoseconds. Unlike a wall
/// clock it stops while the thread waits for a processor, including time a
/// virtual machine's host takes its processor away.
int64_t ThreadCpuNs() {
  timespec now{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &now);
  return static_cast<int64_t>(now.tv_sec) * 1000000000 + now.tv_nsec;
}

/// Stamped by the wrapped sampler factory when a repeat's sampler is built;
/// the runner's progress hook reads it on the same worker thread when that
/// repeat completes.
thread_local int64_t t_repeat_start_cpu_ns;

/// Per-repeat timing of a batch run: wraps the MethodSpec factory (sampler
/// creation time, and each repeat's start) and supplies the progress hook
/// that closes each repeat's latency sample. A repeat is pure computation on
/// one worker thread, so its latency is taken on that thread's CPU clock:
/// on a shared virtual machine the wall clock's tail mostly measures when
/// the host took the processor away, not the repeat.
class RepeatClock {
 public:
  experiments::SamplerFactory Wrap(experiments::SamplerFactory inner) {
    return [inner = std::move(inner)](const ScoredPool* pool,
                                      LabelCache* labels, Rng rng) {
      t_repeat_start_cpu_ns = ThreadCpuNs();
      ScopedLayer layer(&Probe::create, "sampler_create", "core");
      return inner(pool, labels, rng);
    };
  }

  /// Records each finished repeat's latency, then calls `inner` if set.
  std::function<void(int, int)> ProgressHook(
      std::function<void(int, int)> inner) {
    return [this, inner = std::move(inner)](int completed, int total) {
      const double ms =
          static_cast<double>(ThreadCpuNs() - t_repeat_start_cpu_ns) * 1e-6;
      {
        std::lock_guard<std::mutex> lock(mu_);
        latencies_ms_.push_back(ms);
      }
      if (inner) inner(completed, total);
    };
  }

  std::vector<double> TakeLatenciesMs() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::move(latencies_ms_);
  }

 private:
  std::mutex mu_;
  std::vector<double> latencies_ms_;
};

/// Pass-through base oracle for traced batch runs: forwards every call to
/// the scenario oracle verbatim (same labels, RNG use and fallibility) and
/// times the labelling calls the repeats' label caches make. Totals live in
/// per-thread slots so the timing adds no shared cache-line traffic.
class TimingOracle : public Oracle {
 public:
  explicit TimingOracle(const Oracle* inner) : inner_(inner) {}

  bool Label(int64_t item, Rng& rng) const override {
    const int64_t start = NowNs();
    const bool label = inner_->Label(item, rng);
    Record(start, 1);
    return label;
  }
  void LabelBatch(std::span<const int64_t> items, Rng& rng,
                  std::span<uint8_t> out) const override {
    const int64_t start = NowNs();
    inner_->LabelBatch(items, rng, out);
    Record(start, static_cast<int64_t>(items.size()));
  }
  Status TryLabelBatch(std::span<const int64_t> items, Rng& rng,
                       std::span<uint8_t> out,
                       std::span<uint8_t> resolved) const override {
    const int64_t start = NowNs();
    Status status = inner_->TryLabelBatch(items, rng, out, resolved);
    Record(start, static_cast<int64_t>(items.size()));
    return status;
  }
  double TrueProbability(int64_t item) const override {
    return inner_->TrueProbability(item);
  }
  bool deterministic() const override { return inner_->deterministic(); }
  bool labelling_consumes_rng() const override {
    return inner_->labelling_consumes_rng();
  }
  bool fallible() const override { return inner_->fallible(); }
  int64_t num_items() const override { return inner_->num_items(); }

  /// Adds the totals into `probe`. Call once every labelling thread joined.
  void FlushTo(Probe* probe) const {
    Slot total = overflow_;
    for (const Slot& slot : slots_) {
      total.ns += slot.ns;
      total.calls += slot.calls;
      total.items += slot.items;
    }
    probe->oracle.Add(total.ns, total.calls);
    probe->oracle_items.fetch_add(total.items, std::memory_order_relaxed);
  }

 private:
  struct alignas(64) Slot {
    int64_t ns = 0;
    int64_t calls = 0;
    int64_t items = 0;
  };
  static constexpr int kSlots = 256;

  void Record(int64_t start, int64_t items) const {
    const int64_t elapsed = NowNs() - start;
    const int lane = ThreadLane();
    if (lane < kSlots) {
      Slot& slot = slots_[static_cast<size_t>(lane)];
      slot.ns += elapsed;
      ++slot.calls;
      slot.items += items;
      return;
    }
    std::lock_guard<std::mutex> lock(overflow_mu_);
    overflow_.ns += elapsed;
    ++overflow_.calls;
    overflow_.items += items;
  }

  const Oracle* inner_;
  // Slot `lane` is written only by the thread owning that lane.
  mutable std::array<Slot, kSlots> slots_{};
  mutable std::mutex overflow_mu_;
  mutable Slot overflow_;
};

/// InProcessTransport's exchange, step for step, with the server-side
/// request decode, SessionManager::Handle and the response encode timed
/// (traced serve runs only).
class TimingTransport : public service::Transport {
 public:
  explicit TimingTransport(service::SessionManager* manager)
      : manager_(manager) {}

  Result<std::string> RoundTrip(const std::string& request_bytes) override {
    const int64_t parse_start = NowNs();
    Result<service::Request> request = service::ParseRequest(request_bytes);
    const int64_t handle_start = NowNs();
    const service::Response response =
        request.ok() ? manager_->Handle(request.ValueOrDie())
                     : service::Response(
                           service::MakeErrorReply(request.status()));
    const int64_t serialize_start = NowNs();
    std::string response_bytes = service::SerializeResponse(response);
    Probe* probe = Probe::Current();
    if (probe != nullptr) {
      probe->parse.Add(handle_start - parse_start);
      probe->handle.Add(serialize_start - handle_start);
      probe->serialize.Add(NowNs() - serialize_start);
      probe->wire_bytes.fetch_add(
          static_cast<int64_t>(request_bytes.size() + response_bytes.size()),
          std::memory_order_relaxed);
    }
    return response_bytes;
  }

 private:
  service::SessionManager* manager_;
};

/// oasis_serve's fold (apps/oasis_serve.cc): per-session CheckpointAck
/// trajectories, in stream order, through the batch runner's RunningStats
/// reduction — defined-only estimate columns, finals from the last slot.
Result<experiments::ErrorCurve> FoldCurve(
    const std::string& method_name,
    const experiments::ScenarioRunOptions& options, double true_f,
    const std::vector<service::CheckpointAck>& acks) {
  std::vector<int64_t> grid;
  for (int64_t b = options.checkpoint_every; b <= options.budget;
       b += options.checkpoint_every) {
    grid.push_back(b);
  }
  const size_t num_checkpoints = grid.size();
  for (const service::CheckpointAck& ack : acks) {
    if (ack.budgets.size() != num_checkpoints) {
      return Status::Internal("session " + std::to_string(ack.session) +
                              " reached " + std::to_string(ack.budgets.size()) +
                              " of " + std::to_string(num_checkpoints) +
                              " checkpoints");
    }
  }
  std::vector<RunningStats> abs_error(num_checkpoints);
  std::vector<RunningStats> estimate(num_checkpoints);
  std::vector<int64_t> defined_count(num_checkpoints, 0);
  for (const service::CheckpointAck& ack : acks) {
    for (size_t i = 0; i < num_checkpoints; ++i) {
      if (ack.f_defined[i] == 0) continue;
      abs_error[i].Add(std::abs(ack.f_alpha[i] - true_f));
      estimate[i].Add(ack.f_alpha[i]);
      ++defined_count[i];
    }
  }
  experiments::ErrorCurve curve;
  curve.method = method_name;
  curve.repeats = static_cast<int>(acks.size());
  curve.budgets = std::move(grid);
  curve.mean_abs_error.resize(num_checkpoints);
  curve.stddev.resize(num_checkpoints);
  curve.mean_estimate.resize(num_checkpoints);
  curve.frac_defined.resize(num_checkpoints);
  for (size_t i = 0; i < num_checkpoints; ++i) {
    curve.mean_abs_error[i] = abs_error[i].mean();
    curve.stddev[i] = estimate[i].stddev();
    curve.mean_estimate[i] = estimate[i].mean();
    curve.frac_defined[i] = static_cast<double>(defined_count[i]) /
                            static_cast<double>(acks.size());
  }
  for (const service::CheckpointAck& ack : acks) {
    curve.final_estimates.push_back(ack.f_alpha.back());
    curve.final_defined.push_back(ack.f_defined.back());
  }
  return curve;
}

/// The batch iteration in flight, as the RunErrorCurve wrapper at the end of
/// this file sees it. RunScenario reaches the fan-out only through that
/// wrapper, which stamps the end of setup on entry and the end of the
/// fan-out on exit, times every repeat, and, when traced, labels through the
/// timing oracle.
struct FanoutHooks {
  Probe* probe = nullptr;
  /// Return Status::Cancelled on entry instead of running the fan-out.
  bool setup_only = false;
  RepeatClock repeat_clock;
  Clock::time_point entered;
  Clock::time_point exited;
  double exited_us = 0.0;
  /// Registry deltas over the fan-out, when telemetry was on.
  std::optional<Counters> counters;
};

std::atomic<FanoutHooks*> g_fanout{nullptr};

/// RunErrorCurve as the batch app path calls it, with the hooks of the
/// iteration in flight applied; a plain pass-through when none is.
Result<experiments::ErrorCurve> HookedRunErrorCurve(
    const experiments::MethodSpec& method, const ScoredPool& pool,
    const Oracle& oracle, double true_f,
    const experiments::RunnerOptions& options) {
  FanoutHooks* hooks = g_fanout.load(std::memory_order_acquire);
  if (hooks == nullptr) {
    return RealRunErrorCurve(method, pool, oracle, true_f, options);
  }
  hooks->entered = Clock::now();
  if (hooks->setup_only) return Status::Cancelled("setup only");
  experiments::MethodSpec timed = method;
  timed.factory = hooks->repeat_clock.Wrap(method.factory);
  experiments::RunnerOptions runner = options;
  runner.progress = hooks->repeat_clock.ProgressHook(options.progress);
  std::unique_ptr<TimingOracle> timing;
  if (hooks->probe != nullptr) timing = std::make_unique<TimingOracle>(&oracle);
  const Oracle& labeller =
      timing != nullptr ? static_cast<const Oracle&>(*timing) : oracle;
  const Counters before = Counters::Read();
  Result<experiments::ErrorCurve> curve = [&] {
    ScopedLayer layer(&Probe::run, "RunErrorCurve", "experiments");
    return RealRunErrorCurve(timed, pool, labeller, true_f, runner);
  }();
  hooks->exited = Clock::now();
  hooks->exited_us = telemetry::DefaultTraceCollector().NowMicros();
  if (telemetry::Enabled()) hooks->counters = Counters::Read().Since(before);
  if (timing != nullptr) timing->FlushTo(hooks->probe);
  return curve;
}

/// One batch iteration: oasis_run's work for the workload's config
/// (apps/oasis_run.cc): GenerateScenario, RunScenario, the artifact writes.
/// With `setup_only` it stops where the first label would be requested.
Result<Iteration> RunBatch(const Workload& workload, uint64_t seed,
                           int threads, const std::string& out_prefix,
                           bool setup_only) {
  experiments::ScenarioRunOptions options = workload.run;
  options.seed = seed;
  options.num_threads = threads;
  FanoutHooks hooks;
  hooks.probe = Probe::Current();
  hooks.setup_only = setup_only;
  Iteration it;

  // Setup runs until RunScenario enters RunErrorCurve: pool generation, the
  // scenario oracle, stratification and the method.
  const Clock::time_point start = Clock::now();
  const double start_us = telemetry::DefaultTraceCollector().NowMicros();
  OASIS_ASSIGN_OR_RETURN(datagen::ScenarioSpec spec,
                         datagen::ScenarioByName(workload.scenario));
  if (workload.pool_size > 0) spec.pool_size = workload.pool_size;
  OASIS_ASSIGN_OR_RETURN(const datagen::ScenarioPool pool,
                         datagen::GenerateScenario(spec));
  g_fanout.store(&hooks, std::memory_order_release);
  Result<experiments::ScenarioRunResult> result =
      experiments::RunScenario(pool, options);
  g_fanout.store(nullptr, std::memory_order_release);
  const Clock::time_point summarized = Clock::now();
  if (hooks.entered == Clock::time_point{}) {
    if (!result.ok()) return result.status();
    return Status::Internal("RunScenario returned without RunErrorCurve");
  }
  it.setup_s = std::chrono::duration<double>(hooks.entered - start).count();
  if (setup_only) return it;
  OASIS_RETURN_NOT_OK(result.status());
  it.result = std::move(result).ValueOrDie();

  // Measured run: the repeated run, the summary (with its repeat-0
  // degeneracy replay) and the artifact writes.
  {
    ScopedLayer layer(&Probe::write, "write_artifacts", "experiments");
    OASIS_RETURN_NOT_OK(experiments::WriteCurvesCsv(
        out_prefix + ".curves.csv", {it.result.curve}));
    OASIS_RETURN_NOT_OK(experiments::WriteRunSummaryJson(
        out_prefix + ".summary.json", it.result.summary));
  }
  it.run_s = SecondsSince(hooks.entered);
  it.fanout_s =
      std::chrono::duration<double>(hooks.exited - hooks.entered).count();
  if (hooks.probe != nullptr) {
    hooks.probe->AddSpan("setup", "perfbench", start_us, it.setup_s * 1e6);
    // RunScenario's tail after the fan-out is SummarizeScenarioCurve.
    const std::chrono::nanoseconds summary = summarized - hooks.exited;
    hooks.probe->replay.Add(summary.count());
    hooks.probe->AddSpan("SummarizeScenarioCurve", "experiments",
                         hooks.exited_us,
                         static_cast<double>(summary.count()) * 1e-3);
  }
  it.realised_k = RealisedStrata(it.result.summary.method);
  it.request_ms = hooks.repeat_clock.TakeLatenciesMs();
  it.counters = hooks.counters;
  if (it.counters.has_value()) {
    it.charged_labels = it.counters->cache_misses;
    it.steps = it.counters->steps;
  }
  return it;
}

/// Shared state of one serve iteration. Session s (stream s) belongs to
/// client s % clients; clients write only their own sessions' elements.
struct ServeRun {
  const Workload* workload = nullptr;
  uint64_t seed = 0;
  int clients = 1;
  std::vector<int64_t> ids;
  std::vector<service::CheckpointAck> acks;
  std::vector<service::EstimateReport> finals;
  std::vector<std::vector<double>> latency_ms;

  service::SessionSpec Spec(int64_t stream) const {
    const experiments::ScenarioRunOptions& run = workload->run;
    service::SessionSpec spec;
    spec.scenario = workload->scenario;
    spec.method = run.method;
    spec.budget = run.budget;
    spec.checkpoint_every = run.checkpoint_every;
    spec.strata = run.target_strata;
    spec.seed = seed;
    spec.stream = static_cast<uint64_t>(stream);
    spec.stack = run.stack;
    return spec;
  }

  /// One closed-loop client: starts its sessions, cycles
  /// RequestLabels(request_slice) through them until each is done, then
  /// collects each trajectory and closes the session.
  Status Client(service::Transport* transport, int client) {
    service::ServiceClient rpc(transport);
    std::vector<size_t> owned;
    for (size_t s = static_cast<size_t>(client); s < ids.size();
         s += static_cast<size_t>(clients)) {
      owned.push_back(s);
    }
    for (const size_t s : owned) {
      if (ids[s] != 0) continue;  // Started during setup.
      ScopedLayer layer(&Probe::start, nullptr, nullptr);
      OASIS_ASSIGN_OR_RETURN(ids[s], rpc.Start(Spec(static_cast<int64_t>(s))));
    }
    std::vector<double>& latencies = latency_ms[static_cast<size_t>(client)];
    std::vector<size_t> live = owned;
    while (!live.empty()) {
      size_t kept = 0;
      for (const size_t s : live) {
        // RequestLabels waits, so the server advances the session on this
        // thread: the whole round trip runs here, timed on this thread's CPU
        // clock like a batch repeat.
        const int64_t sent_ns = ThreadCpuNs();
        OASIS_ASSIGN_OR_RETURN(
            const service::LabelArrived arrived,
            rpc.RequestLabels(ids[s], workload->request_slice));
        latencies.push_back(
            static_cast<double>(ThreadCpuNs() - sent_ns) * 1e-6);
        if (!arrived.report.done) live[kept++] = s;
      }
      live.resize(kept);
    }
    for (const size_t s : owned) {
      OASIS_ASSIGN_OR_RETURN(acks[s], rpc.GetCheckpoint(ids[s]));
      OASIS_ASSIGN_OR_RETURN(finals[s], rpc.Close(ids[s]));
    }
    return Status::OK();
  }
};

/// Joins every thread on scope exit, exception paths included.
struct JoinAll {
  std::vector<std::thread>* threads;
  ~JoinAll() {
    for (std::thread& thread : *threads) {
      if (thread.joinable()) thread.join();
    }
  }
};

/// One serve iteration: oasis_serve's sessions for the workload's config,
/// driven by `clients` closed-loop client threads over the full wire
/// encoding. With `setup_only` it stops once the first session is started.
Result<Iteration> RunServe(const Workload& workload, uint64_t seed,
                           int clients, bool setup_only) {
  experiments::ScenarioRunOptions options = workload.run;
  options.seed = seed;
  OASIS_RETURN_NOT_OK(options.Validate());
  Probe* probe = Probe::Current();
  Iteration it;
  ServeRun serve;
  serve.workload = &workload;
  serve.seed = seed;
  serve.clients = clients;
  const size_t sessions = static_cast<size_t>(options.repeats);
  serve.ids.assign(sessions, 0);
  serve.acks.resize(sessions);
  serve.finals.resize(sessions);
  serve.latency_ms.resize(static_cast<size_t>(clients));

  // Setup: the server, one transport per client, and the first session,
  // whose StartSession generates and stratifies the scenario backend.
  const Clock::time_point start = Clock::now();
  const double start_us = telemetry::DefaultTraceCollector().NowMicros();
  service::SessionManagerOptions manager_options;
  manager_options.num_threads = options.num_threads;
  service::SessionManager manager(manager_options);
  std::vector<std::unique_ptr<service::Transport>> transports;
  for (int c = 0; c < clients; ++c) {
    if (probe != nullptr) {
      transports.push_back(std::make_unique<TimingTransport>(&manager));
    } else {
      transports.push_back(
          std::make_unique<service::InProcessTransport>(&manager));
    }
  }
  {
    service::ServiceClient first(transports[0].get());
    ScopedLayer layer(&Probe::start, "StartSession", "service");
    OASIS_ASSIGN_OR_RETURN(serve.ids[0], first.Start(serve.Spec(0)));
  }
  it.setup_s = SecondsSince(start);
  if (probe != nullptr) {
    probe->AddSpan("setup", "perfbench", start_us, it.setup_s * 1e6);
  }
  if (setup_only) {
    service::ServiceClient first(transports[0].get());
    OASIS_RETURN_NOT_OK(first.Close(serve.ids[0]).status());
    return it;
  }

  // Measured run: until the last session is closed.
  std::vector<Status> status(static_cast<size_t>(clients));
  const Counters before = Counters::Read();
  const Clock::time_point run_start = Clock::now();
  const double run_start_us = telemetry::DefaultTraceCollector().NowMicros();
  {
    std::vector<std::thread> threads;
    JoinAll join{&threads};
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&serve, &transports, &status, c] {
        status[static_cast<size_t>(c)] =
            serve.Client(transports[static_cast<size_t>(c)].get(), c);
      });
    }
  }
  it.run_s = SecondsSince(run_start);
  it.fanout_s = it.run_s;
  if (probe != nullptr) {
    probe->AddSpan("client_loop", "service", run_start_us, it.run_s * 1e6);
  }
  if (telemetry::Enabled()) it.counters = Counters::Read().Since(before);
  for (const Status& client_status : status) OASIS_RETURN_NOT_OK(client_status);
  if (manager.ActiveSessions() != 0) {
    return Status::Internal(std::to_string(manager.ActiveSessions()) +
                            " sessions still open after close");
  }
  it.charged_labels = 0;
  it.steps = 0;
  for (const service::EstimateReport& report : serve.finals) {
    it.charged_labels += report.labels_consumed;
    it.steps += report.iterations;
  }
  for (const std::vector<double>& latencies : serve.latency_ms) {
    it.request_ms.insert(it.request_ms.end(), latencies.begin(),
                         latencies.end());
  }

  // oasis_serve's post-run path: regenerate the backend's pool (a pure
  // function of the spec), fold the trajectories, summarise.
  OASIS_ASSIGN_OR_RETURN(const datagen::ScenarioSpec spec,
                         datagen::ScenarioByName(workload.scenario));
  OASIS_ASSIGN_OR_RETURN(const datagen::ScenarioPool pool,
                         datagen::GenerateScenario(spec));
  OASIS_ASSIGN_OR_RETURN(
      const experiments::MethodSpec method,
      experiments::MakeMethodByName(options.method, pool.spec.alpha,
                                    pool.scored, options.target_strata));
  it.realised_k = RealisedStrata(method.name);
  OASIS_ASSIGN_OR_RETURN(experiments::ErrorCurve curve,
                         FoldCurve(method.name, options, pool.true_f,
                                   serve.acks));
  {
    ScopedLayer layer(&Probe::replay, "SummarizeScenarioCurve", "experiments");
    OASIS_ASSIGN_OR_RETURN(it.result, experiments::SummarizeScenarioCurve(
                                          pool, options, std::move(curve)));
  }
  return it;
}

std::string Hex(uint64_t value) {
  char buffer[24];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

}  // namespace

Result<Workload> Workload::FromConfig(const std::string& name,
                                      const experiments::ConfigMap& config) {
  Workload workload;
  workload.name = name;
  OASIS_ASSIGN_OR_RETURN(workload.scenario, config.GetString("scenario"));
  const std::string mode = config.GetStringOr("mode", "batch");
  if (mode != "batch" && mode != "serve") {
    return Status::InvalidArgument("workload " + name + ": unknown mode '" +
                                   mode + "' (expected batch or serve)");
  }
  workload.serve = mode == "serve";
  OASIS_ASSIGN_OR_RETURN(workload.pool_size, config.GetInt64Or("pool_size", 0));
  OASIS_ASSIGN_OR_RETURN(
      workload.request_slice,
      config.GetInt64Or("request_slice", workload.request_slice));
  OASIS_ASSIGN_OR_RETURN(
      const int64_t seeds_per_run,
      config.GetInt64Or("seeds_per_run", workload.seeds_per_run));
  workload.seeds_per_run = static_cast<int>(seeds_per_run);
  OASIS_ASSIGN_OR_RETURN(workload.run,
                         experiments::ScenarioRunOptions::FromConfig(config));
  // `sessions` is oasis_serve's spelling of `repeats`.
  OASIS_ASSIGN_OR_RETURN(const int64_t sessions,
                         config.GetInt64Or("sessions", workload.run.repeats));
  workload.run.repeats = static_cast<int>(sessions);
  OASIS_RETURN_NOT_OK(config.CheckAllKeysUsed());
  OASIS_RETURN_NOT_OK(workload.run.Validate());
  if (workload.pool_size < 0 || workload.request_slice <= 0 ||
      seeds_per_run < 1) {
    return Status::InvalidArgument(
        "workload " + name +
        ": pool_size must be >= 0, request_slice and seeds_per_run >= 1");
  }
  if (workload.serve &&
      (workload.pool_size != 0 || workload.run.step_path != "fused")) {
    return Status::InvalidArgument(
        "workload " + name +
        ": serve sessions run catalogue pools on the server's default step "
        "path (no pool_size, step_path = fused)");
  }
  return workload;
}

int Workload::Parallelism() const {
  if (run.num_threads <= 0) return ThreadPool::DefaultThreadCount();
  return run.num_threads;
}

Counters Counters::Read() {
  const telemetry::MetricRegistry& registry = telemetry::DefaultRegistry();
  const auto total = [&registry](const char* name) {
    return registry.CounterFamilyTotal(name);
  };
  const auto tasks = [&registry](const char* kind) {
    const telemetry::Counter* counter = registry.FindCounter(
        "oasis_threadpool_tasks_total", {{"kind", kind}});
    return counter == nullptr ? int64_t{0} : counter->value();
  };
  Counters c;
  c.steps = total("oasis_sampler_steps_total");
  c.alias_rebuilds = total("oasis_sampler_alias_rebuilds_total");
  c.cache_hits = total("oasis_labelcache_hits_total");
  c.cache_misses = total("oasis_labelcache_misses_total");
  c.rollbacks = total("oasis_labelcache_pending_rollbacks_total");
  c.attempts = total("oasis_oracle_attempts_total");
  c.retries = total("oasis_oracle_retries_total");
  c.give_ups = total("oasis_oracle_give_ups_total");
  c.round_trips = total("oasis_oracle_round_trips_total");
  c.tasks_own = tasks("own");
  c.tasks_steal = tasks("steal");
  c.sessions_failed = total("oasis_service_sessions_failed_total");
  return c;
}

Counters Counters::Since(const Counters& start) const {
  Counters d = *this;
  d.steps -= start.steps;
  d.alias_rebuilds -= start.alias_rebuilds;
  d.cache_hits -= start.cache_hits;
  d.cache_misses -= start.cache_misses;
  d.rollbacks -= start.rollbacks;
  d.attempts -= start.attempts;
  d.retries -= start.retries;
  d.give_ups -= start.give_ups;
  d.round_trips -= start.round_trips;
  d.tasks_own -= start.tasks_own;
  d.tasks_steal -= start.tasks_steal;
  d.sessions_failed -= start.sessions_failed;
  return d;
}

void Counters::Add(const Counters& other) {
  steps += other.steps;
  alias_rebuilds += other.alias_rebuilds;
  cache_hits += other.cache_hits;
  cache_misses += other.cache_misses;
  rollbacks += other.rollbacks;
  attempts += other.attempts;
  retries += other.retries;
  give_ups += other.give_ups;
  round_trips += other.round_trips;
  tasks_own += other.tasks_own;
  tasks_steal += other.tasks_steal;
  sessions_failed += other.sessions_failed;
}

void Probe::AddSpan(const char* name, const char* category, double start_us,
                    double dur_us) {
  telemetry::TraceEvent event;
  event.name = name;
  event.category = category;
  event.ts_us = start_us;
  event.dur_us = dur_us;
  event.tid = telemetry::DefaultTraceCollector().CurrentThreadLane();
  std::lock_guard<std::mutex> lock(spans_mu_);
  spans_.push_back(std::move(event));
}

std::vector<telemetry::TraceEvent> Probe::Spans() const {
  std::lock_guard<std::mutex> lock(spans_mu_);
  return spans_;
}

ScopedLayer::ScopedLayer(Probe::Timer Probe::*timer, const char* name,
                         const char* category)
    : probe_(Probe::Current()),
      timer_(timer),
      name_(name),
      category_(category) {
  if (probe_ == nullptr) return;
  if (name_ != nullptr) {
    start_us_ = telemetry::DefaultTraceCollector().NowMicros();
  }
  start_ns_ = NowNs();
}

ScopedLayer::~ScopedLayer() {
  if (probe_ == nullptr) return;
  const int64_t elapsed_ns = NowNs() - start_ns_;
  (probe_->*timer_).Add(elapsed_ns);
  if (name_ != nullptr) {
    probe_->AddSpan(name_, category_, start_us_,
                    static_cast<double>(elapsed_ns) * 1e-3);
  }
}

Result<Iteration> RunIteration(const Workload& workload, uint64_t seed,
                               int parallelism,
                               const std::string& out_prefix) {
  if (workload.serve) return RunServe(workload, seed, parallelism, false);
  return RunBatch(workload, seed, parallelism, out_prefix, false);
}

Result<double> SetupSeconds(const Workload& workload, uint64_t seed,
                            int parallelism) {
  OASIS_ASSIGN_OR_RETURN(
      const Iteration it,
      workload.serve ? RunServe(workload, seed, parallelism, true)
                     : RunBatch(workload, seed, parallelism, "", true));
  return it.setup_s;
}

uint64_t FinalEstimatesHash(const experiments::RunSummary& summary) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  const auto mix = [&hash](const void* data, size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < size; ++i) {
      hash ^= bytes[i];
      hash *= 0x100000001b3ULL;
    }
  };
  for (const double estimate : summary.final_estimates) {
    mix(&estimate, sizeof(estimate));
  }
  for (const uint8_t defined : summary.final_defined) {
    mix(&defined, sizeof(defined));
  }
  return hash;
}

CheckReport CheckIteration(const Iteration& iteration,
                           std::optional<uint64_t> reference_hash) {
  CheckReport report;
  const auto fail = [&report](std::string why) {
    report.passed = false;
    report.failures.push_back(std::move(why));
  };
  const experiments::RunSummary& summary = iteration.result.summary;
  const Result<experiments::VerifyReport> verify = experiments::VerifyRun(
      summary, &iteration.result.curve, experiments::VerifyOptions{});
  if (!verify.ok()) {
    fail("VerifyRun: " + verify.status().ToString());
  } else {
    const experiments::VerifyReport& checks = verify.ValueOrDie();
    if (checks.checks.size() != 6) {
      fail("VerifyRun ran " + std::to_string(checks.checks.size()) +
           " of its 6 checks");
    }
    for (const experiments::VerifyCheck& check : checks.checks) {
      if (!check.passed) fail("VerifyRun " + check.name + ": " + check.detail);
    }
  }
  if (reference_hash.has_value()) {
    const uint64_t hash = FinalEstimatesHash(summary);
    if (hash != *reference_hash) {
      fail("final-estimates hash " + Hex(hash) + " differs from the reference " +
           Hex(*reference_hash));
    }
  }
  if (iteration.charged_labels >= 0) {
    const int64_t expected = summary.repeats * summary.budget;
    if (iteration.charged_labels != expected) {
      fail("charged " + std::to_string(iteration.charged_labels) +
           " labels, expected repeats x budget = " + std::to_string(expected));
    }
  }
  return report;
}

}  // namespace perfbench
}  // namespace oasis

// Link-time interposition: CMakeLists.txt links with -Wl,--wrap for these
// symbols, so every call the library or the benchmark makes to these public
// functions lands here. A traced run thereby times and counts them wherever
// the app path makes them — inside RunScenario, SummarizeScenarioCurve and
// the session manager too. Untraced, each wrapper costs one atomic load.
extern "C" {

oasis::Result<oasis::experiments::ErrorCurve>
__wrap__ZN5oasis11experiments13RunErrorCurveERKNS0_10MethodSpecERKNS_10ScoredPoolERKNS_6OracleEdRKNS0_13RunnerOptionsE(
    const oasis::experiments::MethodSpec& method,
    const oasis::ScoredPool& pool, const oasis::Oracle& oracle, double true_f,
    const oasis::experiments::RunnerOptions& options) {
  return oasis::perfbench::HookedRunErrorCurve(method, pool, oracle, true_f,
                                               options);
}

oasis::Result<oasis::datagen::ScenarioPool>
__real__ZN5oasis7datagen16GenerateScenarioERKNS0_12ScenarioSpecE(
    const oasis::datagen::ScenarioSpec& spec);

oasis::Result<oasis::datagen::ScenarioPool>
__wrap__ZN5oasis7datagen16GenerateScenarioERKNS0_12ScenarioSpecE(
    const oasis::datagen::ScenarioSpec& spec) {
  oasis::perfbench::ScopedLayer layer(&oasis::perfbench::Probe::generate,
                                      "GenerateScenario", "datagen");
  return __real__ZN5oasis7datagen16GenerateScenarioERKNS0_12ScenarioSpecE(
      spec);
}

oasis::Result<oasis::Strata>
__real__ZN5oasis11StratifyCsfESt4spanIKdLm18446744073709551615EEmb(
    std::span<const double> scores, size_t target_strata,
    bool scores_are_probabilities);

oasis::Result<oasis::Strata>
__wrap__ZN5oasis11StratifyCsfESt4spanIKdLm18446744073709551615EEmb(
    std::span<const double> scores, size_t target_strata,
    bool scores_are_probabilities) {
  oasis::perfbench::ScopedLayer layer(&oasis::perfbench::Probe::stratify,
                                      "StratifyCsf", "strata");
  oasis::Result<oasis::Strata> strata =
      __real__ZN5oasis11StratifyCsfESt4spanIKdLm18446744073709551615EEmb(
          scores, target_strata, scores_are_probabilities);
  oasis::perfbench::Probe* probe = oasis::perfbench::Probe::Current();
  if (probe != nullptr && strata.ok()) {
    probe->strata_k.store(
        static_cast<int64_t>(strata.ValueOrDie().num_strata()),
        std::memory_order_relaxed);
  }
  return strata;
}

}  // extern "C"
