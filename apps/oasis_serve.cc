// oasis_serve — host N concurrent evaluation sessions on the session server
// and aggregate their checkpoint trajectories into batch-compatible
// artifacts.
//
// Usage: oasis_serve <serve-config> <out-prefix>
//
// Config keys (a superset of the oasis_run keys — the same file drives both):
//   scenario = stripe-f90     # catalogue name (oasis_gen --list)
//   method / budget / checkpoint_every / run_seed / threads / strata
//   sessions = 200            # concurrent session count (alias: repeats)
//   request_slice = 0         # labels per RequestLabels call; 0 = one
//                             # asynchronous full-budget advance per session
//   stack_* = ...             # per-session oracle decorator stack
//
// Session s runs on Rng::Fork(run_seed, s) — the batch runner's repeat
// discipline — so the aggregated curve is bit-identical to oasis_run on the
// same config (the determinism contract; tests/session_server_test.cc holds
// it at 1000 sessions). Every exchange goes through the full wire encoding
// (InProcessTransport), so this app drives exactly the bytes a socket peer
// would. CheckpointAck trajectories fold into an ErrorCurve through the batch
// runner's CurveReducer (estimate columns only — per-session cost/fault
// columns stay in the telemetry registry), then flow through the same summary
// path oasis_run uses:
//   <out-prefix>.curves.csv    the aggregated error curve
//   <out-prefix>.summary.json  verification-ready summary (oasis_verify)
//
// Observability flags (docs/TELEMETRY.md): --metrics-out=<path>,
// --trace-out=<path>, --heartbeat=<seconds>, --no-telemetry.

#include <chrono>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "apps/app_util.h"
#include "datagen/scenario.h"
#include "experiments/config.h"
#include "experiments/csv.h"
#include "experiments/scenario_run.h"
#include "experiments/summary.h"
#include "service/client.h"
#include "service/session_manager.h"

namespace oasis {
namespace apps {
namespace {

struct ServeStats {
  int64_t sessions = 0;
  int64_t requests = 0;
  int64_t labels = 0;
};

Result<ServeStats> ServeFromConfig(const std::string& config_path,
                                   const std::string& prefix,
                                   const experiments::CommonFlags& flags) {
  OASIS_ASSIGN_OR_RETURN(const experiments::ConfigMap config,
                         experiments::ConfigMap::ParseFile(config_path));
  OASIS_ASSIGN_OR_RETURN(const std::string scenario,
                         config.GetString("scenario"));
  OASIS_ASSIGN_OR_RETURN(experiments::ScenarioRunOptions options,
                         experiments::ScenarioRunOptions::FromConfig(config));
  // `sessions` is the serve-native spelling of `repeats`; the batch alias
  // keeps one config file valid for both oasis_run and oasis_serve.
  OASIS_ASSIGN_OR_RETURN(options.repeats,
                         config.GetIntOr("sessions", options.repeats));
  OASIS_ASSIGN_OR_RETURN(const int64_t request_slice,
                         config.GetInt64Or("request_slice", 0));
  if (request_slice < 0) {
    return Status::InvalidArgument(
        "serve config: request_slice must be >= 0");
  }
  OASIS_RETURN_NOT_OK(config.CheckAllKeysUsed());
  // Sessions always step the default fused path (SessionSpec carries no step
  // path), so any other step_path would leave the summary's degeneracy probe
  // replaying a different sampler than the one behind the curve.
  if (options.step_path != "fused") {
    return Status::InvalidArgument(
        "serve config: step_path '" + options.step_path +
        "' is not supported (sessions run the fused step path)");
  }
  // CLI overrides beat the config file (shared --threads/--seed semantics).
  if (flags.threads.has_value()) {
    options.num_threads = *flags.threads;
  }
  if (flags.seed.has_value()) options.seed = *flags.seed;
  OASIS_RETURN_NOT_OK(options.Validate());

  service::SessionManagerOptions manager_options;
  manager_options.num_threads = options.num_threads;
  service::SessionManager manager(manager_options);
  service::InProcessTransport transport(&manager);
  service::ServiceClient client(&transport);

  ServeStats stats;
  stats.sessions = options.repeats;

  std::vector<int64_t> ids;
  ids.reserve(static_cast<size_t>(options.repeats));
  for (int s = 0; s < options.repeats; ++s) {
    service::SessionSpec spec;
    spec.scenario = scenario;
    spec.method = options.method;
    spec.budget = options.budget;
    spec.checkpoint_every = options.checkpoint_every;
    spec.strata = options.target_strata;
    spec.seed = options.seed;
    spec.stream = static_cast<uint64_t>(s);
    spec.stack = options.stack;
    OASIS_ASSIGN_OR_RETURN(const int64_t id, client.Start(spec));
    ids.push_back(id);
    ++stats.requests;
  }

  if (request_slice == 0) {
    // One asynchronous full-budget advance per session; the manager's pool
    // runs them concurrently and GetCheckpoint below settles each.
    for (const int64_t id : ids) {
      OASIS_RETURN_NOT_OK(client.EnqueueLabels(id, 0));
      ++stats.requests;
    }
  } else {
    // Synchronous slicing, round-robin across sessions, until every session
    // is done — the long-lived-client shape (many small label requests
    // interleaved across sessions). Bit-identity holds regardless of the
    // slicing: advances never split a checkpoint batch.
    std::vector<bool> done(ids.size(), false);
    size_t remaining = ids.size();
    while (remaining > 0) {
      for (size_t s = 0; s < ids.size(); ++s) {
        if (done[s]) continue;
        OASIS_ASSIGN_OR_RETURN(const service::LabelArrived arrived,
                               client.RequestLabels(ids[s], request_slice));
        ++stats.requests;
        if (arrived.report.done) {
          done[s] = true;
          --remaining;
        }
      }
    }
  }

  // Collect trajectories in stream order (the fold's repeat order), then
  // close every session; the server must end empty.
  std::vector<service::CheckpointAck> acks;
  acks.reserve(ids.size());
  for (const int64_t id : ids) {
    OASIS_ASSIGN_OR_RETURN(service::CheckpointAck ack, client.GetCheckpoint(id));
    acks.push_back(std::move(ack));
    ++stats.requests;
  }
  for (const int64_t id : ids) {
    OASIS_RETURN_NOT_OK(client.Close(id).status());
    ++stats.requests;
  }
  if (manager.ActiveSessions() != 0) {
    return Status::Internal("oasis_serve: " +
                            std::to_string(manager.ActiveSessions()) +
                            " sessions still open after close");
  }

  // The pool is a pure function of the spec, so this regenerates exactly the
  // backend the sessions labelled against.
  OASIS_ASSIGN_OR_RETURN(const datagen::ScenarioSpec spec,
                         datagen::ScenarioByName(scenario));
  OASIS_ASSIGN_OR_RETURN(const datagen::ScenarioPool pool,
                         datagen::GenerateScenario(spec));
  OASIS_ASSIGN_OR_RETURN(
      const experiments::MethodSpec method,
      experiments::MakeMethodByName(options.method, pool.spec.alpha,
                                    pool.scored, options.target_strata));
  TrajectoryOptions grid;
  grid.budget = options.budget;
  grid.checkpoint_every = options.checkpoint_every;
  experiments::CurveReducer reducer(CheckpointGrid(grid), acks.size(),
                                    /*remote=*/false, /*fault=*/false);
  for (size_t i = 0; i < acks.size(); ++i) {
    OASIS_RETURN_NOT_OK(reducer.RecordEstimates(
        i, acks[i].f_alpha, acks[i].f_defined, acks[i].labels_consumed));
  }
  OASIS_ASSIGN_OR_RETURN(
      const experiments::ScenarioRunResult result,
      experiments::SummarizeScenarioCurve(
          pool, options, reducer.Reduce(method.name, pool.true_f)));
  stats.labels = result.curve.labels_consumed;

  OASIS_RETURN_NOT_OK(
      experiments::WriteCurvesCsv(prefix + ".curves.csv", {result.curve}));
  OASIS_RETURN_NOT_OK(experiments::WriteRunSummaryJson(
      prefix + ".summary.json", result.summary));

  const experiments::RunSummary& s = result.summary;
  std::printf("%s on %s: true F=%.6f mean F-hat=%.6f |err|=%.6f stddev=%.6f "
              "defined=%.2f\n",
              s.method.c_str(), s.scenario.c_str(), s.true_f,
              s.final_mean_estimate, s.final_mean_abs_error, s.final_stddev,
              s.final_frac_defined);
  if (s.degeneracy_monitored) {
    std::printf("weights: ess_fraction=%.4f max_share=%.4f degenerate=%s\n",
                s.final_ess_fraction, s.max_weight_share,
                s.degeneracy_tripped ? "yes" : "no");
  }
  std::printf("wrote %s.curves.csv and %s.summary.json\n", prefix.c_str(),
              prefix.c_str());
  return stats;
}

int Main(int argc, char** argv) {
  const Result<experiments::CommandLine> args_or =
      experiments::CommandLine::Parse(argc, argv);
  if (!args_or.ok()) return FailWith(args_or.status());
  const experiments::CommandLine& args = args_or.ValueOrDie();
  const Result<experiments::CommonFlags> flags_or =
      experiments::ParseCommonFlags(args);
  if (!flags_or.ok()) return FailWith(flags_or.status());
  const Status flags_ok = args.CheckAllFlagsUsed();
  if (!flags_ok.ok()) return FailWith(flags_ok);
  if (args.positional().size() != 2) {
    std::fprintf(stderr,
                 "usage: oasis_serve [--metrics-out=m.json] "
                 "[--trace-out=t.json] [--heartbeat=N] [--no-telemetry] "
                 "[--threads=N] [--seed=N] <serve-config> <out-prefix>\n");
    return kExitError;
  }
  TelemetrySession telemetry(flags_or.ValueOrDie());

  const auto start = std::chrono::steady_clock::now();
  const Result<ServeStats> stats = ServeFromConfig(
      args.positional()[0], args.positional()[1], flags_or.ValueOrDie());
  if (!stats.ok()) return FailWith(stats.status());
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  std::printf("served %lld sessions over %lld requests; %s\n",
              static_cast<long long>(stats.ValueOrDie().sessions),
              static_cast<long long>(stats.ValueOrDie().requests),
              FormatElapsed(elapsed, stats.ValueOrDie().labels).c_str());
  const Status telemetry_status = telemetry.Finish();
  if (!telemetry_status.ok()) return FailWith(telemetry_status);
  return kExitOk;
}

}  // namespace
}  // namespace apps
}  // namespace oasis

int main(int argc, char** argv) { return oasis::apps::Main(argc, argv); }
