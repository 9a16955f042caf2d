// oasis_run — run one scenario experiment from a config file.
//
// Usage: oasis_run <run-config> <out-prefix>
//
// The config combines a scenario reference with run options:
//   scenario = stripe-f90          # catalogue name, or:
//   scenario_file = path/to.cfg    # a spec written by oasis_gen
//   method = oasis                 # passive | stratified | is | oasis
//   budget = 2000
//   checkpoint_every = 100
//   repeats = 20
//   run_seed = 42
//   threads = 0                    # 0 = hardware concurrency
//   strata = 30                    # stratified/oasis only
//
// The pool is regenerated from the spec (pools are a pure function of the
// spec, so gen -> run round-trips through the .scenario.cfg file). Writes
//   <out-prefix>.curves.csv    the 9-column error curve
//   <out-prefix>.summary.json  the verification-ready run summary
// and prints the final-budget statistics plus elapsed time / labels per
// second over the labels the repeats charged.
//
// Observability flags (docs/TELEMETRY.md): --metrics-out=<path>,
// --trace-out=<path>, --heartbeat=<seconds>, --no-telemetry.

#include <chrono>
#include <cstdio>

#include "apps/app_util.h"
#include "datagen/scenario.h"
#include "experiments/config.h"
#include "experiments/csv.h"
#include "experiments/scenario_run.h"
#include "experiments/summary.h"

namespace oasis {
namespace apps {
namespace {

// Returns the labels the run's repeats charged.
Result<int64_t> RunFromConfig(const std::string& config_path,
                              const std::string& prefix,
                              const experiments::CommonFlags& flags) {
  OASIS_ASSIGN_OR_RETURN(const experiments::ConfigMap config,
                         experiments::ConfigMap::ParseFile(config_path));
  datagen::ScenarioSpec spec;
  if (config.Has("scenario_file")) {
    OASIS_ASSIGN_OR_RETURN(const std::string spec_path,
                           config.GetString("scenario_file"));
    OASIS_ASSIGN_OR_RETURN(const experiments::ConfigMap spec_config,
                           experiments::ConfigMap::ParseFile(spec_path));
    OASIS_ASSIGN_OR_RETURN(spec, datagen::ScenarioSpec::FromConfig(spec_config));
  } else {
    OASIS_ASSIGN_OR_RETURN(const std::string name, config.GetString("scenario"));
    OASIS_ASSIGN_OR_RETURN(spec, datagen::ScenarioByName(name));
  }
  OASIS_ASSIGN_OR_RETURN(experiments::ScenarioRunOptions run_options,
                         experiments::ScenarioRunOptions::FromConfig(config));
  OASIS_RETURN_NOT_OK(config.CheckAllKeysUsed());
  // CLI overrides beat the config file (shared --threads/--seed semantics).
  if (flags.threads.has_value()) {
    run_options.num_threads = *flags.threads;
  }
  if (flags.seed.has_value()) run_options.seed = *flags.seed;

  OASIS_ASSIGN_OR_RETURN(const datagen::ScenarioPool pool,
                         datagen::GenerateScenario(spec));
  OASIS_ASSIGN_OR_RETURN(const experiments::ScenarioRunResult result,
                         experiments::RunScenario(pool, run_options));

  OASIS_RETURN_NOT_OK(
      experiments::WriteCurvesCsv(prefix + ".curves.csv", {result.curve}));
  OASIS_RETURN_NOT_OK(
      experiments::WriteRunSummaryJson(prefix + ".summary.json",
                                       result.summary));

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
  return result.curve.labels_consumed;
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
                 "usage: oasis_run [--metrics-out=m.json] [--trace-out=t.json] "
                 "[--heartbeat=N] [--no-telemetry] [--threads=N] [--seed=N] "
                 "<run-config> <out-prefix>\n");
    return kExitError;
  }
  TelemetrySession telemetry(flags_or.ValueOrDie());

  const auto start = std::chrono::steady_clock::now();
  const Result<int64_t> labels = RunFromConfig(
      args.positional()[0], args.positional()[1], flags_or.ValueOrDie());
  if (!labels.ok()) return FailWith(labels.status());
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  std::printf("%s\n", FormatElapsed(elapsed, labels.ValueOrDie()).c_str());
  const Status telemetry_status = telemetry.Finish();
  if (!telemetry_status.ok()) return FailWith(telemetry_status);
  return kExitOk;
}

}  // namespace
}  // namespace apps
}  // namespace oasis

int main(int argc, char** argv) { return oasis::apps::Main(argc, argv); }
