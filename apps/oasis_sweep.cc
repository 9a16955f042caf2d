// oasis_sweep — a scenarios x methods x budgets cross-product of scenario
// runs with one unified report.
//
// Usage: oasis_sweep <sweep-config> <out-dir>
//
// Config keys:
//   scenarios = stripe-f90, imbalance-1e3   # or "all" for the catalogue
//   methods = passive, is, oasis            # any of passive|stratified|is|oasis
//   budgets = 500, 2000
//   repeats / checkpoint_every / run_seed / threads / strata  # shared knobs
//   verify = true                           # verify each run inline
//
// Each cell writes <out-dir>/<scenario>__<method>__<budget>.{curves.csv,
// summary.json}; the aggregate table lands in <out-dir>/sweep_report.txt and
// on stdout, with a per-cell elapsed/labels-per-second line on stderr as the
// sweep progresses. With verify = true the process exits 2 when any cell
// fails its checks (the CI smoke job runs exactly that mode).
//
// Observability flags (docs/TELEMETRY.md): --metrics-out=<path>,
// --trace-out=<path>, --heartbeat=<seconds>, --no-telemetry.

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "apps/app_util.h"
#include "datagen/scenario.h"
#include "experiments/config.h"
#include "experiments/csv.h"
#include "experiments/report.h"
#include "experiments/scenario_run.h"
#include "experiments/summary.h"
#include "experiments/verify.h"

namespace oasis {
namespace apps {
namespace {

struct SweepOutcome {
  bool any_verify_failed = false;
  std::string report_text;
};

Result<SweepOutcome> RunSweep(const std::string& config_path,
                              const std::string& out_dir,
                              const experiments::CommonFlags& flags) {
  OASIS_ASSIGN_OR_RETURN(const experiments::ConfigMap config,
                         experiments::ConfigMap::ParseFile(config_path));

  std::vector<std::string> scenario_names = config.GetStringList("scenarios");
  if (scenario_names.size() == 1 && scenario_names[0] == "all") {
    scenario_names.clear();
    for (const datagen::ScenarioSpec& spec : datagen::ScenarioCatalog()) {
      scenario_names.push_back(spec.name);
    }
  }
  if (scenario_names.empty()) {
    return Status::InvalidArgument("sweep config: 'scenarios' is required");
  }
  std::vector<std::string> methods = config.GetStringList("methods");
  if (methods.empty()) methods = {"oasis"};
  const std::vector<std::string> budget_strings = config.GetStringList("budgets");
  std::vector<int64_t> budgets;
  for (const std::string& budget : budget_strings) {
    const std::optional<int64_t> value = experiments::ParseInt64(budget);
    if (!value || *value <= 0) {
      return Status::InvalidArgument("sweep config: bad budget '" + budget + "'");
    }
    budgets.push_back(*value);
  }
  OASIS_ASSIGN_OR_RETURN(experiments::ScenarioRunOptions base_options,
                         experiments::ScenarioRunOptions::FromConfig(config));
  if (budgets.empty()) budgets = {base_options.budget};
  OASIS_ASSIGN_OR_RETURN(const bool verify, config.GetBoolOr("verify", false));
  OASIS_RETURN_NOT_OK(config.CheckAllKeysUsed());
  // CLI overrides beat the config file (shared --threads/--seed semantics).
  if (flags.threads.has_value()) {
    base_options.num_threads = *flags.threads;
  }
  if (flags.seed.has_value()) base_options.seed = *flags.seed;

  // The sweep owns the whole directory (unlike the single-run apps, whose
  // out-prefix may deliberately target an existing tree), so create it.
  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);
  if (ec) {
    return Status::Internal("cannot create out-dir '" + out_dir +
                            "': " + ec.message());
  }

  SweepOutcome outcome;
  experiments::TextTable table({"scenario", "method", "budget", "true F",
                                "mean F-hat", "|err|", "stddev", "defined",
                                "verify"});
  for (const std::string& scenario_name : scenario_names) {
    OASIS_ASSIGN_OR_RETURN(const datagen::ScenarioSpec spec,
                           datagen::ScenarioByName(scenario_name));
    OASIS_ASSIGN_OR_RETURN(const datagen::ScenarioPool pool,
                           datagen::GenerateScenario(spec));
    for (const std::string& method : methods) {
      for (const int64_t budget : budgets) {
        experiments::ScenarioRunOptions options = base_options;
        options.method = method;
        options.budget = budget;
        if (options.checkpoint_every > budget) options.checkpoint_every = budget;
        const auto cell_start = std::chrono::steady_clock::now();
        OASIS_ASSIGN_OR_RETURN(const experiments::ScenarioRunResult result,
                               experiments::RunScenario(pool, options));
        const double cell_seconds =
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          cell_start)
                .count();
        const std::string prefix = out_dir + "/" + scenario_name + "__" +
                                   method + "__" + std::to_string(budget);
        std::fprintf(stderr, "%s %s budget=%lld: %s\n", scenario_name.c_str(),
                     method.c_str(), static_cast<long long>(budget),
                     FormatElapsed(cell_seconds, result.curve.labels_consumed)
                         .c_str());
        OASIS_RETURN_NOT_OK(experiments::WriteCurvesCsv(prefix + ".curves.csv",
                                                        {result.curve}));
        OASIS_RETURN_NOT_OK(experiments::WriteRunSummaryJson(
            prefix + ".summary.json", result.summary));

        std::string verdict = "-";
        if (verify) {
          OASIS_ASSIGN_OR_RETURN(
              const experiments::VerifyReport report,
              experiments::VerifyRun(result.summary, &result.curve,
                                     experiments::VerifyOptions()));
          verdict = report.passed ? "pass" : "FAIL";
          if (!report.passed) {
            outcome.any_verify_failed = true;
            outcome.report_text += report.Render();
          }
        }
        const experiments::RunSummary& s = result.summary;
        table.AddRow({scenario_name, s.method, std::to_string(budget),
                      experiments::FormatDouble(s.true_f),
                      experiments::FormatDouble(s.final_mean_estimate),
                      experiments::FormatDouble(s.final_mean_abs_error),
                      experiments::FormatDouble(s.final_stddev),
                      experiments::FormatDouble(s.final_frac_defined, 2),
                      verdict});
      }
    }
  }
  outcome.report_text = table.ToString() + outcome.report_text;

  const std::string report_path = out_dir + "/sweep_report.txt";
  std::ofstream out(report_path);
  out << outcome.report_text;
  if (!out) {
    return Status::Internal("cannot write '" + report_path + "'");
  }
  return outcome;
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
                 "usage: oasis_sweep [--metrics-out=m.json] "
                 "[--trace-out=t.json] [--heartbeat=N] [--no-telemetry] "
                 "[--threads=N] [--seed=N] <sweep-config> <out-dir>\n");
    return kExitError;
  }
  TelemetrySession telemetry(flags_or.ValueOrDie());
  Result<SweepOutcome> outcome =
      RunSweep(args.positional()[0], args.positional()[1],
               flags_or.ValueOrDie());
  if (!outcome.ok()) return FailWith(outcome.status());
  std::printf("%s", outcome.ValueOrDie().report_text.c_str());
  const Status telemetry_status = telemetry.Finish();
  if (!telemetry_status.ok()) return FailWith(telemetry_status);
  return outcome.ValueOrDie().any_verify_failed ? kExitVerifyFailed : kExitOk;
}

}  // namespace
}  // namespace apps
}  // namespace oasis

int main(int argc, char** argv) { return oasis::apps::Main(argc, argv); }
