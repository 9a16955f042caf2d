#include "experiments/verify.h"

#include <cmath>
#include <cstdio>
#include <sstream>

#include "stats/confidence.h"

namespace oasis {
namespace experiments {

namespace {

std::string Num(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.6g", value);
  return buffer;
}

VerifyCheck MakeCheck(const std::string& name, bool passed,
                      const std::string& detail) {
  VerifyCheck check;
  check.name = name;
  check.passed = passed;
  check.detail = detail;
  return check;
}

}  // namespace

std::string VerifyReport::Render() const {
  std::ostringstream out;
  out << (passed ? "PASS" : "FAIL") << "  scenario=" << scenario
      << " method=" << method << '\n';
  for (const VerifyCheck& check : checks) {
    out << "  [" << (check.passed ? "pass" : "FAIL") << "] " << check.name
        << ": " << check.detail << '\n';
  }
  return out.str();
}

Result<VerifyReport> VerifyRun(const RunSummary& summary,
                               const ErrorCurve* curve,
                               const VerifyOptions& options) {
  if (summary.repeats <= 0 ||
      summary.final_estimates.size() !=
          static_cast<size_t>(summary.repeats) ||
      summary.final_defined.size() != summary.final_estimates.size()) {
    return Status::InvalidArgument(
        "VerifyRun: summary carries no usable per-repeat estimates");
  }
  VerifyReport report;
  report.scenario = summary.scenario;
  report.method = summary.method;

  // 1. aggregate-consistency: rebuild the final-budget aggregates from the
  // raw per-repeat estimates through the runner's own fold (FoldCheckpoint)
  // and demand they reproduce the stored values. Catches hand-edited or
  // truncated files.
  const CheckpointFold fold = FoldCheckpoint(
      summary.final_estimates, summary.final_defined, summary.true_f);
  const double frac_defined =
      static_cast<double>(fold.defined) / static_cast<double>(summary.repeats);
  const double tol = options.aggregate_tolerance;
  const bool aggregates_ok =
      std::abs(fold.estimate.mean() - summary.final_mean_estimate) <= tol &&
      std::abs(fold.estimate.stddev() - summary.final_stddev) <= tol &&
      std::abs(fold.abs_error.mean() - summary.final_mean_abs_error) <= tol &&
      std::abs(frac_defined - summary.final_frac_defined) <= tol;
  report.checks.push_back(MakeCheck(
      "aggregate-consistency", aggregates_ok,
      "recomputed mean=" + Num(fold.estimate.mean()) + " stddev=" +
          Num(fold.estimate.stddev()) + " frac_defined=" + Num(frac_defined) +
          " vs stored mean=" + Num(summary.final_mean_estimate) + " stddev=" +
          Num(summary.final_stddev) + " frac_defined=" +
          Num(summary.final_frac_defined)));

  // 2. estimate-defined.
  report.checks.push_back(MakeCheck(
      "estimate-defined", frac_defined >= options.min_frac_defined,
      Num(frac_defined) + " of repeats defined (need >= " +
          Num(options.min_frac_defined) + ")"));

  // 3. estimate-tolerance against the constructed truth.
  const double tolerance = options.tolerance_override > 0.0
                               ? options.tolerance_override
                               : summary.verify_tolerance;
  const double bias = std::abs(fold.estimate.mean() - summary.true_f);
  report.checks.push_back(MakeCheck(
      "estimate-tolerance", fold.defined > 0 && bias <= tolerance,
      "|mean F-hat - F| = |" + Num(fold.estimate.mean()) + " - " +
          Num(summary.true_f) + "| = " + Num(bias) + " (tolerance " +
          Num(tolerance) + ")"));

  // 4. ci-coverage: the nominal normal interval F-hat_r +- z * sigma-hat
  // should cover the truth for ~ci_level of the repeats. sigma-hat is the
  // cross-repeat sample stddev, so this is a predictive-interval coverage
  // test of approximate normality and unbiasedness combined.
  if (fold.defined >= options.coverage_min_repeats) {
    const double z = NormalQuantileTwoSided(options.ci_level);
    const double half_width = z * fold.estimate.stddev();
    int64_t covered = 0;
    for (size_t r = 0; r < summary.final_estimates.size(); ++r) {
      if (summary.final_defined[r] == 0) continue;
      if (std::abs(summary.final_estimates[r] - summary.true_f) <= half_width) {
        ++covered;
      }
    }
    const double coverage =
        static_cast<double>(covered) / static_cast<double>(fold.defined);
    report.checks.push_back(MakeCheck(
        "ci-coverage",
        coverage >= options.coverage_min && coverage <= options.coverage_max,
        Num(coverage) + " of repeats covered by +-" + Num(half_width) +
            " (band [" + Num(options.coverage_min) + ", " +
            Num(options.coverage_max) + "])"));
  } else {
    report.checks.push_back(MakeCheck(
        "ci-coverage", true,
        "skipped: only " + std::to_string(fold.defined) + " defined repeats (< " +
            std::to_string(options.coverage_min_repeats) + ")"));
  }

  // 5. error-decay over the curve, when provided.
  if (curve != nullptr) {
    if (curve->mean_abs_error.empty()) {
      return Status::InvalidArgument("VerifyRun: curve has no checkpoints");
    }
    const double first = curve->mean_abs_error.front();
    const double last = curve->mean_abs_error.back();
    const double bound = options.decay_factor * first + options.decay_slack;
    report.checks.push_back(MakeCheck(
        "error-decay", last <= bound,
        "final mean |error| " + Num(last) + " vs bound " + Num(bound) +
            " (first checkpoint " + Num(first) + ")"));
  }

  // 6. degeneracy-flag: pools constructed to break static SIS must trip the
  // IS sampler's monitor; every other monitored pairing must stay healthy
  // (the adaptive sampler escaping the trap is exactly the paper's point).
  if (summary.degeneracy_monitored) {
    const bool is_static_is = summary.method == "IS";
    const bool expected = summary.expect_sis_degeneracy && is_static_is;
    // Boundary-truth pools (F exactly 0 or 1, e.g. the no-match preset) are
    // exempt from the must-stay-healthy direction: with the match mass at an
    // extreme the optimal instrumental legitimately concentrates and even an
    // adaptive sampler's weight spread explodes — while its estimate pins
    // the boundary exactly, which the tolerance check above already proves.
    const bool boundary_truth =
        summary.true_f <= 0.0 || summary.true_f >= 1.0;
    if (expected || !boundary_truth) {
      report.checks.push_back(MakeCheck(
          "degeneracy-flag", summary.degeneracy_tripped == expected,
          std::string("monitor ") +
              (summary.degeneracy_tripped ? "tripped" : "healthy") +
              " (expected " + (expected ? "tripped" : "healthy") +
              "; ess_fraction=" + Num(summary.final_ess_fraction) +
              " max_weight_share=" + Num(summary.max_weight_share) + ")"));
    } else {
      report.checks.push_back(MakeCheck(
          "degeneracy-flag", true,
          "skipped: boundary-truth pool (F = " + Num(summary.true_f) +
              "), weight spread is uninformative"));
    }
  }

  report.passed = true;
  for (const VerifyCheck& check : report.checks) {
    report.passed = report.passed && check.passed;
  }
  return report;
}

}  // namespace experiments
}  // namespace oasis
