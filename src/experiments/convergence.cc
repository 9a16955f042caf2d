#include "experiments/convergence.h"

#include <cmath>
#include <string>

#include "sampling/instrumental.h"
#include "sampling/trajectory.h"
#include "stats/kl_divergence.h"
#include "stats/transforms.h"

namespace oasis {
namespace experiments {

Result<ConvergenceTrace> TraceOasisConvergence(OasisSampler& sampler,
                                               std::span<const uint8_t> truth,
                                               double true_f, int64_t budget,
                                               int64_t checkpoint_every) {
  if (budget <= 0 || checkpoint_every <= 0) {
    return Status::InvalidArgument("TraceOasisConvergence: bad budget/checkpoint");
  }
  if (static_cast<int64_t>(truth.size()) != sampler.pool().size()) {
    return Status::InvalidArgument("TraceOasisConvergence: truth size mismatch");
  }

  const Strata& strata = sampler.strata();
  const std::vector<double> true_pi = strata.MeanPerStratum(truth);

  // Reference optimal instrumental distribution from the true quantities,
  // with the same epsilon-greedy floor the sampler applies.
  OASIS_ASSIGN_OR_RETURN(
      std::vector<double> v_star_raw,
      OptimalStratifiedInstrumental(strata.weights(), sampler.lambda(), true_pi,
                                    true_f, sampler.options().alpha));
  OASIS_ASSIGN_OR_RETURN(
      std::vector<double> v_star,
      EpsilonGreedyMix(strata.weights(), v_star_raw, sampler.options().epsilon));

  // One cursor step per grid point: Advance(checkpoint_every) stops on the
  // step that charged that checkpoint's label, so the diagnostics read the
  // sampler state right after it.
  TrajectoryOptions options;
  options.budget = budget;
  options.checkpoint_every = checkpoint_every;
  options.max_iterations = 50 * budget + 100000;
  OASIS_ASSIGN_OR_RETURN(TrajectoryCursor cursor,
                         TrajectoryCursor::Start(sampler, options));
  ConvergenceTrace trace;
  for (size_t i = 0; i < cursor.trajectory().budgets.size(); ++i) {
    OASIS_RETURN_NOT_OK(cursor.Advance(checkpoint_every).status());
    if (cursor.trajectory().truncated) break;

    const EstimateSnapshot snap = sampler.Estimate();
    const std::vector<double> pi_hat = sampler.PosteriorMeans();
    OASIS_ASSIGN_OR_RETURN(std::vector<double> v_now, sampler.CurrentInstrumental());
    OASIS_ASSIGN_OR_RETURN(double kl, KlDivergence(v_star, v_now));

    trace.budgets.push_back(sampler.labels_consumed());
    trace.f_abs_error.push_back(
        snap.f_defined ? std::abs(snap.f_alpha - true_f) : 1.0);
    trace.pi_abs_error.push_back(MeanAbsoluteDifference(pi_hat, true_pi));
    trace.v_abs_error.push_back(MeanAbsoluteDifference(v_now, v_star));
    trace.kl_divergence.push_back(kl);
  }
  OASIS_RETURN_NOT_OK(cursor.Advance(0).status());
  if (cursor.trajectory().truncated) {
    // A short trace would pass for a complete one; e.g. a budget above the
    // pool size under a deterministic oracle runs out of fresh labels.
    return Status::OutOfRange(
        "TraceOasisConvergence: iteration cap of " +
        std::to_string(options.max_iterations) + " reached after " +
        std::to_string(sampler.labels_consumed()) + " of " +
        std::to_string(budget) + " labels");
  }
  return trace;
}

}  // namespace experiments
}  // namespace oasis
