#ifndef OASIS_CORE_BAYESIAN_MODEL_H_
#define OASIS_CORE_BAYESIAN_MODEL_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"

namespace oasis {

/// Stratified beta-Bernoulli latent-variable model of the oracle
/// (paper Sec. 4.2.2).
///
/// Each stratum k carries an independent Beta(gamma0_k, gamma1_k) prior over
/// its match probability pi_k; observed labels update the posterior by count
/// increments (Eqn. 10) and point estimates are posterior means (Eqn. 11).
///
/// The prior is parametrised as Gamma(0) = eta * [pi0; 1 - pi0] (Sec. 4.3).
/// With `decay_prior` (the paper's Remark 4) the prior pseudo-counts are
/// retroactively down-weighted by 1/n_k once labels arrive, which speeds
/// convergence and adds robustness to a misspecified pi0. Prior and observed
/// counts are stored separately so the decay is exact.
class StratifiedBetaModel {
 public:
  /// `prior_pi` holds the initial per-stratum match-probability guesses,
  /// each in (0, 1); `prior_strength` is eta > 0.
  static Result<StratifiedBetaModel> Create(std::span<const double> prior_pi,
                                            double prior_strength, bool decay_prior);

  /// Records one oracle label for stratum k (Eqn. 10).
  void Observe(size_t stratum, bool label);

  /// Posterior mean estimate of pi_k (Eqn. 11, with Remark-4 decay applied
  /// when enabled).
  double PosteriorMean(size_t stratum) const;

  /// All posterior means; recomputed on demand.
  std::vector<double> PosteriorMeans() const;

  /// Number of strata K the model covers.
  size_t num_strata() const { return prior_match_.size(); }
  /// Labels observed in `stratum` so far (equivalently: how often the OASIS
  /// sampler visited it, since each step observes exactly one label).
  int64_t labels_observed(size_t stratum) const { return observed_total_[stratum]; }
  /// Positive labels observed in `stratum` so far.
  int64_t matches_observed(size_t stratum) const { return observed_match_[stratum]; }
  /// Whether Remark-4 retroactive prior decay is active.
  bool decay_prior() const { return decay_prior_; }

 private:
  StratifiedBetaModel(std::vector<double> prior_match,
                      std::vector<double> prior_nonmatch, bool decay_prior);

  // Prior pseudo-counts gamma(0): match row (eta * pi0) and non-match row
  // (eta * (1 - pi0)).
  std::vector<double> prior_match_;
  std::vector<double> prior_nonmatch_;
  // Observed label counts per stratum.
  std::vector<int64_t> observed_match_;
  std::vector<int64_t> observed_total_;
  bool decay_prior_;
};

}  // namespace oasis

#endif  // OASIS_CORE_BAYESIAN_MODEL_H_
