#include "core/bayesian_model.h"

#include <cmath>
#include <utility>

#include "common/logging.h"

namespace oasis {

StratifiedBetaModel::StratifiedBetaModel(std::vector<double> prior_match,
                                         std::vector<double> prior_nonmatch,
                                         bool decay_prior)
    : prior_match_(std::move(prior_match)),
      prior_nonmatch_(std::move(prior_nonmatch)),
      decay_prior_(decay_prior) {
  observed_match_.assign(prior_match_.size(), 0);
  observed_total_.assign(prior_match_.size(), 0);
}

Result<StratifiedBetaModel> StratifiedBetaModel::Create(
    std::span<const double> prior_pi, double prior_strength, bool decay_prior) {
  if (prior_pi.empty()) {
    return Status::InvalidArgument("StratifiedBetaModel: no strata");
  }
  if (!(prior_strength > 0.0) || std::isnan(prior_strength)) {
    return Status::InvalidArgument("StratifiedBetaModel: prior_strength must be > 0");
  }
  std::vector<double> match(prior_pi.size());
  std::vector<double> nonmatch(prior_pi.size());
  for (size_t k = 0; k < prior_pi.size(); ++k) {
    const double pi = prior_pi[k];
    if (std::isnan(pi) || pi <= 0.0 || pi >= 1.0) {
      return Status::InvalidArgument(
          "StratifiedBetaModel: prior probabilities must lie strictly in (0, 1)");
    }
    match[k] = prior_strength * pi;
    nonmatch[k] = prior_strength * (1.0 - pi);
  }
  return StratifiedBetaModel(std::move(match), std::move(nonmatch), decay_prior);
}

void StratifiedBetaModel::Observe(size_t stratum, bool label) {
  OASIS_DCHECK(stratum < num_strata());
  if (label) ++observed_match_[stratum];
  ++observed_total_[stratum];
}

double StratifiedBetaModel::PosteriorMean(size_t stratum) const {
  OASIS_DCHECK(stratum < num_strata());
  const double n = static_cast<double>(observed_total_[stratum]);
  const double m = static_cast<double>(observed_match_[stratum]);
  // Remark 4: retroactively divide the prior column by n_k (>= 1) so its
  // influence fades as real labels accumulate.
  const double decay = decay_prior_ ? std::max(1.0, n) : 1.0;
  const double gamma0 = prior_match_[stratum] / decay;
  const double gamma1 = prior_nonmatch_[stratum] / decay;
  return (gamma0 + m) / (gamma0 + gamma1 + n);
}

std::vector<double> StratifiedBetaModel::PosteriorMeans() const {
  std::vector<double> means(num_strata());
  for (size_t k = 0; k < num_strata(); ++k) means[k] = PosteriorMean(k);
  return means;
}

}  // namespace oasis
