#include "sampling/importance.h"

#include <algorithm>
#include <cmath>

#include "stats/transforms.h"

namespace oasis {

double ScoreToProbability(double score, bool scores_are_probabilities,
                          double threshold) {
  if (scores_are_probabilities) {
    return Clamp(score, 0.0, 1.0);
  }
  return Expit(score - threshold);
}

ImportanceSampler::ImportanceSampler(const ScoredPool* pool, LabelCache* labels,
                                     const ImportanceOptions& options, Rng rng)
    : Sampler(pool, labels, options.alpha, rng),
      options_(options),
      estimator_(options.alpha) {}

Result<std::unique_ptr<ImportanceSampler>> ImportanceSampler::Create(
    const ScoredPool* pool, LabelCache* labels, const ImportanceOptions& options,
    Rng rng) {
  if (pool == nullptr || labels == nullptr) {
    return Status::InvalidArgument("ImportanceSampler: null pool or labels");
  }
  OASIS_RETURN_NOT_OK(pool->Validate());
  if (!(options.alpha >= 0.0 && options.alpha <= 1.0)) {
    return Status::InvalidArgument("ImportanceSampler: alpha must be in [0, 1]");
  }
  if (options.uniform_mix < 0.0 || options.uniform_mix > 1.0) {
    return Status::InvalidArgument("ImportanceSampler: uniform_mix must be in [0, 1]");
  }
  std::unique_ptr<ImportanceSampler> sampler(
      new ImportanceSampler(pool, labels, options, rng));
  OASIS_RETURN_NOT_OK(sampler->BuildInstrumental());
  return sampler;
}

Status ImportanceSampler::BuildInstrumental() {
  const ScoredPool& p = pool();
  const size_t n = static_cast<size_t>(p.size());
  const double alpha = options_.alpha;

  // Score-based plug-in estimates: p-hat(1|z) from scores, F from the
  // aggregate of those estimates (the per-pair analogue of Algorithm 2).
  std::vector<double> prob(n);
  double tp_mass = 0.0;
  double pred_mass = 0.0;
  double true_mass = 0.0;
  for (size_t i = 0; i < n; ++i) {
    prob[i] = ScoreToProbability(p.scores[i], p.scores_are_probabilities, p.threshold);
    const double pred = p.predictions[i] != 0 ? 1.0 : 0.0;
    tp_mass += prob[i] * pred;
    pred_mass += pred;
    true_mass += prob[i];
  }
  const double denom = alpha * pred_mass + (1.0 - alpha) * true_mass;
  f_guess_ = denom > 0.0 ? tp_mass / denom : 0.5;
  f_guess_ = Clamp(f_guess_, 1e-6, 1.0 - 1e-6);

  // Eqn. (5) with the plug-ins, then a uniform floor for full support.
  q_.resize(n);
  for (size_t i = 0; i < n; ++i) {
    const double pi = prob[i];
    const double pred = p.predictions[i] != 0 ? 1.0 : 0.0;
    const double not_pred_term =
        (1.0 - alpha) * (1.0 - pred) * f_guess_ * std::sqrt(pi);
    const double pred_term =
        pred * std::sqrt(alpha * alpha * f_guess_ * f_guess_ * (1.0 - pi) +
                         (1.0 - f_guess_) * (1.0 - f_guess_) * pi);
    q_[i] = not_pred_term + pred_term;
  }
  NormalizeInPlace(q_);
  const double u = options_.uniform_mix;
  const double uniform = 1.0 / static_cast<double>(n);
  for (double& qi : q_) qi = (1.0 - u) * qi + u * uniform;

  weights_.resize(n);
  for (size_t i = 0; i < n; ++i) {
    weights_[i] = uniform / q_[i];
  }

  if (options_.backend == SamplingBackend::kAliasTable) {
    OASIS_ASSIGN_OR_RETURN(alias_, AliasTable::Build(q_));
  }
  return Status::OK();
}

Status ImportanceSampler::Step() { return StepBatch(1); }

Status ImportanceSampler::StepBatch(int64_t n) {
  // The instrumental distribution is static, so item draws never depend on
  // the labels and BatchedSteps may pre-draw them a chunk at a time.
  const bool use_alias = options_.backend == SamplingBackend::kAliasTable;
  const uint8_t* predictions = pool().predictions.data();
  const double* weights = weights_.data();
  return BatchedSteps(
      n,
      [&](int64_t) {
        return static_cast<int64_t>(use_alias ? alias_.Sample(rng())
                                              : rng().NextDiscreteLinear(q_));
      },
      [&](int64_t, int64_t item_index, bool label) {
        const size_t item = static_cast<size_t>(item_index);
        const double w = weights[item];
        estimator_.Add(w, label, predictions[item] != 0);
        monitor_.Observe(w);
      });
}

EstimateSnapshot ImportanceSampler::Estimate() const {
  return estimator_.Snapshot();
}

}  // namespace oasis
