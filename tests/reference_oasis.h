#ifndef OASIS_TESTS_REFERENCE_OASIS_H_
#define OASIS_TESTS_REFERENCE_OASIS_H_

// The allocating reference implementation of Algorithm 3, kept beside the
// tests that check OasisStepPath::kFused against it. Each step recomputes
// the posterior means, the optimal instrumental v* and the epsilon-greedy
// mix from scratch, one vector each, and draws the stratum with a linear
// scan of the mixture. Every expression and its order are those the fused
// step promises to reproduce bit for bit, so a seeded fused sampler and a
// seeded reference sampler over the same setup draw the same strata, weigh
// them the same and report the same estimates at every step.

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/bayesian_model.h"
#include "core/oasis.h"
#include "sampling/ais_estimator.h"
#include "sampling/instrumental.h"
#include "sampling/sampler.h"

namespace oasis {
namespace testutil {

class ReferenceOasisSampler : public Sampler {
 public:
  /// Builds a reference sampler over a prepared setup.
  static Result<std::unique_ptr<ReferenceOasisSampler>> Create(
      std::shared_ptr<const OasisSetup> setup, LabelCache* labels, Rng rng) {
    if (setup == nullptr || labels == nullptr) {
      return Status::InvalidArgument(
          "ReferenceOasisSampler: null setup/labels");
    }
    return std::unique_ptr<ReferenceOasisSampler>(
        new ReferenceOasisSampler(std::move(setup), labels, rng));
  }

  Status Step() override {
    const Strata& strata = *setup_->strata;

    // Line 3: v(t) from the current posterior means and F estimate, with the
    // initial Algorithm-2 guess standing in until Eqn. (3) is defined.
    const double f_current = estimator_.FAlphaOr(setup_->initial_f);
    const std::vector<double> pi = model_.PosteriorMeans();
    OASIS_ASSIGN_OR_RETURN(
        const std::vector<double> v_star,
        OptimalStratifiedInstrumental(strata.weights(), setup_->lambda, pi,
                                      f_current, setup_->options.alpha));
    OASIS_ASSIGN_OR_RETURN(
        const std::vector<double> v,
        EpsilonGreedyMix(strata.weights(), v_star, setup_->options.epsilon));

    // Lines 4-5: stratum ~ v(t), item uniform within the stratum.
    const size_t k = rng().NextDiscreteLinear(v);
    const int64_t item = strata.SampleItem(k, rng());

    // Line 6: importance weight w_t = omega_k / v_k.
    const double weight = strata.weight(k) / v[k];

    // Lines 7-8: query oracle, read prediction.
    OASIS_ASSIGN_OR_RETURN(const bool label, QueryLabel(item));
    const bool prediction = pool().predictions[static_cast<size_t>(item)] != 0;

    // Lines 9-11: posterior update and AIS sums.
    model_.Observe(k, label);
    estimator_.Add(weight, label, prediction);
    if (observer_) observer_(weight, label, prediction);
    return Status::OK();
  }

  EstimateSnapshot Estimate() const override { return estimator_.Snapshot(); }
  std::string name() const override {
    return "OASIS-reference-" + std::to_string(setup_->strata->num_strata());
  }

  /// Same contract as OasisSampler::SetObserver.
  void SetObserver(OasisSampler::Observer observer) {
    observer_ = std::move(observer);
  }
  std::vector<double> PosteriorMeans() const { return model_.PosteriorMeans(); }
  const StratifiedBetaModel& model() const { return model_; }
  const Strata& strata() const { return *setup_->strata; }

 private:
  ReferenceOasisSampler(std::shared_ptr<const OasisSetup> setup,
                        LabelCache* labels, Rng rng)
      : Sampler(setup->pool, labels, setup->options.alpha, rng),
        setup_(std::move(setup)),
        model_(setup_->prior),
        estimator_(setup_->options.alpha) {}

  std::shared_ptr<const OasisSetup> setup_;
  StratifiedBetaModel model_;
  AisEstimator estimator_;
  OasisSampler::Observer observer_;
};

}  // namespace testutil
}  // namespace oasis

#endif  // OASIS_TESTS_REFERENCE_OASIS_H_
