#include "core/oasis.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <optional>
#include <utility>

#include "common/logging.h"
#include "core/initialization.h"
#include "core/mass_kernel.h"
#include "sampling/instrumental.h"
#include "stats/transforms.h"
#include "telemetry/telemetry.h"

namespace oasis {

namespace {

/// Per-step bookkeeping shared by every step path: one counter bump.
inline void RecordOasisStepTelemetry() {
  if (!OASIS_TELEMETRY_ON) return;
  static telemetry::Counter& steps = telemetry::DefaultRegistry().AddCounter(
      "oasis_sampler_steps_total",
      "Sampler steps taken (one oracle draw each), across all paths.");
  steps.Increment();
}

}  // namespace

OasisSampler::OasisSampler(std::shared_ptr<const OasisSetup> setup,
                           LabelCache* labels, Rng rng)
    : Sampler(setup->pool, labels, setup->options.alpha, rng),
      setup_(std::move(setup)),
      strata_(setup_->strata.get()),
      options_(setup_->options),
      model_(setup_->prior),
      estimator_(options_.alpha),
      monitor_(options_.degeneracy),
      epsilon_(options_.epsilon),
      v_scratch_(strata_->num_strata()),
      pi_cache_(setup_->prior_means),
      sqrt_pi_cache_(setup_->prior_sqrt_means) {
  if (options_.step_path == OasisStepPath::kFused) {
    fused_mass_.resize(strata_->num_strata());
    fused_prefix_.resize(strata_->num_strata());
    fused_observed_ = strata_->num_strata();
  }
}

Result<std::shared_ptr<const OasisSetup>> OasisSampler::Prepare(
    const ScoredPool* pool, std::shared_ptr<const Strata> strata,
    const OasisOptions& options) {
  if (pool == nullptr || strata == nullptr) {
    return Status::InvalidArgument("OasisSampler: null pool/strata");
  }
  if (!(options.alpha >= 0.0 && options.alpha <= 1.0)) {
    return Status::InvalidArgument("OasisSampler: alpha must be in [0, 1]");
  }
  if (std::isnan(options.epsilon) || options.epsilon <= 0.0 ||
      options.epsilon > 1.0) {
    return Status::InvalidArgument(
        "OasisSampler: epsilon must lie in (0, 1] (Remark 5: epsilon = 0 "
        "forfeits consistency)");
  }
  if (std::isnan(options.fenwick_rebuild_tol) ||
      std::isinf(options.fenwick_rebuild_tol) ||
      options.fenwick_rebuild_tol < 0.0) {
    return Status::InvalidArgument(
        "OasisSampler: fenwick_rebuild_tol must be finite and >= 0");
  }
  OASIS_RETURN_NOT_OK(strata->Validate());

  // Algorithm 2: score-derived initial estimates (also validates the pool
  // and its size against the strata).
  OASIS_ASSIGN_OR_RETURN(InitialEstimates init,
                         InitializeFromScores(*strata, *pool, options.alpha));

  // Sec. 6.3 default: eta = 2K unless the caller fixed a strength.
  OasisOptions resolved = options;
  const size_t num_strata = strata->num_strata();
  if (resolved.prior_strength <= 0.0) {
    resolved.prior_strength = 2.0 * static_cast<double>(num_strata);
  }
  OASIS_ASSIGN_OR_RETURN(
      StratifiedBetaModel prior,
      StratifiedBetaModel::Create(init.pi, resolved.prior_strength,
                                  resolved.decay_prior));

  std::vector<double> prior_means = prior.PosteriorMeans();
  std::vector<double> prior_sqrt_means(num_strata);
  std::vector<double> c_not_pred(num_strata);
  for (size_t k = 0; k < num_strata; ++k) {
    prior_sqrt_means[k] = std::sqrt(prior_means[k]);
    c_not_pred[k] = (1.0 - resolved.alpha) * (1.0 - init.lambda[k]);
  }
  std::vector<double> fallback_v_star = strata->weights();
  NormalizeInPlace(fallback_v_star);
  std::vector<double> weight_prefix(num_strata);
  double weight_acc = 0.0;
  for (size_t k = 0; k < num_strata; ++k) {
    weight_acc += strata->weight(k);
    weight_prefix[k] = weight_acc;
  }
  auto setup = std::make_shared<const OasisSetup>(OasisSetup{
      .pool = pool,
      .strata = std::move(strata),
      .options = resolved,
      .initial_f = init.f_alpha,
      .lambda = std::move(init.lambda),
      .prior = std::move(prior),
      .prior_means = std::move(prior_means),
      .prior_sqrt_means = std::move(prior_sqrt_means),
      .c_not_pred = std::move(c_not_pred),
      .alpha_sq = resolved.alpha * resolved.alpha,
      .fallback_v_star = std::move(fallback_v_star),
      .weight_prefix = std::move(weight_prefix),
  });
  return setup;
}

Result<std::unique_ptr<OasisSampler>> OasisSampler::Create(
    std::shared_ptr<const OasisSetup> setup, LabelCache* labels, Rng rng) {
  if (setup == nullptr || labels == nullptr) {
    return Status::InvalidArgument("OasisSampler: null setup/labels");
  }
  if (labels->oracle().num_items() != setup->pool->size()) {
    return Status::InvalidArgument("OasisSampler: oracle/pool size mismatch");
  }
  std::unique_ptr<OasisSampler> sampler(
      new OasisSampler(std::move(setup), labels, rng));
  switch (sampler->options_.step_path) {
    case OasisStepPath::kFenwick:
      OASIS_RETURN_NOT_OK(sampler->InitFenwick());
      break;
    case OasisStepPath::kFused:
      break;
  }
  return sampler;
}

Result<std::unique_ptr<OasisSampler>> OasisSampler::Create(
    const ScoredPool* pool, LabelCache* labels,
    std::shared_ptr<const Strata> strata, const OasisOptions& options, Rng rng) {
  OASIS_ASSIGN_OR_RETURN(std::shared_ptr<const OasisSetup> setup,
                         Prepare(pool, std::move(strata), options));
  return Create(std::move(setup), labels, rng);
}

Result<std::unique_ptr<OasisSampler>> OasisSampler::CreateWithCsf(
    const ScoredPool* pool, LabelCache* labels, size_t target_strata,
    const OasisOptions& options, Rng rng) {
  if (pool == nullptr) {
    return Status::InvalidArgument("OasisSampler: null pool");
  }
  OASIS_ASSIGN_OR_RETURN(
      Strata strata,
      StratifyCsf(pool->scores, target_strata, pool->scores_are_probabilities));
  return Create(pool, labels, std::make_shared<const Strata>(std::move(strata)),
                options, rng);
}

double OasisSampler::FenwickMixtureProbability(size_t k, double total) const {
  const double omega_k = strata_->weight(k);
  return total > 0.0 ? epsilon_ * omega_k +
                           (1.0 - epsilon_) * (v_star_tree_.value(k) / total)
                     : omega_k;
}

double OasisSampler::StratumMass(size_t k, double f) const {
  const double pi = pi_cache_[k];
  const double not_pred = setup_->c_not_pred[k] * f * sqrt_pi_cache_[k];
  const double pred =
      setup_->lambda[k] * std::sqrt(setup_->alpha_sq * f * f * (1.0 - pi) +
                                    (1.0 - f) * (1.0 - f) * pi);
  return strata_->weight(k) * (not_pred + pred);
}

void OasisSampler::RebuildFenwickMasses(double f) {
  const size_t num_strata = strata_->num_strata();
  const double a2f2 = setup_->alpha_sq * f * f;
  const double omf2 = (1.0 - f) * (1.0 - f);
  StratumMassKernel(strata_->weights().data(), setup_->lambda.data(), pi_cache_.data(),
                    sqrt_pi_cache_.data(), setup_->c_not_pred.data(), f, a2f2, omf2,
                    v_scratch_.data(), num_strata);
  OASIS_CHECK_OK(v_star_tree_.Rebuild(v_scratch_));
  tree_f_ = f;
}

Status OasisSampler::InitFenwick() {
  OASIS_ASSIGN_OR_RETURN(weights_alias_, AliasTable::Build(strata_->weights()));
  OASIS_ASSIGN_OR_RETURN(v_star_tree_,
                         FenwickTree::Build(strata_->weights()));  // Sized; masses set below.
  RebuildFenwickMasses(Clamp(estimator_.FAlphaOr(setup_->initial_f), 0.0, 1.0));
  return Status::OK();
}

Status OasisSampler::StepFenwick() {
  // Line 3 analogue: keep the maintained masses while F-hat stays within
  // fenwick_rebuild_tol of the value they were built with; otherwise refresh
  // them all at O(K). The per-stratum posterior drift is already folded in by
  // the Update at the end of each step, so between rebuilds the tree is
  // exactly v*(pi(t), tree_f_).
  const double f = Clamp(estimator_.FAlphaOr(setup_->initial_f), 0.0, 1.0);
  const double drift = std::fabs(f - tree_f_);
  if (drift > options_.fenwick_rebuild_tol) {
    if (OASIS_TELEMETRY_ON) {
      static telemetry::Counter& rebuilds =
          telemetry::DefaultRegistry().AddCounter(
              "oasis_sampler_fenwick_rebuilds_total",
              "Full O(K) Fenwick mass rebuilds triggered by F-hat drift.");
      static telemetry::Histogram& drift_hist =
          telemetry::DefaultRegistry().AddHistogram(
              "oasis_sampler_fenwick_rebuild_drift",
              "|F-hat - tree F| observed at each Fenwick rebuild.",
              {1e-4, 1e-3, 1e-2, 0.05, 0.1, 0.25});
      rebuilds.Increment();
      drift_hist.Observe(drift);
    }
    RebuildFenwickMasses(f);
  }

  // Lines 4-5: the epsilon-greedy mix is sampled as a literal two-component
  // mixture — with probability epsilon a stratum ~ omega from the O(1) alias
  // table, otherwise ~ v*/total from the O(log K) Fenwick inverse CDF — then
  // an item uniform within the stratum. When every mass degenerates to zero
  // both components collapse to omega (same fallback as the other paths).
  const double total = v_star_tree_.Total();
  size_t k;
  if (total <= 0.0 || rng().NextDouble() < epsilon_) {
    k = weights_alias_.Sample(rng());
  } else {
    k = v_star_tree_.FindQuantile(rng().NextDouble() * total);
  }
  const int64_t item = strata_->SampleItem(k, rng());

  // Line 6: w_t = omega_k / v_k with v_k of the distribution the draw above
  // actually used — this is what keeps the estimator consistent for any
  // rebuild tolerance (full support comes from the epsilon component).
  const double weight = strata_->weight(k) / FenwickMixtureProbability(k, total);

  // Lines 7-11. Only stratum k's posterior mean moved, so one O(log K)
  // point update keeps the tree exact under the build-point F.
  OASIS_RETURN_NOT_OK(Observe(k, item, weight));
  v_star_tree_.Update(k, StratumMass(k, tree_f_));
  return Status::OK();
}

Status OasisSampler::Observe(size_t stratum, int64_t item, double weight) {
  // Lines 7-8: query oracle, read prediction. A failed query returns before
  // any state moves.
  OASIS_ASSIGN_OR_RETURN(const bool label, QueryLabel(item));
  const bool prediction = pool().predictions[static_cast<size_t>(item)] != 0;

  // Lines 9-11: posterior update and AIS sums. Only the observed stratum's
  // posterior changed (Eqn. 10 is per-stratum), so a single refresh keeps
  // the caches exact.
  model_.Observe(stratum, label);
  pi_cache_[stratum] = model_.PosteriorMean(stratum);
  sqrt_pi_cache_[stratum] = std::sqrt(pi_cache_[stratum]);
  estimator_.Add(weight, label, prediction);
  if (observer_) observer_(weight, label, prediction);
  monitor_.Observe(weight);
  RecordOasisStepTelemetry();
  return Status::OK();
}

void OasisSampler::RefreshFusedMasses(double f) {
  const size_t num_strata = strata_->num_strata();
  const uint64_t f_bits = std::bit_cast<uint64_t>(f);
  const bool full = !fused_built_ || f_bits != fused_f_bits_;
  if (!full && fused_observed_ >= num_strata) return;
  // The mass kernel is strictly elementwise (vectorised lanes round exactly
  // like the scalar expression, no FMA contraction), so a one-stratum call
  // reproduces the bits a full scan would write there.
  const size_t first = full ? 0 : fused_observed_;
  const size_t count = full ? num_strata : 1;
  const double a2f2 = setup_->alpha_sq * f * f;  // alpha^2 F^2
  const double omf2 = (1.0 - f) * (1.0 - f);     // (1 - F)^2
  StratumMassKernel(strata_->weights().data() + first,
                    setup_->lambda.data() + first, pi_cache_.data() + first,
                    sqrt_pi_cache_.data() + first,
                    setup_->c_not_pred.data() + first, f, a2f2, omf2,
                    fused_mass_.data() + first, count);
  // Re-add the in-order prefix from the first changed stratum on: the same
  // additions, in the same order, as OptimalStratifiedInstrumental's total.
  double acc = first == 0 ? 0.0 : fused_prefix_[first - 1];
  for (size_t i = first; i < num_strata; ++i) {
    acc += fused_mass_[i];
    fused_prefix_[i] = acc;
  }
  fused_f_bits_ = f_bits;
  fused_built_ = true;
}

double OasisSampler::FusedMixtureProbability(size_t k, double total) const {
  const double v_star = total > 0.0 ? fused_mass_[k] / total
                                    : setup_->fallback_v_star[k];
  return epsilon_ * strata_->weight(k) + (1.0 - epsilon_) * v_star;
}

size_t OasisSampler::ExactFusedDraw(double u, double total) {
  if (OASIS_TELEMETRY_ON) {
    static telemetry::Counter& exact_draws =
        telemetry::DefaultRegistry().AddCounter(
            "oasis_sampler_fused_exact_draws_total",
            "Fused steps whose stratum draw the certified draw left "
            "undecided, so the exact mixture-CDF pass ran.");
    exact_draws.Increment();
  }
  // Normalise, mix and accumulate the running CDF of v(t), allocation-free.
  // Degenerate estimates (every mass zero) fall back to the normalised
  // stratum weights before mixing, as OptimalStratifiedInstrumental does.
  const size_t num_strata = strata_->num_strata();
  const double* v_star =
      total > 0.0 ? fused_mass_.data() : setup_->fallback_v_star.data();
  const double divisor = total > 0.0 ? total : 1.0;
  double* cdf = v_scratch_.data();
  const double acc =
      MixtureCdfKernel(strata_->weights().data(), v_star, divisor,
                       epsilon_, cdf, num_strata);

  // The first index whose prefix exceeds u * total, including
  // Rng::NextDiscreteLinear's fallback to the last positive-probability
  // stratum on floating-point slack.
  OASIS_CHECK(acc > 0.0) << "StepFused requires positive total weight";
  const double target = u * acc;
  size_t k = static_cast<size_t>(
      std::upper_bound(cdf, cdf + num_strata, target) - cdf);
  if (k == num_strata) {
    do {
      --k;
    } while (k > 0 && !(FusedMixtureProbability(k, total) > 0.0));
  }
  return k;
}

Status OasisSampler::StepFused() {
  const size_t num_strata = strata_->num_strata();

  // Line 3: v(t) from the current posterior means and F estimate. The
  // unnormalised v* masses and their prefix sums are kept across steps and
  // refreshed incrementally; every expression keeps the factor grouping and
  // summation order of OptimalStratifiedInstrumental + EpsilonGreedyMix, so
  // a seeded run is bit-identical to the allocating reference sampler in
  // tests/reference_oasis.h.
  const double f = Clamp(estimator_.FAlphaOr(setup_->initial_f), 0.0, 1.0);
  RefreshFusedMasses(f);
  const double total = fused_prefix_[num_strata - 1];

  // Lines 4-5: stratum ~ v(t), item uniform within the stratum. The pick is
  // the first index of the running CDF of v(t) that exceeds u * (its total):
  // exactly the index Rng::NextDiscreteLinear would return over v(t). The
  // certified draw reads it off the weight and mass prefix sums in
  // O(log K) and proves it equal to that exact pick; on the rare step it
  // cannot (u lands within a rounding bound of a CDF step, or every mass is
  // zero) the exact pass runs on the same u.
  const double u = rng().NextDouble();
  const std::optional<size_t> certified = CertifiedMixtureDraw(
      setup_->weight_prefix.data(), fused_prefix_.data(), epsilon_, u,
      num_strata);
  const size_t k = certified ? *certified : ExactFusedDraw(u, total);
  const int64_t item = strata_->SampleItem(k, rng());

  // Line 6: importance weight w_t = omega_k / v_k, since p(z) = 1/N and
  // q_t(z) = v_k / |P_k|. The epsilon floor bounds this by 1/epsilon.
  const double weight = strata_->weight(k) / FusedMixtureProbability(k, total);

  // Lines 7-11. Only stratum k's posterior moved, so only its mass is stale
  // for the next step.
  OASIS_RETURN_NOT_OK(Observe(k, item, weight));
  fused_observed_ = k;
  return Status::OK();
}

Status OasisSampler::Step() {
  switch (options_.step_path) {
    case OasisStepPath::kFenwick:
      return StepFenwick();
    case OasisStepPath::kFused:
      break;
  }
  return StepFused();
}

Status OasisSampler::StepBatch(int64_t n) {
  if (n < 0) {
    return Status::InvalidArgument("StepBatch: n must be non-negative");
  }
  // OASIS is sequentially adaptive: the instrumental distribution for step
  // t + 1 depends on the oracle label observed at step t, so — unlike the
  // static samplers — a batch cannot pre-draw its items and amortise oracle
  // round-trips through LabelCache::QueryBatch without changing the
  // algorithm. The batch win here is hoisting the path dispatch out of the
  // loop; label-level batching for the static samplers lives in their own
  // StepBatch overrides.
  switch (options_.step_path) {
    case OasisStepPath::kFenwick:
      for (int64_t i = 0; i < n; ++i) {
        OASIS_RETURN_NOT_OK(StepFenwick());
      }
      return Status::OK();
    case OasisStepPath::kFused:
      break;
  }
  for (int64_t i = 0; i < n; ++i) {
    OASIS_RETURN_NOT_OK(StepFused());
  }
  return Status::OK();
}

EstimateSnapshot OasisSampler::Estimate() const { return estimator_.Snapshot(); }

std::string OasisSampler::name() const {
  return "OASIS-" + std::to_string(strata_->num_strata());
}

Result<std::vector<double>> OasisSampler::FenwickInstrumental() const {
  if (options_.step_path != OasisStepPath::kFenwick) {
    return Status::FailedPrecondition(
        "FenwickInstrumental: sampler does not run the kFenwick step path");
  }
  const size_t num_strata = strata_->num_strata();
  const double total = v_star_tree_.Total();
  std::vector<double> v(num_strata);
  for (size_t k = 0; k < num_strata; ++k) {
    v[k] = FenwickMixtureProbability(k, total);
  }
  return v;
}

Result<std::vector<double>> OasisSampler::CurrentInstrumental() const {
  const double f_current = estimator_.FAlphaOr(setup_->initial_f);
  std::vector<double> pi = model_.PosteriorMeans();
  OASIS_ASSIGN_OR_RETURN(
      std::vector<double> v_star,
      OptimalStratifiedInstrumental(strata_->weights(), setup_->lambda, pi, f_current,
                                    options_.alpha));
  return EpsilonGreedyMix(strata_->weights(), v_star, epsilon_);
}

}  // namespace oasis
