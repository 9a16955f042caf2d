#ifndef OASIS_CORE_OASIS_H_
#define OASIS_CORE_OASIS_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/alias_table.h"
#include "common/fenwick_tree.h"
#include "core/bayesian_model.h"
#include "sampling/ais_estimator.h"
#include "sampling/sampler.h"
#include "stats/degeneracy.h"
#include "strata/csf.h"
#include "strata/strata.h"

namespace oasis {

/// Which Step() implementation OasisSampler runs. Every path is a consistent
/// estimator of the same quantities; they differ in speed and in how stale
/// an instrumental distribution they tolerate. kFused is the bit-exact default
/// (paper Algorithm 3; tests/reference_oasis.h holds the allocating
/// reference it is checked against step for step). kFenwick lets the
/// instrumental go stale up to a configurable F-staleness tolerance and
/// consumes the RNG differently, so it is equivalent in distribution rather
/// than bit-for-bit (tests/fenwick_step_path_test.cc verifies the
/// distributional match and estimator consistency).
enum class OasisStepPath {
  /// Zero-allocation fused O(K) step over precomputed per-stratum constants
  /// and incrementally-maintained posterior means, v* masses and mass
  /// prefix sums: while F-hat is bit-for-bit unchanged only the stratum
  /// observed on the previous step is recomputed, and the stratum is drawn
  /// from those prefix sums in O(log K) (CertifiedMixtureDraw). The default.
  kFused,
  /// Sub-linear draws: an incrementally-maintained Fenwick tree over the
  /// unnormalised v* masses gives O(log K) single-stratum updates and
  /// O(log K) inverse-CDF draws, with the epsilon-greedy mix realised as a
  /// two-component mixture (a static alias table over the stratum weights
  /// for the epsilon branch). Only the observed stratum's mass is refreshed
  /// per step; a full O(K) rebuild happens only when F-hat has drifted more
  /// than OasisOptions::fenwick_rebuild_tol since the masses were last
  /// computed. Because F-hat converges (Theorem 3), rebuilds become rare and
  /// the amortised per-step cost is O(log K) — the path to prefer when K is
  /// large (roughly K >= 1000; see docs/ARCHITECTURE.md).
  kFenwick,
};

/// Tunables of Algorithm 3. Defaults follow the paper's experiments
/// (Sec. 6.3: alpha = 1/2, epsilon = 1e-3, eta = 2K).
struct OasisOptions {
  /// F-measure weight: 1 = precision, 0 = recall, 1/2 = balanced F.
  double alpha = 0.5;
  /// Greediness parameter of the epsilon-greedy instrumental mix (Eqn. 12);
  /// must lie in (0, 1] for the consistency guarantee to hold.
  double epsilon = 1e-3;
  /// Prior strength eta > 0; 0 selects the paper's experimental setting
  /// eta = 2K at construction time.
  double prior_strength = 0.0;
  /// Remark-4 retroactive prior decay.
  bool decay_prior = true;
  /// Hot-path selection; see OasisStepPath.
  OasisStepPath step_path = OasisStepPath::kFused;
  /// Drift gate of the kFenwick step path: how far |F-hat| may drift from
  /// the value the maintained masses were computed with before a full O(K)
  /// rebuild is forced. 0 means rebuild whenever anything changed at all
  /// (the exact v(t) at O(K) on almost every early step); larger values
  /// trade a bounded staleness of the instrumental for cheap steps.
  /// Estimates stay consistent for ANY tolerance because importance weights
  /// always use the distribution actually sampled from, which keeps full
  /// support via the epsilon mix — the tolerance only affects how close the
  /// instrumental is to the optimum (variance), never correctness. Must be
  /// finite and >= 0.
  double fenwick_rebuild_tol = 1e-2;
  /// Thresholds of the always-on importance-weight health monitor (see
  /// DegeneracyMonitor). The monitor only observes: its verdict reaches the
  /// run summary, and no step path reacts to it.
  DegeneracyOptions degeneracy;
};

/// Everything Algorithm 3 derives from the pool, the strata and the options
/// before its first step: Algorithm 2's initial guesses, the resolved prior
/// strength and the per-stratum constants of the v* formula. None of it
/// depends on the labels or the RNG, so one setup — built by
/// OasisSampler::Prepare in O(N) — is shared read-only by every repeat or
/// session sampler over the same pool, and each OasisSampler::Create from it
/// is O(K). `pool` is not owned and must outlive every sampler created from
/// the setup.
struct OasisSetup {
  /// The pool the setup was prepared for (not owned).
  const ScoredPool* pool = nullptr;
  /// The stratification every sampler from this setup draws over.
  std::shared_ptr<const Strata> strata;
  /// Resolved options (prior_strength filled in when the caller left it 0).
  OasisOptions options;
  /// Algorithm-2 initial F-measure guess F-hat(0).
  double initial_f = 0.0;
  /// Per-stratum mean predictions lambda_k.
  std::vector<double> lambda;
  /// The beta posterior before any label (prior Gamma(0) = eta * pi-hat(0)).
  StratifiedBetaModel prior;
  /// prior.PosteriorMeans(): the starting value of every sampler's
  /// incremental posterior-mean cache.
  std::vector<double> prior_means;
  /// Square roots of prior_means.
  std::vector<double> prior_sqrt_means;
  /// (1 - alpha) * (1 - lambda_k), with the factor grouping of
  /// OptimalStratifiedInstrumental's v* formula so the fused scan stays
  /// bit-identical to it.
  std::vector<double> c_not_pred;
  /// alpha^2.
  double alpha_sq = 0.0;
  /// The stratum weights normalised exactly as OptimalStratifiedInstrumental
  /// does when every v* mass is zero (the degenerate fallback of the fused
  /// step).
  std::vector<double> fallback_v_star;
  /// In-order prefix sums of the stratum weights (the last entry is their
  /// total): the epsilon half of the fused step's certified draw.
  std::vector<double> weight_prefix;
};

/// OASIS — Optimal Asymptotic Sequential Importance Sampling (Algorithm 3).
///
/// Per iteration: recompute the epsilon-greedy stratified instrumental
/// distribution v(t) from the current Bayesian posterior and F estimate, draw
/// a stratum ~ v(t) and an item uniformly within it, query the oracle, update
/// the beta posterior (Eqn. 10) and fold the importance-weighted observation
/// (w_t = omega_k / v_k) into the AIS estimator (Eqn. 3).
///
/// Estimates of F_alpha, precision and recall are all consistent for their
/// population values (paper Theorem 3); see tests/oasis_test.cc for the
/// statistical verification.
class OasisSampler : public Sampler {
 public:
  /// Validates the pool, the strata and the options, and runs the O(N) part
  /// of sampler construction once: Algorithm 2 on the pool scores and the
  /// per-stratum constants. Create() then builds any number of samplers from
  /// the result in O(K) each.
  static Result<std::shared_ptr<const OasisSetup>> Prepare(
      const ScoredPool* pool, std::shared_ptr<const Strata> strata,
      const OasisOptions& options);

  /// Creates a sampler from a prepared setup in O(K). `labels` must outlive
  /// the sampler and label the setup's pool.
  static Result<std::unique_ptr<OasisSampler>> Create(
      std::shared_ptr<const OasisSetup> setup, LabelCache* labels, Rng rng);

  /// Prepare() followed by Create(). `pool` and `labels` must outlive the
  /// sampler; `strata` is shared so that repeated runs reuse one
  /// stratification.
  static Result<std::unique_ptr<OasisSampler>> Create(
      const ScoredPool* pool, LabelCache* labels,
      std::shared_ptr<const Strata> strata, const OasisOptions& options, Rng rng);

  /// Convenience: stratifies the pool internally with CSF (Algorithm 1).
  static Result<std::unique_ptr<OasisSampler>> CreateWithCsf(
      const ScoredPool* pool, LabelCache* labels, size_t target_strata,
      const OasisOptions& options, Rng rng);

  /// One Algorithm-3 iteration through the configured step_path.
  Status Step() override;
  /// `n` iterations with the path dispatch hoisted out of the loop; exactly
  /// equivalent to `n` calls to Step().
  Status StepBatch(int64_t n) override;
  /// Current F_alpha / precision / recall snapshot of the AIS estimator.
  EstimateSnapshot Estimate() const override;
  /// "OASIS-<K>" with K the realised stratum count.
  std::string name() const override;

  /// Streams every weighted observation (w_t, l_t, l-hat_t) to a consumer in
  /// addition to the built-in estimator — e.g. a MultiAlphaEstimator pricing
  /// the whole precision-recall trade-off from the same label stream, or a
  /// persistent audit log. Invoked after the internal update, on the calling
  /// thread.
  using Observer = std::function<void(double weight, bool label, bool prediction)>;
  void SetObserver(Observer observer) { observer_ = std::move(observer); }

  // --- Diagnostics (Figure 4) -------------------------------------------

  /// Current posterior means pi-hat(t).
  std::vector<double> PosteriorMeans() const { return model_.PosteriorMeans(); }

  /// Current epsilon-greedy instrumental distribution v(t) (normalised),
  /// recomputed from the live posterior and F estimate — the *ideal* v(t)
  /// every step path tracks.
  Result<std::vector<double>> CurrentInstrumental() const;

  /// kFenwick only: the distribution the next Fenwick draw would actually
  /// use, i.e. epsilon * omega + (1 - epsilon) * (Fenwick mass / total) with
  /// the masses as maintained (possibly computed under an F within
  /// fenwick_rebuild_tol of the live one, and before any rebuild the next
  /// step might trigger). Fails when the sampler does not run the kFenwick
  /// path. Used by the equivalence tests to bound the staleness gap against
  /// CurrentInstrumental().
  Result<std::vector<double>> FenwickInstrumental() const;

  /// Read access to the stratified beta posterior (diagnostics/tests: e.g.
  /// per-stratum visit counts via labels_observed()).
  const StratifiedBetaModel& model() const { return model_; }

  /// Per-stratum mean predictions lambda (fixed by the pool).
  const std::vector<double>& lambda() const { return setup_->lambda; }

  /// The stratification the sampler draws over.
  const Strata& strata() const { return *strata_; }
  /// Resolved options (prior_strength filled in when the caller left it 0).
  const OasisOptions& options() const { return setup_->options; }
  /// Algorithm-2 initial F-measure guess F-hat(0), used until Eqn. (3) is
  /// defined.
  double initial_f() const { return setup_->initial_f; }
  /// The shared setup this sampler was created from.
  const std::shared_ptr<const OasisSetup>& setup() const { return setup_; }

  /// The importance-weight health monitor (always collecting; see
  /// OasisOptions::degeneracy).
  const DegeneracyMonitor* degeneracy_monitor() const override {
    return &monitor_;
  }

 private:
  OasisSampler(std::shared_ptr<const OasisSetup> setup, LabelCache* labels,
               Rng rng);

  /// The zero-allocation fused iteration (OasisStepPath::kFused).
  Status StepFused();
  /// Brings the fused path's v* masses and their prefix sums up to date
  /// under `f`: the full O(K) kernel when f's bits differ from the build
  /// point, otherwise only the stratum observed on the previous step.
  void RefreshFusedMasses(double f);
  /// The fused step's exact stratum draw for uniform `u`: MixtureCdfKernel
  /// into v_scratch_, then the first CDF entry above u * (its total), with
  /// Rng::NextDiscreteLinear's slack fallback. Runs only when
  /// CertifiedMixtureDraw leaves the draw undecided; counted by
  /// oasis_sampler_fused_exact_draws_total.
  size_t ExactFusedDraw(double u, double total);
  /// Probability of stratum k under the epsilon-greedy mixture the fused
  /// step samples from (`total` = the summed v* masses, <= 0 selects the
  /// normalised-weights fallback), with EpsilonGreedyMix's exact rounding.
  double FusedMixtureProbability(size_t k, double total) const;
  /// The O(log K) Fenwick-tree iteration (OasisStepPath::kFenwick).
  Status StepFenwick();
  /// One-time kFenwick setup: the weights alias table and the initial mass
  /// build. Called from Create() so construction can still fail cleanly.
  Status InitFenwick();
  /// Unnormalised v* mass of stratum k under F estimate `f`, with exactly the
  /// factor grouping of the fused scan.
  double StratumMass(size_t k, double f) const;
  /// Probability of stratum k under the epsilon-greedy mixture the Fenwick
  /// draw actually samples from (`total` = v_star_tree_.Total(), <= 0 selects
  /// the degenerate omega fallback). Single source of truth shared by
  /// StepFenwick's importance weight and FenwickInstrumental.
  double FenwickMixtureProbability(size_t k, double total) const;
  /// Recomputes every Fenwick mass under `f` in O(K) (no allocation) and
  /// records `f` as the build point for the drift check.
  void RebuildFenwickMasses(double f);
  /// Algorithm 3's lines 7-11, shared by every step path: queries the
  /// oracle for `item` (drawn from `stratum` with importance weight
  /// `weight`), updates the beta posterior and the incremental caches for
  /// that stratum (the only one whose mean can change), folds the
  /// observation into the estimator, the observer and the monitor, records
  /// the step's telemetry. A failed query returns before any state moves.
  Status Observe(size_t stratum, int64_t item, double weight);

  std::shared_ptr<const OasisSetup> setup_;
  // Shorthands into *setup_, which owns them.
  const Strata* strata_;
  const OasisOptions& options_;
  StratifiedBetaModel model_;
  AisEstimator estimator_;
  Observer observer_;
  // Always-on weight health monitor (observe-only).
  DegeneracyMonitor monitor_;
  // The epsilon of the greedy mix, options_.epsilon, held by value: every
  // step path reads it on each step.
  const double epsilon_;
  // Scratch buffer reused across iterations to avoid per-step allocation:
  // the running CDF of v(t) that the fused step writes only when its
  // certified draw is undecided (the exact fallback), the Fenwick rebuild's
  // masses.
  std::vector<double> v_scratch_;
  // --- Fused-path state --------------------------------------------------
  // Incrementally-maintained posterior means pi-hat_k and their square roots;
  // Observe refreshes only the observed stratum, so Step() never
  // recomputes the full posterior. Values are bit-identical to
  // model_.PosteriorMeans() at all times.
  std::vector<double> pi_cache_;
  std::vector<double> sqrt_pi_cache_;
  // Unnormalised v* masses and their in-order prefix sums (the last entry is
  // the total; the certified draw searches them), valid under the F-hat
  // whose bit pattern is fused_f_bits_.
  // Between two steps with bit-equal F-hat only the observed stratum's mass
  // moves, so RefreshFusedMasses recomputes that one mass and the prefix
  // from it on. Empty unless step_path == kFused.
  std::vector<double> fused_mass_;
  std::vector<double> fused_prefix_;
  uint64_t fused_f_bits_ = 0;
  bool fused_built_ = false;
  // Stratum observed by the previous fused step (num_strata() before the
  // first). No other path runs on a kFused sampler, so this is the only
  // mass that can be stale.
  size_t fused_observed_ = 0;
  // --- Fenwick-path state ------------------------------------------------
  // Unnormalised v* masses, maintained incrementally: Update for the one
  // observed stratum per step, Rebuild only when F-hat drifts past
  // fenwick_rebuild_tol. Empty unless step_path == kFenwick.
  FenwickTree v_star_tree_;
  // Static O(1) sampler over the stratum weights omega — the epsilon branch
  // of the mixture and the degenerate all-zero-mass fallback.
  AliasTable weights_alias_;
  // F-hat the Fenwick masses were last (re)built with; < 0 until InitFenwick.
  double tree_f_ = -1.0;
};

}  // namespace oasis

#endif  // OASIS_CORE_OASIS_H_
