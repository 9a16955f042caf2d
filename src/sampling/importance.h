#ifndef OASIS_SAMPLING_IMPORTANCE_H_
#define OASIS_SAMPLING_IMPORTANCE_H_

#include <memory>
#include <vector>

#include "common/alias_table.h"
#include "sampling/ais_estimator.h"
#include "sampling/sampler.h"
#include "stats/degeneracy.h"

namespace oasis {

/// How the static IS sampler draws from its per-item instrumental
/// distribution.
enum class SamplingBackend {
  /// Walker/Vose alias table: O(N) setup, O(1) per draw. The production
  /// default.
  kAliasTable,
  /// Linear inverse-CDF scan: O(N) per draw. Faithful to the paper's
  /// reference implementation and used to reproduce the Table 3 runtime
  /// shape (IS time scaling linearly with pool size).
  kLinearScan,
};

/// Options for the static importance sampler.
struct ImportanceOptions {
  /// F-measure weight (alpha = 1/2 is the balanced F-measure).
  double alpha = 0.5;
  /// Floor mixed into the instrumental distribution, q <- (1-u)*q + u*uniform,
  /// keeping every item reachable (Sawade et al. use the same device; without
  /// it items with score-estimated q(z) = 0 would never be sampled and the
  /// estimator could not be consistent).
  double uniform_mix = 1e-3;
  SamplingBackend backend = SamplingBackend::kAliasTable;
};

/// Static (non-adaptive) importance sampler — the Sawade et al. baseline.
///
/// The instrumental distribution instantiates the asymptotically optimal form
/// (paper Eqn. 5) once, up front, replacing the unknown oracle probabilities
/// p(1|z) with the similarity scores mapped to [0, 1], and the unknown F with
/// a score-based guess. It never adapts, so mis-calibrated scores leave it
/// stuck with a suboptimal distribution (the effect Figure 3 quantifies).
/// Estimates use the bias-corrected weighted sums of Eqn. (3) with static
/// weights w(z) = (1/N) / q(z).
class ImportanceSampler : public Sampler {
 public:
  /// `pool` and `labels` must outlive the sampler.
  static Result<std::unique_ptr<ImportanceSampler>> Create(
      const ScoredPool* pool, LabelCache* labels, const ImportanceOptions& options,
      Rng rng);

  Status Step() override;
  Status StepBatch(int64_t n) override;
  EstimateSnapshot Estimate() const override;
  std::string name() const override { return "IS"; }

  /// The normalised instrumental probability of each item (diagnostics).
  const std::vector<double>& instrumental() const { return q_; }

  /// Score-based initial guess of F_alpha used to build the distribution.
  double initial_f_guess() const { return f_guess_; }

  /// The importance-weight health monitor. It makes static IS's weight
  /// collapse under mis-calibrated scores observable per checkpoint —
  /// exactly the failure mode Figure 3 quantifies.
  const DegeneracyMonitor* degeneracy_monitor() const override {
    return &monitor_;
  }

 private:
  ImportanceSampler(const ScoredPool* pool, LabelCache* labels,
                    const ImportanceOptions& options, Rng rng);

  Status BuildInstrumental();

  ImportanceOptions options_;
  std::vector<double> q_;       // Normalised instrumental probabilities.
  std::vector<double> weights_; // Importance weight (1/N)/q per item.
  AliasTable alias_;
  double f_guess_ = 0.0;
  DegeneracyMonitor monitor_;
  AisEstimator estimator_;
};

/// Maps a raw similarity score to a pseudo-probability in (0, 1): identity
/// (clamped) for probability scores, logistic around `threshold` otherwise.
/// Shared by IS and the OASIS initialisation (Algorithm 2, lines 3-5).
double ScoreToProbability(double score, bool scores_are_probabilities,
                          double threshold);

}  // namespace oasis

#endif  // OASIS_SAMPLING_IMPORTANCE_H_
