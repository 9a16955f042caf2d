#ifndef OASIS_EXPERIMENTS_CONVERGENCE_H_
#define OASIS_EXPERIMENTS_CONVERGENCE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"
#include "core/oasis.h"

namespace oasis {
namespace experiments {

/// Model-convergence diagnostics of a single OASIS run — the four panels of
/// the paper's Figure 4, indexed by consumed label budget:
///  (a) |F-hat - F|;
///  (b) mean |pi-hat_k - pi_k| over strata;
///  (c) mean |v_k(t) - v*_k| over strata;
///  (d) KL(v* || v(t)).
struct ConvergenceTrace {
  std::vector<int64_t> budgets;       ///< Checkpoint label budgets (x axis).
  std::vector<double> f_abs_error;    ///< Panel (a): |F-hat - F|.
  std::vector<double> pi_abs_error;   ///< Panel (b): mean |pi-hat_k - pi_k|.
  std::vector<double> v_abs_error;    ///< Panel (c): mean |v_k(t) - v*_k|.
  std::vector<double> kl_divergence;  ///< Panel (d): KL(v* || v(t)).
};

/// Runs `sampler` until `budget` labels are consumed, recording diagnostics
/// every `checkpoint_every` labels. `truth` is the per-item ground truth
/// (one 0/1 entry per pool item) from which the true per-stratum pi and the
/// true optimal instrumental distribution v* are computed; `true_f` is the
/// pool-level F-measure. Fails with OutOfRange, naming the labels reached,
/// when an internal cap of 50 * budget + 100000 iterations fires first.
Result<ConvergenceTrace> TraceOasisConvergence(OasisSampler& sampler,
                                               std::span<const uint8_t> truth,
                                               double true_f, int64_t budget,
                                               int64_t checkpoint_every);

}  // namespace experiments
}  // namespace oasis

#endif  // OASIS_EXPERIMENTS_CONVERGENCE_H_
