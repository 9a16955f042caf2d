#ifndef OASIS_SAMPLING_INSTRUMENTAL_H_
#define OASIS_SAMPLING_INSTRUMENTAL_H_

#include <span>
#include <vector>

#include "common/status.h"

namespace oasis {

/// Computes the stratified asymptotically optimal instrumental distribution
/// v* of the paper (the stratified adaptation of Eqn. 5):
///
///   v*_k ∝ omega_k [ (1-alpha)(1-lambda_k) F sqrt(pi_k)
///                    + lambda_k sqrt(alpha^2 F^2 (1-pi_k) + (1-F)^2 pi_k) ]
///
/// where omega_k is the stratum weight, lambda_k the stratum mean prediction,
/// pi_k the (estimated or true) stratum match probability and F the
/// (estimated or true) F-measure. The result is normalised to sum to one;
/// when every unnormalised mass is zero (e.g. F = 0 and pi = 0 everywhere)
/// the stratum weights omega are returned instead, which keeps the sampler
/// well defined.
///
/// All spans must have the same length; pi entries must lie in [0, 1].
Result<std::vector<double>> OptimalStratifiedInstrumental(
    std::span<const double> weights, std::span<const double> lambda,
    std::span<const double> pi, double f_measure, double alpha);

/// Mixes v* with the stratum weights per the epsilon-greedy rule (Eqn. 12):
/// v_k = epsilon * omega_k + (1 - epsilon) * v*_k. With epsilon > 0 every
/// stratum keeps positive mass, the property that powers the consistency
/// proof (Theorem 3 / Remark 5) and bounds importance weights by 1/epsilon.
Result<std::vector<double>> EpsilonGreedyMix(std::span<const double> weights,
                                             std::span<const double> v_star,
                                             double epsilon);

}  // namespace oasis

#endif  // OASIS_SAMPLING_INSTRUMENTAL_H_
