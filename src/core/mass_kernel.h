#ifndef OASIS_CORE_MASS_KERNEL_H_
#define OASIS_CORE_MASS_KERNEL_H_

#include <cstddef>

namespace oasis {

/// Elementwise unnormalised v* mass kernel of the OASIS instrumental
/// (Eqn. 11):
///
///   v[i] = weights[i] * (c_not_pred[i] * f * sqrt_pi[i]
///          + lambda[i] * sqrt(a2f2 * (1 - pi[i]) + omf2 * pi[i]))
///
/// with `a2f2` = alpha^2 * F^2 and `omf2` = (1 - F)^2 precomputed by the
/// caller with left-to-right association (a2f2 = alpha_sq * f * f), matching
/// OasisSampler::StratumMass exactly.
///
/// The kernel is vectorized (AVX2 when compiled in, else SSE2, else scalar)
/// but every lane performs exactly the scalar sequence of IEEE-754
/// correctly-rounded mul/add/sub/sqrt operations, so the output is
/// bit-identical to the scalar loop at every element for every build flavour
/// — which is what lets the fused step path stay bit-for-bit equal to the
/// allocating reference path (tests/fused_incremental_test,
/// tests/step_batch_test, tests/mass_kernel_test). No FMA contraction is ever
/// used: a fused multiply-add rounds once where the scalar formula rounds
/// twice.
///
/// Any reduction over v (the total mass) is deliberately left to the caller
/// as a scalar, in-order loop: summation order is part of the bit-identity
/// contract and must not depend on vector width.
///
/// All pointers must address at least `n` doubles; `v` may not alias the
/// inputs.
void StratumMassKernel(const double* weights, const double* lambda,
                       const double* pi, const double* sqrt_pi,
                       const double* c_not_pred, double f, double a2f2,
                       double omf2, double* v, size_t n);

/// Normalise, epsilon-mix and accumulate the running CDF of the OASIS
/// instrumental (Algorithm 3, lines 3-4):
///
///   cdf[i] = sum_{j <= i} (epsilon * weights[j]
///                          + (1 - epsilon) * (v_star[j] / divisor))
///
/// and returns cdf[n - 1] (0 when n == 0). One scalar left-to-right pass
/// evaluates each mixed term with exactly that grouping (no FMA) and adds it
/// to the running sum, so the result is bit-identical to EpsilonGreedyMix
/// followed by an in-order prefix sum. The kernel lives out of line so the
/// running sum stays in a register rather than round-tripping through the
/// stack on every addition.
///
/// All pointers must address at least `n` doubles; `cdf` may not alias the
/// inputs.
double MixtureCdfKernel(const double* weights, const double* v_star,
                        double divisor, double epsilon, double* cdf, size_t n);

/// True when StratumMassKernel runs on a vector unit (AVX2 or SSE2) rather
/// than the scalar fallback. Diagnostics/benchmark labelling only.
bool MassKernelVectorized();

}  // namespace oasis

#endif  // OASIS_CORE_MASS_KERNEL_H_
