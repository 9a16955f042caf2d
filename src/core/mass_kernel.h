#ifndef OASIS_CORE_MASS_KERNEL_H_
#define OASIS_CORE_MASS_KERNEL_H_

#include <cstddef>
#include <optional>

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
/// allocating reference sampler (tests/reference_oasis.h, checked by
/// tests/fused_incremental_test and tests/step_batch_test;
/// tests/mass_kernel_test checks the kernel itself). No FMA contraction is ever
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
/// and returns cdf[n - 1] (0 when n == 0). The exact fallback of the
/// certified draw (CertifiedMixtureDraw): the fused step runs it only on the
/// rare steps the certified draw leaves undecided, and its CDF, searched with
/// std::upper_bound, is the pick every fused draw must reproduce.
///
/// One scalar left-to-right pass evaluates each mixed term with exactly that
/// grouping (no FMA) and adds it to the running sum, so the result is
/// bit-identical to EpsilonGreedyMix followed by an in-order prefix sum. The
/// kernel lives out of line so the running sum stays in a register rather
/// than round-tripping through the stack on every addition.
///
/// All pointers must address at least `n` doubles; `cdf` may not alias the
/// inputs.
double MixtureCdfKernel(const double* weights, const double* v_star,
                        double divisor, double epsilon, double* cdf, size_t n);

/// Draws a stratum of the OASIS instrumental (Algorithm 3, line 4) from
/// prefix sums the fused step already keeps, in O(log n), and certifies that
/// the pick equals the exact one; returns nullopt ("undecided") when it
/// cannot.
///
/// Inputs: `weight_prefix[i]` = W_i and `mass_prefix[i]` = P_i, the in-order
/// (left-to-right, rounded) prefix sums of the stratum weights w_j >= 0 and
/// of the v* masses m_j >= 0; T = P_{n-1}; `u` in [0, 1). The exact pick is
/// the first i with c_i > fl(u * c_{n-1}), where c = MixtureCdfKernel(w, m,
/// T, epsilon) is the reference CDF. This function instead searches the
/// estimate
///
///   r_i = epsilon * W_i + P_i * s,   s = (1 - epsilon) / T,
///
/// with s computed once (the draw's only division), for the first k with
/// r_k > t, t = fl(u * r_{n-1}), and returns k only when both neighbours
/// clear the margin M:
///
///   r_k - t > M   and   (k == 0 or t - r_{k-1} > M),
///   M = 3 * (4n + 32) * 2^-53 * max(1, r_{n-1}).
///
/// The search has no branch on the data before the margin tests. From n = 8
/// on, a conditional-move binary search over the last entries of eight-entry
/// blocks finds the first block whose last entry exceeds t (the last block
/// when none before it does); the entries <= t are then counted, two lanes
/// per SSE2 compare, over the eight entries from min(block start, n - 8), and
/// k is that start plus the count. Every entry before the block is <= t, so
/// starting the window early (for a short last block) changes nothing. Below
/// n = 8 all n entries are counted. At n = 30 that is two probes and four
/// vector compares.
///
/// Why a returned k is the exact pick. Write u_r = 2^-53 and
/// gamma_j = j u_r / (1 - j u_r). Both c_i and r_i approximate the same real
/// R_i = sum_{j <= i} (epsilon w_j + (1 - epsilon) m_j / T) (T the rounded
/// total both sides divide by). Every term is non-negative, so the standard
/// recursive-summation bound applies relative to R_{n-1}: c_i carries at
/// most n - 1 rounded additions plus 5 roundings per term (1 - epsilon,
/// m_j / T, the two products, the term's add), and r_i at most n - 1
/// additions inside W_i or P_i plus the same count of 5 (1 - epsilon, the
/// division by T, the product with P_i, epsilon * W_i, the add). Hence
///
///   |c_i - R_i| <= gamma_{n+5} R_{n-1},   |r_i - R_i| <= gamma_{n+5} R_{n-1},
///
/// so |c_i - r_i| <= 2 gamma_{n+5} R_{n-1}, and the two targets
/// fl(u c_{n-1}) and fl(u r_{n-1}) differ by at most
/// 2 gamma_{n+5} R + u_r (c_{n-1} + r_{n-1}) ~ (2n + 12) u_r R. If
/// r_k - t > M and t - r_{k-1} > M with M > (4n + 22) u_r R, then
/// c_k > fl(u c_{n-1}) >= c_{k-1}; c is non-decreasing (non-negative terms,
/// monotone rounding), so every c_j with j < k is <= the target too, and
/// upper_bound over c returns exactly k (never n, so the exact path's slack
/// fallback cannot apply, and c_{n-1} >= c_k > 0 passes its positivity
/// check). M above is at least 3x that bound: the factor 3 absorbs
/// R_{n-1} <= r_{n-1} / (1 - gamma_{n+5}), the 1 / (1 - j u_r) inside gamma,
/// the rounding of M and of the two margin subtractions (fl is monotone, so
/// fl(a - b) > M implies a - b > M), and products that underflow (at most a
/// few 2^-1075 of absolute error per term, far below M because
/// max(1, r_{n-1}) >= 1). The relative bound on s needs s to be 0 (epsilon
/// = 1, exact) or a normal number: a subnormal s, from a T near DBL_MAX,
/// carries up to 2^-1075 of absolute error, which P_i ~ T scales past M.
///
/// r is non-decreasing in i for the same reasons as c, so the block search
/// and the count find the same k a linear scan would. Returns nullopt when
/// n == 0, when T is not a positive normal finite number (zero, subnormal,
/// infinite or NaN: the exact path owns the all-zero-mass fallback), when s
/// is neither 0 nor normal, when r_{n-1} <= M (or is NaN), when no r_i
/// exceeds t, or when either margin test fails.
///
/// All pointers must address at least `n` doubles.
std::optional<size_t> CertifiedMixtureDraw(const double* weight_prefix,
                                           const double* mass_prefix,
                                           double epsilon, double u, size_t n);

/// True when StratumMassKernel runs on a vector unit (AVX2 or SSE2) rather
/// than the scalar fallback. Diagnostics/benchmark labelling only.
bool MassKernelVectorized();

}  // namespace oasis

#endif  // OASIS_CORE_MASS_KERNEL_H_
