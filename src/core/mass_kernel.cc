#include "core/mass_kernel.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.h"

#if defined(__AVX2__)
#include <immintrin.h>
#elif defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace oasis {

namespace {

/// The scalar formula, shared by the vector tails and the fallback. Factor
/// grouping mirrors OptimalStratifiedInstrumental / StratumMass exactly:
/// not_pred associates as (c * f) * sqrt_pi, the radicand as
/// (a2f2 * (1 - pi)) + (omf2 * pi).
inline double ScalarMass(double weight, double lambda, double pi,
                         double sqrt_pi, double c_not_pred, double f,
                         double a2f2, double omf2) {
  const double not_pred = c_not_pred * f * sqrt_pi;
  const double pred = lambda * std::sqrt(a2f2 * (1.0 - pi) + omf2 * pi);
  return weight * (not_pred + pred);
}

}  // namespace

void StratumMassKernel(const double* weights, const double* lambda,
                       const double* pi, const double* sqrt_pi,
                       const double* c_not_pred, double f, double a2f2,
                       double omf2, double* v, size_t n) {
  size_t i = 0;
#if defined(__AVX2__)
  const __m256d vf = _mm256_set1_pd(f);
  const __m256d va2f2 = _mm256_set1_pd(a2f2);
  const __m256d vomf2 = _mm256_set1_pd(omf2);
  const __m256d vone = _mm256_set1_pd(1.0);
  for (; i + 4 <= n; i += 4) {
    const __m256d p = _mm256_loadu_pd(pi + i);
    const __m256d not_pred = _mm256_mul_pd(
        _mm256_mul_pd(_mm256_loadu_pd(c_not_pred + i), vf),
        _mm256_loadu_pd(sqrt_pi + i));
    // No _mm256_fmadd_pd here: the scalar formula rounds the two products
    // separately before the add, and bit-identity is the contract.
    const __m256d radicand =
        _mm256_add_pd(_mm256_mul_pd(va2f2, _mm256_sub_pd(vone, p)),
                      _mm256_mul_pd(vomf2, p));
    const __m256d pred = _mm256_mul_pd(_mm256_loadu_pd(lambda + i),
                                       _mm256_sqrt_pd(radicand));
    _mm256_storeu_pd(v + i,
                     _mm256_mul_pd(_mm256_loadu_pd(weights + i),
                                   _mm256_add_pd(not_pred, pred)));
  }
#elif defined(__SSE2__)
  const __m128d vf = _mm_set1_pd(f);
  const __m128d va2f2 = _mm_set1_pd(a2f2);
  const __m128d vomf2 = _mm_set1_pd(omf2);
  const __m128d vone = _mm_set1_pd(1.0);
  for (; i + 2 <= n; i += 2) {
    const __m128d p = _mm_loadu_pd(pi + i);
    const __m128d not_pred =
        _mm_mul_pd(_mm_mul_pd(_mm_loadu_pd(c_not_pred + i), vf),
                   _mm_loadu_pd(sqrt_pi + i));
    const __m128d radicand = _mm_add_pd(
        _mm_mul_pd(va2f2, _mm_sub_pd(vone, p)), _mm_mul_pd(vomf2, p));
    const __m128d pred =
        _mm_mul_pd(_mm_loadu_pd(lambda + i), _mm_sqrt_pd(radicand));
    _mm_storeu_pd(v + i, _mm_mul_pd(_mm_loadu_pd(weights + i),
                                    _mm_add_pd(not_pred, pred)));
  }
#endif
  for (; i < n; ++i) {
    v[i] = ScalarMass(weights[i], lambda[i], pi[i], sqrt_pi[i], c_not_pred[i],
                      f, a2f2, omf2);
  }
}

double MixtureCdfKernel(const double* OASIS_RESTRICT weights,
                        const double* OASIS_RESTRICT v_star, double divisor,
                        double epsilon, double* OASIS_RESTRICT cdf, size_t n) {
  const double keep = 1.0 - epsilon;
  double acc = 0.0;
  for (size_t i = 0; i < n; ++i) {
    acc += epsilon * weights[i] + keep * (v_star[i] / divisor);
    cdf[i] = acc;
  }
  return acc;
}

/// Entries per block of the certified draw's search: the binary search
/// probes one entry per block, and the block it lands in is counted whole.
constexpr size_t kDrawBlock = 8;

std::optional<size_t> CertifiedMixtureDraw(const double* weight_prefix,
                                           const double* mass_prefix,
                                           double epsilon, double u, size_t n) {
  if (n == 0) return std::nullopt;
  const double total = mass_prefix[n - 1];
  if (!(total >= std::numeric_limits<double>::min() &&
        total <= std::numeric_limits<double>::max())) {
    return std::nullopt;
  }
  // The one division of the draw. A subnormal scale has no relative error
  // bound, so the certificate below would not hold.
  const double scale = (1.0 - epsilon) / total;
  if (!(scale == 0.0 || std::isnormal(scale))) return std::nullopt;
  const auto estimate = [&](size_t i) {
    return epsilon * weight_prefix[i] + mass_prefix[i] * scale;
  };
  const double last = estimate(n - 1);
  const double margin = 3.0 * (4.0 * static_cast<double>(n) + 32.0) * 0x1p-53 *
                        std::max(1.0, last);
  if (!(last > margin)) return std::nullopt;
  const double target = u * last;
  // First k with r_k > target (r is non-decreasing). A conditional-move
  // binary search over the blocks' last entries finds the block holding k
  // (the last block when no earlier one ends above the target); counting the
  // entries <= target in a window of up to eight that ends no earlier than
  // that block gives k. The window starts at or before the block, and every
  // entry before the block is <= target, so the count stays exact.
  size_t block = 0;
  for (size_t len = (n + kDrawBlock - 1) / kDrawBlock; len > 1;) {
    const size_t half = len / 2;
    const bool below = estimate((block + half) * kDrawBlock - 1) <= target;
    block += below ? half : 0;
    len -= half;
  }
  const size_t width = std::min(n, kDrawBlock);
  size_t i = std::min(block * kDrawBlock, n - width);
  const size_t end = i + width;
  size_t k = i;
#if defined(__SSE2__)
  // Two entries per compare; every lane rounds exactly as `estimate` does
  // (two products, one add, no FMA).
  const __m128d ve = _mm_set1_pd(epsilon);
  const __m128d vs = _mm_set1_pd(scale);
  const __m128d vt = _mm_set1_pd(target);
  for (; i + 2 <= end; i += 2) {
    const __m128d r =
        _mm_add_pd(_mm_mul_pd(ve, _mm_loadu_pd(weight_prefix + i)),
                   _mm_mul_pd(_mm_loadu_pd(mass_prefix + i), vs));
    const int mask = _mm_movemask_pd(_mm_cmple_pd(r, vt));
    k += static_cast<size_t>((mask & 1) + (mask >> 1));
  }
#endif
  for (; i < end; ++i) k += static_cast<size_t>(estimate(i) <= target);
  if (k == n || !(estimate(k) - target > margin)) return std::nullopt;
  if (k > 0 && !(target - estimate(k - 1) > margin)) return std::nullopt;
  return k;
}

bool MassKernelVectorized() {
#if defined(__AVX2__) || defined(__SSE2__)
  return true;
#else
  return false;
#endif
}

}  // namespace oasis
