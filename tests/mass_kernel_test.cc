// Bit-for-bit checks of the two fused-step kernels in core/mass_kernel.h
// against their scalar formulas, and of the certified draw against the exact
// pick those formulas define. The fused OASIS step is bit-identical to the
// allocating reference path only because each kernel rounds exactly like the
// scalar expression it replaces; these tests pin that down directly, over
// lengths that cover every vector body and tail and over the epsilon values
// the sampler can see (plus the 0 edge the formula admits).
//
// The references below are plain scalar C++. The build compiles with
// CMAKE_CXX_EXTENSIONS OFF, i.e. ISO mode, where GCC and Clang do not
// contract a * b + c into an FMA, so the references round every operation.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "common/random.h"
#include "core/mass_kernel.h"

namespace oasis {
namespace {

constexpr size_t kLengths[] = {1, 2, 3, 4, 5, 7, 8, 30, 31, 1000};
constexpr double kEpsilons[] = {0.0, 1e-3, 0.1, 1.0};

uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }

/// Random kernel inputs of length n, shaped like a sampler's: positive
/// stratum weights summing to ~1, lambda and prediction indicators in [0, 1],
/// posterior means in (0, 1) with their square roots.
struct Inputs {
  std::vector<double> weights, lambda, pi, sqrt_pi, c_not_pred;

  Inputs(size_t n, uint64_t seed)
      : weights(n), lambda(n), pi(n), sqrt_pi(n), c_not_pred(n) {
    Rng rng(seed);
    for (size_t i = 0; i < n; ++i) {
      weights[i] = (0.5 + rng.NextDouble()) / static_cast<double>(n);
      lambda[i] = rng.NextDouble();
      pi[i] = 1e-6 + (1.0 - 2e-6) * rng.NextDouble();
      sqrt_pi[i] = std::sqrt(pi[i]);
      c_not_pred[i] = 1.0 - lambda[i];
    }
  }
};

/// Eqn. 11's unnormalised mass with StratumMassKernel's documented grouping.
double ScalarMass(const Inputs& in, size_t i, double f, double a2f2,
                  double omf2) {
  const double not_pred = in.c_not_pred[i] * f * in.sqrt_pi[i];
  const double pred =
      in.lambda[i] * std::sqrt(a2f2 * (1.0 - in.pi[i]) + omf2 * in.pi[i]);
  return in.weights[i] * (not_pred + pred);
}

std::vector<double> KernelMasses(const Inputs& in, double f, double a2f2,
                                 double omf2) {
  const size_t n = in.weights.size();
  std::vector<double> v(n);
  StratumMassKernel(in.weights.data(), in.lambda.data(), in.pi.data(),
                    in.sqrt_pi.data(), in.c_not_pred.data(), f, a2f2, omf2,
                    v.data(), n);
  return v;
}

TEST(StratumMassKernelTest, MatchesScalarFormulaBitForBit) {
  for (size_t n : kLengths) {
    const Inputs in(n, 17 + n);
    for (double f : {0.0, 0.37, 0.9, 1.0}) {
      for (double alpha : {0.0, 0.5, 1.0}) {
        const double a2f2 = alpha * alpha * f * f;
        const double omf2 = (1.0 - f) * (1.0 - f);
        const std::vector<double> v = KernelMasses(in, f, a2f2, omf2);
        for (size_t i = 0; i < n; ++i) {
          ASSERT_EQ(Bits(v[i]), Bits(ScalarMass(in, i, f, a2f2, omf2)))
              << "n=" << n << " i=" << i << " f=" << f << " alpha=" << alpha;
        }
      }
    }
  }
}

TEST(StratumMassKernelTest, SingleElementCallReproducesFullScan) {
  // The fused step refreshes one stratum with an n = 1 call at an offset;
  // that must write the bits a full scan writes there, whatever the lane.
  const size_t n = 31;
  const Inputs in(n, 5);
  const double f = 0.61, a2f2 = 0.25 * f * f, omf2 = (1.0 - f) * (1.0 - f);
  const std::vector<double> full = KernelMasses(in, f, a2f2, omf2);
  for (size_t i = 0; i < n; ++i) {
    double one = -1.0;
    StratumMassKernel(in.weights.data() + i, in.lambda.data() + i,
                      in.pi.data() + i, in.sqrt_pi.data() + i,
                      in.c_not_pred.data() + i, f, a2f2, omf2, &one, 1);
    ASSERT_EQ(Bits(one), Bits(full[i])) << "i=" << i;
  }
}

/// The running CDF the fused step draws from, written as the reference path
/// computes it: each mixed term, then an in-order sum.
std::vector<double> ScalarMixtureCdf(const std::vector<double>& weights,
                                     const std::vector<double>& v_star,
                                     double divisor, double epsilon) {
  std::vector<double> cdf(weights.size());
  double acc = 0.0;
  for (size_t i = 0; i < weights.size(); ++i) {
    acc += epsilon * weights[i] + (1.0 - epsilon) * (v_star[i] / divisor);
    cdf[i] = acc;
  }
  return cdf;
}

void ExpectMixtureCdfMatches(const std::vector<double>& weights,
                             const std::vector<double>& v_star,
                             double divisor, double epsilon) {
  const size_t n = weights.size();
  const std::vector<double> want =
      ScalarMixtureCdf(weights, v_star, divisor, epsilon);
  std::vector<double> cdf(n, -1.0);
  const double total = MixtureCdfKernel(weights.data(), v_star.data(),
                                        divisor, epsilon, cdf.data(), n);
  for (size_t i = 0; i < n; ++i) {
    ASSERT_EQ(Bits(cdf[i]), Bits(want[i]))
        << "n=" << n << " i=" << i << " epsilon=" << epsilon;
  }
  EXPECT_EQ(Bits(total), Bits(want[n - 1]))
      << "n=" << n << " epsilon=" << epsilon;
}

TEST(MixtureCdfKernelTest, MatchesScalarFormulaBitForBit) {
  for (size_t n : kLengths) {
    const Inputs in(n, 101 + n);
    const double f = 0.42, a2f2 = 0.25 * f * f, omf2 = (1.0 - f) * (1.0 - f);
    const std::vector<double> masses = KernelMasses(in, f, a2f2, omf2);
    double mass_total = 0.0;
    for (double m : masses) mass_total += m;
    for (double epsilon : kEpsilons) {
      ExpectMixtureCdfMatches(in.weights, masses, mass_total, epsilon);
    }
  }
}

TEST(MixtureCdfKernelTest, FallbackInputMatchesBitForBit) {
  // Every mass zero: the fused step mixes the normalised stratum weights
  // (OasisSetup::fallback_v_star) with divisor 1 instead.
  for (size_t n : kLengths) {
    const Inputs in(n, 303 + n);
    double weight_total = 0.0;
    for (double w : in.weights) weight_total += w;
    std::vector<double> fallback_v_star(n);
    for (size_t i = 0; i < n; ++i) {
      fallback_v_star[i] = in.weights[i] / weight_total;
    }
    for (double epsilon : kEpsilons) {
      ExpectMixtureCdfMatches(in.weights, fallback_v_star, 1.0, epsilon);
    }
  }
}

TEST(MixtureCdfKernelTest, EmptyInputReturnsZero) {
  EXPECT_EQ(MixtureCdfKernel(nullptr, nullptr, 1.0, 0.1, nullptr, 0), 0.0);
}

// --- CertifiedMixtureDraw ---------------------------------------------------

// Below 8 the draw counts the whole array; from 8 on it searches eight-entry
// blocks, so the lengths straddle one, two and many block edges.
constexpr size_t kDrawLengths[] = {1,  2,  3,  7,  8,    9,    16,
                                   17, 30, 64, 65, 1000, 100000};
// 1.0 makes the draw's scale (1 - epsilon) / T exactly 0: r_i = W_i.
constexpr double kDrawEpsilons[] = {1e-3, 0.1, 1.0};

/// In-order prefix sums, as OasisSampler keeps them for the weights
/// (OasisSetup::weight_prefix) and the v* masses (the fused mass prefix).
std::vector<double> PrefixSums(const std::vector<double>& x) {
  std::vector<double> prefix(x.size());
  double acc = 0.0;
  for (size_t i = 0; i < x.size(); ++i) {
    acc += x[i];
    prefix[i] = acc;
  }
  return prefix;
}

/// The fused step's exact pick from MixtureCdfKernel's CDF: the first entry
/// above u * (its total); n when none is (the exact path's slack fallback).
size_t ExactPick(const std::vector<double>& cdf, double u) {
  return static_cast<size_t>(
      std::upper_bound(cdf.begin(), cdf.end(), u * cdf.back()) - cdf.begin());
}

/// One sampler-shaped draw problem: weights, v* masses spanning many orders
/// of magnitude (some exactly zero, so the CDF has flat steps in the mass
/// half) and both prefix sums.
struct DrawInputs {
  std::vector<double> weights, masses, weight_prefix, mass_prefix;

  DrawInputs(size_t n, uint64_t seed) {
    const Inputs in(n, seed);
    weights = in.weights;
    const double f = 0.58, a2f2 = 0.25 * f * f, omf2 = (1.0 - f) * (1.0 - f);
    masses = KernelMasses(in, f, a2f2, omf2);
    Rng rng(seed ^ 0x5eed);
    for (size_t i = 0; i < n; ++i) {
      if (n > 1 && rng.NextBounded(7) == 0) {
        masses[i] = 0.0;
      } else {
        masses[i] = std::ldexp(masses[i], static_cast<int>(rng.NextBounded(41)) - 20);
      }
    }
    if (PrefixSums(masses).back() <= 0.0) masses[0] = 1.0;
    weight_prefix = PrefixSums(weights);
    mass_prefix = PrefixSums(masses);
  }

  double total() const { return mass_prefix.back(); }

  /// The exact path's CDF (MixtureCdfKernel over the same masses and T).
  std::vector<double> ExactCdf(double epsilon) const {
    std::vector<double> cdf(weights.size());
    MixtureCdfKernel(weights.data(), masses.data(), total(), epsilon,
                     cdf.data(), cdf.size());
    return cdf;
  }

  std::optional<size_t> Draw(double epsilon, double u) const {
    return CertifiedMixtureDraw(weight_prefix.data(), mass_prefix.data(),
                                epsilon, u, weights.size());
  }

  /// The estimate r_i the certified draw searches, in its product form
  /// (one division, shared by every i).
  double Estimate(double epsilon, size_t i) const {
    return epsilon * weight_prefix[i] +
           mass_prefix[i] * ((1.0 - epsilon) / total());
  }
};

TEST(CertifiedMixtureDrawTest, DecidedDrawsMatchTheExactPick) {
  for (size_t n : kDrawLengths) {
    for (double epsilon : kDrawEpsilons) {
      for (uint64_t seed = 1; seed <= 4; ++seed) {
        const DrawInputs in(n, 1000 * n + seed);
        const std::vector<double> cdf = in.ExactCdf(epsilon);
        Rng rng(seed);
        const int draws = 4000;
        int decided = 0;
        for (int d = 0; d < draws; ++d) {
          const double u = rng.NextDouble();
          const std::optional<size_t> k = in.Draw(epsilon, u);
          if (!k.has_value()) continue;
          ++decided;
          ASSERT_EQ(*k, ExactPick(cdf, u))
              << "n=" << n << " epsilon=" << epsilon << " seed=" << seed
              << " u=" << u;
        }
        // The margin is a few hundred ulps wide: almost every draw decides.
        EXPECT_GE(decided, draws - 2)
            << "n=" << n << " epsilon=" << epsilon << " seed=" << seed;
      }
    }
  }
}

TEST(CertifiedMixtureDrawTest, TargetsOnOrNextToACdfStepAreUndecided) {
  // u * r_{n-1} landing exactly on some r_j, or one ulp of u either side of
  // it, is where the estimate and the exact CDF can round to different
  // picks: the draw must defer to the exact pass.
  for (size_t n : kDrawLengths) {
    for (double epsilon : kDrawEpsilons) {
      const DrawInputs in(n, 77 + n);
      const double last = in.Estimate(epsilon, n - 1);
      int landed = 0, skipped = 0;
      for (size_t j = 0; j < n; ++j) {
        const double r_j = in.Estimate(epsilon, j);
        // Nudge u until u * last rounds onto r_j (when some u in [0, 1) does).
        double u = std::min(r_j / last, std::nextafter(1.0, 0.0));
        for (int step = 0; step < 8 && u * last != r_j; ++step) {
          u = u * last < r_j ? std::nextafter(u, 2.0) : std::nextafter(u, -1.0);
        }
        const double below = std::nextafter(u, -1.0);
        const double above = std::nextafter(u, 2.0);
        if (u * last == r_j && u < 1.0) {
          ++landed;
        } else if (above < 1.0 && ((u * last < r_j && above * last > r_j) ||
                                   (u * last > r_j && below * last < r_j))) {
          ++skipped;
        }
        for (double probe : {below, u, above}) {
          if (!(probe >= 0.0 && probe < 1.0)) continue;
          EXPECT_FALSE(in.Draw(epsilon, probe).has_value())
              << "n=" << n << " epsilon=" << epsilon << " j=" << j
              << " u=" << probe << " (target " << probe * last
              << ", r_j " << r_j << ")";
        }
      }
      // Every step but the last (u would be 1) is hit exactly, up to the
      // rare flat step shared with its neighbour, unless no u reaches it:
      // where one ulp of u moves u * r_{n-1} by more than one ulp of r_j,
      // the two neighbouring u straddle r_j and are probed instead.
      EXPECT_GE(landed + skipped,
                static_cast<int>(n) - 1 - static_cast<int>(n) / 10)
          << "n=" << n << " epsilon=" << epsilon;
      EXPECT_GE(landed, static_cast<int>(n - 1) / 2)
          << "n=" << n << " epsilon=" << epsilon;
    }
  }
}

TEST(CertifiedMixtureDrawTest, DegenerateTotalsAreUndecided) {
  const size_t n = 30;
  const std::vector<double> weight_prefix = PrefixSums(Inputs(n, 9).weights);
  const auto draw = [&](const std::vector<double>& masses) {
    const std::vector<double> mass_prefix = PrefixSums(masses);
    return CertifiedMixtureDraw(weight_prefix.data(), mass_prefix.data(), 0.1,
                                0.5, n);
  };
  EXPECT_FALSE(draw(std::vector<double>(n, 0.0)).has_value());
  EXPECT_FALSE(draw(std::vector<double>(n, std::numeric_limits<double>::denorm_min()))
                   .has_value());
  std::vector<double> masses(n, 1.0);
  masses[7] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(draw(masses).has_value());
  masses[7] = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(draw(masses).has_value());
  masses[7] = 1.0;
  EXPECT_TRUE(draw(masses).has_value());
  EXPECT_FALSE(
      CertifiedMixtureDraw(nullptr, nullptr, 0.1, 0.5, 0).has_value());
}

TEST(CertifiedMixtureDrawTest, SubnormalScaleIsUndecided) {
  // T near DBL_MAX is a normal total, but (1 - epsilon) / T is subnormal and
  // has no relative error bound: the draw must defer to the exact pass. At
  // epsilon = 1 the scale is exactly 0 and the draw still decides.
  const size_t n = 30;
  const std::vector<double> weight_prefix = PrefixSums(Inputs(n, 9).weights);
  const std::vector<double> mass_prefix = PrefixSums(
      std::vector<double>(n, std::numeric_limits<double>::max() / 64.0));
  ASSERT_TRUE(std::isfinite(mass_prefix.back()));
  for (double epsilon : {0.0, 1e-3, 0.1}) {
    ASSERT_LT((1.0 - epsilon) / mass_prefix.back(),
              std::numeric_limits<double>::min());
    for (double u : {0.0, 0.25, 0.5, 0.99}) {
      EXPECT_FALSE(CertifiedMixtureDraw(weight_prefix.data(),
                                        mass_prefix.data(), epsilon, u, n)
                       .has_value())
          << "epsilon=" << epsilon << " u=" << u;
    }
  }
  EXPECT_TRUE(CertifiedMixtureDraw(weight_prefix.data(), mass_prefix.data(),
                                   1.0, 0.5, n)
                  .has_value());
}

}  // namespace
}  // namespace oasis
