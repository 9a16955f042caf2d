#include "sampling/instrumental.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace oasis {
namespace {

TEST(OptimalInstrumentalTest, RejectsBadArguments) {
  const std::vector<double> w{0.5, 0.5};
  const std::vector<double> lambda{0.0, 1.0};
  const std::vector<double> pi{0.1, 0.9};
  EXPECT_FALSE(OptimalStratifiedInstrumental({}, {}, {}, 0.5, 0.5).ok());
  EXPECT_FALSE(
      OptimalStratifiedInstrumental(w, lambda, std::vector<double>{0.1}, 0.5, 0.5)
          .ok());
  EXPECT_FALSE(OptimalStratifiedInstrumental(w, lambda, pi, 0.5, 1.5).ok());
  EXPECT_FALSE(
      OptimalStratifiedInstrumental(w, lambda, pi, 0.5, std::nan("")).ok());
  const std::vector<double> bad_pi{0.1, 1.9};
  EXPECT_FALSE(OptimalStratifiedInstrumental(w, lambda, bad_pi, 0.5, 0.5).ok());
}

TEST(OptimalInstrumentalTest, MatchesHandComputedValue) {
  // Two strata, alpha = 1/2, F = 0.6:
  //  k=0: lambda=0 (all predicted negative), pi=0.04
  //     mass = w * (1-alpha)(1-lambda) F sqrt(pi) = 0.8*0.5*0.6*0.2 = 0.048
  //  k=1: lambda=1 (all predicted positive), pi=0.81
  //     inner = alpha^2 F^2 (1-pi) + (1-F)^2 pi
  //           = 0.25*0.36*0.19 + 0.16*0.81 = 0.01710 + 0.1296 = 0.14670
  //     mass = 0.2 * sqrt(0.14670) = 0.2*0.3830... = 0.07660...
  const std::vector<double> w{0.8, 0.2};
  const std::vector<double> lambda{0.0, 1.0};
  const std::vector<double> pi{0.04, 0.81};
  const std::vector<double> v =
      OptimalStratifiedInstrumental(w, lambda, pi, 0.6, 0.5).ValueOrDie();
  const double mass0 = 0.8 * 0.5 * 0.6 * 0.2;
  const double mass1 = 0.2 * std::sqrt(0.25 * 0.36 * 0.19 + 0.16 * 0.81);
  const double total = mass0 + mass1;
  EXPECT_NEAR(v[0], mass0 / total, 1e-12);
  EXPECT_NEAR(v[1], mass1 / total, 1e-12);
}

TEST(OptimalInstrumentalTest, NormalisesToOne) {
  const std::vector<double> w{0.25, 0.25, 0.5};
  const std::vector<double> lambda{0.0, 0.5, 1.0};
  const std::vector<double> pi{0.01, 0.4, 0.95};
  const std::vector<double> v =
      OptimalStratifiedInstrumental(w, lambda, pi, 0.7, 0.5).ValueOrDie();
  double total = 0.0;
  for (double vi : v) {
    EXPECT_GE(vi, 0.0);
    total += vi;
  }
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(OptimalInstrumentalTest, DegenerateMassFallsBackToWeights) {
  // F = 0 and pi = 0 zero out every term (Remark 5's pathological setting);
  // the implementation must fall back to omega rather than divide by zero.
  const std::vector<double> w{0.3, 0.7};
  const std::vector<double> lambda{0.0, 0.0};
  const std::vector<double> pi{0.0, 0.0};
  const std::vector<double> v =
      OptimalStratifiedInstrumental(w, lambda, pi, 0.0, 0.5).ValueOrDie();
  EXPECT_NEAR(v[0], 0.3, 1e-12);
  EXPECT_NEAR(v[1], 0.7, 1e-12);
}

TEST(OptimalInstrumentalTest, ZeroMassOnUninformativeStratum) {
  // A stratum with no predicted positives and pi = 0 provides no information
  // about F; the optimal distribution assigns it zero mass — exactly why the
  // epsilon-greedy mix exists.
  const std::vector<double> w{0.9, 0.1};
  const std::vector<double> lambda{0.0, 1.0};
  const std::vector<double> pi{0.0, 0.9};
  const std::vector<double> v =
      OptimalStratifiedInstrumental(w, lambda, pi, 0.5, 0.5).ValueOrDie();
  EXPECT_DOUBLE_EQ(v[0], 0.0);
  EXPECT_NEAR(v[1], 1.0, 1e-12);
}

TEST(OptimalInstrumentalTest, PrecisionOnlyIgnoresPredictedNegatives) {
  // alpha = 1: the (1-alpha) term vanishes, so predicted-negative strata get
  // zero mass regardless of pi.
  const std::vector<double> w{0.5, 0.5};
  const std::vector<double> lambda{0.0, 1.0};
  const std::vector<double> pi{0.9, 0.5};
  const std::vector<double> v =
      OptimalStratifiedInstrumental(w, lambda, pi, 0.5, 1.0).ValueOrDie();
  EXPECT_DOUBLE_EQ(v[0], 0.0);
  EXPECT_NEAR(v[1], 1.0, 1e-12);
}

TEST(EpsilonGreedyMixTest, RejectsBadEpsilon) {
  const std::vector<double> w{0.5, 0.5};
  const std::vector<double> v{1.0, 0.0};
  EXPECT_FALSE(EpsilonGreedyMix(w, v, 0.0).ok());
  EXPECT_FALSE(EpsilonGreedyMix(w, v, -0.1).ok());
  EXPECT_FALSE(EpsilonGreedyMix(w, v, 1.1).ok());
  EXPECT_FALSE(EpsilonGreedyMix({}, {}, 0.5).ok());
}

TEST(EpsilonGreedyMixTest, MixesLinearly) {
  const std::vector<double> w{0.8, 0.2};
  const std::vector<double> v_star{0.0, 1.0};
  const std::vector<double> v = EpsilonGreedyMix(w, v_star, 0.1).ValueOrDie();
  EXPECT_NEAR(v[0], 0.1 * 0.8, 1e-12);
  EXPECT_NEAR(v[1], 0.1 * 0.2 + 0.9, 1e-12);
}

TEST(EpsilonGreedyMixTest, GuaranteesPositiveMassEverywhere) {
  // The consistency-critical property (Remark 5): every stratum keeps at
  // least epsilon * omega_k mass even when v* zeroes it out.
  const std::vector<double> w{0.7, 0.2, 0.1};
  const std::vector<double> v_star{1.0, 0.0, 0.0};
  const std::vector<double> v = EpsilonGreedyMix(w, v_star, 1e-3).ValueOrDie();
  for (size_t k = 0; k < w.size(); ++k) {
    EXPECT_GE(v[k], 1e-3 * w[k]);
  }
}

TEST(EpsilonGreedyMixTest, EpsilonOneIsPureWeights) {
  const std::vector<double> w{0.6, 0.4};
  const std::vector<double> v_star{0.0, 1.0};
  const std::vector<double> v = EpsilonGreedyMix(w, v_star, 1.0).ValueOrDie();
  EXPECT_NEAR(v[0], 0.6, 1e-12);
  EXPECT_NEAR(v[1], 0.4, 1e-12);
}

TEST(EpsilonGreedyMixTest, PreservesNormalisation) {
  const std::vector<double> w{0.25, 0.75};
  const std::vector<double> v_star{0.5, 0.5};
  const std::vector<double> v = EpsilonGreedyMix(w, v_star, 0.3).ValueOrDie();
  EXPECT_NEAR(v[0] + v[1], 1.0, 1e-12);
}

}  // namespace
}  // namespace oasis
