#include "experiments/convergence.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "oracle/ground_truth_oracle.h"
#include "strata/csf.h"
#include "test_util.h"

namespace oasis {
namespace experiments {
namespace {

using testutil::MakeSyntheticPool;
using testutil::SyntheticPool;
using testutil::SyntheticPoolOptions;

TEST(ConvergenceTest, RejectsBadArguments) {
  SyntheticPool pool = MakeSyntheticPool({});
  GroundTruthOracle oracle(pool.truth);
  LabelCache labels(&oracle);
  auto sampler = OasisSampler::CreateWithCsf(&pool.scored, &labels, 10,
                                             OasisOptions{}, Rng(1))
                     .ValueOrDie();
  EXPECT_FALSE(TraceOasisConvergence(*sampler, pool.truth, 0.5, 0, 10).ok());
  EXPECT_FALSE(TraceOasisConvergence(*sampler, pool.truth, 0.5, 100, 0).ok());
  const std::vector<uint8_t> short_truth{1, 0};
  EXPECT_FALSE(TraceOasisConvergence(*sampler, short_truth, 0.5, 100, 10).ok());
}

TEST(ConvergenceTest, BudgetBeyondThePoolFailsInsteadOfTruncating) {
  // A ground-truth oracle charges each item once, so a 200-item pool can
  // never yield 500 labels: the iteration cap fires, and the trace must not
  // pass for a complete one.
  SyntheticPoolOptions options;
  options.size = 200;
  options.match_fraction = 0.1;
  options.seed = 207;
  SyntheticPool pool = MakeSyntheticPool(options);
  GroundTruthOracle oracle(pool.truth);
  LabelCache labels(&oracle);
  auto sampler = OasisSampler::CreateWithCsf(&pool.scored, &labels, 10,
                                             OasisOptions{}, Rng(9))
                     .ValueOrDie();
  const Result<ConvergenceTrace> trace = TraceOasisConvergence(
      *sampler, pool.truth, pool.true_measures.f_alpha, 500, 50);
  ASSERT_FALSE(trace.ok());
  EXPECT_EQ(trace.status().code(), StatusCode::kOutOfRange);
  EXPECT_LE(labels.labels_consumed(), 200);
  const std::string reached =
      "after " + std::to_string(labels.labels_consumed()) + " of 500 labels";
  EXPECT_NE(trace.status().message().find(reached), std::string::npos)
      << trace.status().message();
}

TEST(ConvergenceTest, TraceShapesAndMonotoneBudgets) {
  SyntheticPoolOptions options;
  options.size = 1500;
  options.match_fraction = 0.08;
  options.seed = 201;
  SyntheticPool pool = MakeSyntheticPool(options);
  GroundTruthOracle oracle(pool.truth);
  LabelCache labels(&oracle);
  auto sampler = OasisSampler::CreateWithCsf(&pool.scored, &labels, 15,
                                             OasisOptions{}, Rng(3))
                     .ValueOrDie();
  ConvergenceTrace trace =
      TraceOasisConvergence(*sampler, pool.truth, pool.true_measures.f_alpha,
                            600, 50)
          .ValueOrDie();
  ASSERT_FALSE(trace.budgets.empty());
  EXPECT_EQ(trace.budgets.size(), trace.f_abs_error.size());
  EXPECT_EQ(trace.budgets.size(), trace.pi_abs_error.size());
  EXPECT_EQ(trace.budgets.size(), trace.v_abs_error.size());
  EXPECT_EQ(trace.budgets.size(), trace.kl_divergence.size());
  for (size_t i = 1; i < trace.budgets.size(); ++i) {
    EXPECT_GT(trace.budgets[i], trace.budgets[i - 1]);
  }
}

TEST(ConvergenceTest, DiagnosticsShrinkWithBudget) {
  // Figure 4's qualitative content: pi-error, v-error and KL all decay as
  // labels accumulate.
  SyntheticPoolOptions options;
  options.size = 3000;
  options.match_fraction = 0.05;
  options.seed = 203;
  SyntheticPool pool = MakeSyntheticPool(options);
  GroundTruthOracle oracle(pool.truth);
  LabelCache labels(&oracle);
  auto sampler = OasisSampler::CreateWithCsf(&pool.scored, &labels, 20,
                                             OasisOptions{}, Rng(5))
                     .ValueOrDie();
  ConvergenceTrace trace =
      TraceOasisConvergence(*sampler, pool.truth, pool.true_measures.f_alpha,
                            2400, 100)
          .ValueOrDie();
  ASSERT_GE(trace.budgets.size(), 10u);
  const size_t last = trace.budgets.size() - 1;
  EXPECT_LT(trace.pi_abs_error[last], trace.pi_abs_error[0]);
  EXPECT_LT(trace.kl_divergence[last], trace.kl_divergence[0] + 1e-9);
  EXPECT_LT(trace.kl_divergence[last], 0.2);
  EXPECT_LT(trace.f_abs_error[last], 0.1);
}

}  // namespace
}  // namespace experiments
}  // namespace oasis
