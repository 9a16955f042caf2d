// Large-K index-arithmetic regression tests: the structures under the
// pool-scale sampling layer must stay correct past one million entries.
//
// This is the test half of an int-width audit: every container on the
// sampling hot path indexes with size_t (FenwickTree; AliasTable slots are
// uint32_t with an explicit capacity guard, Strata item ids are int32_t
// behind an explicit pool-size guard). These tests pin the
// behaviour at K >= 1M — deliberately past every power-of-two boundary a
// 20-bit or 16-bit intermediate would wrap at — so a future refactor that
// narrows an index type fails here instead of corrupting estimates silently.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <numeric>
#include <vector>

#include "common/alias_table.h"
#include "common/fenwick_tree.h"
#include "common/random.h"
#include "core/oasis.h"
#include "oracle/ground_truth_oracle.h"
#include "oracle/label_cache.h"
#include "strata/strata.h"
#include "test_util.h"

namespace oasis {
namespace {

using testutil::MakeSyntheticPool;
using testutil::SyntheticPool;
using testutil::SyntheticPoolOptions;

// Just past 2^20: exercises the non-power-of-two descent/carry paths at a
// size where any 20-bit intermediate wraps.
constexpr size_t kBigN = (1u << 20) + 3;

// Deterministic non-uniform mass pattern, cheap to recompute at any index.
double MassAt(size_t i) { return static_cast<double>(i % 7) + 0.25; }

std::vector<double> BigMasses() {
  std::vector<double> masses(kBigN);
  for (size_t i = 0; i < kBigN; ++i) masses[i] = MassAt(i);
  return masses;
}

TEST(LargeKOverflowTest, FenwickTreeAtAMillionEntries) {
  const std::vector<double> masses = BigMasses();
  FenwickTree tree = FenwickTree::Build(masses).ValueOrDie();
  ASSERT_EQ(tree.size(), kBigN);

  // Exact expected total of the i%7 pattern, accumulated the same way.
  double total = 0.0;
  for (size_t i = 0; i < kBigN; ++i) total += MassAt(i);
  EXPECT_NEAR(tree.Total(), total, total * 1e-12);
  EXPECT_DOUBLE_EQ(tree.PrefixSum(kBigN), tree.Total());
  EXPECT_DOUBLE_EQ(tree.value(kBigN - 1), MassAt(kBigN - 1));

  // Point update at the very top of the index range routes through the
  // high-index parent chain.
  tree.Update(kBigN - 1, 123.5);
  EXPECT_DOUBLE_EQ(tree.value(kBigN - 1), 123.5);
  EXPECT_NEAR(tree.Total(), total - MassAt(kBigN - 1) + 123.5, total * 1e-12);

  // The inverse CDF at (Total - epsilon) must land on a high positive-mass
  // index, and a mid-range target must land exactly where the prefix sums
  // say it should.
  const size_t last = tree.FindQuantile(tree.Total() * (1.0 - 1e-12));
  EXPECT_EQ(last, kBigN - 1);
  const size_t mid = tree.FindQuantile(tree.Total() * 0.5);
  EXPECT_LE(tree.PrefixSum(mid), tree.Total() * 0.5);
  EXPECT_GT(tree.PrefixSum(mid + 1), tree.Total() * 0.5);
}

TEST(LargeKOverflowTest, AliasTableAtAMillionEntries) {
  const std::vector<double> masses = BigMasses();
  AliasTable table = AliasTable::Build(masses).ValueOrDie();
  ASSERT_EQ(table.size(), kBigN);

  // Normalisation survives the million-way split.
  double prob_total = 0.0;
  for (size_t i = 0; i < kBigN; ++i) prob_total += table.probability(i);
  EXPECT_NEAR(prob_total, 1.0, 1e-9);

  // Every draw must stay in range; with a spiked table nearly all draws
  // must hit the spike (alias slots routing correctly at high indices).
  std::vector<double> spiked(kBigN, 1e-9);
  spiked[kBigN - 2] = 1.0;
  const AliasTable spiked_table = AliasTable::Build(spiked).ValueOrDie();
  Rng rng(2024);
  size_t spike_hits = 0;
  for (int draw = 0; draw < 2000; ++draw) {
    const size_t k = spiked_table.Sample(rng);
    ASSERT_LT(k, kBigN);
    if (k == kBigN - 2) ++spike_hits;
  }
  EXPECT_GT(spike_hits, 1900u);
}

TEST(LargeKOverflowTest, StrataAtAMillionStrata) {
  // Two items per stratum, K = 2^19 + ... built from a 2^20+2 item pool —
  // compaction, weights, and reverse lookup all past the 20-bit line.
  const size_t items = kBigN - 1;  // Even.
  std::vector<int32_t> assignment(items);
  for (size_t i = 0; i < items; ++i) {
    assignment[i] = static_cast<int32_t>(i / 2);
  }
  const Strata strata = Strata::FromAssignment(assignment).ValueOrDie();
  ASSERT_EQ(strata.num_strata(), items / 2);
  ASSERT_EQ(strata.num_items(), items);
  double weight_total = 0.0;
  for (size_t k = 0; k < strata.num_strata(); ++k) {
    weight_total += strata.weight(k);
  }
  EXPECT_NEAR(weight_total, 1.0, 1e-9);
  const size_t last_k = strata.num_strata() - 1;
  EXPECT_EQ(strata.size(last_k), 2u);
  EXPECT_EQ(strata.stratum_of(static_cast<int64_t>(items) - 1),
            static_cast<int32_t>(last_k));
}

/// End-to-end regression at K = 2^20 strata: the full sampler stack (init,
/// sub-linear draws, rebuilds, estimates) on the largest stratification the
/// bench tier exercises. A handful of steps suffices — the point is index
/// arithmetic, not statistics.
TEST(LargeKOverflowTest, OasisSamplerStepsAtAMillionStrata) {
  SyntheticPoolOptions pool_options;
  pool_options.size = 2 * (1 << 20);
  pool_options.match_fraction = 0.01;
  pool_options.seed = 31;
  SyntheticPool pool = MakeSyntheticPool(pool_options);
  std::vector<int32_t> assignment(pool.scored.scores.size());
  for (size_t i = 0; i < assignment.size(); ++i) {
    assignment[i] = static_cast<int32_t>(i / 2);
  }
  auto strata = std::make_shared<const Strata>(
      Strata::FromAssignment(assignment).ValueOrDie());
  ASSERT_EQ(strata->num_strata(), size_t{1} << 20);

  GroundTruthOracle oracle(pool.truth);
  LabelCache labels(&oracle);
  OasisOptions options;
  options.step_path = OasisStepPath::kFenwick;
  auto sampler =
      OasisSampler::Create(&pool.scored, &labels, strata, options, Rng(5))
          .ValueOrDie();
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(sampler->Step().ok());
  }
  const EstimateSnapshot snap = sampler->Estimate();
  ASSERT_TRUE(snap.f_defined);
  EXPECT_GE(snap.f_alpha, 0.0);
  EXPECT_LE(snap.f_alpha, 1.0);
}

}  // namespace
}  // namespace oasis
