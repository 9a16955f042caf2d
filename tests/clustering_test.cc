#include "er/clustering.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

namespace oasis {
namespace er {
namespace {

TEST(UnionFindTest, BasicMerging) {
  UnionFind uf(5);
  EXPECT_EQ(uf.num_sets(), 5);
  EXPECT_TRUE(uf.Union(0, 1));
  EXPECT_TRUE(uf.Union(1, 2));
  EXPECT_FALSE(uf.Union(0, 2));  // Already together.
  EXPECT_EQ(uf.num_sets(), 3);
  EXPECT_EQ(uf.Find(0), uf.Find(2));
  EXPECT_NE(uf.Find(0), uf.Find(3));
}

TEST(UnionFindTest, LongChainsCollapse) {
  UnionFind uf(1000);
  for (int64_t i = 0; i + 1 < 1000; ++i) uf.Union(i, i + 1);
  EXPECT_EQ(uf.num_sets(), 1);
  EXPECT_EQ(uf.Find(0), uf.Find(999));
}

TEST(ClusterFromPairsTest, TransitiveClosure) {
  // 0-1, 1-2 chain plus isolated 3,4 and pair 4-5... with 6 items.
  const std::vector<RecordPair> pairs{{0, 1}, {1, 2}, {4, 5}};
  Clustering clustering = ClusterFromPairs(6, pairs).ValueOrDie();
  EXPECT_EQ(clustering.num_clusters(), 3);
  EXPECT_EQ(clustering.cluster_of[0], clustering.cluster_of[2]);
  EXPECT_EQ(clustering.cluster_of[4], clustering.cluster_of[5]);
  EXPECT_NE(clustering.cluster_of[0], clustering.cluster_of[3]);
  // Member lists are consistent with cluster_of.
  for (int64_t c = 0; c < clustering.num_clusters(); ++c) {
    for (int64_t item : clustering.clusters[static_cast<size_t>(c)]) {
      EXPECT_EQ(clustering.cluster_of[static_cast<size_t>(item)], c);
    }
  }
}

TEST(ClusterFromPairsTest, NoPairsMeansSingletons) {
  Clustering clustering = ClusterFromPairs(4, {}).ValueOrDie();
  EXPECT_EQ(clustering.num_clusters(), 4);
}

TEST(ClusterFromPairsTest, RejectsBadInput) {
  EXPECT_FALSE(ClusterFromPairs(0, {}).ok());
  const std::vector<RecordPair> out_of_range{{0, 7}};
  EXPECT_FALSE(ClusterFromPairs(3, out_of_range).ok());
}

TEST(PairwiseMeasuresTest, PerfectClusteringScoresOne) {
  const std::vector<RecordPair> pairs{{0, 1}, {2, 3}};
  Clustering truth = ClusterFromPairs(5, pairs).ValueOrDie();
  Measures m = PairwiseMeasuresFromClusterings(truth, truth).ValueOrDie();
  ASSERT_TRUE(m.f_defined);
  EXPECT_DOUBLE_EQ(m.f_alpha, 1.0);
  EXPECT_DOUBLE_EQ(m.precision, 1.0);
  EXPECT_DOUBLE_EQ(m.recall, 1.0);
}

TEST(PairwiseMeasuresTest, HandComputedCounts) {
  // Truth: {0,1,2}, {3,4}. Predicted: {0,1}, {2,3}, {4}.
  const std::vector<RecordPair> truth_pairs{{0, 1}, {1, 2}, {3, 4}};
  const std::vector<RecordPair> pred_pairs{{0, 1}, {2, 3}};
  Clustering truth = ClusterFromPairs(5, truth_pairs).ValueOrDie();
  Clustering predicted = ClusterFromPairs(5, pred_pairs).ValueOrDie();
  // Truth pairs: {01,02,12,34} (4). Predicted pairs: {01,23} (2). TP = {01}.
  Measures m = PairwiseMeasuresFromClusterings(truth, predicted).ValueOrDie();
  EXPECT_DOUBLE_EQ(m.precision, 0.5);   // 1 of 2 predicted pairs.
  EXPECT_DOUBLE_EQ(m.recall, 0.25);     // 1 of 4 truth pairs.
}

TEST(PairwiseMeasuresTest, OverMergingHurtsPrecisionOnly) {
  // Truth: {0,1}, {2,3}. Predicted: everything merged.
  const std::vector<RecordPair> truth_pairs{{0, 1}, {2, 3}};
  const std::vector<RecordPair> merged{{0, 1}, {1, 2}, {2, 3}};
  Clustering truth = ClusterFromPairs(4, truth_pairs).ValueOrDie();
  Clustering predicted = ClusterFromPairs(4, merged).ValueOrDie();
  Measures m = PairwiseMeasuresFromClusterings(truth, predicted).ValueOrDie();
  EXPECT_DOUBLE_EQ(m.recall, 1.0);
  EXPECT_NEAR(m.precision, 2.0 / 6.0, 1e-12);  // 2 true of C(4,2) pairs.
}

TEST(PairwiseMeasuresTest, RejectsMismatch) {
  Clustering a = ClusterFromPairs(3, {}).ValueOrDie();
  Clustering b = ClusterFromPairs(4, {}).ValueOrDie();
  EXPECT_FALSE(PairwiseMeasuresFromClusterings(a, b).ok());
  EXPECT_FALSE(PairwiseMeasuresFromClusterings(a, a, 1.5).ok());
  EXPECT_FALSE(PairwiseMeasuresFromClusterings(a, a, std::nan("")).ok());
}

TEST(ExactClusterAgreementTest, CountsExactRecovery) {
  // Truth: {0,1}, {2,3}, {4}. Predicted: {0,1}, {2}, {3}, {4}.
  const std::vector<RecordPair> truth_pairs{{0, 1}, {2, 3}};
  const std::vector<RecordPair> pred_pairs{{0, 1}};
  Clustering truth = ClusterFromPairs(5, truth_pairs).ValueOrDie();
  Clustering predicted = ClusterFromPairs(5, pred_pairs).ValueOrDie();
  ClusterAgreement agreement =
      ExactClusterAgreement(truth, predicted).ValueOrDie();
  // Predicted clusters: {0,1} exact, {4} exact, {2} and {3} not -> 2/4.
  EXPECT_DOUBLE_EQ(agreement.predicted_exact, 0.5);
  // Truth clusters: {0,1} recovered, {4} recovered, {2,3} not -> 2/3.
  EXPECT_NEAR(agreement.truth_recovered, 2.0 / 3.0, 1e-12);
}

}  // namespace
}  // namespace er
}  // namespace oasis
