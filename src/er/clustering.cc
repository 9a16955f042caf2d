#include "er/clustering.h"

#include <algorithm>
#include <unordered_map>

#include "common/logging.h"

namespace oasis {
namespace er {

UnionFind::UnionFind(int64_t size) : num_sets_(size) {
  OASIS_CHECK_GE(size, 0);
  parent_.resize(static_cast<size_t>(size));
  set_size_.assign(static_cast<size_t>(size), 1);
  for (int64_t i = 0; i < size; ++i) parent_[static_cast<size_t>(i)] = i;
}

int64_t UnionFind::Find(int64_t item) {
  OASIS_DCHECK(item >= 0 && item < size());
  // Path halving: every other node points to its grandparent.
  while (parent_[static_cast<size_t>(item)] != item) {
    const int64_t grandparent =
        parent_[static_cast<size_t>(parent_[static_cast<size_t>(item)])];
    parent_[static_cast<size_t>(item)] = grandparent;
    item = grandparent;
  }
  return item;
}

bool UnionFind::Union(int64_t a, int64_t b) {
  int64_t ra = Find(a);
  int64_t rb = Find(b);
  if (ra == rb) return false;
  if (set_size_[static_cast<size_t>(ra)] < set_size_[static_cast<size_t>(rb)]) {
    std::swap(ra, rb);
  }
  parent_[static_cast<size_t>(rb)] = ra;
  set_size_[static_cast<size_t>(ra)] += set_size_[static_cast<size_t>(rb)];
  --num_sets_;
  return true;
}

Result<Clustering> ClusterFromPairs(int64_t num_items,
                                    std::span<const RecordPair> match_pairs) {
  if (num_items <= 0) {
    return Status::InvalidArgument("ClusterFromPairs: num_items must be positive");
  }
  UnionFind uf(num_items);
  for (const RecordPair& pair : match_pairs) {
    if (pair.left < 0 || pair.right < 0 || pair.left >= num_items ||
        pair.right >= num_items) {
      return Status::InvalidArgument("ClusterFromPairs: pair index out of range");
    }
    uf.Union(pair.left, pair.right);
  }

  Clustering clustering;
  clustering.cluster_of.assign(static_cast<size_t>(num_items), -1);
  std::unordered_map<int64_t, int64_t> root_to_cluster;
  root_to_cluster.reserve(static_cast<size_t>(uf.num_sets()));
  for (int64_t i = 0; i < num_items; ++i) {
    const int64_t root = uf.Find(i);
    auto [it, inserted] = root_to_cluster.emplace(
        root, static_cast<int64_t>(clustering.clusters.size()));
    if (inserted) clustering.clusters.emplace_back();
    clustering.cluster_of[static_cast<size_t>(i)] = it->second;
    clustering.clusters[static_cast<size_t>(it->second)].push_back(i);
  }
  return clustering;
}

namespace {

/// Sum over clusters of C(|c|, 2).
int64_t WithinClusterPairs(const Clustering& clustering) {
  int64_t pairs = 0;
  for (const auto& members : clustering.clusters) {
    const int64_t n = static_cast<int64_t>(members.size());
    pairs += n * (n - 1) / 2;
  }
  return pairs;
}

}  // namespace

Result<Measures> PairwiseMeasuresFromClusterings(const Clustering& truth,
                                                 const Clustering& predicted,
                                                 double alpha) {
  if (truth.num_items() != predicted.num_items() || truth.num_items() == 0) {
    return Status::InvalidArgument(
        "PairwiseMeasuresFromClusterings: item-count mismatch or empty");
  }
  if (!(alpha >= 0.0 && alpha <= 1.0)) {
    return Status::InvalidArgument(
        "PairwiseMeasuresFromClusterings: alpha must be in [0, 1]");
  }

  // True positives = pairs co-clustered in both = sum over (truth cluster,
  // predicted cluster) intersection sizes s of C(s, 2). Count intersections
  // by grouping items on the (truth id, predicted id) key.
  std::unordered_map<int64_t, int64_t> intersection_sizes;
  intersection_sizes.reserve(static_cast<size_t>(truth.num_items()));
  const int64_t predicted_clusters = predicted.num_clusters();
  for (int64_t i = 0; i < truth.num_items(); ++i) {
    const int64_t key =
        truth.cluster_of[static_cast<size_t>(i)] * predicted_clusters +
        predicted.cluster_of[static_cast<size_t>(i)];
    ++intersection_sizes[key];
  }
  int64_t tp = 0;
  for (const auto& [key, s] : intersection_sizes) {
    (void)key;
    tp += s * (s - 1) / 2;
  }

  ConfusionCounts counts;
  counts.true_positives = tp;
  counts.false_positives = WithinClusterPairs(predicted) - tp;
  counts.false_negatives = WithinClusterPairs(truth) - tp;
  const int64_t n = truth.num_items();
  counts.true_negatives = n * (n - 1) / 2 - counts.true_positives -
                          counts.false_positives - counts.false_negatives;
  return ComputeMeasures(counts, alpha);
}

Result<ClusterAgreement> ExactClusterAgreement(const Clustering& truth,
                                               const Clustering& predicted) {
  if (truth.num_items() != predicted.num_items() || truth.num_items() == 0) {
    return Status::InvalidArgument(
        "ExactClusterAgreement: item-count mismatch or empty");
  }
  // A predicted cluster is exactly right when all members share one truth
  // cluster AND that truth cluster has the same size.
  auto count_exact = [](const Clustering& from, const Clustering& against) {
    int64_t exact = 0;
    for (const auto& members : from.clusters) {
      const int64_t target =
          against.cluster_of[static_cast<size_t>(members.front())];
      bool all_same = true;
      for (int64_t item : members) {
        if (against.cluster_of[static_cast<size_t>(item)] != target) {
          all_same = false;
          break;
        }
      }
      if (all_same &&
          against.clusters[static_cast<size_t>(target)].size() == members.size()) {
        ++exact;
      }
    }
    return exact;
  };

  ClusterAgreement agreement;
  agreement.predicted_exact =
      static_cast<double>(count_exact(predicted, truth)) /
      static_cast<double>(predicted.num_clusters());
  agreement.truth_recovered = static_cast<double>(count_exact(truth, predicted)) /
                              static_cast<double>(truth.num_clusters());
  return agreement;
}

}  // namespace er
}  // namespace oasis
