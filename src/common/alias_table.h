#ifndef OASIS_COMMON_ALIAS_TABLE_H_
#define OASIS_COMMON_ALIAS_TABLE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/random.h"
#include "common/status.h"

namespace oasis {

/// Walker/Vose alias table for O(1) sampling from a fixed discrete
/// distribution.
///
/// Construction is O(n). This is the production sampling backend for static
/// distributions: the per-item instrumental of the static importance sampler
/// over large pair pools, and the stratum-weight mixture component of the
/// OASIS kFenwick step path. Table 3 of Marchant & Rubinstein (PVLDB 2017)
/// reports static-IS per-iteration CPU time an order of magnitude above the
/// other methods and growing with pool size — the cost of the O(n)
/// linear-scan draw this table replaces (`bench/table3_runtime.cc`
/// reproduces that shape with both backends). For distributions whose
/// weights change between draws, see the dynamic sibling FenwickTree
/// (O(log n) update/draw vs the O(n) rebuild an alias table would need).
///
/// Capacity: alias slots are stored as uint32_t, so a table holds at most
/// 2^32 - 1 categories; Build rejects larger inputs explicitly rather than
/// silently truncating indices (see tests/large_k_overflow_test.cc).
class AliasTable {
 public:
  AliasTable() = default;

  /// Builds the table from non-negative (unnormalised) weights. Fails with
  /// InvalidArgument when weights are empty, contain a negative/NaN entry,
  /// sum to zero, or exceed the uint32_t category capacity.
  static Result<AliasTable> Build(std::span<const double> weights);

  /// Draws an index in O(1) (two uniform deviates). The table must have been
  /// built (size() > 0).
  size_t Sample(Rng& rng) const;

  /// Number of categories; 0 for a default-constructed (unbuilt) table.
  size_t size() const { return prob_.size(); }

  /// Normalised probability of category i (for tests and diagnostics).
  /// Precondition: i < size(). Values lie in [0, 1] and sum to 1 across all
  /// categories (up to rounding): weight[i] / sum(weights) as passed to
  /// Build.
  double probability(size_t i) const { return normalized_[i]; }

 private:
  std::vector<double> prob_;      // Acceptance probability per slot.
  std::vector<uint32_t> alias_;   // Alias target per slot.
  std::vector<double> normalized_;
};

}  // namespace oasis

#endif  // OASIS_COMMON_ALIAS_TABLE_H_
