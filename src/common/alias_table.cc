#include "common/alias_table.h"

#include <cmath>
#include <limits>

#include "common/logging.h"

namespace oasis {

Result<AliasTable> AliasTable::Build(std::span<const double> weights) {
  if (weights.empty()) {
    return Status::InvalidArgument("AliasTable: empty weight vector");
  }
  if (weights.size() > std::numeric_limits<uint32_t>::max()) {
    // The alias slots are uint32_t; beyond 2^32 - 1 categories the stored
    // indices would silently wrap. Reject explicitly.
    return Status::InvalidArgument(
        "AliasTable: too many categories for uint32_t alias slots");
  }
  double total = 0.0;
  for (double w : weights) {
    if (std::isnan(w) || w < 0.0) {
      return Status::InvalidArgument("AliasTable: negative or NaN weight");
    }
    total += w;
  }
  if (total <= 0.0) {
    return Status::InvalidArgument("AliasTable: weights sum to zero");
  }

  const size_t n = weights.size();
  AliasTable table;
  table.prob_.assign(n, 0.0);
  table.alias_.assign(n, 0);
  table.normalized_.resize(n);
  // Vose's algorithm: partition scaled probabilities into small/large work
  // lists and pair each small slot with a large donor.
  std::vector<double> scaled(n);
  std::vector<uint32_t> small;
  std::vector<uint32_t> large;
  small.reserve(n);
  large.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    table.normalized_[i] = weights[i] / total;
    scaled[i] = table.normalized_[i] * static_cast<double>(n);
    (scaled[i] < 1.0 ? small : large).push_back(static_cast<uint32_t>(i));
  }
  while (!small.empty() && !large.empty()) {
    const uint32_t s = small.back();
    small.pop_back();
    const uint32_t l = large.back();
    table.prob_[s] = scaled[s];
    table.alias_[s] = l;
    scaled[l] = (scaled[l] + scaled[s]) - 1.0;
    if (scaled[l] < 1.0) {
      large.pop_back();
      small.push_back(l);
    }
  }
  // Remaining slots are (numerically) exactly 1.
  for (uint32_t l : large) table.prob_[l] = 1.0;
  for (uint32_t s : small) table.prob_[s] = 1.0;
  return table;
}

size_t AliasTable::Sample(Rng& rng) const {
  OASIS_DCHECK(!prob_.empty());
  const size_t slot = static_cast<size_t>(rng.NextBounded(prob_.size()));
  return rng.NextDouble() < prob_[slot] ? slot : alias_[slot];
}

}  // namespace oasis
