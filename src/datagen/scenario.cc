#include "datagen/scenario.h"

#include <cmath>

#include "eval/measures.h"
#include "oracle/ground_truth_oracle.h"
#include "oracle/noisy_oracle.h"

namespace oasis {
namespace datagen {

namespace {

// Category layout order within the generated pool. Blocks are contiguous
// (strata are score-driven, so item order carries no information).
enum Category { kTn = 0, kFn = 1, kFp = 2, kTp = 3 };

int64_t RoundCount(double value) {
  return static_cast<int64_t>(std::llround(value));
}

/// Exact confusion counts for a spec: the single source of truth every
/// family's generator and the closed-form F computation share.
Result<ConfusionCounts> DeriveCounts(const ScenarioSpec& spec) {
  ConfusionCounts counts;
  const int64_t n = spec.pool_size;
  switch (spec.family) {
    case ScenarioFamily::kExactCount:
      counts.true_positives = spec.true_positives;
      counts.false_positives = spec.false_positives;
      counts.false_negatives = spec.false_negatives;
      break;
    case ScenarioFamily::kAllMatch: {
      counts.true_positives =
          RoundCount(spec.classifier_recall * static_cast<double>(n));
      counts.false_negatives = n - counts.true_positives;
      counts.false_positives = 0;
      break;
    }
    case ScenarioFamily::kNoMatch: {
      // No matches exist; the classifier still fires at its intended base
      // rate, so every predicted positive is false and F = 0 exactly.
      counts.true_positives = 0;
      counts.false_negatives = 0;
      counts.false_positives =
          RoundCount(spec.match_rate * static_cast<double>(n));
      break;
    }
    default: {
      const int64_t matches =
          RoundCount(spec.match_rate * static_cast<double>(n));
      counts.true_positives =
          RoundCount(spec.classifier_recall * static_cast<double>(matches));
      counts.false_negatives = matches - counts.true_positives;
      const double p = spec.classifier_precision;
      counts.false_positives =
          p > 0.0 ? RoundCount(static_cast<double>(counts.true_positives) *
                               (1.0 - p) / p)
                  : 0;
      break;
    }
  }
  const int64_t assigned = counts.true_positives + counts.false_positives +
                           counts.false_negatives;
  if (counts.true_positives < 0 || counts.false_positives < 0 ||
      counts.false_negatives < 0 || assigned > n) {
    return Status::InvalidArgument(
        "ScenarioSpec '" + spec.name +
        "': derived confusion counts do not fit the pool (tp=" +
        std::to_string(counts.true_positives) +
        " fp=" + std::to_string(counts.false_positives) +
        " fn=" + std::to_string(counts.false_negatives) +
        " pool_size=" + std::to_string(n) + ")");
  }
  counts.true_negatives = n - assigned;
  return counts;
}

/// The estimator's asymptotic target given exact counts: plain F_alpha for
/// clean oracles; for flip-noise oracles the expected label mass replaces
/// the truth mass (docs/SCENARIOS.md derives the closed form).
Result<double> DeriveTrueF(const ScenarioSpec& spec,
                           const ConfusionCounts& counts) {
  const double alpha = spec.alpha;
  const double tp = static_cast<double>(counts.true_positives);
  const double fp = static_cast<double>(counts.false_positives);
  const double fn = static_cast<double>(counts.false_negatives);
  const double tn = static_cast<double>(counts.true_negatives);
  const double rho = spec.flip_rate;
  // Expected "label = 1" mass among predicted positives and pool-wide; for
  // rho = 0 these reduce to TP and TP + FN.
  const double tp_eff = (1.0 - rho) * tp + rho * fp;
  const double pos_eff = (1.0 - rho) * (tp + fn) + rho * (fp + tn);
  const double denom = alpha * (tp + fp) + (1.0 - alpha) * pos_eff;
  if (denom <= 0.0) {
    return Status::InvalidArgument(
        "ScenarioSpec '" + spec.name +
        "': F is undefined (no predicted and no true positives)");
  }
  return tp_eff / denom;
}

double BandUniform(Rng& rng, double lo, double hi) {
  return lo + (hi - lo) * rng.NextDouble();
}

double BandSkewed(Rng& rng, double lo, double hi, double exponent) {
  return lo + (hi - lo) * std::pow(rng.NextDouble(), exponent);
}

/// Deterministic largest-block-first split of `total` items over clusters
/// with geometrically decaying sizes (1/2, 1/4, ...): the heterogeneous
/// stratum-size profile of the kClustered family.
std::vector<int64_t> GeometricClusterSizes(int64_t total, int64_t clusters) {
  std::vector<int64_t> sizes(static_cast<size_t>(clusters), 0);
  int64_t remaining = total;
  for (int64_t c = 0; c < clusters && remaining > 0; ++c) {
    const int64_t take = (c + 1 == clusters)
                             ? remaining
                             : std::max<int64_t>(1, remaining - remaining / 2);
    sizes[static_cast<size_t>(c)] = take;
    remaining -= take;
  }
  return sizes;
}

}  // namespace

std::string ScenarioFamilyName(ScenarioFamily family) {
  switch (family) {
    case ScenarioFamily::kExactCount:
      return "exact-count";
    case ScenarioFamily::kImbalance:
      return "imbalance";
    case ScenarioFamily::kStratumSkew:
      return "stratum-skew";
    case ScenarioFamily::kClustered:
      return "clustered";
    case ScenarioFamily::kSingleStratum:
      return "single-stratum";
    case ScenarioFamily::kAllMatch:
      return "all-match";
    case ScenarioFamily::kNoMatch:
      return "no-match";
    case ScenarioFamily::kScoreInversion:
      return "score-inversion";
    case ScenarioFamily::kNoisyOracle:
      return "noisy-oracle";
  }
  return "?";
}

Result<ScenarioFamily> ScenarioFamilyFromName(const std::string& name) {
  for (ScenarioFamily family :
       {ScenarioFamily::kExactCount, ScenarioFamily::kImbalance,
        ScenarioFamily::kStratumSkew, ScenarioFamily::kClustered,
        ScenarioFamily::kSingleStratum, ScenarioFamily::kAllMatch,
        ScenarioFamily::kNoMatch, ScenarioFamily::kScoreInversion,
        ScenarioFamily::kNoisyOracle}) {
    if (ScenarioFamilyName(family) == name) return family;
  }
  return Status::InvalidArgument("unknown scenario family '" + name + "'");
}

Status ScenarioSpec::Validate() const {
  // Every range check is written so that NaN fails it.
  if (name.empty()) {
    return Status::InvalidArgument("ScenarioSpec: name must not be empty");
  }
  if (pool_size <= 0) {
    return Status::InvalidArgument("ScenarioSpec '" + name +
                                   "': pool_size must be positive");
  }
  if (!(alpha >= 0.0 && alpha <= 1.0)) {
    return Status::InvalidArgument("ScenarioSpec '" + name +
                                   "': alpha must lie in [0, 1]");
  }
  if (!(match_rate >= 0.0 && match_rate <= 1.0)) {
    return Status::InvalidArgument("ScenarioSpec '" + name +
                                   "': match_rate must lie in [0, 1]");
  }
  if (!(classifier_recall >= 0.0 && classifier_recall <= 1.0)) {
    return Status::InvalidArgument("ScenarioSpec '" + name +
                                   "': classifier_recall must lie in [0, 1]");
  }
  if (!(classifier_precision >= 0.0 && classifier_precision <= 1.0)) {
    return Status::InvalidArgument(
        "ScenarioSpec '" + name + "': classifier_precision must lie in [0, 1]");
  }
  if (!(skew_exponent > 0.0)) {
    return Status::InvalidArgument("ScenarioSpec '" + name +
                                   "': skew_exponent must be positive");
  }
  if (clusters_per_band <= 0) {
    return Status::InvalidArgument("ScenarioSpec '" + name +
                                   "': clusters_per_band must be positive");
  }
  if (!(flip_rate >= 0.0 && flip_rate < 0.5)) {
    return Status::InvalidArgument("ScenarioSpec '" + name +
                                   "': flip_rate must lie in [0, 0.5)");
  }
  if (flip_rate > 0.0 && family != ScenarioFamily::kNoisyOracle) {
    return Status::InvalidArgument(
        "ScenarioSpec '" + name +
        "': flip_rate > 0 requires the noisy-oracle family");
  }
  if (!(verify_tolerance > 0.0 && verify_tolerance <= 1.0)) {
    return Status::InvalidArgument("ScenarioSpec '" + name +
                                   "': verify_tolerance must lie in (0, 1]");
  }
  // Counts must fit and leave F defined; DeriveCounts/DeriveTrueF carry the
  // detailed messages.
  OASIS_ASSIGN_OR_RETURN(const ConfusionCounts counts, DeriveCounts(*this));
  OASIS_RETURN_NOT_OK(DeriveTrueF(*this, counts).status());
  return Status::OK();
}

std::string ScenarioSpec::ToConfigString() const {
  using experiments::AppendConfigBool;
  using experiments::AppendConfigDouble;
  using experiments::AppendConfigInt64;
  using experiments::AppendConfigLine;
  std::string out;
  AppendConfigLine("name", name, &out);
  AppendConfigLine("family", ScenarioFamilyName(family), &out);
  AppendConfigInt64("pool_size", pool_size, &out);
  // Unsigned: a seed above INT64_MAX prints as its own digits.
  AppendConfigLine("seed", std::to_string(seed), &out);
  AppendConfigDouble("alpha", alpha, &out);
  AppendConfigInt64("true_positives", true_positives, &out);
  AppendConfigInt64("false_positives", false_positives, &out);
  AppendConfigInt64("false_negatives", false_negatives, &out);
  AppendConfigDouble("match_rate", match_rate, &out);
  AppendConfigDouble("classifier_recall", classifier_recall, &out);
  AppendConfigDouble("classifier_precision", classifier_precision, &out);
  AppendConfigDouble("skew_exponent", skew_exponent, &out);
  AppendConfigInt64("clusters_per_band", clusters_per_band, &out);
  AppendConfigDouble("flip_rate", flip_rate, &out);
  AppendConfigBool("expect_sis_degeneracy", expect_sis_degeneracy, &out);
  AppendConfigDouble("verify_tolerance", verify_tolerance, &out);
  return out;
}

Result<ScenarioSpec> ScenarioSpec::FromConfig(
    const experiments::ConfigMap& config) {
  ScenarioSpec spec;
  OASIS_ASSIGN_OR_RETURN(spec.name, config.GetString("name"));
  OASIS_ASSIGN_OR_RETURN(const std::string family_name,
                         config.GetString("family"));
  OASIS_ASSIGN_OR_RETURN(spec.family, ScenarioFamilyFromName(family_name));
  OASIS_ASSIGN_OR_RETURN(spec.pool_size,
                         config.GetInt64Or("pool_size", spec.pool_size));
  OASIS_ASSIGN_OR_RETURN(const int64_t seed,
                         config.GetInt64Or("seed",
                                           static_cast<int64_t>(spec.seed)));
  spec.seed = static_cast<uint64_t>(seed);
  OASIS_ASSIGN_OR_RETURN(spec.alpha, config.GetDoubleOr("alpha", spec.alpha));
  OASIS_ASSIGN_OR_RETURN(
      spec.true_positives,
      config.GetInt64Or("true_positives", spec.true_positives));
  OASIS_ASSIGN_OR_RETURN(
      spec.false_positives,
      config.GetInt64Or("false_positives", spec.false_positives));
  OASIS_ASSIGN_OR_RETURN(
      spec.false_negatives,
      config.GetInt64Or("false_negatives", spec.false_negatives));
  OASIS_ASSIGN_OR_RETURN(spec.match_rate,
                         config.GetDoubleOr("match_rate", spec.match_rate));
  OASIS_ASSIGN_OR_RETURN(
      spec.classifier_recall,
      config.GetDoubleOr("classifier_recall", spec.classifier_recall));
  OASIS_ASSIGN_OR_RETURN(
      spec.classifier_precision,
      config.GetDoubleOr("classifier_precision", spec.classifier_precision));
  OASIS_ASSIGN_OR_RETURN(
      spec.skew_exponent,
      config.GetDoubleOr("skew_exponent", spec.skew_exponent));
  OASIS_ASSIGN_OR_RETURN(
      spec.clusters_per_band,
      config.GetInt64Or("clusters_per_band", spec.clusters_per_band));
  OASIS_ASSIGN_OR_RETURN(spec.flip_rate,
                         config.GetDoubleOr("flip_rate", spec.flip_rate));
  OASIS_ASSIGN_OR_RETURN(
      spec.expect_sis_degeneracy,
      config.GetBoolOr("expect_sis_degeneracy",
                       spec.family == ScenarioFamily::kScoreInversion));
  OASIS_ASSIGN_OR_RETURN(
      spec.verify_tolerance,
      config.GetDoubleOr("verify_tolerance", spec.verify_tolerance));
  OASIS_RETURN_NOT_OK(config.CheckAllKeysUsed());
  OASIS_RETURN_NOT_OK(spec.Validate());
  return spec;
}

Result<ScenarioPool> GenerateScenario(const ScenarioSpec& spec) {
  OASIS_RETURN_NOT_OK(spec.Validate());
  ScenarioPool pool;
  pool.spec = spec;
  OASIS_ASSIGN_OR_RETURN(pool.counts, DeriveCounts(spec));
  OASIS_ASSIGN_OR_RETURN(pool.true_f, DeriveTrueF(spec, pool.counts));
  pool.clean_measures = ComputeMeasures(pool.counts, spec.alpha);

  const int64_t n = spec.pool_size;
  pool.truth.reserve(static_cast<size_t>(n));
  pool.scored.scores.reserve(static_cast<size_t>(n));
  pool.scored.predictions.reserve(static_cast<size_t>(n));
  pool.scored.scores_are_probabilities = false;
  pool.scored.threshold = 0.0;

  // Category blocks in fixed TN, FN, FP, TP order; the per-family score
  // draw below is the only thing that varies.
  const int64_t block_sizes[4] = {
      pool.counts.true_negatives, pool.counts.false_negatives,
      pool.counts.false_positives, pool.counts.true_positives};
  // Default truth-correlated band per category: predicted negatives below
  // the threshold, positives above, and the true class higher within each
  // side.
  const double band_lo[4] = {-2.0, -1.0, 0.0, 1.0};
  const double band_hi[4] = {-1.0, 0.0, 1.0, 2.0};

  Rng rng(spec.seed);
  for (int category = 0; category < 4; ++category) {
    const bool truth_bit = category == kFn || category == kTp;
    const bool prediction_bit = category == kFp || category == kTp;
    const int64_t block = block_sizes[category];
    const double lo = band_lo[category];
    const double hi = band_hi[category];

    // kClustered: precompute the geometric cluster layout of this band.
    std::vector<int64_t> cluster_sizes;
    if (spec.family == ScenarioFamily::kClustered && block > 0) {
      cluster_sizes = GeometricClusterSizes(block, spec.clusters_per_band);
    }
    int64_t cluster_index = 0;
    int64_t cluster_emitted = 0;

    for (int64_t i = 0; i < block; ++i) {
      double score = 0.0;
      switch (spec.family) {
        case ScenarioFamily::kSingleStratum:
          // Identical scores: any score-driven stratifier sees one stratum.
          score = 0.0;
          break;
        case ScenarioFamily::kStratumSkew:
          // Mass piles up at each band's low edge; with the negatives
          // dominating the pool this yields one giant low stratum and a
          // heavy-tailed cascade of tiny ones.
          score = BandSkewed(rng, lo, hi, spec.skew_exponent);
          break;
        case ScenarioFamily::kClustered: {
          while (cluster_emitted >=
                 cluster_sizes[static_cast<size_t>(cluster_index)]) {
            ++cluster_index;
            cluster_emitted = 0;
          }
          // Narrow well-separated clusters of geometrically decaying size.
          const double center =
              lo + (hi - lo) * (static_cast<double>(cluster_index) + 0.5) /
                       static_cast<double>(spec.clusters_per_band);
          score = center + 0.02 * (hi - lo) * (rng.NextDouble() - 0.5);
          ++cluster_emitted;
          break;
        }
        case ScenarioFamily::kScoreInversion: {
          // Scores lie about the truth. Predicted positives: false ones
          // score highest. Predicted negatives: the true matches (FN) and
          // 90% of the true negatives sink to the score floor, where a
          // score-driven static instrumental distribution places a vanishing
          // share of its mass — the SIS weight-collapse construction.
          switch (category) {
            case kTp:
              score = BandUniform(rng, 0.0, 1.0);
              break;
            case kFp:
              score = BandUniform(rng, 1.0, 2.0);
              break;
            case kFn:
              score = BandUniform(rng, -16.0, -14.0);
              break;
            default:  // kTn: 90% hidden at the floor, 10% exposed.
              score = (i % 10 == 0) ? BandUniform(rng, -1.5, 0.0)
                                    : BandUniform(rng, -16.0, -14.0);
              break;
          }
          break;
        }
        default:
          // kExactCount, kImbalance, kAllMatch, kNoMatch, kNoisyOracle: the
          // plain truth-correlated bands.
          score = BandUniform(rng, lo, hi);
          break;
      }
      pool.scored.scores.push_back(score);
      pool.scored.predictions.push_back(prediction_bit ? 1 : 0);
      pool.truth.push_back(truth_bit ? 1 : 0);
    }
  }
  OASIS_RETURN_NOT_OK(pool.scored.Validate());
  return pool;
}

Result<std::unique_ptr<Oracle>> MakeScenarioOracle(const ScenarioPool& pool) {
  if (pool.spec.flip_rate > 0.0) {
    OASIS_ASSIGN_OR_RETURN(
        NoisyOracle oracle,
        NoisyOracle::FromTruthWithFlipNoise(pool.truth, pool.spec.flip_rate));
    return std::unique_ptr<Oracle>(new NoisyOracle(std::move(oracle)));
  }
  return std::unique_ptr<Oracle>(new GroundTruthOracle(pool.truth));
}

const std::vector<ScenarioSpec>& ScenarioCatalog() {
  static const std::vector<ScenarioSpec>* catalog = [] {
    auto* specs = new std::vector<ScenarioSpec>;
    {
      // F fixed at 0.90 by construction: 900 / (0.5*1000 + 0.5*1000).
      ScenarioSpec spec;
      spec.name = "stripe-f90";
      spec.family = ScenarioFamily::kExactCount;
      spec.pool_size = 20000;
      spec.true_positives = 900;
      spec.false_positives = 100;
      spec.false_negatives = 100;
      spec.verify_tolerance = 0.02;
      specs->push_back(spec);
    }
    {
      // F fixed at 0.50: 500 / (0.5*1000 + 0.5*1000).
      ScenarioSpec spec;
      spec.name = "stripe-f50";
      spec.family = ScenarioFamily::kExactCount;
      spec.pool_size = 20000;
      spec.true_positives = 500;
      spec.false_positives = 500;
      spec.false_negatives = 500;
      spec.verify_tolerance = 0.03;
      specs->push_back(spec);
    }
    {
      // 1-in-1000 matches; recall/precision 0.8 realised exactly.
      ScenarioSpec spec;
      spec.name = "imbalance-1e3";
      spec.family = ScenarioFamily::kImbalance;
      spec.pool_size = 50000;
      spec.match_rate = 1e-3;
      spec.verify_tolerance = 0.06;
      specs->push_back(spec);
    }
    {
      // 1-in-100000 matches: a single true match in the pool. The extreme
      // end of the imbalance axis; estimates are wild at small budgets, so
      // the tolerance band is wide by design.
      ScenarioSpec spec;
      spec.name = "imbalance-1e5";
      spec.family = ScenarioFamily::kImbalance;
      spec.pool_size = 100000;
      spec.match_rate = 1e-5;
      spec.verify_tolerance = 0.5;
      specs->push_back(spec);
    }
    {
      ScenarioSpec spec;
      spec.name = "skew-heavy";
      spec.family = ScenarioFamily::kStratumSkew;
      spec.pool_size = 20000;
      spec.match_rate = 0.01;
      spec.skew_exponent = 8.0;
      spec.verify_tolerance = 0.05;
      specs->push_back(spec);
    }
    {
      ScenarioSpec spec;
      spec.name = "clustered";
      spec.family = ScenarioFamily::kClustered;
      spec.pool_size = 20000;
      spec.match_rate = 0.02;
      spec.clusters_per_band = 5;
      spec.verify_tolerance = 0.05;
      specs->push_back(spec);
    }
    {
      ScenarioSpec spec;
      spec.name = "single-stratum";
      spec.family = ScenarioFamily::kSingleStratum;
      spec.pool_size = 10000;
      spec.match_rate = 0.05;
      spec.verify_tolerance = 0.05;
      specs->push_back(spec);
    }
    {
      ScenarioSpec spec;
      spec.name = "all-match";
      spec.family = ScenarioFamily::kAllMatch;
      spec.pool_size = 10000;
      spec.classifier_recall = 0.9;
      spec.verify_tolerance = 0.03;
      specs->push_back(spec);
    }
    {
      ScenarioSpec spec;
      spec.name = "no-match";
      spec.family = ScenarioFamily::kNoMatch;
      spec.pool_size = 10000;
      spec.match_rate = 0.01;
      spec.verify_tolerance = 0.02;
      specs->push_back(spec);
    }
    {
      // The SIS breaker: static importance sampling's weights must collapse
      // here (expect_sis_degeneracy), while OASIS adapts and stays healthy.
      ScenarioSpec spec;
      spec.name = "sis-inversion";
      spec.family = ScenarioFamily::kScoreInversion;
      spec.pool_size = 20000;
      spec.match_rate = 0.02;
      spec.classifier_recall = 0.25;
      spec.classifier_precision = 0.8;
      spec.expect_sis_degeneracy = true;
      spec.verify_tolerance = 0.08;
      specs->push_back(spec);
    }
    {
      // 5% symmetric flip noise; the truth target is flip-adjusted exactly.
      ScenarioSpec spec;
      spec.name = "noisy-flip05";
      spec.family = ScenarioFamily::kNoisyOracle;
      spec.pool_size = 20000;
      spec.match_rate = 0.02;
      spec.flip_rate = 0.05;
      spec.verify_tolerance = 0.06;
      specs->push_back(spec);
    }
    return specs;
  }();
  return *catalog;
}

Result<ScenarioSpec> ScenarioByName(const std::string& name) {
  std::string known;
  for (const ScenarioSpec& spec : ScenarioCatalog()) {
    if (spec.name == name) return spec;
    if (!known.empty()) known += ", ";
    known += spec.name;
  }
  return Status::NotFound("unknown scenario '" + name + "' (catalogue: " +
                          known + ")");
}

}  // namespace datagen
}  // namespace oasis
