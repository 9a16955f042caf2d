// Known-truth scenario generators: every family must realise its confusion
// counts EXACTLY (recounted from the emitted truth/prediction vectors), be a
// pure function of its spec, and survive the config round trip that the
// gen -> run -> verify pipeline depends on.

#include "datagen/scenario.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "eval/confusion.h"
#include "experiments/config.h"
#include "oracle/oracle.h"

namespace oasis {
namespace datagen {
namespace {

/// Recounts the confusion matrix from the pool's emitted vectors; this is
/// the ground-truth-by-construction property every family must satisfy.
ConfusionCounts Recount(const ScenarioPool& pool) {
  ConfusionCounts counts;
  for (size_t i = 0; i < pool.truth.size(); ++i) {
    counts.Add(pool.truth[i] != 0, pool.scored.predictions[i] != 0);
  }
  return counts;
}

TEST(ScenarioFamilyTest, NameRoundTrip) {
  const ScenarioFamily families[] = {
      ScenarioFamily::kExactCount,    ScenarioFamily::kImbalance,
      ScenarioFamily::kStratumSkew,   ScenarioFamily::kClustered,
      ScenarioFamily::kSingleStratum, ScenarioFamily::kAllMatch,
      ScenarioFamily::kNoMatch,       ScenarioFamily::kScoreInversion,
      ScenarioFamily::kNoisyOracle,
  };
  for (ScenarioFamily family : families) {
    const std::string name = ScenarioFamilyName(family);
    EXPECT_EQ(ScenarioFamilyFromName(name).ValueOrDie(), family) << name;
  }
  EXPECT_FALSE(ScenarioFamilyFromName("not-a-family").ok());
}

TEST(ScenarioTest, ExactCountRealisesTheSpecifiedCounts) {
  ScenarioSpec spec;
  spec.family = ScenarioFamily::kExactCount;
  spec.pool_size = 5000;
  spec.true_positives = 321;
  spec.false_positives = 123;
  spec.false_negatives = 77;
  spec.seed = 9;
  const ScenarioPool pool = GenerateScenario(spec).ValueOrDie();
  const ConfusionCounts counts = Recount(pool);
  EXPECT_EQ(counts.true_positives, 321);
  EXPECT_EQ(counts.false_positives, 123);
  EXPECT_EQ(counts.false_negatives, 77);
  EXPECT_EQ(counts.true_negatives, 5000 - 321 - 123 - 77);
  // The stored counts agree with the recount, and true_f is F of the counts.
  EXPECT_EQ(pool.counts.true_positives, counts.true_positives);
  const double expected_f =
      321.0 / (0.5 * (321 + 123) + 0.5 * (321 + 77));
  EXPECT_NEAR(pool.true_f, expected_f, 1e-12);
}

TEST(ScenarioTest, GenerationIsDeterministic) {
  ScenarioSpec spec = ScenarioByName("clustered").ValueOrDie();
  const ScenarioPool a = GenerateScenario(spec).ValueOrDie();
  const ScenarioPool b = GenerateScenario(spec).ValueOrDie();
  ASSERT_EQ(a.scored.scores.size(), b.scored.scores.size());
  for (size_t i = 0; i < a.scored.scores.size(); ++i) {
    ASSERT_EQ(a.scored.scores[i], b.scored.scores[i]) << "item " << i;
    ASSERT_EQ(a.truth[i], b.truth[i]) << "item " << i;
  }
  // A different seed must move the scores (same counts, different draw).
  spec.seed += 1;
  const ScenarioPool c = GenerateScenario(spec).ValueOrDie();
  bool any_different = false;
  for (size_t i = 0; i < a.scored.scores.size() && !any_different; ++i) {
    any_different = a.scored.scores[i] != c.scored.scores[i];
  }
  EXPECT_TRUE(any_different);
  EXPECT_EQ(Recount(c).true_positives, Recount(a).true_positives);
}

TEST(ScenarioTest, PredictionsFollowTheScoreSign) {
  // The estimator-facing contract: prediction == (score >= threshold) for
  // every family, so score-driven proposal designs see a coherent pool.
  // kSingleStratum is the one deliberate exception — with every score
  // identical the predictions cannot be encoded in the scores at all.
  for (const ScenarioSpec& spec : ScenarioCatalog()) {
    if (spec.family == ScenarioFamily::kSingleStratum) continue;
    const ScenarioPool pool = GenerateScenario(spec).ValueOrDie();
    for (size_t i = 0; i < pool.scored.scores.size(); ++i) {
      const bool predicted = pool.scored.predictions[i] != 0;
      const bool above = pool.scored.scores[i] >= pool.scored.threshold;
      ASSERT_EQ(predicted, above)
          << spec.name << " item " << i << " score " << pool.scored.scores[i];
    }
  }
}

TEST(ScenarioTest, EveryCatalogEntryIsExactByConstruction) {
  const std::vector<ScenarioSpec>& catalog = ScenarioCatalog();
  ASSERT_GE(catalog.size(), 10u);
  for (const ScenarioSpec& spec : catalog) {
    SCOPED_TRACE(spec.name);
    ASSERT_TRUE(spec.Validate().ok());
    const ScenarioPool pool = GenerateScenario(spec).ValueOrDie();
    const ConfusionCounts counts = Recount(pool);
    // Stored counts are the recounted truth — exactly.
    EXPECT_EQ(counts.true_positives, pool.counts.true_positives);
    EXPECT_EQ(counts.false_positives, pool.counts.false_positives);
    EXPECT_EQ(counts.false_negatives, pool.counts.false_negatives);
    EXPECT_EQ(counts.true_negatives, pool.counts.true_negatives);
    EXPECT_EQ(counts.total(), spec.pool_size);
    // For clean oracles the target is F of the counts; the noisy preset's
    // flip-adjusted target differs from (but stays tied to) the clean F.
    const double tp = static_cast<double>(counts.true_positives);
    const double denom =
        spec.alpha * static_cast<double>(counts.predicted_positives()) +
        (1.0 - spec.alpha) * static_cast<double>(counts.actual_positives());
    if (spec.flip_rate == 0.0) {
      if (denom > 0.0) EXPECT_NEAR(pool.true_f, tp / denom, 1e-12);
    } else {
      const double rho = spec.flip_rate;
      const double fp = static_cast<double>(counts.false_positives);
      const double fn = static_cast<double>(counts.false_negatives);
      const double tn = static_cast<double>(counts.true_negatives);
      const double tp_eff = (1.0 - rho) * tp + rho * fp;
      const double pos_eff = (1.0 - rho) * (tp + fn) + rho * (fp + tn);
      const double adjusted =
          tp_eff / (spec.alpha * (tp + fp) + (1.0 - spec.alpha) * pos_eff);
      EXPECT_NEAR(pool.true_f, adjusted, 1e-12);
    }
  }
}

TEST(ScenarioTest, DegenerateFamiliesHaveTheirSignatureShapes) {
  const ScenarioPool single =
      GenerateScenario(ScenarioByName("single-stratum").ValueOrDie())
          .ValueOrDie();
  for (size_t i = 1; i < single.scored.scores.size(); ++i) {
    ASSERT_EQ(single.scored.scores[i], single.scored.scores[0]);
  }

  const ScenarioPool none =
      GenerateScenario(ScenarioByName("no-match").ValueOrDie()).ValueOrDie();
  EXPECT_EQ(Recount(none).actual_positives(), 0);
  EXPECT_EQ(none.true_f, 0.0);

  const ScenarioPool all =
      GenerateScenario(ScenarioByName("all-match").ValueOrDie()).ValueOrDie();
  const ConfusionCounts all_counts = Recount(all);
  EXPECT_EQ(all_counts.actual_positives(), all.spec.pool_size);
  EXPECT_EQ(all_counts.false_positives, 0);
}

TEST(ScenarioTest, ScoreInversionHidesMatchMassBelowThreshold) {
  const ScenarioSpec spec = ScenarioByName("sis-inversion").ValueOrDie();
  EXPECT_TRUE(spec.expect_sis_degeneracy);
  const ScenarioPool pool = GenerateScenario(spec).ValueOrDie();
  // Most of the actual-positive mass sits in predicted-negative territory
  // (false negatives dominate), concentrated far below the threshold — the
  // construction that starves a score-driven static proposal.
  const ConfusionCounts counts = Recount(pool);
  EXPECT_GT(counts.false_negatives, 2 * counts.true_positives);
  int64_t deep_hidden = 0;
  for (size_t i = 0; i < pool.truth.size(); ++i) {
    if (pool.truth[i] != 0 && pool.scored.scores[i] < -10.0) ++deep_hidden;
  }
  EXPECT_GT(deep_hidden, counts.false_negatives / 2);
  // No other catalogue preset claims the SIS-breaker flag.
  for (const ScenarioSpec& other : ScenarioCatalog()) {
    if (other.name != spec.name) EXPECT_FALSE(other.expect_sis_degeneracy);
  }
}

TEST(ScenarioTest, SpecConfigRoundTrip) {
  for (const ScenarioSpec& spec : ScenarioCatalog()) {
    SCOPED_TRACE(spec.name);
    const std::string text = spec.ToConfigString();
    auto config = experiments::ConfigMap::Parse(text).ValueOrDie();
    const ScenarioSpec parsed = ScenarioSpec::FromConfig(config).ValueOrDie();
    EXPECT_TRUE(config.CheckAllKeysUsed().ok());
    EXPECT_EQ(parsed.name, spec.name);
    EXPECT_EQ(parsed.family, spec.family);
    EXPECT_EQ(parsed.pool_size, spec.pool_size);
    EXPECT_EQ(parsed.seed, spec.seed);
    EXPECT_EQ(parsed.alpha, spec.alpha);
    EXPECT_EQ(parsed.match_rate, spec.match_rate);
    EXPECT_EQ(parsed.flip_rate, spec.flip_rate);
    EXPECT_EQ(parsed.expect_sis_degeneracy, spec.expect_sis_degeneracy);
    EXPECT_EQ(parsed.verify_tolerance, spec.verify_tolerance);
    // The round-tripped spec regenerates the identical pool.
    const ScenarioPool a = GenerateScenario(spec).ValueOrDie();
    const ScenarioPool b = GenerateScenario(parsed).ValueOrDie();
    ASSERT_EQ(a.scored.scores.size(), b.scored.scores.size());
    for (size_t i = 0; i < a.scored.scores.size(); ++i) {
      ASSERT_EQ(a.scored.scores[i], b.scored.scores[i]);
      ASSERT_EQ(a.truth[i], b.truth[i]);
    }
  }
}

TEST(ScenarioTest, FromConfigRejectsUnknownKeys) {
  auto config = experiments::ConfigMap::Parse(
                    "name = x\nfamily = exact-count\npool_size = 100\n"
                    "true_positives = 10\nfalse_positives = 5\n"
                    "false_negatives = 5\nmisspelled_knob = 1\n")
                    .ValueOrDie();
  // Scenario files are spec-only, so FromConfig runs the typo guard itself
  // and a misspelled knob fails the parse, naming the stray key.
  const auto result = ScenarioSpec::FromConfig(config);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("misspelled_knob"),
            std::string::npos);
}

TEST(ScenarioTest, ValidateRejectsBrokenSpecs) {
  ScenarioSpec spec;
  spec.family = ScenarioFamily::kExactCount;
  spec.pool_size = 10;
  spec.true_positives = 8;
  spec.false_positives = 8;  // counts exceed the pool
  spec.false_negatives = 8;
  EXPECT_FALSE(spec.Validate().ok());

  ScenarioSpec negative;
  negative.pool_size = -5;
  EXPECT_FALSE(negative.Validate().ok());

  ScenarioSpec bad_flip = ScenarioByName("noisy-flip05").ValueOrDie();
  bad_flip.flip_rate = 0.7;
  EXPECT_FALSE(bad_flip.Validate().ok());
}

// A NaN in any double knob fails Validate (and so FromConfig and
// GenerateScenario) with a message naming the knob, instead of passing every
// range check and reaching a CHECK or a verify tolerance nothing can meet.
TEST(ScenarioTest, ValidateRejectsNanInEveryDoubleField) {
  const std::vector<std::pair<const char*, double ScenarioSpec::*>> fields = {
      {"alpha", &ScenarioSpec::alpha},
      {"match_rate", &ScenarioSpec::match_rate},
      {"classifier_recall", &ScenarioSpec::classifier_recall},
      {"classifier_precision", &ScenarioSpec::classifier_precision},
      {"skew_exponent", &ScenarioSpec::skew_exponent},
      {"flip_rate", &ScenarioSpec::flip_rate},
      {"verify_tolerance", &ScenarioSpec::verify_tolerance},
  };
  for (const auto& [name, field] : fields) {
    SCOPED_TRACE(name);
    ScenarioSpec spec = ScenarioByName("stripe-f90").ValueOrDie();
    ASSERT_TRUE(spec.Validate().ok());
    spec.*field = std::nan("");
    const Status status = spec.Validate();
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(status.message().find(name), std::string::npos)
        << status.message();

    // The same through a scenario file.
    auto config =
        experiments::ConfigMap::Parse(spec.ToConfigString()).ValueOrDie();
    const auto parsed = ScenarioSpec::FromConfig(config);
    ASSERT_FALSE(parsed.ok());
    EXPECT_NE(parsed.status().message().find(name), std::string::npos)
        << parsed.status().message();
  }
}

TEST(ScenarioTest, ByNameListsKnownNamesOnMiss) {
  const auto result = ScenarioByName("no-such-scenario");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("stripe-f90"), std::string::npos);
}

TEST(ScenarioTest, NoisyOracleFlipsAtTheConfiguredRate) {
  const ScenarioSpec spec = ScenarioByName("noisy-flip05").ValueOrDie();
  const ScenarioPool pool = GenerateScenario(spec).ValueOrDie();
  auto oracle = MakeScenarioOracle(pool).ValueOrDie();
  Rng rng(123);
  int64_t flips = 0;
  for (size_t i = 0; i < pool.truth.size(); ++i) {
    const bool label = oracle->Label(static_cast<int64_t>(i), rng);
    if (label != (pool.truth[i] != 0)) ++flips;
  }
  const double rate =
      static_cast<double>(flips) / static_cast<double>(pool.truth.size());
  EXPECT_NEAR(rate, spec.flip_rate, 0.01);

  // Clean scenarios label with the exact truth.
  const ScenarioPool clean =
      GenerateScenario(ScenarioByName("stripe-f90").ValueOrDie()).ValueOrDie();
  auto clean_oracle = MakeScenarioOracle(clean).ValueOrDie();
  for (size_t i = 0; i < clean.truth.size(); i += 97) {
    EXPECT_EQ(clean_oracle->Label(static_cast<int64_t>(i), rng),
              clean.truth[i] != 0);
  }
}

}  // namespace
}  // namespace datagen
}  // namespace oasis
