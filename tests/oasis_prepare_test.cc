// Prepare-once OASIS construction: OasisSampler::Prepare runs the O(N) work
// (validation, Algorithm 2) once, Create builds O(K) samplers from the shared
// setup, and MakeOasisSpec's factory prepares lazily on its first call and
// reuses the setup for every later repeat or session — across spec copies
// and concurrent first calls — while refusing a different pool.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <vector>

#include "common/thread_pool.h"
#include "core/oasis.h"
#include "experiments/runner.h"
#include "oracle/ground_truth_oracle.h"
#include "strata/csf.h"
#include "tests/test_util.h"

namespace oasis {
namespace {

using experiments::MakeOasisSpec;
using experiments::MethodSpec;

class OasisPrepareTest : public ::testing::Test {
 protected:
  void SetUp() override {
    testutil::SyntheticPoolOptions pool_options;
    pool_options.size = 3000;
    pool_options.seed = 808;
    pool_ = testutil::MakeSyntheticPool(pool_options);
    oracle_ = std::make_unique<GroundTruthOracle>(pool_.truth);
    strata_ = std::make_shared<const Strata>(
        StratifyCsf(pool_.scored.scores, 20).ValueOrDie());
  }

  /// The shared setup behind a factory-built sampler.
  static const OasisSetup* SetupOf(const Sampler& sampler) {
    const auto* oasis = dynamic_cast<const OasisSampler*>(&sampler);
    return oasis == nullptr ? nullptr : oasis->setup().get();
  }

  testutil::SyntheticPool pool_;
  std::unique_ptr<GroundTruthOracle> oracle_;
  std::shared_ptr<const Strata> strata_;
};

TEST_F(OasisPrepareTest, CreateFromSetupMatchesOneShotCreate) {
  auto setup = OasisSampler::Prepare(&pool_.scored, strata_, OasisOptions{})
                   .ValueOrDie();
  EXPECT_EQ(setup->options.prior_strength, 40.0);  // eta = 2K.
  for (uint64_t seed : {1u, 2u, 3u}) {
    LabelCache shared_labels(oracle_.get());
    LabelCache one_shot_labels(oracle_.get());
    auto shared = OasisSampler::Create(setup, &shared_labels, Rng(seed))
                      .ValueOrDie();
    auto one_shot = OasisSampler::Create(&pool_.scored, &one_shot_labels,
                                         strata_, OasisOptions{}, Rng(seed))
                        .ValueOrDie();
    EXPECT_EQ(shared->setup().get(), setup.get());
    ASSERT_TRUE(shared->StepBatch(400).ok());
    ASSERT_TRUE(one_shot->StepBatch(400).ok());
    EXPECT_EQ(shared->Estimate().f_alpha, one_shot->Estimate().f_alpha);
    EXPECT_EQ(shared->labels_consumed(), one_shot->labels_consumed());
  }
  // Samplers never write to the setup: a fresh one still starts from the
  // prior.
  LabelCache labels(oracle_.get());
  auto fresh = OasisSampler::Create(setup, &labels, Rng(9)).ValueOrDie();
  EXPECT_EQ(fresh->PosteriorMeans(), setup->prior_means);
}

TEST_F(OasisPrepareTest, PrepareAndCreateRejectBadArguments) {
  EXPECT_FALSE(OasisSampler::Prepare(nullptr, strata_, OasisOptions{}).ok());
  EXPECT_FALSE(
      OasisSampler::Prepare(&pool_.scored, nullptr, OasisOptions{}).ok());
  OasisOptions bad;
  bad.epsilon = 0.0;
  EXPECT_FALSE(OasisSampler::Prepare(&pool_.scored, strata_, bad).ok());

  auto setup = OasisSampler::Prepare(&pool_.scored, strata_, OasisOptions{})
                   .ValueOrDie();
  EXPECT_FALSE(OasisSampler::Create(nullptr, nullptr, Rng(1)).ok());
  EXPECT_FALSE(OasisSampler::Create(setup, nullptr, Rng(1)).ok());
  // An oracle over a different number of items cannot label this pool.
  GroundTruthOracle short_oracle(std::vector<uint8_t>(10, 1));
  LabelCache short_labels(&short_oracle);
  const auto mismatched = OasisSampler::Create(setup, &short_labels, Rng(1));
  ASSERT_FALSE(mismatched.ok());
  EXPECT_EQ(mismatched.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(OasisPrepareTest, SpecFactoryCallsShareOneSetup) {
  const MethodSpec spec = MakeOasisSpec(OasisOptions{}, strata_);
  const MethodSpec copy = spec;  // Copies share the lazily prepared setup.
  std::vector<std::unique_ptr<LabelCache>> labels;
  std::vector<std::unique_ptr<Sampler>> samplers;
  for (int i = 0; i < 8; ++i) {
    labels.push_back(std::make_unique<LabelCache>(oracle_.get()));
    const MethodSpec& which = i % 2 == 0 ? spec : copy;
    samplers.push_back(
        which.factory(&pool_.scored, labels.back().get(), Rng(i)).ValueOrDie());
  }
  const OasisSetup* first = SetupOf(*samplers.front());
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->pool, &pool_.scored);
  for (const auto& sampler : samplers) EXPECT_EQ(SetupOf(*sampler), first);

  // An independently built spec prepares its own setup.
  const MethodSpec other = MakeOasisSpec(OasisOptions{}, strata_);
  LabelCache other_labels(oracle_.get());
  auto sampler =
      other.factory(&pool_.scored, &other_labels, Rng(1)).ValueOrDie();
  EXPECT_NE(SetupOf(*sampler), first);
}

TEST_F(OasisPrepareTest, SpecFactoryRejectsADifferentPool) {
  const MethodSpec spec = MakeOasisSpec(OasisOptions{}, strata_);
  LabelCache labels(oracle_.get());
  ASSERT_TRUE(spec.factory(&pool_.scored, &labels, Rng(1)).ok());

  const ScoredPool copy_of_pool = pool_.scored;  // Equal content, other pool.
  LabelCache other_labels(oracle_.get());
  const auto rejected = spec.factory(&copy_of_pool, &other_labels, Rng(2));
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
  // The bound pool still works after the rejection.
  LabelCache again(oracle_.get());
  EXPECT_TRUE(spec.factory(&pool_.scored, &again, Rng(3)).ok());
}

TEST_F(OasisPrepareTest, FailedPrepareIsReportedByEveryCall) {
  // Strata over a smaller pool: Prepare fails on the size mismatch, and
  // every later call reports that failure instead of retrying.
  auto small = std::make_shared<const Strata>(
      StratifyCsf(std::vector<double>(pool_.scored.scores.begin(),
                                      pool_.scored.scores.begin() + 500),
                  5)
          .ValueOrDie());
  const MethodSpec spec = MakeOasisSpec(OasisOptions{}, small);
  for (int i = 0; i < 3; ++i) {
    LabelCache labels(oracle_.get());
    const auto result = spec.factory(&pool_.scored, &labels, Rng(i));
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST_F(OasisPrepareTest, ConcurrentFirstCallsPrepareOnce) {
  constexpr int kCalls = 64;
  for (int round = 0; round < 4; ++round) {
    const MethodSpec spec = MakeOasisSpec(OasisOptions{}, strata_);
    std::vector<const OasisSetup*> setups(kCalls, nullptr);
    std::vector<double> estimates(kCalls, -1.0);
    std::atomic<int> failures{0};
    ThreadPool pool(4);
    pool.ParallelFor(0, kCalls, [&](int64_t i) {
      LabelCache labels(oracle_.get());
      auto sampler = spec.factory(&pool_.scored, &labels,
                                  Rng(static_cast<uint64_t>(i % 4)));
      if (!sampler.ok() || !sampler.ValueOrDie()->StepBatch(50).ok()) {
        failures.fetch_add(1);
        return;
      }
      setups[static_cast<size_t>(i)] = SetupOf(*sampler.ValueOrDie());
      estimates[static_cast<size_t>(i)] =
          sampler.ValueOrDie()->Estimate().f_alpha;
    });
    ASSERT_EQ(failures.load(), 0);
    for (int i = 0; i < kCalls; ++i) {
      EXPECT_EQ(setups[static_cast<size_t>(i)], setups[0]) << "call " << i;
      // Same seed, same setup: same run, whichever thread prepared.
      EXPECT_EQ(estimates[static_cast<size_t>(i)],
                estimates[static_cast<size_t>(i % 4)])
          << "call " << i;
    }
  }
}

}  // namespace
}  // namespace oasis
