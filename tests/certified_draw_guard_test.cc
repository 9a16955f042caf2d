// The fused step's certified draw keeps deciding on the paper's default
// configuration. A slip in CertifiedMixtureDraw that leaves draws undecided
// changes no curve (every undecided draw falls back to the exact O(K) pass,
// which picks the same stratum), so only this count can show it: the run
// below, stripe-f90 at K = 30 on the fused path, must take no exact draw.

#include <gtest/gtest.h>

#include <memory>

#include "datagen/scenario.h"
#include "experiments/runner.h"
#include "experiments/scenario_run.h"
#include "telemetry/telemetry.h"

namespace oasis {
namespace {

#if !defined(OASIS_TELEMETRY_DISABLED)
int64_t CounterTotal(const char* name) {
  return telemetry::DefaultRegistry().CounterFamilyTotal(name);
}

TEST(CertifiedDrawGuardTest, DefaultConfigurationTakesNoExactDraw) {
  const datagen::ScenarioPool pool =
      datagen::GenerateScenario(
          datagen::ScenarioByName("stripe-f90").ValueOrDie())
          .ValueOrDie();
  const std::unique_ptr<Oracle> oracle =
      datagen::MakeScenarioOracle(pool).ValueOrDie();
  const experiments::MethodSpec method =
      experiments::MakeMethodByName("oasis", pool.spec.alpha, pool.scored, 30,
                                    "fused")
          .ValueOrDie();

  experiments::RunnerOptions options;
  options.repeats = 50;
  options.trajectory.budget = 5000;
  options.trajectory.checkpoint_every = 250;
  options.base_seed = 7;
  options.num_threads = 2;
  options.telemetry.enable = true;

  const int64_t steps_before = CounterTotal("oasis_sampler_steps_total");
  const int64_t exact_before =
      CounterTotal("oasis_sampler_fused_exact_draws_total");
  ASSERT_TRUE(experiments::RunErrorCurve(method, pool.scored, *oracle,
                                         pool.true_f, options)
                  .ok());
  // CounterFamilyTotal reads 0 for a family nothing registered, so an
  // absent exact-draw counter passes too.
  EXPECT_GT(CounterTotal("oasis_sampler_steps_total"), steps_before);
  EXPECT_EQ(CounterTotal("oasis_sampler_fused_exact_draws_total"),
            exact_before);
}
#endif

}  // namespace
}  // namespace oasis
