// DegeneracyMonitor tests:
//  * the Kish ESS and max-weight-share math against closed forms;
//  * the min-observations gate, both trigger conditions, Reset, Summary.

#include <gtest/gtest.h>

#include <string>

#include "stats/degeneracy.h"

namespace oasis {
namespace {

// --- DegeneracyMonitor unit behaviour -------------------------------------

TEST(DegeneracyMonitorTest, UniformWeightsAreHealthy) {
  DegeneracyMonitor monitor;
  for (int i = 0; i < 100; ++i) monitor.Observe(1.0);
  EXPECT_EQ(monitor.observations(), 100);
  EXPECT_DOUBLE_EQ(monitor.ess(), 100.0);
  EXPECT_DOUBLE_EQ(monitor.ess_fraction(), 1.0);
  EXPECT_DOUBLE_EQ(monitor.max_weight_share(), 0.01);
  EXPECT_FALSE(monitor.degenerate());
}

TEST(DegeneracyMonitorTest, KishEssMatchesClosedForm) {
  DegeneracyMonitor monitor;
  for (const double w : {1.0, 2.0, 3.0, 4.0}) monitor.Observe(w);
  // ESS = (1+2+3+4)^2 / (1+4+9+16) = 100 / 30.
  EXPECT_DOUBLE_EQ(monitor.ess(), 100.0 / 30.0);
  EXPECT_DOUBLE_EQ(monitor.max_weight_share(), 0.4);
  EXPECT_EQ(monitor.observations(), 4);
}

TEST(DegeneracyMonitorTest, ZeroHistoryReportsZeroEss) {
  DegeneracyMonitor monitor;
  EXPECT_DOUBLE_EQ(monitor.ess(), 0.0);
  EXPECT_DOUBLE_EQ(monitor.ess_fraction(), 0.0);
  EXPECT_DOUBLE_EQ(monitor.max_weight_share(), 0.0);
  EXPECT_FALSE(monitor.degenerate());
  // All-zero weights (possible in principle) stay well-defined too.
  monitor.Observe(0.0);
  EXPECT_DOUBLE_EQ(monitor.ess(), 0.0);
  EXPECT_DOUBLE_EQ(monitor.max_weight_share(), 0.0);
}

TEST(DegeneracyMonitorTest, SingleDominantWeightTripsTailMonitor) {
  DegeneracyOptions options;
  options.min_observations = 50;
  DegeneracyMonitor monitor(options);
  for (int i = 0; i < 99; ++i) monitor.Observe(1e-6);
  monitor.Observe(1.0);  // One draw carries essentially all the mass.
  EXPECT_GT(monitor.max_weight_share(), options.tail_mass_ceiling);
  EXPECT_LT(monitor.ess(), 1.5);
  EXPECT_TRUE(monitor.degenerate());
}

TEST(DegeneracyMonitorTest, EssFloorTripsOnCollapse) {
  DegeneracyOptions options;
  options.min_observations = 10;
  options.ess_floor_fraction = 0.02;
  options.tail_mass_ceiling = 2.0;  // Tail monitor can never fire.
  DegeneracyMonitor monitor(options);
  // 1000 tiny weights and 10 huge ones: ESS ~ 10, fraction ~ 0.01 < 0.02.
  for (int i = 0; i < 1000; ++i) monitor.Observe(1e-8);
  for (int i = 0; i < 10; ++i) monitor.Observe(1.0);
  EXPECT_LT(monitor.ess_fraction(), options.ess_floor_fraction);
  EXPECT_TRUE(monitor.degenerate());
}

TEST(DegeneracyMonitorTest, MinObservationsGatesTheTrigger) {
  DegeneracyOptions options;
  options.min_observations = 64;
  DegeneracyMonitor monitor(options);
  monitor.Observe(1.0);
  for (int i = 0; i < 62; ++i) {
    monitor.Observe(1e-9);
    EXPECT_FALSE(monitor.degenerate()) << "observation " << i;
  }
  monitor.Observe(1e-9);  // 64th observation: the gate lifts.
  EXPECT_TRUE(monitor.degenerate());
}

TEST(DegeneracyMonitorTest, ResetForgetsHistoryKeepsThresholds) {
  DegeneracyOptions options;
  options.min_observations = 2;
  DegeneracyMonitor monitor(options);
  monitor.Observe(1.0);
  monitor.Observe(1e-9);
  ASSERT_TRUE(monitor.degenerate());
  monitor.Reset();
  EXPECT_EQ(monitor.observations(), 0);
  EXPECT_DOUBLE_EQ(monitor.ess(), 0.0);
  EXPECT_FALSE(monitor.degenerate());
  EXPECT_EQ(monitor.options().min_observations, 2);
}

TEST(DegeneracyMonitorTest, SummaryMentionsDegeneracy) {
  DegeneracyOptions options;
  options.min_observations = 2;
  DegeneracyMonitor monitor(options);
  monitor.Observe(1.0);
  EXPECT_NE(monitor.Summary().find("ess="), std::string::npos);
  EXPECT_EQ(monitor.Summary().find("degenerate"), std::string::npos);
  monitor.Observe(1e-9);
  monitor.Observe(1e-9);
  EXPECT_NE(monitor.Summary().find("degenerate"), std::string::npos)
      << monitor.Summary();
}

}  // namespace
}  // namespace oasis
