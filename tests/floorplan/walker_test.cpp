#include "floorplan/walker.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/statistics.h"
#include "testing/matrix_builders.h"

namespace dptd::floorplan {
namespace {

TEST(Walker, WellCalibratedUserReportsNearTruth) {
  WalkerProfile profile;
  profile.true_step_m = 0.7;
  profile.calibrated_step_m = 0.7;
  profile.stride_stddev_m = 0.01;
  profile.miscount_rate = 0.0;
  Rng rng(1);
  RunningStats stats;
  for (int i = 0; i < 2000; ++i) stats.add(walk_segment(profile, 20.0, rng));
  EXPECT_NEAR(stats.mean(), 20.0, 0.5);
}

TEST(Walker, MiscalibrationBiasesReportsMultiplicatively) {
  WalkerProfile profile;
  profile.true_step_m = 0.7;
  profile.calibrated_step_m = 0.7 * 1.2;  // believes strides are 20% longer
  profile.stride_stddev_m = 0.01;
  profile.miscount_rate = 0.0;
  Rng rng(2);
  RunningStats stats;
  for (int i = 0; i < 2000; ++i) stats.add(walk_segment(profile, 30.0, rng));
  EXPECT_NEAR(stats.mean(), 36.0, 1.0);  // 30 * 1.2
}

TEST(Walker, MiscountingAddsVariance) {
  WalkerProfile quiet;
  quiet.miscount_rate = 0.0;
  quiet.stride_stddev_m = 0.0;
  WalkerProfile noisy = quiet;
  noisy.miscount_rate = 0.2;
  Rng rng1(3);
  Rng rng2(3);
  RunningStats a;
  RunningStats b;
  for (int i = 0; i < 2000; ++i) {
    a.add(walk_segment(quiet, 25.0, rng1));
    b.add(walk_segment(noisy, 25.0, rng2));
  }
  EXPECT_GT(b.variance(), a.variance());
}

TEST(Walker, ReportsArePositive) {
  WalkerProfile profile;
  Rng rng(4);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GT(walk_segment(profile, 0.5, rng), 0.0);
  }
}

TEST(Walker, RejectsNonPositiveLength) {
  WalkerProfile profile;
  Rng rng(5);
  EXPECT_THROW(walk_segment(profile, 0.0, rng), std::invalid_argument);
}

TEST(Profiles, OutliersHaveWiderCalibrationSpread) {
  WalkerPopulation population;
  Rng rng(6);
  RunningStats normal_bias;
  RunningStats outlier_bias;
  for (int i = 0; i < 3000; ++i) {
    const WalkerProfile n = sample_profile(population, rng, false);
    const WalkerProfile o = sample_profile(population, rng, true);
    normal_bias.add(std::abs(n.calibrated_step_m / n.true_step_m - 1.0));
    outlier_bias.add(std::abs(o.calibrated_step_m / o.true_step_m - 1.0));
  }
  EXPECT_GT(outlier_bias.mean(), 2.0 * normal_bias.mean());
}

TEST(Scenario, PaperScaleShape) {
  FloorplanScenarioConfig config;  // 247 x 129 defaults
  const FloorplanScenario scenario = generate_floorplan_scenario(config);
  EXPECT_EQ(scenario.dataset.num_users(), 247u);
  EXPECT_EQ(scenario.dataset.num_objects(), 129u);
  EXPECT_EQ(scenario.profiles.size(), 247u);
  EXPECT_EQ(scenario.dataset.ground_truth, scenario.map.lengths());
  EXPECT_NO_THROW(scenario.dataset.validate());
}

TEST(Scenario, DeterministicInSeed) {
  FloorplanScenarioConfig config;
  config.num_users = 30;
  config.num_segments = 20;
  const FloorplanScenario a = generate_floorplan_scenario(config);
  const FloorplanScenario b = generate_floorplan_scenario(config);
  EXPECT_EQ(a.dataset.observations, b.dataset.observations);
}

TEST(Scenario, ReportsCorrelateWithTruth) {
  FloorplanScenarioConfig config;
  config.num_users = 50;
  config.num_segments = 40;
  const FloorplanScenario scenario = generate_floorplan_scenario(config);
  // Mean reported distance per segment must track the true length closely.
  for (std::size_t n = 0; n < 40; ++n) {
    const double truth = scenario.map.segment(n).length_m;
    const double reported = dptd::mean(
        testing::column_of(scenario.dataset.observations, n).values);
    EXPECT_NEAR(reported, truth, 0.25 * truth + 1.0) << "segment " << n;
  }
}

TEST(Scenario, PartialCoverageKeepsEverySegmentObserved) {
  FloorplanScenarioConfig config;
  config.num_users = 25;
  config.num_segments = 60;
  config.coverage = 0.1;
  const FloorplanScenario scenario = generate_floorplan_scenario(config);
  for (std::size_t n = 0; n < 60; ++n) {
    EXPECT_GE(scenario.dataset.observations.object_observation_count(n), 1u);
  }
}

TEST(Scenario, CoverageParameterControlsDensity) {
  FloorplanScenarioConfig dense;
  dense.num_users = 40;
  dense.num_segments = 30;
  dense.coverage = 1.0;
  FloorplanScenarioConfig sparse = dense;
  sparse.coverage = 0.3;
  const auto d = generate_floorplan_scenario(dense);
  const auto s = generate_floorplan_scenario(sparse);
  EXPECT_GT(d.dataset.observations.observation_count(),
            2u * s.dataset.observations.observation_count());
}

TEST(Scenario, RejectsBadConfig) {
  FloorplanScenarioConfig config;
  config.coverage = 0.0;
  EXPECT_THROW(generate_floorplan_scenario(config), std::invalid_argument);
  config = {};
  config.num_users = 0;
  EXPECT_THROW(generate_floorplan_scenario(config), std::invalid_argument);
}

/// Heterogeneous quality is the point of the scenario: per-user error spread
/// must vary widely across the population.
TEST(Scenario, UserQualityIsHeterogeneous) {
  FloorplanScenarioConfig config;
  config.num_users = 100;
  config.num_segments = 60;
  const FloorplanScenario scenario = generate_floorplan_scenario(config);
  std::vector<double> user_mae;
  for (std::size_t s = 0; s < 100; ++s) {
    RunningStats err;
    for (std::size_t n = 0; n < 60; ++n) {
      if (const auto v = scenario.dataset.observations.get(s, n)) {
        err.add(std::abs(*v - scenario.dataset.ground_truth[n]));
      }
    }
    user_mae.push_back(err.mean());
  }
  const double best = *std::min_element(user_mae.begin(), user_mae.end());
  const double worst = *std::max_element(user_mae.begin(), user_mae.end());
  EXPECT_GT(worst, 3.0 * best);
}

}  // namespace
}  // namespace dptd::floorplan
