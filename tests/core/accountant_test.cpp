#include "core/accountant.h"

#include <gtest/gtest.h>

#include <cmath>
#include <ostream>

#include "core/bounds.h"

namespace dptd::core {
namespace {

TEST(PrivacyBound, MatchesHandComputation) {
  // c >= lambda1 Delta^2 / (2 eps ln(1/(1-delta))).
  const PrivacyTarget target{1.0, 0.3};
  const double lambda1 = 2.0;
  const double delta_s = 0.8;
  const double expected =
      lambda1 * delta_s * delta_s / (2.0 * 1.0 * std::log(1.0 / 0.7));
  EXPECT_NEAR(min_noise_level_for_privacy(target, lambda1, delta_s), expected,
              1e-12);
}

TEST(PrivacyBound, PaperPrintedFormRecoveredAtEpsilonOne) {
  // With eps = 1 the implementation reduces to the paper's printed
  // c >= gamma^2 / (2 lambda1 ln(1/(1-delta))) when Delta = gamma/lambda1.
  const SensitivityParams params{1.5, 0.8};
  const double lambda1 = 2.0;
  const double delta = 0.25;
  const double gamma = gamma_s(params);
  const double printed =
      gamma * gamma / (2.0 * lambda1 * std::log(1.0 / (1.0 - delta)));
  EXPECT_NEAR(
      min_noise_level_for_privacy(PrivacyTarget{1.0, delta}, lambda1, params),
      printed, 1e-12);
}

TEST(PrivacyBound, StrongerPrivacyNeedsMoreNoise) {
  const double lambda1 = 2.0;
  const double sens = 1.0;
  // Smaller epsilon -> larger c.
  EXPECT_GT(min_noise_level_for_privacy({0.5, 0.3}, lambda1, sens),
            min_noise_level_for_privacy({1.0, 0.3}, lambda1, sens));
  // Smaller delta -> larger c.
  EXPECT_GT(min_noise_level_for_privacy({1.0, 0.1}, lambda1, sens),
            min_noise_level_for_privacy({1.0, 0.5}, lambda1, sens));
}

TEST(PrivacyBound, LemmaSensitivityShrinksWithLambda1) {
  // Via Lemma 4.7, Delta = gamma/lambda1, so c_min ~ 1/lambda1.
  const SensitivityParams params{1.0, 0.5};
  const double at1 =
      min_noise_level_for_privacy(PrivacyTarget{1.0, 0.3}, 1.0, params);
  const double at4 =
      min_noise_level_for_privacy(PrivacyTarget{1.0, 0.3}, 4.0, params);
  EXPECT_NEAR(at1 / at4, 4.0, 1e-9);
}

TEST(AchievedEpsilon, InvertsMinNoiseLevel) {
  const double lambda1 = 2.0;
  const double sens = 0.7;
  const double delta = 0.2;
  for (double eps : {0.25, 1.0, 3.0}) {
    const double c =
        min_noise_level_for_privacy({eps, delta}, lambda1, sens);
    EXPECT_NEAR(achieved_epsilon(c, lambda1, sens, delta), eps, 1e-10);
  }
}

TEST(AchievedEpsilon, MoreNoiseMeansStrongerPrivacy) {
  EXPECT_GT(achieved_epsilon(1.0, 2.0, 1.0, 0.3),
            achieved_epsilon(4.0, 2.0, 1.0, 0.3));
}

TEST(UtilityBound, DelegatesToEquation15) {
  const UtilityTarget target{1.0, 0.1};
  EXPECT_DOUBLE_EQ(max_noise_level_for_utility(target, 2.0, 100),
                   utility_noise_upper_bound(2.0, 1.0, 0.1, 100));
}

TEST(NoiseWindow, FeasibleForGenerousTargets) {
  // Many users + loose utility + weak-ish privacy leaves a wide window.
  const NoiseWindow window = feasible_noise_window(
      UtilityTarget{1.0, 0.2}, PrivacyTarget{1.0, 0.3}, 2.0, 500,
      SensitivityParams{1.0, 0.5});
  EXPECT_TRUE(window.feasible);
  EXPECT_GT(window.c_max, window.c_min);
  EXPECT_GT(window.c_min, 0.0);
}

TEST(NoiseWindow, InfeasibleForContradictoryTargets) {
  // Brutal privacy (tiny eps and delta) with tight utility and few users.
  const NoiseWindow window = feasible_noise_window(
      UtilityTarget{0.05, 0.01}, PrivacyTarget{0.001, 0.01}, 0.5, 3,
      SensitivityParams{4.0, 0.99});
  EXPECT_FALSE(window.feasible);
  EXPECT_GT(window.c_min, window.c_max);
}

TEST(NoiseWindow, MoreUsersWidenTheWindow) {
  const UtilityTarget utility{0.5, 0.1};
  const PrivacyTarget privacy{1.0, 0.3};
  const NoiseWindow small = feasible_noise_window(utility, privacy, 2.0, 10);
  const NoiseWindow large =
      feasible_noise_window(utility, privacy, 2.0, 1000);
  EXPECT_EQ(small.c_min, large.c_min);  // privacy bound ignores S
  EXPECT_GT(large.c_max, small.c_max);
}

TEST(Lambda2Conversions, RoundTrip) {
  const double lambda1 = 2.0;
  for (double c : {0.1, 1.0, 7.5}) {
    const double lambda2 = lambda2_for_noise_level(c, lambda1);
    EXPECT_NEAR(noise_level_for_lambda2(lambda2, lambda1), c, 1e-12);
  }
}

TEST(Lambda2Conversions, DefinitionHolds) {
  // c = lambda1/lambda2 = E[noise var]/E[error var].
  EXPECT_DOUBLE_EQ(lambda2_for_noise_level(4.0, 2.0), 0.5);
  EXPECT_DOUBLE_EQ(noise_level_for_lambda2(0.5, 2.0), 4.0);
}

TEST(Accountant, RejectsBadArguments) {
  EXPECT_THROW(min_noise_level_for_privacy({0.0, 0.3}, 1.0, 1.0),
               std::invalid_argument);
  EXPECT_THROW(min_noise_level_for_privacy({1.0, 0.0}, 1.0, 1.0),
               std::invalid_argument);
  EXPECT_THROW(min_noise_level_for_privacy({1.0, 1.0}, 1.0, 1.0),
               std::invalid_argument);
  EXPECT_THROW(min_noise_level_for_privacy({1.0, 0.3}, 0.0, 1.0),
               std::invalid_argument);
  EXPECT_THROW(min_noise_level_for_privacy({1.0, 0.3}, 1.0, 0.0),
               std::invalid_argument);
  EXPECT_THROW(achieved_epsilon(0.0, 1.0, 1.0, 0.3), std::invalid_argument);
  EXPECT_THROW(lambda2_for_noise_level(0.0, 1.0), std::invalid_argument);
  EXPECT_THROW(noise_level_for_lambda2(1.0, 0.0), std::invalid_argument);
}

/// Theorem 4.9 sweep: the window must close as privacy tightens and open as
/// the user base grows.
struct WindowCase {
  double epsilon;
  std::size_t users;
  bool expect_feasible;
};

/// CMake's test discovery names each case by its printed value, e.g.
/// `Grid/WindowSweep.FeasibilityMatchesExpectation/eps0.0001_users5`.
/// Without this gtest prints the struct's bytes, padding included, and the
/// names change from build to build. A gtest name generator alone would not
/// help: discovery keeps the printed value after any name that is not an
/// index.
void PrintTo(const WindowCase& c, std::ostream* os) {
  *os << "eps" << c.epsilon << "_users" << c.users;
}

class WindowSweep : public ::testing::TestWithParam<WindowCase> {};

TEST_P(WindowSweep, FeasibilityMatchesExpectation) {
  const WindowCase param = GetParam();
  const NoiseWindow window = feasible_noise_window(
      UtilityTarget{0.5, 0.1}, PrivacyTarget{param.epsilon, 0.3}, 2.0,
      param.users, SensitivityParams{1.0, 0.5});
  EXPECT_EQ(window.feasible, param.expect_feasible)
      << "eps=" << param.epsilon << " S=" << param.users
      << " c_min=" << window.c_min << " c_max=" << window.c_max;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, WindowSweep,
    ::testing::Values(WindowCase{1.0, 100, true}, WindowCase{1.0, 10, true},
                      WindowCase{1e-4, 5, false},
                      WindowCase{1e-4, 100000, true},
                      WindowCase{0.01, 1000, true}));

}  // namespace
}  // namespace dptd::core
