// Property-based suites over the truth-discovery invariants the paper's
// analysis relies on: Lemma 4.4, convex-hull containment of weighted
// aggregation, and the two truth-discovery principles (closer claims <=>
// higher weight, higher weight <=> more influence).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <tuple>

#include "common/distributions.h"
#include "common/statistics.h"
#include "data/synthetic.h"
#include "testing/matrix_builders.h"
#include "truth/registry.h"

namespace dptd::truth {
namespace {

/// Lemma 4.4: for w_s = f(t_s) with f monotonically decreasing,
///   sum(w t)/sum(w) <= mean(t).
TEST(Lemma44, HoldsForRandomInputsAndDecreasingFunctions) {
  Rng rng(404);
  const auto check = [](const std::vector<double>& ts,
                        const std::vector<double>& ws) {
    const double weighted =
        weighted_mean(ts, ws);
    const double plain = mean(ts);
    EXPECT_LE(weighted, plain + 1e-9);
  };
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n = 2 + uniform_index(rng, 20);
    std::vector<double> ts(n);
    for (double& t : ts) t = uniform(rng, 0.0, 10.0);
    // Three decreasing f: 1/(1+t), exp(-t), -log(t / (sum + 1)).
    double total = 0.0;
    for (double t : ts) total += t;
    std::vector<double> w1(n);
    std::vector<double> w2(n);
    std::vector<double> w3(n);
    for (std::size_t i = 0; i < n; ++i) {
      w1[i] = 1.0 / (1.0 + ts[i]);
      w2[i] = std::exp(-ts[i]);
      w3[i] = -std::log((ts[i] + 1e-6) / (total + 1.0));
    }
    check(ts, w1);
    check(ts, w2);
    check(ts, w3);
  }
}

TEST(Lemma44, TightForConstantInputs) {
  const std::vector<double> ts = {3.0, 3.0, 3.0};
  const std::vector<double> ws = {0.5, 0.5, 0.5};
  EXPECT_DOUBLE_EQ(weighted_mean(ts, ws), mean(ts));
}

// CMake's test discovery appends each case's bytes to its ctest name, so the
// method name is held in place rather than by pointer: no byte of a case
// depends on where the build put a string, and the names are the same in
// every build.
struct MethodCase {
  char method[8];
  double lambda1;
  std::uint64_t seed;
};

class MethodPropertySweep : public ::testing::TestWithParam<MethodCase> {};

TEST_P(MethodPropertySweep, TruthsStayInsideClaimHull) {
  const MethodCase param = GetParam();
  data::SyntheticConfig config;
  config.num_users = 40;
  config.num_objects = 15;
  config.lambda1 = param.lambda1;
  config.seed = param.seed;
  const data::Dataset dataset = generate_synthetic(config);
  const auto method = make_method(param.method);
  const Result result = method->run(dataset.observations);

  for (std::size_t n = 0; n < dataset.num_objects(); ++n) {
    const std::vector<double> claims =
        testing::column_of(dataset.observations, n).values;
    const double lo = *std::min_element(claims.begin(), claims.end());
    const double hi = *std::max_element(claims.begin(), claims.end());
    EXPECT_GE(result.truths[n], lo - 1e-6) << param.method << " object " << n;
    EXPECT_LE(result.truths[n], hi + 1e-6) << param.method << " object " << n;
  }
}

TEST_P(MethodPropertySweep, WeightsAreNonNegativeAndFinite) {
  const MethodCase param = GetParam();
  data::SyntheticConfig config;
  config.num_users = 40;
  config.num_objects = 15;
  config.lambda1 = param.lambda1;
  config.seed = param.seed;
  const data::Dataset dataset = generate_synthetic(config);
  const Result result =
      make_method(param.method)->run(dataset.observations);
  for (double w : result.weights) {
    EXPECT_GE(w, 0.0) << param.method;
    EXPECT_TRUE(std::isfinite(w)) << param.method;
  }
}

TEST_P(MethodPropertySweep, DeterministicAcrossRuns) {
  const MethodCase param = GetParam();
  data::SyntheticConfig config;
  config.num_users = 30;
  config.num_objects = 10;
  config.lambda1 = param.lambda1;
  config.seed = param.seed;
  const data::Dataset dataset = generate_synthetic(config);
  const Result a = make_method(param.method)->run(dataset.observations);
  const Result b = make_method(param.method)->run(dataset.observations);
  EXPECT_EQ(a.truths, b.truths);
  EXPECT_EQ(a.weights, b.weights);
}

INSTANTIATE_TEST_SUITE_P(
    MethodsAndWorkloads, MethodPropertySweep,
    ::testing::Values(MethodCase{"crh", 0.5, 1}, MethodCase{"crh", 2.0, 2},
                      MethodCase{"crh", 8.0, 3}, MethodCase{"gtm", 0.5, 4},
                      MethodCase{"gtm", 2.0, 5}, MethodCase{"gtm", 8.0, 6},
                      MethodCase{"catd", 0.5, 7}, MethodCase{"catd", 2.0, 8},
                      MethodCase{"catd", 8.0, 9}, MethodCase{"mean", 2.0, 10},
                      MethodCase{"median", 2.0, 11}),
    [](const ::testing::TestParamInfo<MethodCase>& info) {
      return std::string(info.param.method) + "_l" +
             std::to_string(static_cast<int>(info.param.lambda1 * 10));
    });

/// Principle 1: users whose claims sit closer to the aggregate get strictly
/// higher weights under every quality-aware method.
class WeightOrderingSweep : public ::testing::TestWithParam<const char*> {};

TEST_P(WeightOrderingSweep, QualityOrderIsRespected) {
  data::ObservationMatrix obs(3, 10);
  Rng rng(55);
  for (std::size_t n = 0; n < 10; ++n) {
    const double truth = static_cast<double>(n);
    obs.set(0, n, truth + normal(rng, 0.0, 0.01));  // excellent
    obs.set(1, n, truth + normal(rng, 0.0, 0.5));   // mediocre
    obs.set(2, n, truth + normal(rng, 0.0, 4.0));   // bad
  }
  const Result result = make_method(GetParam())->run(obs);
  EXPECT_GT(result.weights[0], result.weights[1]);
  EXPECT_GT(result.weights[1], result.weights[2]);
}

INSTANTIATE_TEST_SUITE_P(QualityAwareMethods, WeightOrderingSweep,
                         ::testing::Values("crh", "gtm", "catd"));

/// Quality-aware methods never do meaningfully worse than mean aggregation
/// on heterogeneous-quality synthetic data.
class BeatsMeanSweep : public ::testing::TestWithParam<const char*> {};

TEST_P(BeatsMeanSweep, MaeAtMostMeanPlusSlack) {
  data::SyntheticConfig config;
  config.num_users = 80;
  config.num_objects = 40;
  config.lambda1 = 0.8;  // noisy population -> weighting matters
  config.seed = 31;
  const data::Dataset dataset = generate_synthetic(config);

  const Result weighted = make_method(GetParam())->run(dataset.observations);
  const Result plain = make_method("mean")->run(dataset.observations);

  const double weighted_mae =
      mean_absolute_error(weighted.truths, dataset.ground_truth);
  const double plain_mae =
      mean_absolute_error(plain.truths, dataset.ground_truth);
  EXPECT_LE(weighted_mae, plain_mae * 1.05);
}

INSTANTIATE_TEST_SUITE_P(QualityAwareMethods, BeatsMeanSweep,
                         ::testing::Values("crh", "gtm", "catd"));

}  // namespace
}  // namespace dptd::truth
