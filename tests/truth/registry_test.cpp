#include "truth/registry.h"

#include <gtest/gtest.h>

#include <stdexcept>

namespace dptd::truth {
namespace {

TEST(Registry, BuildsEveryAdvertisedMethod) {
  for (const std::string& name : method_names()) {
    const auto method = make_method(name);
    ASSERT_NE(method, nullptr) << name;
    EXPECT_EQ(method->name(), name);
  }
}

TEST(Registry, AdvertisesExpectedMethods) {
  const auto names = method_names();
  EXPECT_EQ(names.size(), 5u);
  EXPECT_NE(std::find(names.begin(), names.end(), "crh"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "gtm"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "catd"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "mean"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "median"), names.end());
}

TEST(Registry, UnknownNameThrows) {
  EXPECT_THROW(make_method("truthfinder"), std::invalid_argument);
  EXPECT_THROW(make_method(""), std::invalid_argument);
  // The votes need an alphabet a name cannot carry: they are built directly.
  EXPECT_THROW(make_method("majority"), std::invalid_argument);
  EXPECT_THROW(make_method("vote"), std::invalid_argument);
}

TEST(Registry, PassesConvergenceCriteria) {
  ConvergenceCriteria convergence;
  convergence.max_iterations = 1;
  convergence.tolerance = 1e-300;
  const auto method = make_method("crh", convergence);

  data::ObservationMatrix obs(2, 1);
  obs.set(0, 0, 1.0);
  obs.set(1, 0, 2.0);
  const Result result = method->run(obs);
  EXPECT_EQ(result.iterations, 1u);
}

TEST(Registry, MethodsRunOnSharedMatrix) {
  data::ObservationMatrix obs(3, 2);
  obs.set(0, 0, 1.0);
  obs.set(1, 0, 1.2);
  obs.set(2, 0, 0.8);
  obs.set(0, 1, 5.0);
  obs.set(1, 1, 5.5);
  obs.set(2, 1, 4.5);
  for (const std::string& name : method_names()) {
    const auto method = make_method(name);
    const Result result = method->run(obs);
    EXPECT_EQ(result.truths.size(), 2u) << name;
    EXPECT_EQ(result.weights.size(), 3u) << name;
  }
}

}  // namespace
}  // namespace dptd::truth
