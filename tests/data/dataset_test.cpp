#include "data/dataset.h"

#include <gtest/gtest.h>

#include <span>
#include <stdexcept>
#include <vector>

#include "data/sharding.h"
#include "truth/sharded_stats.h"

namespace dptd::data {
namespace {

TEST(ObservationMatrix, StartsEmpty) {
  const ObservationMatrix obs(3, 4);
  EXPECT_EQ(obs.num_users(), 3u);
  EXPECT_EQ(obs.num_objects(), 4u);
  EXPECT_EQ(obs.observation_count(), 0u);
  EXPECT_FALSE(obs.present(0, 0));
  EXPECT_FALSE(obs.get(2, 3).has_value());
}

TEST(ObservationMatrix, SetGetClear) {
  ObservationMatrix obs(2, 2);
  obs.set(0, 1, 3.5);
  EXPECT_TRUE(obs.present(0, 1));
  EXPECT_DOUBLE_EQ(obs.value(0, 1), 3.5);
  EXPECT_EQ(obs.observation_count(), 1u);
  obs.clear(0, 1);
  EXPECT_FALSE(obs.present(0, 1));
  EXPECT_EQ(obs.observation_count(), 0u);
}

TEST(ObservationMatrix, OverwriteKeepsSingleCount) {
  ObservationMatrix obs(1, 1);
  obs.set(0, 0, 1.0);
  obs.set(0, 0, 2.0);
  EXPECT_EQ(obs.observation_count(), 1u);
  EXPECT_DOUBLE_EQ(obs.value(0, 0), 2.0);
}

TEST(ObservationMatrix, BoundsChecking) {
  ObservationMatrix obs(2, 3);
  EXPECT_THROW(obs.set(2, 0, 1.0), std::invalid_argument);
  EXPECT_THROW(obs.set(0, 3, 1.0), std::invalid_argument);
  EXPECT_THROW(obs.present(5, 0), std::invalid_argument);
  EXPECT_THROW((void)obs.value(0, 9), std::invalid_argument);
}

TEST(ObservationMatrix, ReadingMissingCellThrows) {
  const ObservationMatrix obs(1, 1);
  EXPECT_THROW((void)obs.value(0, 0), std::invalid_argument);
}

TEST(ObservationMatrix, RejectsNonFiniteValues) {
  ObservationMatrix obs(1, 1);
  EXPECT_THROW(obs.set(0, 0, std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
  EXPECT_THROW(obs.set(0, 0, std::numeric_limits<double>::infinity()),
               std::invalid_argument);
}

TEST(ObservationMatrix, RejectsEmptyDimensions) {
  EXPECT_THROW(ObservationMatrix(0, 3), std::invalid_argument);
  EXPECT_THROW(ObservationMatrix(3, 0), std::invalid_argument);
}

TEST(ObservationMatrix, PerUserAndPerObjectCounts) {
  ObservationMatrix obs(3, 2);
  obs.set(0, 0, 1.0);
  obs.set(0, 1, 2.0);
  obs.set(2, 1, 3.0);
  EXPECT_EQ(obs.user_observation_count(0), 2u);
  EXPECT_EQ(obs.user_observation_count(1), 0u);
  EXPECT_EQ(obs.user_observation_count(2), 1u);
  EXPECT_EQ(obs.object_observation_count(0), 1u);
  EXPECT_EQ(obs.object_observation_count(1), 2u);
}

TEST(ObservationMatrix, ObjectValuesOrderedByUser) {
  ObservationMatrix obs(3, 1);
  obs.set(2, 0, 30.0);
  obs.set(0, 0, 10.0);
  const truth::GatheredColumns columns =
      truth::gather_object_values(ShardedMatrix::single(obs));
  const std::span<const double> column = columns.column(0);
  EXPECT_EQ(std::vector<double>(column.begin(), column.end()),
            (std::vector<double>{10.0, 30.0}));
}

TEST(ObservationMatrix, UserValuesOrderedByObject) {
  ObservationMatrix obs(1, 3);
  obs.set(0, 2, 3.0);
  obs.set(0, 0, 1.0);
  EXPECT_EQ(obs.user_values(0), (std::vector<double>{1.0, 3.0}));
}

TEST(ObservationMatrix, ForEachVisitsOnlyPresentCells) {
  ObservationMatrix obs(2, 2);
  obs.set(0, 0, 1.0);
  obs.set(1, 1, 4.0);
  double sum = 0.0;
  std::size_t visits = 0;
  obs.for_each([&](std::size_t, std::size_t, double v) {
    sum += v;
    ++visits;
  });
  EXPECT_EQ(visits, 2u);
  EXPECT_DOUBLE_EQ(sum, 5.0);
}

TEST(ObservationMatrix, TransformedAppliesFunctionAndKeepsMask) {
  ObservationMatrix obs(2, 2);
  obs.set(0, 0, 1.0);
  obs.set(1, 1, 2.0);
  const ObservationMatrix doubled = obs.transformed(
      [](std::size_t, std::size_t, double v) { return v * 2.0; });
  EXPECT_DOUBLE_EQ(doubled.value(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(doubled.value(1, 1), 4.0);
  EXPECT_FALSE(doubled.present(0, 1));
  EXPECT_EQ(doubled.observation_count(), 2u);
}

TEST(ObservationMatrix, EqualityComparesValuesAndMask) {
  ObservationMatrix a(1, 2);
  ObservationMatrix b(1, 2);
  a.set(0, 0, 1.0);
  b.set(0, 0, 1.0);
  EXPECT_EQ(a, b);
  b.set(0, 1, 9.0);
  EXPECT_NE(a, b);
}

TEST(Dataset, ValidateAcceptsConsistentDataset) {
  Dataset dataset;
  dataset.observations = ObservationMatrix(2, 2);
  dataset.observations.set(0, 0, 1.0);
  dataset.observations.set(1, 1, 2.0);
  dataset.observations.set(0, 1, 3.0);
  dataset.observations.set(1, 0, 4.0);
  dataset.ground_truth = {1.0, 2.0};
  EXPECT_NO_THROW(dataset.validate());
}

TEST(Dataset, ValidateRejectsTruthSizeMismatch) {
  Dataset dataset;
  dataset.observations = ObservationMatrix(1, 2);
  dataset.observations.set(0, 0, 1.0);
  dataset.observations.set(0, 1, 1.0);
  dataset.ground_truth = {1.0};  // should be 2
  EXPECT_THROW(dataset.validate(), std::invalid_argument);
}

TEST(Dataset, ValidateRejectsUncoveredObject) {
  Dataset dataset;
  dataset.observations = ObservationMatrix(2, 2);
  dataset.observations.set(0, 0, 1.0);  // object 1 has no claims
  EXPECT_THROW(dataset.validate(), std::invalid_argument);
}

TEST(Dataset, ValidateRejectsProvenanceSizeMismatch) {
  Dataset dataset;
  dataset.observations = ObservationMatrix(2, 1);
  dataset.observations.set(0, 0, 1.0);
  dataset.observations.set(1, 0, 2.0);
  dataset.provenance.resize(1);  // should be 2
  EXPECT_THROW(dataset.validate(), std::invalid_argument);
}

TEST(Dataset, DescribeMentionsShapeAndCoverage) {
  Dataset dataset;
  dataset.observations = ObservationMatrix(2, 2);
  dataset.observations.set(0, 0, 1.0);
  dataset.ground_truth = {1.0, 2.0};
  const std::string text = describe(dataset);
  EXPECT_NE(text.find("2 users"), std::string::npos);
  EXPECT_NE(text.find("2 objects"), std::string::npos);
  EXPECT_NE(text.find("ground truth: yes"), std::string::npos);
}

}  // namespace
}  // namespace dptd::data
