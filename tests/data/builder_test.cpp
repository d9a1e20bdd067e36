#include "data/builder.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <numeric>
#include <vector>

#include "categorical/label_matrix.h"
#include "common/rng.h"
#include "data/dataset.h"
#include "data/synthetic.h"

namespace dptd::data {
namespace {

TEST(ObservationMatrixBuilder, BuildsSimpleMatrix) {
  ObservationMatrixBuilder builder(3, 4);
  EXPECT_EQ(builder.num_users(), 3u);
  EXPECT_EQ(builder.num_objects(), 4u);

  const std::vector<std::uint64_t> objects{0, 2};
  const std::vector<double> values{1.5, -2.0};
  EXPECT_TRUE(builder.add_row(1, objects, values));
  EXPECT_TRUE(builder.has_row(1));
  EXPECT_FALSE(builder.has_row(0));
  EXPECT_EQ(builder.rows_ingested(), 1u);
  EXPECT_EQ(builder.observation_count(), 2u);

  const ObservationMatrix obs = builder.finalize();
  EXPECT_EQ(obs.num_users(), 3u);
  EXPECT_EQ(obs.num_objects(), 4u);
  EXPECT_EQ(obs.observation_count(), 2u);
  EXPECT_DOUBLE_EQ(obs.value(1, 0), 1.5);
  EXPECT_DOUBLE_EQ(obs.value(1, 2), -2.0);
  EXPECT_FALSE(obs.present(0, 0));
}

TEST(ObservationMatrixBuilder, ReshapeReusesStorageAcrossRounds) {
  // The ingestion workers' round-over-round pattern: one long-lived builder
  // serving rounds of varying participant counts. Reshape must clear all
  // ingested state and accept the new shape exactly like a fresh builder.
  ObservationMatrixBuilder builder(4, 3);
  const std::vector<std::uint64_t> objects{0, 2};
  const std::vector<double> values{1.0, 2.0};
  EXPECT_TRUE(builder.add_row(3, objects, values));

  builder.reshape(6, 5);
  EXPECT_EQ(builder.num_users(), 6u);
  EXPECT_EQ(builder.num_objects(), 5u);
  EXPECT_EQ(builder.rows_ingested(), 0u);
  EXPECT_EQ(builder.observation_count(), 0u);
  for (std::size_t u = 0; u < 6; ++u) EXPECT_FALSE(builder.has_row(u));

  // New shape is live: object 4 is now in range, user 5 exists.
  const std::vector<std::uint64_t> wide{4};
  const std::vector<double> wide_values{7.0};
  EXPECT_TRUE(builder.add_row(5, wide, wide_values));
  const ObservationMatrix obs = builder.finalize();
  EXPECT_EQ(obs.num_users(), 6u);
  EXPECT_EQ(obs.num_objects(), 5u);
  EXPECT_EQ(obs.observation_count(), 1u);
  EXPECT_DOUBLE_EQ(obs.value(5, 4), 7.0);

  // Shrinking works too, and stale rows never leak through.
  builder.reshape(2, 2);
  EXPECT_EQ(builder.rows_ingested(), 0u);
  EXPECT_THROW(builder.add_row(5, wide, wide_values), std::invalid_argument);
  EXPECT_TRUE(builder.add_row(0, {}, {}));
  EXPECT_EQ(builder.finalize().observation_count(), 0u);
}

TEST(ObservationMatrixBuilder, RejectsDuplicateUserRows) {
  ObservationMatrixBuilder builder(2, 2);
  const std::vector<std::uint64_t> objects{0};
  const std::vector<double> first{1.0};
  const std::vector<double> second{9.0};
  EXPECT_TRUE(builder.add_row(0, objects, first));
  // A re-send must be ignored wholesale: first report wins.
  EXPECT_FALSE(builder.add_row(0, objects, second));
  EXPECT_EQ(builder.rows_ingested(), 1u);
  const ObservationMatrix obs = builder.finalize();
  EXPECT_DOUBLE_EQ(obs.value(0, 0), 1.0);
}

TEST(ObservationMatrixBuilder, UnsortedAndRepeatedClaimsMatchSetSemantics) {
  // Claims within one row may arrive in any order and repeat; the result must
  // equal calling ObservationMatrix::set in the same claim order (last claim
  // per object wins).
  const std::vector<std::uint64_t> objects{3, 0, 3, 1};
  const std::vector<double> values{5.0, 1.0, 7.0, 2.0};

  ObservationMatrixBuilder builder(1, 4);
  ASSERT_TRUE(builder.add_row(0, objects, values));
  const ObservationMatrix streamed = builder.finalize();

  ObservationMatrix batch(1, 4);
  for (std::size_t i = 0; i < objects.size(); ++i) {
    batch.set(0, static_cast<std::size_t>(objects[i]), values[i]);
  }
  EXPECT_EQ(streamed, batch);
  EXPECT_DOUBLE_EQ(streamed.value(0, 3), 7.0);
}

TEST(ObservationMatrixBuilder, ValidatesInput) {
  EXPECT_THROW(ObservationMatrixBuilder(0, 1), std::invalid_argument);
  EXPECT_THROW(ObservationMatrixBuilder(1, 0), std::invalid_argument);

  ObservationMatrixBuilder builder(2, 3);
  const std::vector<std::uint64_t> objects{0};
  const std::vector<double> values{1.0};
  EXPECT_THROW(builder.add_row(2, objects, values), std::invalid_argument);
  EXPECT_THROW(builder.has_row(2), std::invalid_argument);

  const std::vector<std::uint64_t> bad_object{3};
  EXPECT_THROW(builder.add_row(0, bad_object, values), std::invalid_argument);

  const std::vector<double> bad_value{
      std::numeric_limits<double>::quiet_NaN()};
  EXPECT_THROW(builder.add_row(0, objects, bad_value), std::invalid_argument);

  const std::vector<std::uint64_t> two_objects{0, 1};
  EXPECT_THROW(builder.add_row(0, two_objects, values),
               std::invalid_argument);

  // A label outside its alphabet is a finite reading to the builder; the
  // dataset that declares the alphabet refuses it.
  ObservationMatrixBuilder labels(2, 3);
  const std::vector<double> bad_label{3.0};
  ASSERT_TRUE(labels.add_row(0, objects, bad_label));
  categorical::LabelDataset dataset{labels.finalize(), 3, {}};
  dataset.claims.set(1, 1, 0.0);
  dataset.claims.set(1, 2, 2.0);
  EXPECT_THROW(dataset.validate(), std::invalid_argument);
  dataset.claims.set(0, 0, 2.0);
  EXPECT_NO_THROW(dataset.validate());
}

TEST(ObservationMatrixBuilder, ResetAndFinalizeLeaveBuilderReusable) {
  ObservationMatrixBuilder builder(2, 2);
  const std::vector<std::uint64_t> objects{0, 1};
  const std::vector<double> values{1.0, 2.0};
  ASSERT_TRUE(builder.add_row(0, objects, values));

  builder.reset();
  EXPECT_EQ(builder.rows_ingested(), 0u);
  EXPECT_EQ(builder.observation_count(), 0u);
  EXPECT_FALSE(builder.has_row(0));

  // Round 2 on the same builder: ingestion works again, including for the
  // user whose round-1 row was discarded.
  ASSERT_TRUE(builder.add_row(0, objects, values));
  const ObservationMatrix first = builder.finalize();
  EXPECT_EQ(first.observation_count(), 2u);

  // finalize() resets too.
  EXPECT_EQ(builder.rows_ingested(), 0u);
  ASSERT_TRUE(builder.add_row(1, objects, values));
  const ObservationMatrix second = builder.finalize();
  EXPECT_EQ(second.observation_count(), 2u);
  EXPECT_FALSE(second.present(0, 0));
  EXPECT_TRUE(second.present(1, 0));
}

TEST(ObservationMatrixBuilder, FinalizedBuilderHasNoRowsAndRefillsAtItsShape) {
  // finalize() releases the per-user index; has_row answers false for every
  // user until the next round's rows re-create it at the kept shape.
  const std::size_t users = 5;
  ObservationMatrixBuilder builder(users, 3);
  const std::vector<std::vector<ObservationMatrix::Entry>> rows = {
      {{0, 1.0}, {2, 2.5}}, {}, {{1, -1.0}}, {{0, 4.0}, {1, 5.0}, {2, 6.0}},
      {}};
  for (std::size_t s = 0; s < users; ++s) {
    std::vector<std::uint64_t> objects;
    std::vector<double> values;
    for (const auto& e : rows[s]) {
      objects.push_back(e.object);
      values.push_back(e.value);
    }
    ASSERT_TRUE(builder.add_row(s, objects, values));
  }
  EXPECT_EQ(builder.finalize(), ObservationMatrix::from_rows(rows, 3));

  EXPECT_EQ(builder.num_users(), users);
  EXPECT_EQ(builder.num_objects(), 3u);
  for (std::size_t s = 0; s < users; ++s) EXPECT_FALSE(builder.has_row(s));
  EXPECT_THROW(builder.has_row(users), std::invalid_argument);

  // The next round, in another order, with a re-send and an absent user.
  const std::vector<std::uint64_t> objects{2, 0};
  ASSERT_TRUE(builder.add_row(3, objects, std::vector<double>{7.0, 8.0}));
  EXPECT_FALSE(builder.add_row(3, {}, {}));
  ASSERT_TRUE(builder.add_row(0, {}, {}));
  EXPECT_TRUE(builder.has_row(3));
  EXPECT_FALSE(builder.has_row(1));
  EXPECT_EQ(builder.rows_ingested(), 2u);
  EXPECT_EQ(builder.finalize(),
            ObservationMatrix::from_rows({{}, {}, {}, {{0, 8.0}, {2, 7.0}}, {}},
                                         3));

  // A round with no row at all still finalizes at the kept shape.
  const ObservationMatrix empty = builder.finalize();
  EXPECT_EQ(empty.num_users(), users);
  EXPECT_EQ(empty.observation_count(), 0u);
}

TEST(ObservationMatrixBuilder, EmptyRowCountsAsIngested) {
  ObservationMatrixBuilder builder(2, 2);
  EXPECT_TRUE(builder.add_row(0, {}, {}));
  EXPECT_TRUE(builder.has_row(0));
  EXPECT_EQ(builder.rows_ingested(), 1u);
  EXPECT_FALSE(builder.add_row(0, {}, {}));
  const ObservationMatrix obs = builder.finalize();
  EXPECT_EQ(obs.observation_count(), 0u);
}

TEST(ObservationMatrixBuilder, StreamingMatchesBatchBitwise) {
  // The headline equivalence: a synthetic matrix re-assembled row-by-row in
  // a scrambled arrival order is bitwise identical to the batch original.
  SyntheticConfig config;
  config.num_users = 60;
  config.num_objects = 25;
  config.missing_rate = 0.4;
  config.seed = 2024;
  const Dataset dataset = generate_synthetic(config);
  const ObservationMatrix& batch = dataset.observations;

  std::vector<std::size_t> arrival(config.num_users);
  std::iota(arrival.begin(), arrival.end(), 0u);
  Rng rng(99);
  for (std::size_t i = arrival.size(); i > 1; --i) {
    std::swap(arrival[i - 1], arrival[rng.next() % i]);
  }

  ObservationMatrixBuilder builder(config.num_users, config.num_objects);
  for (const std::size_t user : arrival) {
    std::vector<std::uint64_t> objects;
    std::vector<double> values;
    for (const auto& e : batch.user_entries(user)) {
      objects.push_back(e.object);
      values.push_back(e.value);
    }
    ASSERT_TRUE(builder.add_row(user, objects, values));
  }
  const ObservationMatrix streamed = builder.finalize();

  EXPECT_EQ(streamed, batch);
}

TEST(ObservationMatrixFromRows, ValidatesRows) {
  using Entry = ObservationMatrix::Entry;
  {
    std::vector<std::vector<Entry>> rows{{{0, 1.0}, {2, 2.0}}};
    const ObservationMatrix obs = ObservationMatrix::from_rows(rows, 3);
    EXPECT_EQ(obs.num_users(), 1u);
    EXPECT_EQ(obs.observation_count(), 2u);
    EXPECT_EQ(obs.object_observation_count(2), 1u);
  }
  {
    std::vector<std::vector<Entry>> rows{{{3, 1.0}}};
    EXPECT_THROW(ObservationMatrix::from_rows(std::move(rows), 3),
                 std::invalid_argument);
  }
  {
    std::vector<std::vector<Entry>> unsorted{{{2, 1.0}, {0, 2.0}}};
    EXPECT_THROW(ObservationMatrix::from_rows(std::move(unsorted), 3),
                 std::invalid_argument);
  }
  {
    std::vector<std::vector<Entry>> duplicate{{{1, 1.0}, {1, 2.0}}};
    EXPECT_THROW(ObservationMatrix::from_rows(std::move(duplicate), 3),
                 std::invalid_argument);
  }
  {
    // Label-id readings from rows: a label outside the alphabet, or a value
    // that is no label id at all, fails the dataset that declares it.
    for (const double bad : {3.0, 1.5, -1.0}) {
      std::vector<std::vector<Entry>> rows{{{0, 1.0}, {1, 2.0}, {2, bad}}};
      categorical::LabelDataset dataset{
          ObservationMatrix::from_rows(std::move(rows), 3), 3, {}};
      EXPECT_THROW(dataset.validate(), std::invalid_argument) << bad;
      dataset.claims.set(0, 2, 0.0);
      EXPECT_NO_THROW(dataset.validate()) << bad;
    }
  }
}

}  // namespace
}  // namespace dptd::data
