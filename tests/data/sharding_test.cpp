// ShardPlan routing and ShardedMatrix partitioning invariants: canonical
// blocks are indivisible, shard user ranges are block-aligned and cover
// [0, num_users) exactly, the closed-form inverse routing matches a scan,
// and a partition round-trips losslessly through concatenation.
#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "data/sharding.h"
#include "data/synthetic.h"
#include "truth/categorical.h"

namespace dptd::data {
namespace {

data::Dataset random_dataset(std::uint64_t seed, std::size_t users = 57,
                             std::size_t objects = 13) {
  SyntheticConfig config;
  config.num_users = users;
  config.num_objects = objects;
  config.missing_rate = 0.3;
  config.seed = seed;
  return generate_synthetic(config);
}

TEST(ShardPlan, CoversAllUsersContiguouslyAndBlockAligned) {
  for (const std::size_t users : {1u, 7u, 16u, 57u, 100u, 129u}) {
    for (const std::size_t shards : {1u, 2u, 3u, 7u, 16u}) {
      for (const std::size_t block : {1u, 4u, 8u, 1024u}) {
        const ShardPlan plan = ShardPlan::create(users, shards, block);
        ASSERT_GE(plan.num_shards, 1u);
        ASSERT_LE(plan.num_shards, shards);
        EXPECT_EQ(plan.user_begin(0), 0u);
        EXPECT_EQ(plan.user_end(plan.num_shards - 1), users);
        for (std::size_t s = 0; s < plan.num_shards; ++s) {
          // Non-empty, contiguous, block-aligned ranges.
          EXPECT_LT(plan.user_begin(s), plan.user_end(s));
          EXPECT_EQ(plan.user_begin(s) % block, 0u);
          if (s > 0) {
            EXPECT_EQ(plan.user_begin(s), plan.user_end(s - 1));
          }
          // Every user in the range routes back to this shard.
          for (std::size_t u = plan.user_begin(s); u < plan.user_end(s); ++u) {
            EXPECT_EQ(plan.shard_of_user(u), s) << users << "/" << shards
                                                << "/" << block << " user " << u;
          }
        }
      }
    }
  }
}

TEST(ShardPlan, ClosedFormInverseMatchesScan) {
  const ShardPlan plan = ShardPlan::create(1000, 7, 16);
  for (std::size_t b = 0; b < plan.num_blocks(); ++b) {
    std::size_t expected = 0;
    for (std::size_t s = 0; s < plan.num_shards; ++s) {
      if (plan.block_begin(s) <= b) expected = s;
    }
    EXPECT_EQ(plan.shard_of_block(b), expected) << "block " << b;
  }
}

TEST(ShardPlan, ClampsShardsToBlocks) {
  // 20 users at block 8 -> 3 blocks: requesting 16 shards yields 3.
  const ShardPlan plan = ShardPlan::create(20, 16, 8);
  EXPECT_EQ(plan.num_blocks(), 3u);
  EXPECT_EQ(plan.num_shards, 3u);
  // A single block can never be split.
  EXPECT_EQ(ShardPlan::create(100, 8, 1024).num_shards, 1u);
}

TEST(ShardPlan, RejectsZeroDimensions) {
  EXPECT_THROW(ShardPlan::create(0, 1), std::invalid_argument);
  EXPECT_THROW(ShardPlan::create(10, 0), std::invalid_argument);
  EXPECT_THROW(ShardPlan::create(10, 1, 0), std::invalid_argument);
}

TEST(ShardedMatrix, PartitionRoundTripsThroughConcatenation) {
  const Dataset dataset = random_dataset(31);
  for (const std::size_t shards : {1u, 2u, 3u, 7u, 16u}) {
    const ShardedMatrix m =
        ShardedMatrix::partition(dataset.observations, shards, /*block=*/8);
    EXPECT_EQ(m.num_users(), dataset.num_users());
    EXPECT_EQ(m.num_objects(), dataset.num_objects());
    EXPECT_EQ(m.observation_count(),
              dataset.observations.observation_count());
    EXPECT_TRUE(m.concatenated() == dataset.observations) << shards;
  }
}

TEST(ShardedMatrix, ShardShapesMatchThePlan) {
  const Dataset dataset = random_dataset(32);
  const ShardedMatrix m =
      ShardedMatrix::partition(dataset.observations, 4, /*block=*/8);
  ASSERT_EQ(m.num_shards(), m.plan().num_shards);
  for (std::size_t i = 0; i < m.num_shards(); ++i) {
    EXPECT_EQ(m.shard(i).num_users(), m.plan().shard_num_users(i));
    EXPECT_EQ(m.shard(i).num_objects(), dataset.num_objects());
  }
}

TEST(ShardedMatrix, GlobalAccessorsMatchTheFlatMatrix) {
  const Dataset dataset = random_dataset(33);
  const ShardedMatrix m =
      ShardedMatrix::partition(dataset.observations, 3, /*block=*/4);
  for (std::size_t u = 0; u < dataset.num_users(); ++u) {
    const auto sharded_row = m.user_row(u);
    const auto flat_row = dataset.observations.user_entries(u);
    ASSERT_EQ(sharded_row.size(), flat_row.size()) << "user " << u;
    for (std::size_t i = 0; i < flat_row.size(); ++i) {
      EXPECT_EQ(sharded_row[i], flat_row[i]) << "user " << u;
    }
  }
  for (std::size_t n = 0; n < dataset.num_objects(); ++n) {
    EXPECT_EQ(m.object_observation_count(n),
              dataset.observations.object_observation_count(n));
  }
}

TEST(ShardedMatrix, SingleViewBorrowsTheMatrix) {
  const Dataset dataset = random_dataset(34);
  const ShardedMatrix m = ShardedMatrix::single(dataset.observations);
  ASSERT_EQ(m.num_shards(), 1u);
  EXPECT_EQ(&m.shard(0), &dataset.observations);  // no copy
  EXPECT_EQ(m.plan().block_size, kDefaultStatsBlockSize);
}

TEST(ShardedMatrix, FromShardsValidatesShapes) {
  const Dataset dataset = random_dataset(35, /*users=*/16, /*objects=*/5);
  const ShardPlan plan = ShardPlan::create(16, 2, 8);

  // Wrong shard count.
  {
    std::vector<ObservationMatrix> one;
    one.emplace_back(16, 5);
    EXPECT_THROW(ShardedMatrix::from_shards(plan, std::move(one), 5),
                 std::invalid_argument);
  }
  // Wrong per-shard user count.
  {
    std::vector<ObservationMatrix> two;
    two.emplace_back(7, 5);
    two.emplace_back(9, 5);
    EXPECT_THROW(ShardedMatrix::from_shards(plan, std::move(two), 5),
                 std::invalid_argument);
  }
  // Wrong object count.
  {
    std::vector<ObservationMatrix> two;
    two.emplace_back(8, 4);
    two.emplace_back(8, 5);
    EXPECT_THROW(ShardedMatrix::from_shards(plan, std::move(two), 5),
                 std::invalid_argument);
  }
  // Unnormalized plan (more shards than blocks).
  {
    ShardPlan bogus = plan;
    bogus.num_shards = 5;
    std::vector<ObservationMatrix> shards;
    for (int i = 0; i < 5; ++i) shards.emplace_back(4, 5);
    EXPECT_THROW(ShardedMatrix::from_shards(bogus, std::move(shards), 5),
                 std::invalid_argument);
  }
  // Label shards hold label-id readings and no alphabet, so the shards of
  // one view cannot disagree on it: the vote over them declares it, and an
  // alphabet outside [2, kMaxBridgedLabels] is refused
  // (truth::check_num_labels).
  {
    std::vector<ObservationMatrix> two;
    two.emplace_back(8, 5);
    two.emplace_back(8, 5);
    two[0].set(0, 0, 2.0);
    two[1].set(7, 4, 1.0);
    const ShardedMatrix labels =
        ShardedMatrix::from_shards(plan, std::move(two), 5);
    for (std::size_t bad : {std::size_t{0}, std::size_t{1},
                            truth::kMaxBridgedLabels + 1}) {
      EXPECT_THROW(truth::MajorityVote({.num_labels = bad}),
                   std::invalid_argument);
      EXPECT_THROW(truth::WeightedVote({.num_labels = bad}),
                   std::invalid_argument);
    }
    EXPECT_EQ(truth::MajorityVote({.num_labels = 3}).run_sharded(labels).truths,
              (std::vector<double>{2.0, 0.0, 0.0, 0.0, 1.0}));
  }
  // And the happy path.
  {
    std::vector<ObservationMatrix> two;
    two.emplace_back(8, 5);
    two.emplace_back(8, 5);
    const ShardedMatrix m = ShardedMatrix::from_shards(plan, std::move(two), 5);
    EXPECT_EQ(m.num_users(), 16u);
    EXPECT_EQ(m.num_shards(), 2u);
  }
}

}  // namespace
}  // namespace dptd::data
