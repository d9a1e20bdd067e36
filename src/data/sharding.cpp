#include "data/sharding.h"

#include <algorithm>

#include "common/check.h"

namespace dptd::data {

ShardPlan ShardPlan::create(std::size_t num_users, std::size_t num_shards,
                            std::size_t block_size) {
  DPTD_REQUIRE(num_users > 0, "ShardPlan: num_users must be positive");
  DPTD_REQUIRE(num_shards > 0, "ShardPlan: num_shards must be positive");
  DPTD_REQUIRE(block_size > 0, "ShardPlan: block_size must be positive");
  ShardPlan plan;
  plan.num_users = num_users;
  plan.block_size = block_size;
  // Blocks are indivisible (they define the reduction order), so more shards
  // than blocks would leave some shards without users.
  plan.num_shards = std::min(num_shards, plan.num_blocks());
  return plan;
}

std::size_t ShardPlan::user_begin(std::size_t shard) const {
  return std::min(block_begin(shard) * block_size, num_users);
}

ShardedMatrix ShardedMatrix::single(const ObservationMatrix& matrix,
                                    std::size_t block_size) {
  ShardedMatrix out;
  out.plan_ = ShardPlan::create(matrix.num_users(), 1, block_size);
  out.num_objects_ = matrix.num_objects();
  out.shards_.push_back(&matrix);
  return out;
}

ShardedMatrix ShardedMatrix::partition(const ObservationMatrix& matrix,
                                       std::size_t num_shards,
                                       std::size_t block_size) {
  const ShardPlan plan =
      ShardPlan::create(matrix.num_users(), num_shards, block_size);
  std::vector<ObservationMatrix> shards;
  shards.reserve(plan.num_shards);
  for (std::size_t i = 0; i < plan.num_shards; ++i) {
    shards.emplace_back(plan.shard_num_users(i), matrix.num_objects());
  }
  // User-major order fills each shard's rows in turn, so every set()
  // appends at its shard's arena tail.
  matrix.for_each([&](std::size_t user, std::size_t object, double value) {
    const std::size_t shard = plan.shard_of_user(user);
    shards[shard].set(user - plan.user_begin(shard), object, value);
  });
  return from_shards(plan, std::move(shards), matrix.num_objects());
}

ShardedMatrix ShardedMatrix::from_shards(const ShardPlan& plan,
                                         std::vector<ObservationMatrix> shards,
                                         std::size_t num_objects) {
  DPTD_REQUIRE(plan == ShardPlan::create(plan.num_users, plan.num_shards,
                                         plan.block_size),
               "ShardedMatrix: plan is not normalized");
  DPTD_REQUIRE(shards.size() == plan.num_shards,
               "ShardedMatrix: shard count does not match the plan");
  for (std::size_t i = 0; i < shards.size(); ++i) {
    DPTD_REQUIRE(shards[i].num_users() == plan.shard_num_users(i),
                 "ShardedMatrix: shard user count does not match plan");
    DPTD_REQUIRE(shards[i].num_objects() == num_objects,
                 "ShardedMatrix: shard object count mismatch");
  }
  ShardedMatrix out;
  out.plan_ = plan;
  out.num_objects_ = num_objects;
  out.owned_ = std::move(shards);
  out.shards_.reserve(out.owned_.size());
  for (const ObservationMatrix& m : out.owned_) out.shards_.push_back(&m);
  return out;
}

std::size_t ShardedMatrix::observation_count() const {
  std::size_t total = 0;
  for (const ObservationMatrix* m : shards_) total += m->observation_count();
  return total;
}

std::span<const ObservationMatrix::Entry> ShardedMatrix::user_row(
    std::size_t user) const {
  DPTD_REQUIRE(user < num_users(), "ShardedMatrix: user out of range");
  const std::size_t s = plan_.shard_of_user(user);
  return shards_[s]->user_entries(user - plan_.user_begin(s));
}

std::size_t ShardedMatrix::object_observation_count(std::size_t object) const {
  std::size_t total = 0;
  for (const ObservationMatrix* m : shards_) {
    total += m->object_observation_count(object);
  }
  return total;
}

ObservationMatrix ShardedMatrix::concatenated() const {
  ObservationMatrix out(num_users(), num_objects_);
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    const std::size_t base = user_base(i);
    shards_[i]->for_each([&](std::size_t local, std::size_t object,
                             double value) {
      out.set(base + local, object, value);
    });
  }
  return out;
}

}  // namespace dptd::data
