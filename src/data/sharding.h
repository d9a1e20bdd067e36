// User-sharded view of an ObservationMatrix, for horizontally partitioned
// aggregation: users are grouped into fixed-size canonical blocks, blocks
// are split contiguously across K shards, and each shard owns the
// sub-matrix of its users' rows (local user ids, global object ids). Label
// rounds shard the same matrix, with label ids as exact doubles.
//
// The block structure — not the shard count — defines the reduction order of
// every mergeable statistic (see truth/sharded_stats.h and
// categorical/voting.h), so a K-shard run is bitwise identical to the
// single-shard run for any K that uses the same block size.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "data/dataset.h"

namespace dptd::data {

/// Canonical user-block granularity of the mergeable sufficient statistics.
/// Per-object accumulators are always reduced as ((block0 + block1) + ...) in
/// ascending block order (claims summed flat within a block), so results
/// depend on the block size but never on the shard count or thread count.
inline constexpr std::size_t kDefaultStatsBlockSize = 1024;

/// Deterministic user → shard routing: users are grouped into canonical
/// blocks of `block_size`, and blocks are split contiguously and near-evenly
/// across `num_shards`. Every block is wholly owned by one shard, so shard
/// user ranges are block-aligned and concatenate to [0, num_users).
struct ShardPlan {
  std::size_t num_users = 0;
  std::size_t num_shards = 1;
  std::size_t block_size = kDefaultStatsBlockSize;

  /// Validates and normalizes a plan: `num_shards` is clamped to the number
  /// of canonical blocks, so every shard owns at least one block (and hence
  /// at least one user). Throws std::invalid_argument on zero dimensions.
  static ShardPlan create(std::size_t num_users, std::size_t num_shards,
                          std::size_t block_size = kDefaultStatsBlockSize);

  std::size_t num_blocks() const {
    return (num_users + block_size - 1) / block_size;
  }
  std::size_t block_of_user(std::size_t user) const {
    return user / block_size;
  }
  /// First canonical block owned by shard `shard` (balanced contiguous
  /// split: shard s owns blocks [s*B/K, (s+1)*B/K)).
  std::size_t block_begin(std::size_t shard) const {
    return shard * num_blocks() / num_shards;
  }
  /// Inverse of block_begin: the unique shard owning `block` (closed form,
  /// O(1): the largest s with block_begin(s) <= block).
  std::size_t shard_of_block(std::size_t block) const {
    return ((block + 1) * num_shards + num_blocks() - 1) / num_blocks() - 1;
  }
  std::size_t shard_of_user(std::size_t user) const {
    return shard_of_block(block_of_user(user));
  }
  /// Global id of shard `shard`'s first user; ranges are block-aligned.
  std::size_t user_begin(std::size_t shard) const;
  std::size_t user_end(std::size_t shard) const { return user_begin(shard + 1); }
  std::size_t shard_num_users(std::size_t shard) const {
    return user_end(shard) - user_begin(shard);
  }

  bool operator==(const ShardPlan&) const = default;
};

/// K per-user-range sub-matrices behind one logical S×N claim matrix. Shard
/// i holds the rows of global users [plan.user_begin(i), plan.user_end(i))
/// under local ids starting at 0; objects are not partitioned. Movable, not
/// copyable (a single-shard view may borrow the underlying matrix).
class ShardedMatrix {
 public:
  /// Single-shard view over an existing matrix — no copy; the view must not
  /// outlive `matrix`. This is the canonical reference every K-shard run is
  /// bitwise compared against.
  static ShardedMatrix single(const ObservationMatrix& matrix,
                              std::size_t block_size = kDefaultStatsBlockSize);

  /// Partitions a copy of `matrix` into `num_shards` owned sub-matrices.
  static ShardedMatrix partition(
      const ObservationMatrix& matrix, std::size_t num_shards,
      std::size_t block_size = kDefaultStatsBlockSize);

  /// Adopts pre-built shard sub-matrices (the sharded server's ingestion
  /// path). `shards[i]` must have exactly plan.shard_num_users(i) users and
  /// `num_objects` objects; throws std::invalid_argument otherwise.
  static ShardedMatrix from_shards(const ShardPlan& plan,
                                   std::vector<ObservationMatrix> shards,
                                   std::size_t num_objects);

  ShardedMatrix(ShardedMatrix&&) = default;
  ShardedMatrix& operator=(ShardedMatrix&&) = default;
  ShardedMatrix(const ShardedMatrix&) = delete;
  ShardedMatrix& operator=(const ShardedMatrix&) = delete;

  const ShardPlan& plan() const { return plan_; }
  std::size_t num_shards() const { return shards_.size(); }
  std::size_t num_users() const { return plan_.num_users; }
  std::size_t num_objects() const { return num_objects_; }
  std::size_t observation_count() const;

  const ObservationMatrix& shard(std::size_t i) const { return *shards_[i]; }
  /// Global id of shard i's first user (its local user 0).
  std::size_t user_base(std::size_t i) const { return plan_.user_begin(i); }

  /// Row of a *global* user id, routed to the owning shard. Allocation-free.
  std::span<const ObservationMatrix::Entry> user_row(std::size_t user) const;

  /// Claims on `object` summed across shards. O(num_shards).
  std::size_t object_observation_count(std::size_t object) const;

  /// Rebuilds the full unsharded matrix (tests).
  ObservationMatrix concatenated() const;

 private:
  ShardedMatrix() = default;

  ShardPlan plan_;
  std::size_t num_objects_ = 0;
  std::vector<ObservationMatrix> owned_;
  std::vector<const ObservationMatrix*> shards_;
};

}  // namespace dptd::data
