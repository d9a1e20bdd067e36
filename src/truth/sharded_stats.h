// Mergeable sufficient statistics for sharded truth discovery.
//
// Every per-object quantity the iterative methods need (weighted sums,
// claim counts, claim moments, Gaussian-posterior precisions) is expressed as
// a fold over *canonical user blocks* (data::ShardPlan::block_size users per
// block): claims are summed flat in user order within a block, and block
// partials are chained in ascending block order, over the blocks that hold
// a claim on the object —
//
//   out[n] = ((init[n] + block_0[n]) + block_1[n]) + ...
//
// The coordinator reduces shards in fixed (ascending) shard order, and shard
// boundaries are block-aligned, so the chain — and therefore every bit of
// the result — is identical for any shard count, mirroring the 1-vs-N-thread
// determinism guarantee of the flat kernels. Per-user quantities (losses,
// residuals, qualities) touch only the owning shard's row and need no merge.
//
// The folds walk each shard's user-major rows one canonical block at a time
// (detail::fold_row_blocks); a claim matrix holds nothing but those rows. The
// callers that need whole columns, the median/GTM/CATD initializations and a
// shard node's kGather, build them once per cold run with
// gather_object_values.
//
// In-process, "shard sends statistics to the coordinator" is fused into a
// direct accumulation pass per shard; the communication a distributed
// deployment would pay is O(num_objects) per iteration, not O(nnz).
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <vector>

#include "common/check.h"
#include "common/statistics.h"
#include "common/thread_pool.h"
#include "data/sharding.h"

namespace dptd::truth {

namespace detail {

/// Runs compute(worker, block) for blocks 0..blocks-1 and chain(block) for
/// each in ascending order on the calling thread. With a pool of two or more
/// threads, each pool thread w runs compute(w, ...) on the blocks it claims,
/// at most `window` blocks ahead of the chain, while the calling thread
/// chains each block as soon as it is done; otherwise everything runs
/// inline. compute(w, b) must write only worker w's and ring slot
/// b % window's state. Rethrows the first exception once no thread is left
/// using the callbacks.
void pipeline_blocks(ThreadPool* pool, std::size_t blocks, std::size_t window,
                     const std::function<void(std::size_t, std::size_t)>& compute,
                     const std::function<void(std::size_t)>& chain);

/// The claim filter of a fold that reads every claim.
struct EveryClaim {
  constexpr bool operator()(const auto&) const { return true; }
};

/// The one block walk behind every per-object fold. For each shard (in
/// ascending order) it reads the user-major rows one canonical block at a
/// time. Within a block, `add(global_user, entry, seg)` adds each claim that
/// `keep(entry)` admits into its object's segment: `width` value-initialized
/// elements of T, created when the block first touches the object and summed
/// in user order. Then `chain(object, seg)` folds each object the block
/// touched into the output. It runs on the calling thread, in ascending block
/// order, and never sees an object the block did not touch: folding an
/// untouched object's +0.0 segment would turn an accumulated -0.0 into +0.0.
/// A claim `keep` refuses touches nothing, so a fold that skips claims has
/// the bits of the same fold over a matrix without them.
///
/// Shard user ranges are block-aligned, so local blocks are global blocks
/// and these are the same additions, in the same order, as a walk down each
/// object's user-sorted column. Blocks are independent, so the pool computes
/// them while the calling thread chains (pipeline_blocks); the partial
/// buffers hold at most 2 x pool-size blocks' touched objects, never the
/// whole matrix. Each worker keeps one object -> slot map (4 B per object).
template <typename T, typename Add, typename Chain, typename Keep = EveryClaim>
void fold_row_blocks(const data::ShardedMatrix& m, ThreadPool* pool,
                     std::size_t width, const Add& add, const Chain& chain,
                     const Keep& keep = {}) {
  constexpr std::uint32_t kUntouched =
      std::numeric_limits<std::uint32_t>::max();
  // One cache line each: workers grow neighbouring ring slots at once.
  struct alignas(64) Partial {
    std::vector<std::size_t> objects;  ///< touched, in first-touch order
    std::vector<T> segs;               ///< `width` per touched object
  };
  const std::size_t num_objects = m.num_objects();
  DPTD_REQUIRE(num_objects < kUntouched,
               "fold_row_blocks: too many objects for a 32-bit slot map");
  const std::size_t block_size = m.plan().block_size;
  const std::size_t workers = pool != nullptr ? pool->size() : 1;
  const std::size_t window = 2 * workers;
  std::vector<std::vector<std::uint32_t>> slots(workers);
  std::vector<Partial> ring(window);

  for (std::size_t s = 0; s < m.num_shards(); ++s) {
    const auto& shard = m.shard(s);
    const std::size_t base = m.user_base(s);
    const std::size_t users = shard.num_users();
    pipeline_blocks(
        pool, (users + block_size - 1) / block_size, window,
        [&](std::size_t worker, std::size_t block) {
          std::vector<std::uint32_t>& slot = slots[worker];
          if (slot.empty()) slot.assign(num_objects, kUntouched);
          Partial& p = ring[block % window];
          p.objects.clear();
          p.segs.clear();
          const std::size_t begin = block * block_size;
          const std::size_t end = std::min(begin + block_size, users);
          for (std::size_t local = begin; local < end; ++local) {
            for (const auto& e : shard.user_entries(local)) {
              if (!keep(e)) continue;
              std::uint32_t& k = slot[e.object];
              if (k == kUntouched) {
                k = static_cast<std::uint32_t>(p.objects.size());
                p.objects.push_back(e.object);
                p.segs.resize(p.segs.size() + width);
              }
              add(base + local, e,
                  std::span<T>(p.segs).subspan(k * width, width));
            }
          }
          for (std::size_t n : p.objects) slot[n] = kUntouched;
        },
        [&](std::size_t block) {
          const Partial& p = ring[block % window];
          for (std::size_t k = 0; k < p.objects.size(); ++k) {
            chain(p.objects[k],
                  std::span<const T>(p.segs).subspan(k * width, width));
          }
        });
  }
}

}  // namespace detail

/// Folds V per-claim contributions into per-object accumulators in canonical
/// block order. `emit(global_user, object, value, contrib)` fills the V
/// contributions of one claim; they are ADDED into `out[v][object]` (callers
/// pre-initialize with zeros or prior terms). If `counts` is non-null, the
/// per-object claim count is added into it. Deterministic and bitwise
/// identical for any shard count and any `pool` size.
template <std::size_t V, typename Emit>
void fold_object_stats(const data::ShardedMatrix& m, ThreadPool* pool,
                       const Emit& emit, const std::array<double*, V>& out,
                       std::size_t* counts = nullptr) {
  if (counts != nullptr) {
    for (std::size_t n = 0; n < m.num_objects(); ++n) {
      counts[n] += m.object_observation_count(n);
    }
  }
  detail::fold_row_blocks<double>(
      m, pool, V,
      [&](std::size_t user, const data::ObservationMatrix::Entry& e,
          std::span<double> seg) {
        std::array<double, V> contrib{};
        emit(user, e.object, e.value, contrib);
        for (std::size_t v = 0; v < V; ++v) seg[v] += contrib[v];
      },
      [&](std::size_t n, std::span<const double> seg) {
        for (std::size_t v = 0; v < V; ++v) out[v][n] += seg[v];
      });
}

/// Per-object claim moments (count/mean/variance) as a canonical block fold:
/// Welford accumulation flat within a block, RunningStats::merge across
/// blocks in ascending order. `out` must hold num_objects default-constructed
/// accumulators. Same determinism contract as fold_object_stats.
void fold_object_moments(const data::ShardedMatrix& m, ThreadPool* pool,
                         std::span<RunningStats> out);

/// Per-object claim values gathered across shards in global user order, as
/// flat column-major arrays. Loop-invariant: used only for initialization
/// statistics that need whole columns (medians).
struct GatheredColumns {
  std::vector<std::size_t> offsets;  ///< size num_objects + 1
  std::vector<double> values;        ///< size nnz, column-major

  std::size_t num_objects() const { return offsets.size() - 1; }
  std::span<const double> column(std::size_t object) const {
    return std::span<const double>(values).subspan(
        offsets[object], offsets[object + 1] - offsets[object]);
  }
};

/// Builds every object's column in one counting-sort pass over the shards'
/// rows, walked in ascending order: shard user ranges are contiguous and
/// ascending, so each column fills in global user order, the same for any
/// shard count.
GatheredColumns gather_object_values(const data::ShardedMatrix& m);

/// Runs fn(global_user, row) for every user. Purely per-user state: nothing
/// to merge, so execution order is free. Iterates shard by shard — rows are
/// contiguous local ids with one base offset, no per-user routing math — and
/// parallelizes over each shard's users.
template <typename Fn>
void for_each_user_row(const data::ShardedMatrix& m, ThreadPool* pool,
                       const Fn& fn) {
  for (std::size_t s = 0; s < m.num_shards(); ++s) {
    const auto& shard = m.shard(s);
    const std::size_t base = m.user_base(s);
    for_each_range(pool, shard.num_users(),
                   [&](std::size_t begin, std::size_t end) {
                     for (std::size_t local = begin; local < end; ++local) {
                       fn(base + local, shard.user_entries(local));
                     }
                   });
  }
}

/// Canonical block-chained sum of a per-user vector (e.g. CRH's total loss):
/// flat within each block of `block_size` users, block partials chained in
/// ascending order, starting from `init`. Independent of how users are
/// sharded: a shard holding a block-aligned slice continues the global chain
/// exactly by passing the running total of the preceding shards as `init` —
/// the primitive the distributed coordinator's loss collective is built on.
double block_chain_sum(std::span<const double> per_user,
                       std::size_t block_size, double init = 0.0);

}  // namespace dptd::truth
