#include "truth/sharded_stats.h"

#include <condition_variable>
#include <exception>
#include <mutex>

#include "common/check.h"

namespace dptd::truth {

namespace detail {

void pipeline_blocks(ThreadPool* pool, std::size_t blocks, std::size_t window,
                     const std::function<void(std::size_t, std::size_t)>& compute,
                     const std::function<void(std::size_t)>& chain) {
  if (pool == nullptr || pool->size() <= 1 || blocks <= 1) {
    for (std::size_t b = 0; b < blocks; ++b) {
      compute(0, b);
      chain(b);
    }
    return;
  }
  DPTD_REQUIRE(window > 0, "pipeline_blocks: window must be positive");
  std::mutex mu;
  std::condition_variable block_done;  // a worker finished a block
  std::condition_variable slot_free;   // the chain moved on, or a stop
  std::size_t next = 0;                // next block to claim; guarded by mu
  std::size_t chained = 0;             // blocks chained; guarded by mu
  std::vector<char> done(window, 0);   // ring slot holds a finished block
  std::exception_ptr error;            // first failure; guarded by mu
  for (std::size_t worker = 0; worker < pool->size(); ++worker) {
    pool->submit([&, worker] {
      for (;;) {
        std::size_t b = 0;
        {
          std::unique_lock<std::mutex> lock(mu);
          slot_free.wait(lock, [&] {
            return next == blocks || next < chained + window;
          });
          if (next == blocks) return;
          b = next++;
        }
        std::exception_ptr failure;
        try {
          compute(worker, b);
        } catch (...) {
          failure = std::current_exception();
        }
        {
          const std::lock_guard<std::mutex> lock(mu);
          done[b % window] = 1;
          if (failure != nullptr && error == nullptr) error = failure;
        }
        block_done.notify_one();
      }
    });
  }
  for (std::size_t b = 0; b < blocks; ++b) {
    {
      std::unique_lock<std::mutex> lock(mu);
      block_done.wait(lock,
                      [&] { return done[b % window] != 0 || error != nullptr; });
      if (error != nullptr) break;
    }
    try {
      chain(b);
    } catch (...) {
      const std::lock_guard<std::mutex> lock(mu);
      if (error == nullptr) error = std::current_exception();
      break;
    }
    {
      const std::lock_guard<std::mutex> lock(mu);
      done[b % window] = 0;
      ++chained;
    }
    slot_free.notify_all();
  }
  // Stop the workers (after a failure some blocks are never claimed) and
  // wait until none of them touches this frame's state.
  {
    const std::lock_guard<std::mutex> lock(mu);
    next = blocks;
  }
  slot_free.notify_all();
  pool->wait_idle();
  if (error != nullptr) std::rethrow_exception(error);
}

}  // namespace detail

void fold_object_moments(const data::ShardedMatrix& m, ThreadPool* pool,
                         std::span<RunningStats> out) {
  DPTD_REQUIRE(out.size() == m.num_objects(),
               "fold_object_moments: output size != num objects");
  detail::fold_row_blocks<RunningStats>(
      m, pool, 1,
      [](std::size_t, const data::ObservationMatrix::Entry& e,
         std::span<RunningStats> seg) { seg[0].add(e.value); },
      [&](std::size_t n, std::span<const RunningStats> seg) {
        out[n].merge(seg[0]);
      });
}

GatheredColumns gather_object_values(const data::ShardedMatrix& m) {
  const std::size_t N = m.num_objects();
  GatheredColumns out;
  out.offsets.assign(N + 1, 0);
  for (std::size_t n = 0; n < N; ++n) {
    out.offsets[n + 1] = out.offsets[n] + m.object_observation_count(n);
  }
  out.values.resize(out.offsets[N]);
  std::vector<std::size_t> cursor(out.offsets.begin(), out.offsets.end() - 1);
  for (std::size_t s = 0; s < m.num_shards(); ++s) {
    const data::ObservationMatrix& shard = m.shard(s);
    for (std::size_t local = 0; local < shard.num_users(); ++local) {
      for (const auto& e : shard.user_entries(local)) {
        out.values[cursor[e.object]++] = e.value;
      }
    }
  }
  return out;
}

double block_chain_sum(std::span<const double> per_user,
                       std::size_t block_size, double init) {
  DPTD_REQUIRE(block_size > 0, "block_chain_sum: block_size must be positive");
  double acc = init;
  for (std::size_t begin = 0; begin < per_user.size(); begin += block_size) {
    const std::size_t end = std::min(begin + block_size, per_user.size());
    double seg = 0.0;
    for (std::size_t i = begin; i < end; ++i) seg += per_user[i];
    acc += seg;
  }
  return acc;
}

}  // namespace dptd::truth
