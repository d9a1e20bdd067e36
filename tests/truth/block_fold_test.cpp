// The per-object folds walk user-major rows one canonical block at a time.
// This suite holds them to the bits of the column walk they replaced: an
// oracle kept here, written against testing::column_of (a row scan that
// shares no code with the folds or with gather_object_values), that walks
// each object's user-sorted column per shard and closes a segment whenever
// the user crosses into a new block. Every other equivalence suite compares
// the folds with themselves (K shards against one, N threads against one),
// so this is the only check against the column walk's bits. It also holds
// gather_object_values, the columns the median, GTM and CATD initializations
// read, to that row scan.
//
// The data is built so that any reordering shows: signed zeros in values,
// weights and initial accumulators, magnitudes from 1e-300 to 1e300 next to
// moderate values that round, users and whole blocks with no claims, and
// objects nobody covers.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "categorical/label_matrix.h"
#include "categorical/voting.h"
#include "common/rng.h"
#include "common/statistics.h"
#include "common/thread_pool.h"
#include "data/builder.h"
#include "data/dataset.h"
#include "data/sharding.h"
#include "data/synthetic.h"
#include "testing/matrix_builders.h"
#include "truth/categorical.h"
#include "truth/fold_backend.h"
#include "truth/interface.h"
#include "truth/registry.h"
#include "truth/sharded_stats.h"

namespace dptd::truth {
namespace {

constexpr std::size_t kUsers = 203;
constexpr std::size_t kObjects = 41;
constexpr std::size_t kUncovered = 3;       ///< last objects: no claims
constexpr std::size_t kEmptyBegin = 64;     ///< users [64, 140): no claims,
constexpr std::size_t kEmptyEnd = 140;      ///< a whole 64-user block too
constexpr std::size_t kLabels = 4;

// ---------------------------------------------------------------------------
// Oracle: the column walk.
// ---------------------------------------------------------------------------

template <std::size_t V, typename Emit>
void column_fold_stats(const data::ShardedMatrix& m, const Emit& emit,
                       const std::array<double*, V>& out,
                       std::size_t* counts) {
  const std::size_t block_size = m.plan().block_size;
  for (std::size_t s = 0; s < m.num_shards(); ++s) {
    const data::ObservationMatrix& shard = m.shard(s);
    const std::size_t base = m.user_base(s);
    for (std::size_t n = 0; n < m.num_objects(); ++n) {
      const auto col = testing::column_of(shard, n);
      if (col.empty()) continue;
      if (counts != nullptr) counts[n] += col.size();
      std::array<double, V> contrib{};
      std::array<double, V> acc;
      std::array<double, V> seg{};
      for (std::size_t v = 0; v < V; ++v) acc[v] = out[v][n];
      std::size_t block_end = ((base + col.users[0]) / block_size + 1) *
                                  block_size - base;
      for (std::size_t i = 0; i < col.size(); ++i) {
        const std::size_t user = col.users[i];
        if (user >= block_end) {
          for (std::size_t v = 0; v < V; ++v) {
            acc[v] += seg[v];
            seg[v] = 0.0;
          }
          block_end = ((base + user) / block_size + 1) * block_size - base;
        }
        emit(base + user, n, col.values[i], contrib);
        for (std::size_t v = 0; v < V; ++v) seg[v] += contrib[v];
      }
      for (std::size_t v = 0; v < V; ++v) out[v][n] = acc[v] + seg[v];
    }
  }
}

void column_fold_moments(const data::ShardedMatrix& m,
                         std::vector<RunningStats>& out) {
  const std::size_t block_size = m.plan().block_size;
  for (std::size_t s = 0; s < m.num_shards(); ++s) {
    const data::ObservationMatrix& shard = m.shard(s);
    const std::size_t base = m.user_base(s);
    for (std::size_t n = 0; n < m.num_objects(); ++n) {
      const auto col = testing::column_of(shard, n);
      if (col.empty()) continue;
      RunningStats acc = out[n];
      RunningStats seg;
      std::size_t block_end = ((base + col.users[0]) / block_size + 1) *
                                  block_size - base;
      for (std::size_t i = 0; i < col.size(); ++i) {
        const std::size_t user = col.users[i];
        if (user >= block_end) {
          acc.merge(seg);
          seg = RunningStats();
          block_end = ((base + user) / block_size + 1) * block_size - base;
        }
        seg.add(col.values[i]);
      }
      acc.merge(seg);
      out[n] = acc;
    }
  }
}

/// Over label-id readings, every claim a label below L.
void column_fold_label_scores(const data::ShardedMatrix& m, std::size_t L,
                              const std::vector<double>& weights,
                              std::vector<double>& scores) {
  const std::size_t block_size = m.plan().block_size;
  for (std::size_t s = 0; s < m.num_shards(); ++s) {
    const data::ObservationMatrix& shard = m.shard(s);
    const std::size_t base = m.user_base(s);
    for (std::size_t n = 0; n < m.num_objects(); ++n) {
      const auto col = testing::column_of(shard, n);
      if (col.empty()) continue;
      std::vector<double> acc(scores.begin() + n * L,
                              scores.begin() + (n + 1) * L);
      std::vector<double> seg(L, 0.0);
      std::size_t block_end = ((base + col.users[0]) / block_size + 1) *
                                  block_size - base;
      for (std::size_t i = 0; i < col.size(); ++i) {
        const std::size_t user = col.users[i];
        if (user >= block_end) {
          for (std::size_t v = 0; v < L; ++v) {
            acc[v] += seg[v];
            seg[v] = 0.0;
          }
          block_end = ((base + user) / block_size + 1) * block_size - base;
        }
        seg[static_cast<categorical::Label>(col.values[i])] +=
            weights[base + user];
      }
      for (std::size_t v = 0; v < L; ++v) scores[n * L + v] = acc[v] + seg[v];
    }
  }
}

// ---------------------------------------------------------------------------
// Data.
// ---------------------------------------------------------------------------

double unit(Rng& rng) {
  return static_cast<double>(rng.next() >> 11) * 0x1.0p-53;
}

/// ±0.0 one time in ten, an extreme magnitude (1e-300 .. 1e300) one time in
/// five, otherwise a moderate value whose sums round.
double wild_value(Rng& rng) {
  const double sign = (rng.next() & 1) != 0 ? -1.0 : 1.0;
  const double u = unit(rng);
  if (u < 0.1) return sign * 0.0;
  if (u < 0.3) return sign * std::pow(10.0, -300.0 + 600.0 * unit(rng));
  return sign * 1000.0 * unit(rng);
}

/// Non-negative weights: ±0.0 one time in five, otherwise 1e-4 .. 1e4, so
/// weight * value stays finite.
double wild_weight(Rng& rng) {
  const double u = unit(rng);
  if (u < 0.1) return 0.0;
  if (u < 0.2) return -0.0;
  return std::pow(10.0, -4.0 + 8.0 * unit(rng));
}

bool claims(Rng& rng, std::size_t user, std::size_t object) {
  if (user >= kEmptyBegin && user < kEmptyEnd) return false;
  if (object >= kObjects - kUncovered) return false;
  return unit(rng) < 0.3;
}

data::ObservationMatrix wild_matrix(std::uint64_t seed) {
  Rng rng(seed);
  data::ObservationMatrix obs(kUsers, kObjects);
  for (std::size_t s = 0; s < kUsers; ++s) {
    if (unit(rng) < 0.15) continue;  // scattered users with no claims
    for (std::size_t n = 0; n < kObjects; ++n) {
      if (claims(rng, s, n)) obs.set(s, n, wild_value(rng));
    }
  }
  return obs;
}

/// Label ids below kLabels as exact doubles.
data::ObservationMatrix wild_labels(std::uint64_t seed) {
  Rng rng(seed);
  data::ObservationMatrix claims_matrix(kUsers, kObjects);
  for (std::size_t s = 0; s < kUsers; ++s) {
    if (unit(rng) < 0.15) continue;
    for (std::size_t n = 0; n < kObjects; ++n) {
      if (claims(rng, s, n)) {
        claims_matrix.set(s, n, static_cast<double>(rng.next() % kLabels));
      }
    }
  }
  return claims_matrix;
}

std::vector<double> wild_weights(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> weights(kUsers);
  for (double& w : weights) w = wild_weight(rng);
  return weights;
}

/// Initial accumulators: signed zeros (so a +0.0 fold into an object the
/// block did not touch shows) and a few prior terms. The last entry belongs
/// to an uncovered object and is always -0.0.
std::vector<double> wild_init(std::uint64_t seed, std::size_t size) {
  Rng rng(seed);
  std::vector<double> init(size);
  for (double& x : init) {
    const double u = unit(rng);
    x = u < 0.4 ? -0.0 : (u < 0.6 ? 0.0 : wild_value(rng));
  }
  init.back() = -0.0;
  return init;
}

// ---------------------------------------------------------------------------
// Sweep and comparison.
// ---------------------------------------------------------------------------

constexpr std::size_t kShardCounts[] = {1, 2, 3, 5};
constexpr std::size_t kBlockSizes[] = {1, 3, 64};
constexpr std::size_t kPoolSizes[] = {0, 1, 2, 4};  ///< 0: no pool

/// Runs body(K, block_size, pool) over every shard count, block size and
/// pool of the sweep.
template <typename Body>
void sweep(const Body& body) {
  for (std::size_t threads : kPoolSizes) {
    std::unique_ptr<ThreadPool> pool;
    if (threads > 0) pool = std::make_unique<ThreadPool>(threads);
    for (std::size_t k : kShardCounts) {
      for (std::size_t block : kBlockSizes) {
        const std::string label = "K=" + std::to_string(k) +
                                  " block=" + std::to_string(block) +
                                  " pool=" + std::to_string(threads);
        SCOPED_TRACE(label);
        body(k, block, pool.get());
      }
    }
  }
}

void expect_same_bits(const std::vector<double>& expected,
                      const std::vector<double>& actual,
                      const std::string& what) {
  ASSERT_EQ(expected.size(), actual.size()) << what;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(expected[i]),
              std::bit_cast<std::uint64_t>(actual[i]))
        << what << "[" << i << "]: " << expected[i] << " vs " << actual[i];
  }
}

void expect_same_bits(const RunningStats& a, const RunningStats& b,
                      std::size_t object) {
  EXPECT_EQ(a.count(), b.count()) << "object " << object;
  if (a.count() == 0 || b.count() == 0) return;
  const double fa[] = {a.mean(), a.sum_squared_deviations(), a.min(), a.max()};
  const double fb[] = {b.mean(), b.sum_squared_deviations(), b.min(), b.max()};
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(fa[i]),
              std::bit_cast<std::uint64_t>(fb[i]))
        << "object " << object << " field " << i;
  }
}

/// One fold_object_stats<V> case. The V = 2 and 3 emitters read weights by
/// global user id, so a wrong shard base shows as well as a wrong order.
template <std::size_t V, typename Emit>
void check_object_stats(const Emit& emit, std::uint64_t seed) {
  const data::ObservationMatrix obs = wild_matrix(seed);
  sweep([&](std::size_t k, std::size_t block, ThreadPool* pool) {
    const data::ShardedMatrix m = data::ShardedMatrix::partition(obs, k, block);
    std::array<std::vector<double>, V> expected;
    std::array<std::vector<double>, V> actual;
    std::array<double*, V> expected_out{};
    std::array<double*, V> actual_out{};
    for (std::size_t v = 0; v < V; ++v) {
      expected[v] = wild_init(seed + 1 + v, kObjects);
      actual[v] = expected[v];
      expected_out[v] = expected[v].data();
      actual_out[v] = actual[v].data();
    }
    std::vector<std::size_t> expected_counts(kObjects, 7);
    std::vector<std::size_t> actual_counts(kObjects, 7);
    column_fold_stats<V>(m, emit, expected_out, expected_counts.data());
    fold_object_stats<V>(m, pool, emit, actual_out, actual_counts.data());
    for (std::size_t v = 0; v < V; ++v) {
      expect_same_bits(expected[v], actual[v], "out" + std::to_string(v));
    }
    EXPECT_EQ(expected_counts, actual_counts);
  });
}

TEST(BlockFold, ObjectStatsOneValueMatchColumnWalk) {
  check_object_stats<1>(
      [](std::size_t, std::size_t, double value, std::array<double, 1>& c) {
        c[0] = value;
      },
      11);
}

TEST(BlockFold, ObjectStatsTwoValuesMatchColumnWalk) {
  const std::vector<double> weights = wild_weights(21);
  check_object_stats<2>(
      [&](std::size_t user, std::size_t, double value,
          std::array<double, 2>& c) {
        c[0] = weights[user];
        c[1] = weights[user] * value;
      },
      22);
}

TEST(BlockFold, ObjectStatsThreeValuesMatchColumnWalk) {
  // The weighted-aggregate statistics: weighted sum, weight sum, plain sum.
  const std::vector<double> weights = wild_weights(31);
  check_object_stats<3>(
      [&](std::size_t user, std::size_t, double value,
          std::array<double, 3>& c) {
        c[0] = weights[user] * value;
        c[1] = weights[user];
        c[2] = value;
      },
      32);
}

TEST(BlockFold, ObjectMomentsMatchColumnWalk) {
  const data::ObservationMatrix obs = wild_matrix(41);
  Rng rng(42);
  std::vector<RunningStats> init(kObjects);
  for (std::size_t n = 0; n < kObjects; n += 2) {
    init[n].add(wild_value(rng));  // a pre-loaded chain on every other object
  }
  sweep([&](std::size_t k, std::size_t block, ThreadPool* pool) {
    const data::ShardedMatrix m = data::ShardedMatrix::partition(obs, k, block);
    std::vector<RunningStats> expected = init;
    std::vector<RunningStats> actual = init;
    column_fold_moments(m, expected);
    fold_object_moments(m, pool, actual);
    for (std::size_t n = 0; n < kObjects; ++n) {
      expect_same_bits(expected[n], actual[n], n);
    }
  });
}

TEST(BlockFold, LabelScoresMatchColumnWalk) {
  const data::ObservationMatrix claims_matrix = wild_labels(51);
  const std::vector<double> weights = wild_weights(52);
  const std::vector<double> init = wild_init(53, kObjects * kLabels);
  sweep([&](std::size_t k, std::size_t block, ThreadPool* pool) {
    const data::ShardedMatrix m =
        data::ShardedMatrix::partition(claims_matrix, k, block);
    std::vector<double> expected = init;
    std::vector<double> actual = init;
    column_fold_label_scores(m, kLabels, weights, expected);
    categorical::fold_label_scores(m, kLabels, pool, weights, actual);
    expect_same_bits(expected, actual, "scores");
  });
}

TEST(BlockFold, SignedZerosFollowTheColumnWalk) {
  // Every value, weight and initial accumulator is -0.0; block size 1. A
  // segment starts at +0.0, so every object a block touches ends at +0.0 in
  // all its bins, the unclaimed ones included, while object 2, which nobody
  // covers, keeps its -0.0. Chaining a +0.0 segment for an object the block
  // did not touch would flip it; chaining only the claimed label bins would
  // leave object 0's bin 0 at -0.0. The same labels next to a reading that
  // is no label (2.5, on object 2), and with label 0 written as -0.0, must
  // keep those bits: the non-label is skipped before it can touch its
  // object.
  data::ObservationMatrix obs(2, 3);
  obs.set(0, 0, -0.0);
  obs.set(1, 1, -0.0);
  data::ObservationMatrix labels(2, 3);
  labels.set(0, 0, 1.0);
  labels.set(1, 1, 0.0);
  data::ObservationMatrix readings(2, 3);
  readings.set(0, 0, 1.0);
  readings.set(0, 2, 2.5);
  readings.set(1, 1, -0.0);
  const std::vector<double> weights = {-0.0, -0.0};
  const auto emit = [](std::size_t, std::size_t, double value,
                       std::array<double, 1>& c) { c[0] = value; };
  for (std::size_t k : {1, 2}) {
    SCOPED_TRACE("K=" + std::to_string(k));
    const data::ShardedMatrix m = data::ShardedMatrix::partition(obs, k, 1);
    std::vector<double> expected(3, -0.0);
    std::vector<double> actual(3, -0.0);
    column_fold_stats<1>(m, emit, {expected.data()}, nullptr);
    fold_object_stats<1>(m, nullptr, emit, {actual.data()});
    expect_same_bits(expected, actual, "stats");
    EXPECT_FALSE(std::signbit(actual[0]));
    EXPECT_TRUE(std::signbit(actual[2]));

    const data::ShardedMatrix lm = data::ShardedMatrix::partition(labels, k, 1);
    std::vector<double> expected_scores(6, -0.0);
    std::vector<double> actual_scores(6, -0.0);
    column_fold_label_scores(lm, 2, weights, expected_scores);
    categorical::fold_label_scores(lm, 2, nullptr, weights, actual_scores);
    expect_same_bits(expected_scores, actual_scores, "scores");
    EXPECT_FALSE(std::signbit(actual_scores[0]));
    EXPECT_TRUE(std::signbit(actual_scores[4]));
    EXPECT_TRUE(std::signbit(actual_scores[5]));

    const data::ShardedMatrix rm =
        data::ShardedMatrix::partition(readings, k, 1);
    std::vector<double> read_scores(6, -0.0);
    categorical::fold_label_scores(rm, 2, nullptr, weights, read_scores);
    expect_same_bits(actual_scores, read_scores, "reading scores");
  }
}

TEST(BlockFold, PipelineChainsInOrderWithinTheWindowAndRethrows) {
  // The block pipeline under the folds: every block is computed once, into
  // its ring slot, and chained in ascending order after it was computed;
  // no block runs more than `window` ahead of the chain; a failure on a
  // worker or in the chain reaches the caller once every worker has let go.
  constexpr std::size_t kBlocks = 203;
  constexpr std::size_t kWindow = 8;
  for (std::size_t threads : kPoolSizes) {
    SCOPED_TRACE("pool=" + std::to_string(threads));
    std::unique_ptr<ThreadPool> pool;
    if (threads > 0) pool = std::make_unique<ThreadPool>(threads);
    std::vector<std::size_t> ring(kWindow, kBlocks);
    std::vector<std::size_t> chained;
    std::atomic<std::size_t> computed{0};
    detail::pipeline_blocks(
        pool.get(), kBlocks, kWindow,
        [&](std::size_t, std::size_t block) {
          ring[block % kWindow] = block;
          ++computed;
        },
        [&](std::size_t block) {
          EXPECT_EQ(ring[block % kWindow], block);
          // Blocks in flight never run past the window.
          EXPECT_LE(computed.load(), block + kWindow);
          chained.push_back(block);
        });
    EXPECT_EQ(computed.load(), kBlocks);
    ASSERT_EQ(chained.size(), kBlocks);
    for (std::size_t b = 0; b < kBlocks; ++b) EXPECT_EQ(chained[b], b);

    EXPECT_THROW(detail::pipeline_blocks(
                     pool.get(), kBlocks, kWindow,
                     [](std::size_t, std::size_t block) {
                       if (block == 57) throw std::runtime_error("compute");
                     },
                     [](std::size_t) {}),
                 std::runtime_error);
    EXPECT_THROW(detail::pipeline_blocks(
                     pool.get(), kBlocks, kWindow,
                     [](std::size_t, std::size_t) {},
                     [](std::size_t block) {
                       if (block == 91) throw std::runtime_error("chain");
                     }),
                 std::runtime_error);
  }
}

/// K shards straight out of the streaming builder, as a round close
/// finalizes them.
data::ShardedMatrix fresh_shards(const data::ObservationMatrix& source,
                                 std::size_t k, std::size_t block) {
  const data::ShardPlan plan =
      data::ShardPlan::create(source.num_users(), k, block);
  std::vector<data::ObservationMatrix> shards;
  for (std::size_t s = 0; s < plan.num_shards; ++s) {
    data::ObservationMatrixBuilder builder(plan.shard_num_users(s),
                                           source.num_objects());
    for (std::size_t local = 0; local < plan.shard_num_users(s); ++local) {
      std::vector<std::uint64_t> objects;
      std::vector<double> values;
      for (const auto& e : source.user_entries(plan.user_begin(s) + local)) {
        objects.push_back(e.object);
        values.push_back(e.value);
      }
      builder.add_row(local, objects, values);
    }
    shards.push_back(builder.finalize());
  }
  return data::ShardedMatrix::from_shards(plan, std::move(shards),
                                          source.num_objects());
}

void expect_same_result(const Result& expected, const Result& actual) {
  expect_same_bits(expected.truths, actual.truths, "truths");
  expect_same_bits(expected.weights, actual.weights, "weights");
  EXPECT_EQ(expected.iterations, actual.iterations);
}

TEST(BlockFold, RoundPathNeverBuildsTheColumnIndex) {
  // A round over freshly finalized shards, which hold only user rows, has
  // the bits of the same run over a flat matrix: CRH, mean and both votes
  // fold the rows, and median, GTM and CATD also gather whole columns from
  // them to initialize.
  data::SyntheticConfig config;
  config.num_users = 300;
  config.num_objects = 12;
  config.missing_rate = 0.3;
  config.seed = 77;
  const data::ObservationMatrix continuous =
      data::generate_synthetic(config).observations;
  Rng rng(78);
  const data::ObservationMatrix labels = continuous.transformed(
      [&](std::size_t, std::size_t, double) {
        return static_cast<double>(rng.next() % 3);
      });

  struct Case {
    const char* method;
    const data::ObservationMatrix* claims;
  };
  const Case cases[] = {
      {"crh", &continuous},  {"mean", &continuous},   {"vote", &labels},
      {"majority", &labels}, {"median", &continuous}, {"gtm", &continuous},
      {"catd", &continuous},
  };
  // The label claims draw from 3 labels, the alphabet both votes declare.
  const auto build = [](const std::string& name)
      -> std::unique_ptr<TruthDiscovery> {
    if (name == "vote") {
      return std::make_unique<WeightedVote>(
          WeightedVoteConfig{.num_labels = 3, .num_threads = 4});
    }
    if (name == "majority") {
      return std::make_unique<MajorityVote>(
          MajorityVoteConfig{.num_labels = 3, .num_threads = 4});
    }
    return make_method(name, {}, /*num_threads=*/4);
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.method);
    const auto method = build(c.method);
    const data::ShardedMatrix shards = fresh_shards(*c.claims, 3, 8);
    const Result actual = method->run_sharded(shards);
    const Result expected =
        method->run_sharded(data::ShardedMatrix::single(*c.claims, 8));
    expect_same_result(expected, actual);
  }

  // Wild label readings (empty users and blocks, uncovered objects) over
  // the full alphabet, pooled on fresh shards against one serial shard.
  const data::ObservationMatrix flat = wild_labels(79);
  const data::ShardedMatrix m = fresh_shards(flat, 3, 8);
  WeightedVoteConfig vote_config;
  vote_config.num_labels = kLabels;
  vote_config.num_threads = 4;
  const Result weighted = WeightedVote(vote_config).run_sharded(m);
  const Result majority =
      MajorityVote({.num_labels = kLabels, .num_threads = 4}).run_sharded(m);
  const data::ShardedMatrix single = data::ShardedMatrix::single(flat, 8);
  vote_config.num_threads = 1;
  expect_same_result(WeightedVote(vote_config).run_sharded(single), weighted);
  expect_same_result(
      MajorityVote({.num_labels = kLabels}).run_sharded(single), majority);
}

TEST(BlockFold, GatherBuildsEachColumnInUserOrder) {
  // At every K, each gathered column is the flat matrix's column in user
  // order, signed zeros and extreme magnitudes bit for bit; an object nobody
  // covers gathers an empty column. A shard's backend returns the same.
  const data::ObservationMatrix obs = wild_matrix(81);
  for (std::size_t k : kShardCounts) {
    for (std::size_t block : kBlockSizes) {
      SCOPED_TRACE("K=" + std::to_string(k) +
                   " block=" + std::to_string(block));
      const data::ShardedMatrix shards = fresh_shards(obs, k, block);
      const GatheredColumns gathered = gather_object_values(shards);
      ASSERT_EQ(gathered.num_objects(), kObjects);
      EXPECT_EQ(gathered.offsets.back(), obs.observation_count());
      for (std::size_t n = 0; n < kObjects; ++n) {
        const std::span<const double> column = gathered.column(n);
        expect_same_bits(testing::column_of(obs, n).values,
                         std::vector<double>(column.begin(), column.end()),
                         "object " + std::to_string(n));
        if (n >= kObjects - kUncovered) {
          EXPECT_TRUE(column.empty()) << "object " << n;
        }
      }
      LocalBackend backend(shards, nullptr);
      const GatheredColumns from_backend = backend.gather();
      EXPECT_EQ(from_backend.offsets, gathered.offsets);
      expect_same_bits(gathered.values, from_backend.values, "backend");
    }
  }
}

}  // namespace
}  // namespace dptd::truth
