// LocalBackend is both halves of every deployment: run_sharded drives a
// method's loop over one backend spanning all shards, and each distributed
// shard runs one backend over its own rows while the coordinator threads the
// chained folds through them. This suite holds the second composition to the
// bits of the first, in process, and runs every loop over a pooled backend
// (the TSan job's race check on the register handoffs).
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "categorical/label_matrix.h"
#include "common/statistics.h"
#include "common/thread_pool.h"
#include "data/sharding.h"
#include "data/synthetic.h"
#include "truth/categorical.h"
#include "truth/fold_backend.h"
#include "truth/registry.h"

namespace dptd::truth {
namespace {

constexpr std::size_t kBlock = 8;
constexpr std::size_t kLabels = 3;

data::ObservationMatrix claims(std::size_t users, std::size_t objects,
                               bool labels) {
  data::SyntheticConfig config;
  config.num_users = users;
  config.num_objects = objects;
  config.missing_rate = 0.3;
  config.seed = 77;
  const data::ObservationMatrix obs =
      data::generate_synthetic(config).observations;
  if (!labels) return obs;
  data::ObservationMatrix out(users, objects);
  obs.for_each([&](std::size_t s, std::size_t n, double v) {
    out.set(s, n, static_cast<double>((s + n + (v > 0.0)) % kLabels));
  });
  return out;
}

/// A K-shard matrix, one backend over all of it, and one backend per shard
/// over that shard's rows alone (what a distributed shard holds).
struct Split {
  data::ShardedMatrix whole;
  std::vector<data::ShardedMatrix> rows;
  std::unique_ptr<LocalBackend> all;
  std::vector<std::unique_ptr<LocalBackend>> parts;

  Split(const data::ObservationMatrix& obs, std::size_t k)
      : whole(data::ShardedMatrix::partition(obs, k, kBlock)) {
    all = std::make_unique<LocalBackend>(whole, nullptr);
    for (std::size_t i = 0; i < whole.num_shards(); ++i) {
      rows.push_back(data::ShardedMatrix::single(whole.shard(i), kBlock));
    }
    for (const data::ShardedMatrix& r : rows) {
      parts.push_back(std::make_unique<LocalBackend>(r, nullptr));
    }
  }

  /// The parts' weight registers, concatenated in shard order.
  std::vector<double> part_weights() {
    std::vector<double> out;
    for (auto& part : parts) {
      const std::vector<double> slice = part->collect_weights();
      out.insert(out.end(), slice.begin(), slice.end());
    }
    return out;
  }
};

TEST(FoldBackend, ShardChainContinuesThePartitionedFoldBitwise) {
  const data::ObservationMatrix obs = claims(64, 6, /*labels=*/false);
  Split split(obs, 4);
  const std::size_t N = obs.num_objects();

  std::vector<double> weights(obs.num_users());
  for (std::size_t s = 0; s < weights.size(); ++s) {
    weights[s] = 0.5 + static_cast<double>(s % 7) * 0.3;
  }
  split.all->set_weights(weights);
  for (std::size_t i = 0; i < split.parts.size(); ++i) {
    const std::size_t begin = split.whole.user_base(i);
    split.parts[i]->set_weights(std::span<const double>(weights).subspan(
        begin, split.whole.shard(i).num_users()));
  }
  AggregateStats whole;
  AggregateStats chained;
  whole.reset(N);
  chained.reset(N);
  split.all->aggregate(whole);
  for (auto& part : split.parts) part->aggregate(chained);
  EXPECT_EQ(whole.weighted_sum, chained.weighted_sum);
  EXPECT_EQ(whole.weight_sum, chained.weight_sum);
  EXPECT_EQ(whole.plain_sum, chained.plain_sum);
  EXPECT_EQ(whole.counts, chained.counts);

  std::vector<RunningStats> moments(N);
  std::vector<RunningStats> chained_moments(N);
  split.all->moments(moments);
  for (auto& part : split.parts) part->moments(chained_moments);
  for (std::size_t n = 0; n < N; ++n) {
    EXPECT_EQ(moments[n].count(), chained_moments[n].count()) << n;
    EXPECT_EQ(moments[n].mean(), chained_moments[n].mean()) << n;
    EXPECT_EQ(moments[n].sum_squared_deviations(),
              chained_moments[n].sum_squared_deviations())
        << n;
  }

  // CRH: the loss total chains through the parts, and each part's weight
  // update is its slice of the whole one.
  const std::vector<double> truths = truths_from_aggregate(whole);
  const std::vector<double> stddevs(N, 1.5);
  split.all->crh_prepare(CrhLoss::kNormalizedSquared, 1e-12, stddevs);
  double total = 0.0;
  for (auto& part : split.parts) {
    part->crh_prepare(CrhLoss::kNormalizedSquared, 1e-12, stddevs);
    total = part->crh_loss(truths, total);
  }
  EXPECT_EQ(split.all->crh_loss(truths, 0.0), total);
  split.all->crh_weights(total);
  for (auto& part : split.parts) part->crh_weights(total);
  EXPECT_EQ(split.all->collect_weights(), split.part_weights());

  // GTM: the posterior chain under those precisions, then the M-step.
  GtmConfig gtm;
  const std::vector<double> shift(N, 0.25);
  const std::vector<double> scale(N, 2.0);
  std::vector<double> precision(N, 1.0);
  std::vector<double> weighted(N, 0.0);
  std::vector<double> chained_precision = precision;
  std::vector<double> chained_weighted = weighted;
  split.all->gtm_prepare(gtm, shift, scale);
  split.all->gtm_posterior(precision, weighted);
  for (auto& part : split.parts) {
    part->gtm_prepare(gtm, shift, scale);
    part->gtm_posterior(chained_precision, chained_weighted);
  }
  EXPECT_EQ(precision, chained_precision);
  EXPECT_EQ(weighted, chained_weighted);
  const std::vector<double> variance(N, 0.5);
  split.all->gtm_step(truths, variance);
  for (auto& part : split.parts) part->gtm_step(truths, variance);
  EXPECT_EQ(split.all->collect_weights(), split.part_weights());
}

TEST(FoldBackend, VoteChainsContinueThePartitionedFoldBitwise) {
  const data::ObservationMatrix obs = claims(64, 6, /*labels=*/true);
  Split split(obs, 3);
  const std::size_t N = obs.num_objects();
  split.all->vote_prepare(kLabels, 1e-12);
  for (auto& part : split.parts) part->vote_prepare(kLabels, 1e-12);

  std::vector<double> scores(N * kLabels, 0.0);
  std::vector<double> chained = scores;
  split.all->vote_scores(scores);
  for (auto& part : split.parts) part->vote_scores(chained);
  EXPECT_EQ(scores, chained);

  const std::vector<categorical::Label> truths =
      categorical::truths_from_scores(scores, N, kLabels);
  double total = 0.0;
  for (auto& part : split.parts) total = part->vote_disagreement(truths, total);
  EXPECT_EQ(split.all->vote_disagreement(truths, 0.0), total);
  ASSERT_GT(total, 0.0);
  split.all->vote_weights(total);
  for (auto& part : split.parts) part->vote_weights(total);
  EXPECT_EQ(split.all->collect_weights(), split.part_weights());
}

TEST(FoldBackend, PooledLoopsMatchSerialForEveryMethod) {
  // Both dimensions sit above for_each_range's serial-fallback threshold, so
  // the pool really splits users and objects, and three shards make the
  // folds chain across shard boundaries.
  ThreadPool pool(4);
  std::vector<std::unique_ptr<TruthDiscovery>> methods;
  for (const std::string& name : method_names()) {
    methods.push_back(make_method(name));
  }
  // A backend cannot infer an alphabet: the vote loops need it explicit.
  methods.push_back(std::make_unique<MajorityVote>(
      MajorityVoteConfig{.num_labels = kLabels}));
  WeightedVoteConfig vote_config;
  vote_config.num_labels = kLabels;
  methods.push_back(std::make_unique<WeightedVote>(vote_config));
  for (const auto& method : methods) {
    const std::string name = method->name();
    const bool labels = name == "majority" || name == "vote";
    const data::ObservationMatrix obs = claims(600, 520, labels);
    const data::ShardedMatrix matrix =
        data::ShardedMatrix::partition(obs, 3, kBlock);
    LocalBackend serial(matrix, nullptr);
    LocalBackend pooled(matrix, &pool);
    const Result cold = method->run_folds(serial, {});
    const Result threaded = method->run_folds(pooled, {});
    EXPECT_EQ(cold.truths, threaded.truths) << name;
    EXPECT_EQ(cold.weights, threaded.weights) << name;
    EXPECT_EQ(cold.iterations, threaded.iterations) << name;
    if (!method->supports_warm_start()) continue;

    // A warm rerun on the same backends: every register is rewritten.
    WarmStart seed;
    seed.truths = cold.truths;
    seed.weights = cold.weights;
    const Result warm = method->run_folds(serial, seed);
    const Result threaded_warm = method->run_folds(pooled, seed);
    EXPECT_EQ(warm.truths, threaded_warm.truths) << name;
    EXPECT_EQ(warm.weights, threaded_warm.weights) << name;
  }
}

/// Each double's bit pattern: EXPECT_EQ on doubles equates -0.0 and +0.0.
std::vector<std::uint64_t> bits(const std::vector<double>& values) {
  std::vector<std::uint64_t> out;
  for (double v : values) out.push_back(std::bit_cast<std::uint64_t>(v));
  return out;
}

TEST(FoldBackend, VoteFoldsOverReadingsDropWhatLabelViewDrops) {
  // Labels 0-2 and -0.0 (label 0) mixed with readings that are no label
  // below 3. Object 6 is claimed by non-labels alone, and so is every claim
  // of users [16, 24), one whole 8-user block: a non-label claim must touch
  // nothing, or object 6's -0.0 scores turn +0.0.
  constexpr std::size_t kUsers = 40;
  constexpr std::size_t kObjects = 7;
  const std::vector<double> labels = {0.0, 1.0, 2.0, -0.0, 1.0, 2.0, 0.0};
  const std::vector<double> non_labels = {2.5, -1.0, 3.0, 1e300};
  data::ObservationMatrix obs(kUsers, kObjects);
  for (std::size_t s = 0; s < kUsers; ++s) {
    for (std::size_t n = 0; n < kObjects; ++n) {
      if ((s * 7 + n * 3) % 5 == 0) continue;
      const bool label = n != 6 && (s < 16 || s >= 24) && (s + 2 * n) % 6 != 0;
      obs.set(s, n,
              label ? labels[(s * 3 + n) % labels.size()]
                    : non_labels[(s + n) % non_labels.size()]);
    }
  }
  WeightedVoteConfig vote;
  vote.num_labels = kLabels;
  for (std::size_t threads : {1, 2, 4}) {
    std::unique_ptr<ThreadPool> pool;
    if (threads > 1) pool = std::make_unique<ThreadPool>(threads);
    vote.num_threads = threads;
    for (std::size_t k : {1, 2, 3}) {
      for (std::size_t block : {1, 3, 8}) {
        SCOPED_TRACE("pool=" + std::to_string(threads) +
                     " K=" + std::to_string(k) +
                     " block=" + std::to_string(block));
        const data::ShardedMatrix m =
            data::ShardedMatrix::partition(obs, k, block);
        const categorical::ShardedLabelMatrix view = label_view(m, kLabels);
        LocalBackend readings(m, pool.get());
        LocalBackend copied(view.readings, pool.get());
        readings.vote_prepare(kLabels, 1e-12);
        copied.vote_prepare(kLabels, 1e-12);

        std::vector<double> scores(kObjects * kLabels, -0.0);
        std::vector<double> expected = scores;
        readings.vote_scores(scores);
        copied.vote_scores(expected);
        EXPECT_EQ(bits(scores), bits(expected));
        EXPECT_TRUE(std::signbit(scores[6 * kLabels]));

        const std::vector<categorical::Label> truths =
            categorical::truths_from_scores(expected, kObjects, kLabels);
        const double total = readings.vote_disagreement(truths, 0.0);
        const double expected_total = copied.vote_disagreement(truths, 0.0);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(total),
                  std::bit_cast<std::uint64_t>(expected_total));
        ASSERT_GT(expected_total, 0.0);
        readings.vote_weights(total);
        copied.vote_weights(expected_total);
        EXPECT_EQ(bits(readings.collect_weights()),
                  bits(copied.collect_weights()));

        // The whole loops, over the readings and over label_view's copy.
        const MajorityVote majority_method(
            {.num_labels = kLabels, .num_threads = threads});
        const WeightedVote weighted_method(vote);
        const Result majority = majority_method.run_sharded(view.readings);
        const Result weighted = weighted_method.run_sharded(view.readings);
        const Result cold_majority = majority_method.run_sharded(m);
        const Result cold = weighted_method.run_sharded(m);
        EXPECT_EQ(cold_majority.truths, majority.truths);
        EXPECT_EQ(cold.truths, weighted.truths);
        EXPECT_EQ(bits(cold.weights), bits(weighted.weights));
        EXPECT_EQ(cold.iterations, weighted.iterations);

        // Warm: a seed with both halves, its truths and its weights.
        WarmStart seed;
        seed.truths = cold.truths;
        seed.weights = cold.weights;
        seed.weights[0] = 0.5;
        seed.truths[0] = 2.0;
        const Result warm_weighted =
            weighted_method.run_sharded(view.readings, seed);
        const Result warm = weighted_method.run_sharded(m, seed);
        EXPECT_EQ(majority_method.run_sharded(m, seed).truths,
                  majority.truths);
        EXPECT_EQ(warm.truths, warm_weighted.truths);
        EXPECT_EQ(bits(warm.weights), bits(warm_weighted.weights));
        EXPECT_EQ(warm.iterations, warm_weighted.iterations);
      }
    }
  }
}

TEST(FoldBackend, StepsBeforeTheirPrepareAreRefused) {
  const data::ObservationMatrix obs = claims(16, 4, /*labels=*/false);
  const data::ShardedMatrix matrix = data::ShardedMatrix::single(obs, kBlock);
  LocalBackend backend(matrix, nullptr);
  // The weight register starts uniform.
  EXPECT_EQ(backend.collect_weights(), std::vector<double>(16, 1.0));

  const std::vector<double> truths(4, 0.0);
  EXPECT_THROW(backend.crh_loss(truths, 0.0), std::invalid_argument);
  EXPECT_THROW(backend.crh_weights(1.0), std::invalid_argument);
  EXPECT_THROW(backend.gtm_step(truths, truths), std::invalid_argument);
  EXPECT_THROW(backend.catd_weights(truths), std::invalid_argument);
  EXPECT_THROW(backend.vote_weights(1.0), std::invalid_argument);
  std::vector<double> scores(4 * kLabels, 0.0);
  EXPECT_THROW(backend.vote_scores(scores), std::invalid_argument);
  const std::vector<categorical::Label> label_truths(4, 0);
  EXPECT_THROW(backend.vote_disagreement(label_truths, 0.0),
               std::invalid_argument);
  // The alphabet bounds hold on readings too, and a refused prepare leaves
  // the vote steps refused even after an earlier prepare succeeded.
  backend.vote_prepare(kLabels, 1e-12);
  EXPECT_THROW(backend.vote_prepare(1, 1e-12), std::invalid_argument);
  EXPECT_THROW(backend.vote_scores(scores), std::invalid_argument);
  EXPECT_THROW(backend.vote_prepare(kMaxBridgedLabels + 1, 1e-12),
               std::invalid_argument);
  EXPECT_THROW(backend.vote_scores(scores), std::invalid_argument);
  EXPECT_THROW(backend.set_weights(std::vector<double>(15, 1.0)),
               std::invalid_argument);
  backend.crh_prepare(CrhLoss::kSquared, 1e-12, std::vector<double>(4, 1.0));
  EXPECT_THROW(backend.crh_loss(std::vector<double>(3, 0.0), 0.0),
               std::invalid_argument);
}

}  // namespace
}  // namespace dptd::truth
