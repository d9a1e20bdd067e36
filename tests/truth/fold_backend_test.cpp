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
#include <functional>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "categorical/label_matrix.h"
#include "categorical/voting.h"
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

  /// Sets `weights` on the whole backend and each part's slice on the part.
  void set_weights(std::span<const double> weights) {
    all->set_weights(weights);
    for (std::size_t i = 0; i < parts.size(); ++i) {
      parts[i]->set_weights(
          weights.subspan(whole.user_base(i), whole.shard(i).num_users()));
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
  split.set_weights(weights);
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
  const std::vector<double> crh = split.all->collect_weights();
  EXPECT_EQ(crh, split.part_weights());

  // GTM: the posterior chain under those weights as precisions (the collects
  // above handed the registers over), then the M-step.
  split.set_weights(crh);
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
  // The votes are not registered: each is built with its alphabet.
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

TEST(FoldBackend, CollectHandsTheWeightRegisterOver) {
  // collect_weights moves the register out, so a second collect with no
  // weight write in between reads all ones, as on a fresh backend, and
  // every weight write fills the register again.
  const data::ObservationMatrix obs = claims(16, 4, /*labels=*/true);
  const data::ShardedMatrix matrix = data::ShardedMatrix::single(obs, kBlock);
  LocalBackend backend(matrix, nullptr);
  const std::vector<double> ones(16, 1.0);
  std::vector<double> w(16);
  for (std::size_t s = 0; s < w.size(); ++s) {
    w[s] = 0.5 + 0.25 * static_cast<double>(s % 5);
  }
  backend.set_weights(w);
  EXPECT_EQ(backend.collect_weights(), w);
  EXPECT_EQ(backend.collect_weights(), ones);

  const std::vector<double> truths(4, 1.0);
  const std::vector<double> spread(4, 0.5);
  const std::vector<categorical::Label> labels(4, 1);
  backend.crh_prepare(CrhLoss::kSquared, 1e-12, std::vector<double>(4, 1.0));
  backend.gtm_prepare(GtmConfig{}, std::vector<double>(4, 0.0),
                      std::vector<double>(4, 1.0));
  backend.catd_prepare(0.05, 1e-12);
  backend.vote_prepare(kLabels, 1e-12);
  const std::vector<std::pair<std::string, std::function<void()>>> writes = {
      {"set_weights", [&] { backend.set_weights(w); }},
      {"crh_weights",
       [&] { backend.crh_weights(backend.crh_loss(truths, 0.0)); }},
      {"gtm_step", [&] { backend.gtm_step(truths, spread); }},
      {"catd_weights", [&] { backend.catd_weights(truths); }},
      {"vote_weights",
       [&] { backend.vote_weights(backend.vote_disagreement(labels, 0.0)); }},
  };
  for (const auto& [name, write] : writes) {
    write();
    const std::vector<double> weights = backend.collect_weights();
    EXPECT_EQ(weights.size(), 16u) << name;
    EXPECT_NE(weights, ones) << name;
    EXPECT_EQ(backend.collect_weights(), ones) << name;
  }
}

TEST(FoldBackend, LossFoldsBecomeWeightsInPlaceBitwise) {
  // The loss folds write into the weight register and the updates turn it
  // into weights in place. The same kernels over separate buffers must give
  // the same total and the same weights, bit for bit, and an update run
  // twice (a resent write) applies once. 1,600 users put every per-user
  // kernel above the pool's serial threshold at K = 1 and 3.
  constexpr std::size_t kUsers = 1600;
  constexpr std::size_t kObjects = 12;
  constexpr double kMinFraction = 1e-3;
  const data::ObservationMatrix values = claims(kUsers, kObjects, false);
  const data::ObservationMatrix labels = claims(kUsers, kObjects, true);
  std::vector<double> truths(kObjects);
  std::vector<categorical::Label> label_truths(kObjects);
  for (std::size_t n = 0; n < kObjects; ++n) {
    truths[n] = 0.75 * static_cast<double>(n);
    label_truths[n] = static_cast<categorical::Label>(n % kLabels);
  }
  const std::vector<double> stddevs(kObjects, 1.5);
  ThreadPool four(4);
  for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &four}) {
    for (std::size_t k : {1, 3}) {
      SCOPED_TRACE("pool=" + std::to_string(pool ? pool->size() : 0) +
                   " K=" + std::to_string(k));
      const data::ShardedMatrix m =
          data::ShardedMatrix::partition(values, k, kBlock);
      LocalBackend backend(m, pool);
      backend.crh_prepare(CrhLoss::kNormalizedSquared, kMinFraction, stddevs);
      const double total = backend.crh_loss(truths, 0.25);
      backend.crh_weights(total);
      backend.crh_weights(total);
      std::vector<double> losses(kUsers);
      crh_user_losses(m, pool, CrhLoss::kNormalizedSquared, truths, stddevs,
                      losses);
      const double expected_total = block_chain_sum(losses, kBlock, 0.25);
      std::vector<double> expected(kUsers);
      crh_weights_from_losses(pool, losses, expected_total, kMinFraction,
                              expected);
      EXPECT_EQ(bits({total}), bits({expected_total}));
      EXPECT_EQ(bits(backend.collect_weights()), bits(expected));

      const data::ShardedMatrix lm =
          data::ShardedMatrix::partition(labels, k, kBlock);
      LocalBackend voter(lm, pool);
      voter.vote_prepare(kLabels, kMinFraction);
      const double disagreed = voter.vote_disagreement(label_truths, 0.0);
      voter.vote_weights(disagreed);
      voter.vote_weights(disagreed);
      std::vector<double> counts(kUsers);
      categorical::vote_disagreement(lm, kLabels, pool, label_truths, counts);
      const double expected_disagreed = block_chain_sum(counts, kBlock, 0.0);
      ASSERT_GT(expected_disagreed, 0.0);
      categorical::vote_weights_from_disagreement(
          pool, counts, expected_disagreed, kMinFraction, expected);
      EXPECT_EQ(bits({disagreed}), bits({expected_disagreed}));
      EXPECT_EQ(bits(voter.collect_weights()), bits(expected));
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
  backend.vote_prepare(kLabels, 1e-12);
  EXPECT_THROW(backend.vote_disagreement(
                   std::vector<categorical::Label>(3, 0), 0.0),
               std::invalid_argument);
  // No refused step touched the weight register: it still reads uniform.
  EXPECT_EQ(backend.collect_weights(), std::vector<double>(16, 1.0));
}

}  // namespace
}  // namespace dptd::truth
