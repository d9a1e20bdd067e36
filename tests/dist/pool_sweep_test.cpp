// A shard answers every statistics op on a truth::LocalBackend, pooled or
// serial depending on its slice. The kernels promise the same bits for any
// pool size, so every op row's reply must be the same bytes whatever pool
// the backend folds on. This sweep runs every row of the op table through
// run_op on a serial backend and on backends over pools of seeded-random
// size in [2, 8], and compares each reply byte for byte; a register write
// replies with an empty ack, so each is followed by a kCollectWeights that
// reads the register it wrote.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <optional>
#include <random>
#include <set>
#include <tuple>
#include <vector>

#include "categorical/synthetic.h"
#include "common/thread_pool.h"
#include "data/sharding.h"
#include "data/synthetic.h"
#include "dist/stats_wire.h"
#include "truth/fold_backend.h"

namespace dptd::dist {
namespace {

/// 512 blocks of 8 users: every pooled kernel splits its work (the per-user
/// steps need 512 users or more, the block folds two blocks or more).
constexpr std::size_t kUsers = 4096;
constexpr std::size_t kBlock = 8;
constexpr std::size_t kObjects = 12;
constexpr std::size_t kLabels = 5;

struct Step {
  ShardOp op;
  std::vector<std::uint8_t> request;
};

template <ShardOp Op>
Step step(ArgsOf<Op> args) {
  return {Op, encode_fields(args)};
}

Step collect() { return step<ShardOp::kCollectWeights>({}); }

/// Every continuous row, on claims whose truths are `truths`.
std::vector<Step> continuous_script(const std::vector<double>& truths) {
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> unit(0.25, 2.0);
  Doubles weights(kUsers);
  for (double& w : weights) w = unit(rng);
  Doubles stddevs(kObjects);
  for (double& s : stddevs) s = unit(rng);
  truth::AggregateStats acc;
  acc.reset(kObjects);
  return {
      step<ShardOp::kMoments>({Moments(kObjects)}),
      step<ShardOp::kGather>({}),
      step<ShardOp::kSetWeights>({WeightsBody{false, weights}}),
      step<ShardOp::kAggregate>({acc}),
      step<ShardOp::kCrhPrepare>(
          {truth::CrhLoss::kNormalizedSquared, 1e-12, stddevs}),
      step<ShardOp::kCrhLoss>({truths, 0.5}),
      step<ShardOp::kCrhWeights>({1e4}),
      collect(),
      step<ShardOp::kAggregate>({acc}),
      step<ShardOp::kCrhWeights>({0.0}),  // every user agrees: unit weights
      collect(),
      step<ShardOp::kSetWeights>({WeightsBody{true, {}}}),
      step<ShardOp::kGtmPrepare>({10.0, 10.0, 1e-6, truths, stddevs}),
      step<ShardOp::kGtmFold>({Doubles(kObjects), Doubles(kObjects)}),
      step<ShardOp::kGtmStep>({truths, stddevs}),
      collect(),
      step<ShardOp::kGtmFold>({Doubles(kObjects), Doubles(kObjects)}),
      step<ShardOp::kCatdPrepare>({0.05, 1e-12}),
      step<ShardOp::kCatdWeights>({truths}),
      collect(),
      step<ShardOp::kAggregate>({acc}),
  };
}

/// Every vote row, on label claims whose truths are `truths`.
std::vector<Step> label_script(const Labels& truths) {
  return {
      step<ShardOp::kVotePrepare>({kLabels, 1e-12}),
      step<ShardOp::kVoteScores>({Doubles(kObjects * kLabels)}),
      step<ShardOp::kVoteDisagree>({truths, 0.0}),
      step<ShardOp::kVoteWeights>({1e4}),
      collect(),
      step<ShardOp::kVoteScores>({Doubles(kObjects * kLabels)}),
      step<ShardOp::kVoteWeights>({0.0}),  // unanimity: unit weights
      collect(),
  };
}

/// Runs `script` on a backend over `matrix` folding on `pool` (null:
/// serially); returns every reply.
std::vector<std::vector<std::uint8_t>> replies(
    const data::ShardedMatrix& matrix, ThreadPool* pool,
    const std::vector<Step>& script) {
  truth::LocalBackend backend(matrix, pool);
  std::vector<std::vector<std::uint8_t>> out;
  for (const Step& s : script) {
    std::optional<std::vector<std::uint8_t>> reply =
        run_op(s.op, s.request, &backend);
    EXPECT_TRUE(reply.has_value()) << static_cast<int>(s.op);
    out.push_back(reply.value_or(std::vector<std::uint8_t>{}));
  }
  return out;
}

void expect_same_replies_for_any_pool(const data::ObservationMatrix& claims,
                                      const std::vector<Step>& script,
                                      std::uint64_t seed) {
  const data::ShardedMatrix matrix =
      data::ShardedMatrix::single(claims, kBlock);
  const auto serial = replies(matrix, nullptr, script);
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<std::size_t> pool_size(2, 8);
  for (int trial = 0; trial < 4; ++trial) {
    ThreadPool pool(pool_size(rng));
    const auto pooled = replies(matrix, &pool, script);
    ASSERT_EQ(pooled.size(), serial.size());
    for (std::size_t i = 0; i < script.size(); ++i) {
      EXPECT_EQ(pooled[i], serial[i])
          << "step " << i << " (op " << static_cast<int>(script[i].op)
          << ") on a pool of " << pool.size();
    }
  }
}

TEST(PoolSizeSweep, EveryOpRowRepliesTheSameBytesOnAnyPool) {
  data::SyntheticConfig config;
  config.num_users = kUsers;
  config.num_objects = kObjects;
  config.missing_rate = 0.3;
  config.seed = 31;
  const data::Dataset readings = data::generate_synthetic(config);
  expect_same_replies_for_any_pool(
      readings.observations, continuous_script(readings.ground_truth), 101);

  categorical::CategoricalConfig label_config;
  label_config.num_users = kUsers;
  label_config.num_objects = kObjects;
  label_config.num_labels = kLabels;
  label_config.lambda_err = 0.8;
  label_config.missing_rate = 0.3;
  label_config.seed = 32;
  const categorical::LabelDataset labels =
      categorical::generate_categorical(label_config);
  expect_same_replies_for_any_pool(labels.claims,
                                   label_script(labels.ground_truth), 202);
}

TEST(PoolSizeSweep, ScriptsCoverEveryOpRow) {
  // A row added to the table must join the sweep.
  std::set<ShardOp> swept;
  for (const Step& s : continuous_script(std::vector<double>(kObjects))) {
    swept.insert(s.op);
  }
  for (const Step& s : label_script(Labels(kObjects))) swept.insert(s.op);
  std::vector<ShardOp> rows;
  std::apply([&](const auto&... row) { (rows.push_back(row.op), ...); },
             kOpTable);
  for (const ShardOp op : rows) {
    EXPECT_EQ(swept.count(op), 1u) << "op " << static_cast<int>(op);
  }
}

}  // namespace
}  // namespace dptd::dist
