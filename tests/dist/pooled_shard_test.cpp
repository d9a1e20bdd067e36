// Shard nodes fold on a thread pool once their slice spans
// ShardNode::kPoolMinBlocks canonical blocks, and serially below that. The
// kernels' bits do not depend on the pool, so a fleet whose slices are
// pooled must publish what the in-process run_sharded publishes at the same
// K, bit for bit: every method, cold and warm, and a fleet whose two slices
// sit one block either side of the threshold. Each case reads which side
// every slice took from ShardNode::folds_on_pool().
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "categorical/synthetic.h"
#include "crowd/protocol.h"
#include "data/sharding.h"
#include "data/synthetic.h"
#include "dist/coordinator.h"
#include "dist/shard_node.h"
#include "net/network.h"
#include "truth/interface.h"

namespace dptd::dist {
namespace {

constexpr std::size_t kTestBlock = 8;
constexpr std::size_t kNumObjects = 6;
constexpr std::size_t kNumLabels = 5;
constexpr net::NodeId kCoordinatorId = 9'000'000;
constexpr net::NodeId kShardBase = 1000;

/// 192 blocks: 64 or more per slice at K = 1, 2 and 3.
constexpr std::size_t kPooledUsers = 1536;
/// 2 x kPoolMinBlocks - 1 blocks: at K = 2 the slices hold
/// kPoolMinBlocks - 1 and kPoolMinBlocks blocks.
constexpr std::size_t kStraddleUsers =
    (2 * ShardNode::kPoolMinBlocks - 1) * kTestBlock;

struct PooledCase {
  MethodSpec::Kind kind;
  const char* name;
};

void PrintTo(const PooledCase& c, std::ostream* os) { *os << c.name; }

MethodSpec spec_for(MethodSpec::Kind kind) {
  MethodSpec spec;
  spec.kind = kind;
  spec.majority.num_labels = kNumLabels;
  spec.vote.num_labels = kNumLabels;
  return spec;
}

/// The round's claims: readings for a continuous method, label ids as exact
/// doubles for a categorical one.
data::ObservationMatrix claims_for(const MethodSpec& spec, std::uint64_t seed,
                                   std::size_t users) {
  if (spec.categorical()) {
    categorical::CategoricalConfig config;
    config.num_users = users;
    config.num_objects = kNumObjects;
    config.num_labels = kNumLabels;
    config.lambda_err = 0.8;
    config.missing_rate = 0.3;
    config.seed = seed;
    return categorical::generate_categorical(config).claims;
  }
  data::SyntheticConfig config;
  config.num_users = users;
  config.num_objects = kNumObjects;
  config.missing_rate = 0.3;
  config.lambda1 = 1.0;
  config.seed = seed;
  return data::generate_synthetic(config).observations;
}

struct Fleet {
  net::Simulator sim;
  net::Network network{sim, net::LatencyModel{0.01, 0.0, 0.0}, 7};
  std::vector<std::unique_ptr<ShardNode>> shards;
  std::unique_ptr<Coordinator> coordinator;

  Fleet(std::size_t num_shards, const MethodSpec& spec, bool warm_start) {
    CoordinatorConfig config;
    config.id = kCoordinatorId;
    config.num_objects = kNumObjects;
    config.block_size = kTestBlock;
    config.warm_start = warm_start;
    coordinator = std::make_unique<Coordinator>(config, spec, network);
    for (std::size_t i = 0; i < num_shards; ++i) {
      shards.push_back(std::make_unique<ShardNode>(kShardBase + i, network));
      coordinator->add_shard(kShardBase + i);
    }
  }

  /// Runs one round over `claims` (user s uploads as id s) and returns its
  /// outcome.
  DistributedOutcome round(std::uint64_t round, const MethodSpec& spec,
                           const data::ObservationMatrix& claims) {
    std::vector<net::NodeId> participants;
    for (std::size_t s = 0; s < claims.num_users(); ++s) {
      participants.push_back(s);
    }
    EXPECT_TRUE(coordinator->begin_round(round, participants));
    for (std::size_t s = 0; s < claims.num_users(); ++s) {
      const auto row = claims.user_entries(s);
      if (row.empty()) continue;
      std::vector<std::uint8_t> body;
      if (spec.categorical()) {
        crowd::LabelReport report{round, s, {}, {}};
        for (const auto& e : row) {
          report.objects.push_back(e.object);
          report.labels.push_back(static_cast<categorical::Label>(e.value));
        }
        body = report.encode();
      } else {
        crowd::Report report{round, s, {}, {}};
        for (const auto& e : row) {
          report.objects.push_back(e.object);
          report.values.push_back(e.value);
        }
        body = report.encode();
      }
      network.send(crowd::make_message(
          s, kCoordinatorId,
          spec.categorical() ? crowd::MessageType::kLabelReport
                             : crowd::MessageType::kReport,
          std::move(body)));
    }
    sim.run();
    return coordinator->close_round();
  }

  std::vector<bool> pooled() const {
    std::vector<bool> out;
    for (const auto& shard : shards) out.push_back(shard->folds_on_pool());
    return out;
  }
};

void expect_bitwise_equal(const truth::Result& a, const truth::Result& b,
                          const std::string& label) {
  ASSERT_EQ(a.truths.size(), b.truths.size()) << label;
  for (std::size_t n = 0; n < a.truths.size(); ++n) {
    EXPECT_EQ(a.truths[n], b.truths[n]) << label << " truth " << n;
  }
  ASSERT_EQ(a.weights.size(), b.weights.size()) << label;
  for (std::size_t s = 0; s < a.weights.size(); ++s) {
    EXPECT_EQ(a.weights[s], b.weights[s]) << label << " weight " << s;
  }
  EXPECT_EQ(a.iterations, b.iterations) << label;
  EXPECT_EQ(a.converged, b.converged) << label;
}

/// Runs a cold round and, for a method that warm-starts, a second round
/// seeded by the first, at K shards over `users` users; checks both against
/// run_sharded at the same K and returns which slices folded on a pool.
std::vector<bool> check_rounds(const PooledCase& param, std::size_t k,
                               std::size_t users) {
  const MethodSpec spec = spec_for(param.kind);
  const auto method = make_method(spec);
  const std::string label = std::string(param.name) + " K=" +
                            std::to_string(k) + " users=" +
                            std::to_string(users);
  const data::ObservationMatrix first = claims_for(spec, 11, users);
  const data::ObservationMatrix second = claims_for(spec, 12, users);

  Fleet fleet(k, spec, spec.supports_warm_start());
  const DistributedOutcome cold = fleet.round(1, spec, first);
  EXPECT_TRUE(cold.aggregated) << label;
  const truth::Result prior = method->run_sharded(
      data::ShardedMatrix::partition(first, k, kTestBlock));
  expect_bitwise_equal(prior, cold.result, label + " cold");
  const std::vector<bool> pooled = fleet.pooled();

  if (spec.supports_warm_start()) {
    const DistributedOutcome warm = fleet.round(2, spec, second);
    EXPECT_TRUE(warm.aggregated) << label;
    EXPECT_TRUE(warm.warm_started) << label;
    truth::WarmStart seed;
    seed.truths = prior.truths;
    seed.weights = prior.weights;
    const truth::Result reference = method->run_sharded(
        data::ShardedMatrix::partition(second, k, kTestBlock), seed);
    expect_bitwise_equal(reference, warm.result, label + " warm");
    EXPECT_EQ(fleet.pooled(), pooled) << label;
  }
  return pooled;
}

class PooledShardRound : public ::testing::TestWithParam<PooledCase> {};

TEST_P(PooledShardRound, PooledSlicesMatchInProcessBitwise) {
  for (const std::size_t k : {1u, 2u, 3u}) {
    EXPECT_EQ(check_rounds(GetParam(), k, kPooledUsers),
              std::vector<bool>(k, true))
        << GetParam().name << " K=" << k;
  }
}

TEST_P(PooledShardRound, SlicesEitherSideOfTheThresholdMatchBitwise) {
  EXPECT_EQ(check_rounds(GetParam(), 2, kStraddleUsers),
            (std::vector<bool>{false, true}))
      << GetParam().name;
}

INSTANTIATE_TEST_SUITE_P(
    AllMethods, PooledShardRound,
    ::testing::Values(PooledCase{MethodSpec::Kind::kCrh, "crh"},
                      PooledCase{MethodSpec::Kind::kGtm, "gtm"},
                      PooledCase{MethodSpec::Kind::kCatd, "catd"},
                      PooledCase{MethodSpec::Kind::kMean, "mean"},
                      PooledCase{MethodSpec::Kind::kMedian, "median"},
                      PooledCase{MethodSpec::Kind::kMajority, "majority"},
                      PooledCase{MethodSpec::Kind::kVote, "vote"}));

TEST(PooledShardNode, PoolOutlivesRoundsAndFailRejoin) {
  // A pooled slice, then a crash and a rejoin, then a small slice, then a
  // pooled one again: the side follows each round's slice, and the results
  // keep their bits throughout.
  const MethodSpec spec = spec_for(MethodSpec::Kind::kCrh);
  const auto method = make_method(spec);
  Fleet fleet(1, spec, /*warm_start=*/false);
  EXPECT_FALSE(fleet.shards[0]->folds_on_pool());  // not finalized yet

  const data::ObservationMatrix large = claims_for(spec, 21, kPooledUsers);
  const data::ObservationMatrix small = claims_for(spec, 22, 64);
  const auto reference = [&](const data::ObservationMatrix& claims) {
    return method->run_sharded(
        data::ShardedMatrix::partition(claims, 1, kTestBlock));
  };

  expect_bitwise_equal(reference(large), fleet.round(1, spec, large).result,
                       "round 1");
  EXPECT_TRUE(fleet.shards[0]->folds_on_pool());

  fleet.shards[0]->fail();
  EXPECT_FALSE(fleet.shards[0]->folds_on_pool());
  fleet.shards[0]->rejoin();

  expect_bitwise_equal(reference(small), fleet.round(2, spec, small).result,
                       "round 2");
  EXPECT_FALSE(fleet.shards[0]->folds_on_pool());

  expect_bitwise_equal(reference(large), fleet.round(3, spec, large).result,
                       "round 3");
  EXPECT_TRUE(fleet.shards[0]->folds_on_pool());
}

}  // namespace
}  // namespace dptd::dist
