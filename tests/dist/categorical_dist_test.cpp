// Categorical rounds over the distributed coordinator: a K-node fleet
// ingesting kLabelReport uploads and closing majority/weighted-vote rounds
// through the chained categorical folds (kVotePrepare/kVoteScores/
// kVoteDisagree/kVoteWeights) publishes results bitwise identical to the
// in-process truth::MajorityVote / truth::WeightedVote::run_sharded at the
// same K — cold and warm-started — and applies the same ingest mechanisms:
// out-of-alphabet labels counted and dropped, wrong-kind uploads rejected;
// a categorical spec without an alphabet, or with a weighted-vote config out
// of range, is refused when the coordinator is built.
#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "categorical/label_matrix.h"
#include "categorical/synthetic.h"
#include "crowd/protocol.h"
#include "data/sharding.h"
#include "dist/coordinator.h"
#include "dist/shard_node.h"
#include "net/network.h"
#include "truth/interface.h"

namespace dptd::dist {
namespace {

constexpr std::size_t kTestBlock = 8;
constexpr net::NodeId kCoordinatorId = 9'000'000;
constexpr net::NodeId kShardBase = 1000;
constexpr std::size_t kNumLabels = 5;

categorical::LabelDataset label_dataset(std::uint64_t seed, std::size_t users,
                                        std::size_t objects) {
  categorical::CategoricalConfig config;
  config.num_users = users;
  config.num_objects = objects;
  config.num_labels = kNumLabels;
  config.lambda_err = 0.8;  // noisy population: weighted vote iterates
  config.missing_rate = 0.3;
  config.seed = seed;
  return categorical::generate_categorical(config);
}

MethodSpec spec_for(const std::string& name) {
  MethodSpec spec;
  if (name == "majority") {
    spec.kind = MethodSpec::Kind::kMajority;
    spec.majority.num_labels = kNumLabels;
  } else if (name == "vote") {
    spec.kind = MethodSpec::Kind::kVote;
    spec.vote.num_labels = kNumLabels;
  } else {
    ADD_FAILURE() << "unknown method " << name;
  }
  return spec;
}

void expect_bitwise_equal(const truth::Result& a, const truth::Result& b,
                          const std::string& label) {
  ASSERT_EQ(a.truths.size(), b.truths.size()) << label;
  for (std::size_t n = 0; n < a.truths.size(); ++n) {
    // EXPECT_EQ on doubles is exact comparison — bit-identity.
    EXPECT_EQ(a.truths[n], b.truths[n]) << label << " truth " << n;
  }
  ASSERT_EQ(a.weights.size(), b.weights.size()) << label;
  for (std::size_t s = 0; s < a.weights.size(); ++s) {
    EXPECT_EQ(a.weights[s], b.weights[s]) << label << " weight " << s;
  }
  EXPECT_EQ(a.iterations, b.iterations) << label;
  EXPECT_EQ(a.converged, b.converged) << label;
}

struct Fleet {
  net::Simulator sim;
  net::Network network{sim, net::LatencyModel{0.01, 0.0, 0.0}, 7};
  std::vector<std::unique_ptr<ShardNode>> shards;
  std::unique_ptr<Coordinator> coordinator;

  Fleet(std::size_t num_shards, const MethodSpec& spec,
        std::size_t num_objects, bool warm_start = false) {
    CoordinatorConfig config;
    config.id = kCoordinatorId;
    config.num_objects = num_objects;
    config.block_size = kTestBlock;
    config.warm_start = warm_start;
    coordinator = std::make_unique<Coordinator>(config, spec, network);
    for (std::size_t i = 0; i < num_shards; ++i) {
      shards.push_back(std::make_unique<ShardNode>(kShardBase + i, network));
      coordinator->add_shard(kShardBase + i);
    }
  }
};

std::vector<net::NodeId> participant_ids(std::size_t count) {
  std::vector<net::NodeId> ids;
  for (std::size_t s = 0; s < count; ++s) ids.push_back(s);
  return ids;
}

/// Uploads every user's claims as one kLabelReport to the coordinator and
/// pumps the simulator until routing and shard ingestion settle.
void send_label_dataset(Fleet& fleet,
                        const categorical::LabelDataset& dataset,
                        std::uint64_t round) {
  for (std::size_t s = 0; s < dataset.claims.num_users(); ++s) {
    const auto row = dataset.claims.user_entries(s);
    if (row.empty()) continue;
    crowd::LabelReport report;
    report.round = round;
    report.user_id = s;
    for (const auto& entry : row) {
      report.objects.push_back(entry.object);
      report.labels.push_back(static_cast<categorical::Label>(entry.value));
    }
    fleet.network.send(crowd::make_message(report.user_id, kCoordinatorId,
                                           crowd::MessageType::kLabelReport,
                                           report.encode()));
  }
  fleet.sim.run();
}

class CategoricalDistributed : public ::testing::TestWithParam<const char*> {};

TEST_P(CategoricalDistributed, ColdRoundMatchesInProcessBitwiseAtEveryK) {
  const std::string name = GetParam();
  // The in-process reference input is the generator's own claims: label ids
  // as exact doubles, the encoding the shard builders store from decoded
  // kLabelReport claims.
  const categorical::LabelDataset dataset = label_dataset(501, 64, 12);
  const MethodSpec spec = spec_for(name);
  const auto method = make_method(spec);

  for (const std::size_t k : {1u, 2u, 4u, 8u}) {
    const std::string label = name + " K=" + std::to_string(k);
    Fleet fleet(k, spec, dataset.claims.num_objects());
    ASSERT_TRUE(fleet.coordinator->begin_round(
        1, participant_ids(dataset.claims.num_users())));
    send_label_dataset(fleet, dataset, 1);
    const DistributedOutcome outcome = fleet.coordinator->close_round();
    ASSERT_TRUE(outcome.completed) << label;
    ASSERT_TRUE(outcome.aggregated) << label;
    EXPECT_EQ(outcome.resends, 0u) << label;
    EXPECT_EQ(outcome.reports_unroutable, 0u) << label;

    const truth::Result reference = method->run_sharded(
        data::ShardedMatrix::partition(dataset.claims, k, kTestBlock));
    expect_bitwise_equal(reference, outcome.result, label);
  }
}

TEST(CategoricalDistributed, WeightedVoteIteratesAndWarmRoundMatches) {
  const MethodSpec spec = spec_for("vote");
  const categorical::LabelDataset previous = label_dataset(61, 64, 12);
  const categorical::LabelDataset current = label_dataset(62, 64, 12);
  const auto method = make_method(spec);
  const auto participants = participant_ids(64);

  for (const std::size_t k : {1u, 2u, 4u, 8u}) {
    const std::string label = "vote warm K=" + std::to_string(k);
    Fleet fleet(k, spec, previous.claims.num_objects(), /*warm_start=*/true);
    ASSERT_TRUE(fleet.coordinator->begin_round(1, participants));
    send_label_dataset(fleet, previous, 1);
    const DistributedOutcome first = fleet.coordinator->close_round();
    ASSERT_TRUE(first.aggregated) << label;
    EXPECT_FALSE(first.warm_started) << label;
    EXPECT_GT(first.result.iterations, 1u) << label;  // genuinely iterative

    ASSERT_TRUE(fleet.coordinator->begin_round(2, participants));
    send_label_dataset(fleet, current, 2);
    const DistributedOutcome second = fleet.coordinator->close_round();
    ASSERT_TRUE(second.aggregated) << label;
    EXPECT_TRUE(second.warm_started) << label;

    // Unchanged roster: the in-process seed is round 1's converged state.
    const truth::Result prior = method->run_sharded(
        data::ShardedMatrix::partition(previous.claims, k, kTestBlock));
    truth::WarmStart seed;
    seed.truths = prior.truths;
    seed.weights = prior.weights;
    const truth::Result reference = method->run_sharded(
        data::ShardedMatrix::partition(current.claims, k, kTestBlock), seed);
    expect_bitwise_equal(reference, second.result, label);
  }
}

TEST(CategoricalDistributed, InvalidLabelsAreCountedAndDroppedNotFatal) {
  const MethodSpec spec = spec_for("majority");
  Fleet fleet(2, spec, 2);
  ASSERT_TRUE(fleet.coordinator->begin_round(1, participant_ids(16)));
  for (std::size_t s = 0; s < 16; ++s) {
    crowd::LabelReport report;
    report.round = 1;
    report.user_id = s;
    report.objects = {0, 1};
    // User 3 claims an out-of-alphabet label on object 1: dropped + counted.
    report.labels = {1, s == 3 ? 99u : 2u};
    fleet.network.send(crowd::make_message(
        s, kCoordinatorId, crowd::MessageType::kLabelReport,
        report.encode()));
  }
  fleet.sim.run();
  const DistributedOutcome outcome = fleet.coordinator->close_round();
  ASSERT_TRUE(outcome.aggregated);
  std::size_t invalid = 0;
  for (const crowd::ShardIngestStats& stats : outcome.shard_stats) {
    invalid += stats.invalid_labels;
  }
  EXPECT_EQ(invalid, 1u);
  ASSERT_EQ(outcome.result.truths.size(), 2u);
  EXPECT_EQ(outcome.result.truths[0], 1.0);
  EXPECT_EQ(outcome.result.truths[1], 2.0);  // 15 valid claims remain
}

TEST(CategoricalDistributed, WrongKindUploadsAreRejectedBothWays) {
  // A continuous kReport inside a categorical round is dropped and counted
  // by the owning shard; the round still closes over the label uploads.
  const categorical::LabelDataset dataset = label_dataset(71, 32, 6);
  const MethodSpec spec = spec_for("majority");
  Fleet fleet(2, spec, dataset.claims.num_objects());
  ASSERT_TRUE(fleet.coordinator->begin_round(
      1, participant_ids(dataset.claims.num_users())));
  crowd::Report continuous;
  continuous.round = 1;
  continuous.user_id = 0;
  continuous.objects = {0, 1};
  continuous.values = {1.0, 2.0};
  fleet.network.send(crowd::make_message(0, kCoordinatorId,
                                         crowd::MessageType::kReport,
                                         continuous.encode()));
  send_label_dataset(fleet, dataset, 1);
  const DistributedOutcome outcome = fleet.coordinator->close_round();
  ASSERT_TRUE(outcome.aggregated);
  std::size_t rejected = 0;
  for (const crowd::ShardIngestStats& stats : outcome.shard_stats) {
    rejected += stats.rejected_reports;
  }
  EXPECT_EQ(rejected, 1u);

  // And the converse: a kLabelReport inside a continuous round.
  MethodSpec crh;
  crh.kind = MethodSpec::Kind::kCrh;
  Fleet continuous_fleet(2, crh, 2);
  ASSERT_TRUE(continuous_fleet.coordinator->begin_round(
      1, participant_ids(16)));
  crowd::LabelReport label;
  label.round = 1;
  label.user_id = 0;
  label.objects = {0};
  label.labels = {1};
  continuous_fleet.network.send(crowd::make_message(
      0, kCoordinatorId, crowd::MessageType::kLabelReport, label.encode()));
  for (std::size_t s = 0; s < 16; ++s) {
    crowd::Report report;
    report.round = 1;
    report.user_id = s;
    report.objects = {0, 1};
    report.values = {static_cast<double>(s), static_cast<double>(s + 1)};
    continuous_fleet.network.send(crowd::make_message(
        s, kCoordinatorId, crowd::MessageType::kReport, report.encode()));
  }
  continuous_fleet.sim.run();
  const DistributedOutcome crh_outcome =
      continuous_fleet.coordinator->close_round();
  ASSERT_TRUE(crh_outcome.aggregated);
  std::size_t crh_rejected = 0;
  for (const crowd::ShardIngestStats& stats : crh_outcome.shard_stats) {
    crh_rejected += stats.rejected_reports;
  }
  EXPECT_EQ(crh_rejected, 1u);
}

TEST(CategoricalDistributed, CategoricalSpecWithoutAnAlphabetIsRefused) {
  // The alphabet rides to every shard in its Setup, so a categorical spec
  // must declare one a vote can read: none (0) or a single label is refused.
  for (const char* name : {"majority", "vote"}) {
    for (std::size_t labels : {0u, 1u}) {
      MethodSpec spec = spec_for(name);
      spec.majority.num_labels = labels;
      spec.vote.num_labels = labels;
      EXPECT_THROW(Fleet(2, spec, 4), std::invalid_argument)
          << name << " num_labels=" << labels;
    }
  }
}

TEST(CategoricalDistributed, BadWeightedVoteConfigIsRefusedWhenBuilt) {
  // Refused with the spec, not at the first close: a loop that throws there
  // leaves the round open, and every later begin_round is refused.
  for (const auto& [iterations, fraction] :
       {std::pair<std::size_t, double>{0, 1e-12}, {50, 0.0}, {50, 1.0}}) {
    MethodSpec spec = spec_for("vote");
    spec.vote.max_iterations = iterations;
    spec.vote.min_disagreement_fraction = fraction;
    EXPECT_THROW(Fleet(2, spec, 4), std::invalid_argument)
        << "max_iterations=" << iterations << " fraction=" << fraction;
  }
}

INSTANTIATE_TEST_SUITE_P(CategoricalMethods, CategoricalDistributed,
                         ::testing::Values("majority", "vote"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

}  // namespace
}  // namespace dptd::dist
