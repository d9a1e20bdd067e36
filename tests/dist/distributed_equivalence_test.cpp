// The tentpole guarantee of the distributed coordinator: with zero link drops
// and no churn, a K-node distributed round — ingestion through serialized
// reports, statistics through chained-fold RPCs — publishes results bitwise
// identical to the in-process TruthDiscovery::run_sharded at the same K, for
// every method, cold and warm-started.
#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "categorical/label_matrix.h"
#include "categorical/synthetic.h"
#include "data/sharding.h"
#include "data/synthetic.h"
#include "dist/coordinator.h"
#include "dist/shard_node.h"
#include "truth/interface.h"
#include "net/network.h"

namespace dptd::dist {
namespace {

/// Small canonical block so modest test fleets still span many blocks and the
/// distributed split is structurally real (matches the truth/ suites).
constexpr std::size_t kTestBlock = 8;
constexpr net::NodeId kCoordinatorId = 9'000'000;
constexpr net::NodeId kShardBase = 1000;

data::Dataset random_dataset(std::uint64_t seed, std::size_t users,
                             std::size_t objects, double missing) {
  data::SyntheticConfig config;
  config.num_users = users;
  config.num_objects = objects;
  config.missing_rate = missing;
  config.lambda1 = 1.0;
  config.seed = seed;
  return data::generate_synthetic(config);
}

MethodSpec spec_for(const std::string& name) {
  MethodSpec spec;
  if (name == "crh") {
    spec.kind = MethodSpec::Kind::kCrh;
  } else if (name == "gtm") {
    spec.kind = MethodSpec::Kind::kGtm;
  } else if (name == "catd") {
    spec.kind = MethodSpec::Kind::kCatd;
  } else if (name == "mean") {
    spec.kind = MethodSpec::Kind::kMean;
  } else if (name == "median") {
    spec.kind = MethodSpec::Kind::kMedian;
  } else {
    ADD_FAILURE() << "unknown method " << name;
  }
  return spec;
}

void expect_bitwise_equal(const truth::Result& a, const truth::Result& b,
                          const std::string& label) {
  ASSERT_EQ(a.truths.size(), b.truths.size()) << label;
  for (std::size_t n = 0; n < a.truths.size(); ++n) {
    // EXPECT_EQ on doubles is exact comparison — bit-identity, not closeness.
    EXPECT_EQ(a.truths[n], b.truths[n]) << label << " truth " << n;
  }
  ASSERT_EQ(a.weights.size(), b.weights.size()) << label;
  for (std::size_t s = 0; s < a.weights.size(); ++s) {
    EXPECT_EQ(a.weights[s], b.weights[s]) << label << " weight " << s;
  }
  EXPECT_EQ(a.iterations, b.iterations) << label;
  EXPECT_EQ(a.converged, b.converged) << label;
}

/// A coordinator plus K shard nodes on a drop-free simulated network.
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
      shards.push_back(
          std::make_unique<ShardNode>(kShardBase + i, network));
      coordinator->add_shard(kShardBase + i);
    }
  }
};

std::vector<net::NodeId> participant_ids(std::size_t count,
                                         net::NodeId first = 0) {
  std::vector<net::NodeId> ids;
  for (std::size_t s = 0; s < count; ++s) ids.push_back(first + s);
  return ids;
}

/// Sends every user's claims as one wire report to the coordinator (claims in
/// row order, so the shard-side builders reproduce the matrix rows exactly)
/// and pumps the simulator until routing and ingestion settle.
void send_dataset(Fleet& fleet, const data::Dataset& dataset,
                  std::uint64_t round, net::NodeId first_id = 0) {
  for (std::size_t s = 0; s < dataset.num_users(); ++s) {
    const auto entries = dataset.observations.user_entries(s);
    if (entries.empty()) continue;  // silent user: row stays empty either way
    crowd::Report report;
    report.round = round;
    report.user_id = first_id + s;
    for (const auto& entry : entries) {
      report.objects.push_back(entry.object);
      report.values.push_back(entry.value);
    }
    fleet.network.send(crowd::make_message(report.user_id, kCoordinatorId,
                                           crowd::MessageType::kReport,
                                           report.encode()));
  }
  fleet.sim.run();
}

class DistributedEquivalence : public ::testing::TestWithParam<const char*> {};

TEST_P(DistributedEquivalence, ColdRoundMatchesInProcessBitwiseAtEveryK) {
  const std::string name = GetParam();
  const data::Dataset dataset = random_dataset(101, 64, 6, 0.3);
  const MethodSpec spec = spec_for(name);
  const auto method = make_method(spec);

  for (const std::size_t k : {1u, 2u, 4u, 8u}) {
    Fleet fleet(k, spec, dataset.num_objects());
    ASSERT_TRUE(fleet.coordinator->begin_round(
        1, participant_ids(dataset.num_users())));
    send_dataset(fleet, dataset, 1);
    const DistributedOutcome outcome = fleet.coordinator->close_round();
    ASSERT_TRUE(outcome.completed) << name << " K=" << k;
    ASSERT_TRUE(outcome.aggregated) << name << " K=" << k;
    EXPECT_EQ(outcome.resends, 0u) << name << " K=" << k;

    const truth::Result reference = method->run_sharded(
        data::ShardedMatrix::partition(dataset.observations, k, kTestBlock));
    expect_bitwise_equal(reference, outcome.result,
                         name + " K=" + std::to_string(k));
  }
}

TEST_P(DistributedEquivalence, WarmRoundMatchesInProcessBitwise) {
  const std::string name = GetParam();
  const MethodSpec spec = spec_for(name);
  if (!spec.supports_warm_start()) GTEST_SKIP() << "single-pass baseline";
  const data::Dataset previous = random_dataset(41, 64, 6, 0.25);
  const data::Dataset current = random_dataset(42, 64, 6, 0.25);
  const auto method = make_method(spec);
  const auto participants = participant_ids(64);

  for (const std::size_t k : {1u, 2u, 4u, 8u}) {
    Fleet fleet(k, spec, previous.num_objects(), /*warm_start=*/true);
    ASSERT_TRUE(fleet.coordinator->begin_round(1, participants));
    send_dataset(fleet, previous, 1);
    const DistributedOutcome first = fleet.coordinator->close_round();
    ASSERT_TRUE(first.aggregated) << name << " K=" << k;
    EXPECT_FALSE(first.warm_started);

    ASSERT_TRUE(fleet.coordinator->begin_round(2, participants));
    send_dataset(fleet, current, 2);
    const DistributedOutcome second = fleet.coordinator->close_round();
    ASSERT_TRUE(second.aggregated) << name << " K=" << k;
    EXPECT_TRUE(second.warm_started);

    // The unchanged-roster remap is the identity, so the in-process seed is
    // the previous round's converged state verbatim.
    const truth::Result prior = method->run_sharded(
        data::ShardedMatrix::partition(previous.observations, k, kTestBlock));
    truth::WarmStart seed;
    seed.truths = prior.truths;
    seed.weights = prior.weights;
    const truth::Result reference = method->run_sharded(
        data::ShardedMatrix::partition(current.observations, k, kTestBlock),
        seed);
    expect_bitwise_equal(reference, second.result,
                         name + " warm K=" + std::to_string(k));
  }
}

INSTANTIATE_TEST_SUITE_P(AllMethods, DistributedEquivalence,
                         ::testing::Values("crh", "gtm", "catd", "mean",
                                           "median"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

/// Label claims for the categorical rows of the wire pins. `unanimous` makes
/// every user claim label n % kPinLabels on object n, so weighted voting
/// stops on a zero disagreement total in its first iteration.
constexpr std::size_t kPinLabels = 4;

categorical::LabelDataset pin_label_dataset(std::uint64_t seed,
                                            bool unanimous) {
  categorical::CategoricalConfig config;
  config.num_users = 64;
  config.num_objects = 6;
  config.num_labels = kPinLabels;
  config.lambda_err = 0.8;  // noisy population: weighted vote iterates
  config.missing_rate = 0.3;
  config.seed = seed;
  categorical::LabelDataset dataset = categorical::generate_categorical(config);
  if (unanimous) {
    std::vector<std::vector<categorical::LabelMatrix::Entry>> rows(64);
    for (std::size_t s = 0; s < rows.size(); ++s) {
      for (std::size_t n = 0; n < config.num_objects; ++n) {
        rows[s].push_back({n, static_cast<categorical::Label>(n % kPinLabels)});
      }
    }
    dataset.claims = categorical::LabelMatrix::from_rows(
        std::move(rows), config.num_objects, kPinLabels);
  }
  return dataset;
}

void send_label_dataset(Fleet& fleet, const categorical::LabelDataset& dataset,
                        std::uint64_t round) {
  for (std::size_t s = 0; s < dataset.claims.num_users(); ++s) {
    const auto row = dataset.claims.user_entries(s);
    if (row.empty()) continue;
    crowd::LabelReport report;
    report.round = round;
    report.user_id = s;
    for (const auto& entry : row) {
      report.objects.push_back(entry.object);
      report.labels.push_back(entry.label);
    }
    fleet.network.send(crowd::make_message(report.user_id, kCoordinatorId,
                                           crowd::MessageType::kLabelReport,
                                           report.encode()));
  }
  fleet.sim.run();
}

/// One pinned wire shape: whole-round traffic and the iteration loop's share.
struct WirePin {
  const char* method;
  std::size_t k;
  bool warm;
  std::array<std::size_t, 4> traffic;  ///< msgs, bytes, iter msgs, iter bytes
};

// Exact frame and byte counts of one round per method, K and start (64 users
// x 6 objects, block 8; a warm row pins the second of two warm-started
// rounds). "vote1" is a unanimous label set: voting stops on a zero
// disagreement total in its first iteration. Every upload reaches the
// coordinator at the same virtual time, so each shard receives its routed
// reports as one kReportBatch. These constants are the wire protocol's
// shape: a change that moves one must say why.
constexpr WirePin kWirePins[] = {
    {"crh", 1, false, {103, 9294, 28, 2835}},
    {"crh", 1, true, {99, 9438, 24, 2430}},
    {"crh", 3, false, {181, 16664, 84, 8505}},
    {"crh", 3, true, {169, 16000, 72, 7290}},
    {"gtm", 1, false, {89, 10532, 14, 2163}},
    {"gtm", 1, true, {93, 9738, 18, 2781}},
    {"gtm", 3, false, {139, 16071, 42, 6489}},
    {"gtm", 3, true, {151, 16900, 54, 8343}},
    {"catd", 1, false, {123, 17425, 50, 9375}},
    {"catd", 1, true, {93, 10503, 20, 3750}},
    {"catd", 3, false, {241, 36364, 150, 28125}},
    {"catd", 3, true, {151, 18813, 60, 11250}},
    {"mean", 1, false, {73, 5661, 2, 328}},
    {"mean", 1, true, {73, 5697, 2, 328}},
    {"mean", 3, false, {91, 6403, 6, 984}},
    {"mean", 3, true, {91, 6439, 6, 984}},
    {"median", 1, false, {73, 7501, 2, 2168}},
    {"median", 1, true, {73, 7553, 2, 2184}},
    {"median", 3, false, {91, 7616, 6, 2197}},
    {"median", 3, true, {91, 7668, 6, 2213}},
    {"majority", 1, false, {73, 2029, 2, 418}},
    {"majority", 1, true, {72, 1967, 2, 418}},
    {"majority", 3, false, {91, 2951, 6, 1254}},
    {"majority", 3, true, {90, 2889, 6, 1254}},
    {"vote", 1, false, {77, 2994, 4, 441}},
    {"vote", 1, true, {80, 2970, 8, 882}},
    {"vote", 3, false, {103, 4822, 12, 1323}},
    {"vote", 3, true, {114, 4874, 24, 2646}},
    // Unanimity: the loop pays one disagreement chain (2K messages); the
    // uniform weight write it queues rides the final collect.
    {"vote1", 1, false, {75, 3009, 2, 29}},
    {"vote1", 3, false, {97, 4035, 6, 87}},};

TEST(DistributedEquivalence, WireShapeMatchesPinnedFrameCounts) {
  for (const WirePin& pin : kWirePins) {
    const std::string name = pin.method;
    const std::string label =
        name + " K=" + std::to_string(pin.k) + (pin.warm ? " warm" : " cold");
    const bool labels = name == "majority" || name == "vote" || name == "vote1";
    MethodSpec spec;
    if (name == "majority") {
      spec.kind = MethodSpec::Kind::kMajority;
      spec.majority.num_labels = kPinLabels;
    } else if (labels) {
      spec.kind = MethodSpec::Kind::kVote;
      spec.vote.num_labels = kPinLabels;
    } else {
      spec = spec_for(name);
    }
    Fleet fleet(pin.k, spec, 6, pin.warm);
    const auto participants = participant_ids(64);
    DistributedOutcome outcome;
    for (std::uint64_t round = 1; round <= (pin.warm ? 2u : 1u); ++round) {
      ASSERT_TRUE(fleet.coordinator->begin_round(round, participants)) << label;
      if (labels) {
        send_label_dataset(
            fleet, pin_label_dataset(60 + round, name == "vote1"), round);
      } else {
        send_dataset(fleet, random_dataset(40 + round, 64, 6, 0.3), round);
      }
      outcome = fleet.coordinator->close_round();
      ASSERT_TRUE(outcome.aggregated) << label;
    }
    EXPECT_EQ(outcome.warm_started, pin.warm && spec.supports_warm_start())
        << label;
    const std::array<std::size_t, 4> traffic = {
        outcome.network.messages_sent, outcome.network.bytes_sent,
        outcome.iteration_messages, outcome.iteration_bytes};
    EXPECT_EQ(traffic, pin.traffic)
        << "{\"" << name << "\", " << pin.k << ", "
        << (pin.warm ? "true" : "false") << ", {" << traffic[0] << ", "
        << traffic[1] << ", " << traffic[2] << ", " << traffic[3] << "}},";
  }
}

TEST(DistributedEquivalence, OverProvisionedRosterClampsLikePartition) {
  // 64 users at block 8 span 8 blocks: a 16-shard roster clamps to 8 active
  // shards, exactly as ShardedMatrix::partition clamps, so equivalence holds.
  const data::Dataset dataset = random_dataset(303, 64, 5, 0.2);
  const MethodSpec spec = spec_for("crh");
  Fleet fleet(16, spec, dataset.num_objects());
  ASSERT_TRUE(
      fleet.coordinator->begin_round(1, participant_ids(dataset.num_users())));
  send_dataset(fleet, dataset, 1);
  const DistributedOutcome outcome = fleet.coordinator->close_round();
  ASSERT_TRUE(outcome.aggregated);
  EXPECT_EQ(outcome.shard_stats.size(), 8u);

  const truth::Result reference = make_method(spec)->run_sharded(
      data::ShardedMatrix::partition(dataset.observations, 16, kTestBlock));
  expect_bitwise_equal(reference, outcome.result, "clamped 16->8");
}

TEST(DistributedEquivalence, RoundTelemetryAccountsForProtocolTraffic) {
  const data::Dataset dataset = random_dataset(77, 32, 4, 0.2);
  Fleet fleet(4, spec_for("crh"), dataset.num_objects());
  ASSERT_TRUE(
      fleet.coordinator->begin_round(1, participant_ids(dataset.num_users())));
  send_dataset(fleet, dataset, 1);
  const DistributedOutcome outcome = fleet.coordinator->close_round();
  ASSERT_TRUE(outcome.aggregated);

  std::size_t routed_expected = 0;
  for (std::size_t s = 0; s < dataset.num_users(); ++s) {
    if (!dataset.observations.user_entries(s).empty()) ++routed_expected;
  }
  EXPECT_EQ(outcome.reports_routed, routed_expected);
  EXPECT_EQ(outcome.reports_unroutable, 0u);
  EXPECT_EQ(outcome.reports_undeliverable, 0u);
  ASSERT_EQ(outcome.shard_stats.size(), 4u);
  std::size_t received = 0;
  for (const crowd::ShardIngestStats& stats : outcome.shard_stats) {
    received += stats.reports_received;
    EXPECT_EQ(stats.rejected_reports, 0u);
    EXPECT_EQ(stats.duplicates_ignored, 0u);
  }
  EXPECT_EQ(received, routed_expected);

  // Iterative methods move real protocol traffic every iteration; the
  // iterate-phase share must be non-trivial and inside the round's total.
  EXPECT_GT(outcome.result.iterations, 1u);
  EXPECT_GT(outcome.iteration_messages, 0u);
  EXPECT_GT(outcome.iteration_bytes, 0u);
  EXPECT_GE(outcome.network.messages_sent, outcome.iteration_messages);
  EXPECT_GE(outcome.network.bytes_sent, outcome.iteration_bytes);
  EXPECT_EQ(outcome.network.messages_dropped, 0u);
  EXPECT_EQ(outcome.network.messages_undeliverable, 0u);
  EXPECT_EQ(outcome.resends, 0u);
  EXPECT_EQ(fleet.coordinator->stale_responses(), 0u);
  EXPECT_TRUE(fleet.coordinator->malformed_by_node().empty());
}

TEST(DistributedEquivalence, UncoveredObjectSkipsAggregationGracefully) {
  // Nobody claims object 2: the coordinator must close the round without
  // aggregating (exactly like the in-process servers) and keep no warm state.
  Fleet fleet(2, spec_for("mean"), 3, /*warm_start=*/true);
  ASSERT_TRUE(fleet.coordinator->begin_round(1, participant_ids(16)));
  for (std::size_t s = 0; s < 16; ++s) {
    crowd::Report report;
    report.round = 1;
    report.user_id = s;
    report.objects = {0, 1};
    report.values = {static_cast<double>(s), static_cast<double>(2 * s)};
    fleet.network.send(crowd::make_message(
        s, kCoordinatorId, crowd::MessageType::kReport, report.encode()));
  }
  fleet.sim.run();
  const DistributedOutcome outcome = fleet.coordinator->close_round();
  EXPECT_TRUE(outcome.completed);
  EXPECT_FALSE(outcome.aggregated);
  EXPECT_FALSE(fleet.coordinator->warm().valid);
  EXPECT_TRUE(outcome.result.truths.empty());
}

}  // namespace
}  // namespace dptd::dist
