// The tentpole guarantee of the distributed coordinator: with zero link drops
// and no churn, a K-node distributed round — ingestion through serialized
// reports, statistics through chained-fold RPCs — publishes results bitwise
// identical to the in-process TruthDiscovery::run_sharded at the same K, for
// every method, cold and warm-started. Ingestion counts alike too: one
// upload stream lands the same per-shard counters through the inline and
// pipelined ShardedServer and through a ShardNode fleet.
#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "categorical/label_matrix.h"
#include "categorical/synthetic.h"
#include "crowd/sharded_server.h"
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
        std::size_t num_objects, bool warm_start = false,
        std::size_t block_size = kTestBlock) {
    CoordinatorConfig config;
    config.id = kCoordinatorId;
    config.num_objects = num_objects;
    config.block_size = block_size;
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
    std::vector<std::vector<data::ObservationMatrix::Entry>> rows(64);
    for (std::size_t s = 0; s < rows.size(); ++s) {
      for (std::size_t n = 0; n < config.num_objects; ++n) {
        rows[s].push_back({static_cast<std::uint32_t>(n),
                           static_cast<double>(n % kPinLabels)});
      }
    }
    dataset.claims =
        data::ObservationMatrix::from_rows(std::move(rows), config.num_objects);
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
      report.labels.push_back(static_cast<categorical::Label>(entry.value));
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
// reports as one kReportBatch. The roster, ids 0..63, is contiguous, so
// every kSetup carries its slice as a three-byte range. These constants are
// the wire protocol's shape: a change that moves one must say why.
constexpr WirePin kWirePins[] = {
    {"crh", 1, false, {103, 9232, 28, 2835}},
    {"crh", 1, true, {99, 9376, 24, 2430}},
    {"crh", 3, false, {181, 16606, 84, 8505}},
    {"crh", 3, true, {169, 15942, 72, 7290}},
    {"gtm", 1, false, {89, 10470, 14, 2163}},
    {"gtm", 1, true, {93, 9676, 18, 2781}},
    {"gtm", 3, false, {139, 16013, 42, 6489}},
    {"gtm", 3, true, {151, 16842, 54, 8343}},
    {"catd", 1, false, {123, 17363, 50, 9375}},
    {"catd", 1, true, {93, 10441, 20, 3750}},
    {"catd", 3, false, {241, 36306, 150, 28125}},
    {"catd", 3, true, {151, 18755, 60, 11250}},
    {"mean", 1, false, {73, 5599, 2, 328}},
    {"mean", 1, true, {73, 5635, 2, 328}},
    {"mean", 3, false, {91, 6345, 6, 984}},
    {"mean", 3, true, {91, 6381, 6, 984}},
    {"median", 1, false, {73, 7439, 2, 2168}},
    {"median", 1, true, {73, 7491, 2, 2184}},
    {"median", 3, false, {91, 7558, 6, 2197}},
    {"median", 3, true, {91, 7610, 6, 2213}},
    {"majority", 1, false, {73, 1967, 2, 418}},
    {"majority", 1, true, {72, 1905, 2, 418}},
    {"majority", 3, false, {91, 2893, 6, 1254}},
    {"majority", 3, true, {90, 2831, 6, 1254}},
    {"vote", 1, false, {77, 2932, 4, 441}},
    {"vote", 1, true, {80, 2908, 8, 882}},
    {"vote", 3, false, {103, 4764, 12, 1323}},
    {"vote", 3, true, {114, 4816, 24, 2646}},
    // Unanimity: the loop pays one disagreement chain (2K messages); the
    // uniform weight write it queues rides the final collect.
    {"vote1", 1, false, {75, 2947, 2, 29}},
    {"vote1", 3, false, {97, 3977, 6, 87}},};

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

TEST(DistributedEquivalence, WarmFleetKeepsItsBitsAcrossRosterForms) {
  // A roster that goes contiguous -> churned -> contiguous sends each
  // shard its slice as a range, then as an id list, then as a range again.
  // Every round must equal run_sharded over the same claims, seeded the way
  // the warm tests seed a reference: remap_warm_weights over the rounds'
  // plain id vectors.
  constexpr std::size_t kUsers = 48;
  constexpr std::size_t kObjects = 4;
  std::vector<std::vector<net::NodeId>> rosters(3);
  rosters[0] = participant_ids(kUsers);  // [0, 48)
  rosters[1] = rosters[0];               // 4 users leave, 4 new ones join
  rosters[1][3] = 200;
  rosters[1][17] = 201;
  rosters[1][30] = 202;
  rosters[1][41] = 203;
  rosters[2] = participant_ids(kUsers, 8);  // survivors, returners, joiners

  for (const char* name : {"crh", "gtm"}) {
    const MethodSpec spec = spec_for(name);
    const auto method = make_method(spec);
    for (std::size_t k : {1, 3}) {
      const std::string label = std::string(name) + " K=" + std::to_string(k);
      Fleet fleet(k, spec, kObjects, /*warm_start=*/true);
      crowd::WarmState reference_warm;
      for (std::size_t r = 0; r < rosters.size(); ++r) {
        const std::uint64_t round = r + 1;
        const data::Dataset dataset =
            random_dataset(90 + r, kUsers, kObjects, 0.25);
        ASSERT_TRUE(fleet.coordinator->begin_round(round, rosters[r]))
            << label;
        for (std::size_t s = 0; s < kUsers; ++s) {
          crowd::Report report;
          report.round = round;
          report.user_id = rosters[r][s];
          for (const auto& entry : dataset.observations.user_entries(s)) {
            report.objects.push_back(entry.object);
            report.values.push_back(entry.value);
          }
          fleet.network.send(crowd::make_message(
              report.user_id, kCoordinatorId, crowd::MessageType::kReport,
              report.encode()));
        }
        fleet.sim.run();
        const DistributedOutcome outcome = fleet.coordinator->close_round();
        ASSERT_TRUE(outcome.aggregated) << label << " round " << round;
        EXPECT_EQ(outcome.warm_started, r > 0) << label;

        truth::WarmStart seed;
        if (reference_warm.valid) {
          seed.truths = reference_warm.result.truths;
          seed.weights =
              crowd::remap_warm_weights(reference_warm, rosters[r], kUsers);
        }
        const truth::Result reference = method->run_sharded(
            data::ShardedMatrix::partition(dataset.observations, k,
                                           kTestBlock),
            seed);
        expect_bitwise_equal(reference, outcome.result,
                             label + " round " + std::to_string(round));
        reference_warm.result = reference;
        reference_warm.participants = rosters[r];
        reference_warm.valid = true;
      }
    }
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

// --- Every ingest path counts alike ---------------------------------------

// 24 users at block 4 on 3 shards: users 0-7, 8-15 and 16-23.
constexpr std::size_t kCountUsers = 24;
constexpr std::size_t kCountShards = 3;
constexpr std::size_t kCountBlock = 4;
constexpr std::size_t kCountObjects = 3;
constexpr std::size_t kCountLabels = 4;

/// One upload of the shared ingest stream.
struct Upload {
  net::NodeId source = 0;
  crowd::MessageType type = crowd::MessageType::kReport;
  std::vector<std::uint8_t> bytes;
};

std::vector<std::uint8_t> encode_upload(bool labels, std::uint64_t round,
                                        std::uint64_t user,
                                        std::vector<std::uint64_t> objects,
                                        const std::vector<double>& claims) {
  if (labels) {
    crowd::LabelReport report;
    report.round = round;
    report.user_id = user;
    report.objects = std::move(objects);
    for (const double claim : claims) {
      report.labels.push_back(static_cast<std::uint32_t>(claim));
    }
    return report.encode();
  }
  crowd::Report report;
  report.round = round;
  report.user_id = user;
  report.objects = std::move(objects);
  report.values = claims;
  return report.encode();
}

/// Cuts an upload inside its claim arrays: the round and user varints still
/// read, so it routes, but it never decodes.
std::vector<std::uint8_t> truncated(std::vector<std::uint8_t> bytes) {
  bytes.resize(bytes.size() - 2);
  return bytes;
}

/// One round's uploads, every kind of mishap included: clean uploads, an
/// identical and two different re-sends, truncated uploads (one per shard,
/// one of them a re-send after a clean upload), a claim on an out-of-range
/// object, non-finite readings or out-of-alphabet labels, and uploads no
/// shard ever sees (unknown user, unreadable header, a stale round). User 19
/// sends only a truncated upload and user 23 stays silent, so the round
/// closes on its deadline, never early, on every path.
std::vector<Upload> ingest_stream(bool labels) {
  const crowd::MessageType type = labels ? crowd::MessageType::kLabelReport
                                         : crowd::MessageType::kReport;
  const auto clean_claims = [&](std::size_t user, double shift) {
    std::vector<double> claims;
    for (std::size_t n = 0; n < kCountObjects; ++n) {
      claims.push_back(labels ? static_cast<double>(1 + n)
                              : static_cast<double>(user + n) + shift);
    }
    return claims;
  };
  std::vector<Upload> stream;
  const auto push = [&](std::size_t user, std::vector<std::uint8_t> bytes) {
    stream.push_back({static_cast<net::NodeId>(user), type, std::move(bytes)});
  };
  const std::vector<std::uint64_t> all_objects{0, 1, 2};
  for (std::size_t user = 0; user + 1 < kCountUsers; ++user) {
    if (user == 3 || user == 11 || user == 19) {
      push(user, truncated(encode_upload(labels, 1, user, all_objects,
                                         clean_claims(user, 0.0))));
      if (user == 19) continue;
    }
    std::vector<std::uint64_t> objects = all_objects;
    std::vector<double> claims = clean_claims(user, 0.0);
    if (user == 5) {
      claims[0] = labels ? 9.0 : std::numeric_limits<double>::quiet_NaN();
    } else if (user == 13) {
      objects.push_back(57);  // out of range
      claims.push_back(1.0);
    } else if (user == 21) {
      if (labels) {
        claims = {7.0, 8.0, 1.0};
      } else {
        claims[2] = std::numeric_limits<double>::infinity();
      }
    }
    const std::vector<std::uint8_t> bytes =
        encode_upload(labels, 1, user, objects, claims);
    push(user, bytes);
    if (user == 1) push(user, bytes);  // identical re-send
    if (user == 1 || user == 9 || user == 17) {
      push(user, encode_upload(labels, 1, user, all_objects,
                               clean_claims(user, 40.0)));
    }
    if (user == 9) {
      push(user, truncated(encode_upload(labels, 1, user, all_objects,
                                         clean_claims(user, 80.0))));
    }
  }
  push(999, encode_upload(labels, 1, 999, all_objects, clean_claims(0, 0.0)));
  push(777, {0xff, 0xff, 0xff, 0xff, 0xff});
  push(2, truncated(encode_upload(labels, 7, 2, all_objects,
                                  clean_claims(2, 0.0))));
  return stream;
}

/// The counting rounds' method: mean, or majority over kCountLabels labels.
MethodSpec count_spec(bool labels) {
  MethodSpec spec = spec_for("mean");
  if (labels) {
    spec.kind = MethodSpec::Kind::kMajority;
    spec.majority.num_labels = kCountLabels;
  }
  return spec;
}

crowd::RoundOutcome run_server_round(const std::vector<Upload>& stream,
                                     bool labels,
                                     std::size_t ingest_threads) {
  net::Simulator sim;
  net::Network network(sim, net::LatencyModel{0.01, 0.0, 0.0}, 7);
  crowd::ServerConfig config;
  config.num_objects = kCountObjects;
  config.num_shards = kCountShards;
  config.stats_block_size = kCountBlock;
  config.ingest_threads = ingest_threads;
  config.labels.num_labels = labels ? kCountLabels : 0;
  crowd::ShardedServer server(config, make_method(count_spec(labels)),
                              network);
  server.start_round(1, participant_ids(kCountUsers));
  for (const Upload& upload : stream) {
    network.send(crowd::make_message(upload.source, config.id, upload.type,
                                     upload.bytes));
  }
  sim.run();
  EXPECT_EQ(server.outcomes().size(), 1u);
  return server.outcomes().empty() ? crowd::RoundOutcome{}
                                   : server.outcomes().front();
}

std::vector<crowd::ShardIngestStats> run_fleet_round(
    const std::vector<Upload>& stream, bool labels) {
  Fleet fleet(kCountShards, count_spec(labels), kCountObjects,
              /*warm_start=*/false, kCountBlock);
  EXPECT_TRUE(fleet.coordinator->begin_round(1, participant_ids(kCountUsers)));
  for (const Upload& upload : stream) {
    fleet.network.send(crowd::make_message(upload.source, kCoordinatorId,
                                           upload.type, upload.bytes));
  }
  fleet.sim.run();
  const DistributedOutcome outcome = fleet.coordinator->close_round();
  EXPECT_TRUE(outcome.completed);
  return outcome.shard_stats;
}

void expect_same_stats(const std::vector<crowd::ShardIngestStats>& expected,
                       const std::vector<crowd::ShardIngestStats>& actual,
                       const std::string& label) {
  ASSERT_EQ(expected.size(), actual.size()) << label;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const crowd::ShardIngestStats& e = expected[i];
    const crowd::ShardIngestStats& a = actual[i];
    EXPECT_EQ(e.reports_received, a.reports_received) << label << " " << i;
    EXPECT_EQ(e.duplicates_ignored, a.duplicates_ignored) << label << " " << i;
    EXPECT_EQ(e.malformed_reports, a.malformed_reports) << label << " " << i;
    EXPECT_EQ(e.rejected_reports, a.rejected_reports) << label << " " << i;
    EXPECT_EQ(e.invalid_labels, a.invalid_labels) << label << " " << i;
  }
}

/// Feeds the stream to the inline ShardedServer, the pipelined one (two
/// workers) and a Coordinator + ShardNode fleet at equal K and block size.
/// Every shard counts each upload the same on all three; the two in-process
/// servers also agree on the round's totals, including the rejects no shard
/// saw. `expected` pins the per-shard counters.
void expect_every_path_counts_alike(
    bool labels, const std::vector<crowd::ShardIngestStats>& expected) {
  const std::vector<Upload> stream = ingest_stream(labels);
  const crowd::RoundOutcome inline_round = run_server_round(stream, labels, 0);
  const crowd::RoundOutcome pipelined = run_server_round(stream, labels, 2);
  expect_same_stats(expected, inline_round.shard_stats, "inline");
  expect_same_stats(expected, pipelined.shard_stats, "pipelined");
  expect_same_stats(expected, run_fleet_round(stream, labels), "fleet");

  EXPECT_EQ(inline_round.reports_received, pipelined.reports_received);
  EXPECT_EQ(inline_round.duplicates_ignored, pipelined.duplicates_ignored);
  EXPECT_EQ(inline_round.reports_rejected, pipelined.reports_rejected);
  // 22 distinct reporters and 4 re-sends; 4 truncated uploads on shards,
  // plus the unknown user and the unreadable header. The stale round is
  // ignored.
  EXPECT_EQ(inline_round.reports_received, 22u);
  EXPECT_EQ(inline_round.duplicates_ignored, 4u);
  EXPECT_EQ(inline_round.reports_rejected, 6u);
}

TEST(DistributedEquivalence, ShardedServerAndShardNodesCountUploadsAlike) {
  // {received, duplicates, malformed, rejected, invalid labels} per shard.
  expect_every_path_counts_alike(/*labels=*/false, {{8, 2, 1, 1, 0},
                                                    {8, 1, 1, 2, 0},
                                                    {6, 1, 1, 1, 0}});
}

TEST(DistributedEquivalence, ShardedServerAndShardNodesCountLabelUploadsAlike) {
  expect_every_path_counts_alike(/*labels=*/true, {{8, 2, 0, 1, 1},
                                                   {8, 1, 1, 2, 0},
                                                   {6, 1, 0, 1, 2}});
}

}  // namespace
}  // namespace dptd::dist
