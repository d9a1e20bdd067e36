// Categorical campaign rounds through the server stack: the same label
// report stream lands bitwise-identical published truths through the flat
// (K = 1) server, the multi-shard ShardedServer, the pipelined ingestion
// path and the batch front door over the generator's own claims;
// device-side k-RR flips land identical bits at every worker and shard
// count; out-of-alphabet labels are counted and dropped, never fatal;
// wrong-kind uploads (continuous report in a label round and vice versa) are
// rejected and counted; and the label client checks its preconditions on
// every call.
#include <gtest/gtest.h>

#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "categorical/label_matrix.h"
#include "categorical/synthetic.h"
#include "crowd/label_client.h"
#include "crowd/protocol.h"
#include "crowd/server.h"
#include "crowd/sharded_server.h"
#include "data/sharding.h"
#include "net/network.h"
#include "truth/categorical.h"
#include "truth/registry.h"

namespace dptd::crowd {
namespace {

constexpr net::NodeId kServerId = 1000;
constexpr std::size_t kLabels = 4;

struct Harness {
  net::Simulator sim;
  net::Network network{sim, net::LatencyModel{0.01, 0.0, 0.0}, 5};
};

categorical::LabelDataset label_workload(std::uint64_t seed,
                                         std::size_t users,
                                         std::size_t objects) {
  categorical::CategoricalConfig config;
  config.num_users = users;
  config.num_objects = objects;
  config.num_labels = kLabels;
  config.lambda_err = 2.5;
  config.missing_rate = 0.25;
  config.seed = seed;
  return categorical::generate_categorical(config);
}

ServerConfig label_config(std::size_t num_objects, std::size_t num_shards,
                          std::size_t ingest_threads) {
  ServerConfig config;
  config.id = kServerId;
  config.num_objects = num_objects;
  config.collection_window_seconds = 10.0;
  config.num_shards = num_shards;
  config.ingest_threads = ingest_threads;
  config.stats_block_size = 4;
  config.labels.num_labels = kLabels;
  return config;
}

std::unique_ptr<truth::TruthDiscovery> weighted_vote() {
  return std::make_unique<truth::WeightedVote>(
      truth::WeightedVoteConfig{.num_labels = kLabels});
}

std::unique_ptr<truth::TruthDiscovery> majority_vote() {
  return std::make_unique<truth::MajorityVote>(
      truth::MajorityVoteConfig{.num_labels = kLabels});
}

std::vector<net::NodeId> participant_ids(std::size_t count) {
  std::vector<net::NodeId> ids;
  for (std::size_t s = 0; s < count; ++s) ids.push_back(s);
  return ids;
}

/// Uploads every user's row through the real client-side report builder,
/// which flips each label by k-RR at `keep` (1.0: the trusted-aggregator
/// deployment, no flips).
void send_label_dataset(Harness& h, const categorical::LabelDataset& dataset,
                        double keep) {
  for (std::size_t s = 0; s < dataset.claims.num_users(); ++s) {
    const auto row = dataset.claims.user_entries(s);
    std::vector<std::uint64_t> objects;
    std::vector<categorical::Label> labels;
    for (const auto& entry : row) {
      objects.push_back(entry.object);
      labels.push_back(static_cast<categorical::Label>(entry.value));
    }
    const LabelReport report = make_label_report(
        /*round=*/1, s, objects, labels, kLabels, keep, /*seed=*/1);
    h.network.send(make_message(s, kServerId, MessageType::kLabelReport,
                                report.encode()));
  }
}

/// Runs one weighted-vote label round through a server of the config's
/// shape, its devices flipping at `keep`, and returns its outcome.
RoundOutcome run_label_round(const ServerConfig& config,
                             const categorical::LabelDataset& dataset,
                             double keep = 1.0) {
  Harness h;
  ShardedServer server(config, weighted_vote(), h.network);
  server.start_round(1, participant_ids(dataset.claims.num_users()));
  send_label_dataset(h, dataset, keep);
  h.sim.run();
  const auto& outcomes = server.outcomes();
  EXPECT_EQ(outcomes.size(), 1u);
  return outcomes.empty() ? RoundOutcome{} : outcomes[0];
}

/// Each double's bit pattern: EXPECT_EQ on doubles equates -0.0 and +0.0.
std::vector<std::uint64_t> bits(const std::vector<double>& values) {
  std::vector<std::uint64_t> out;
  for (double v : values) out.push_back(std::bit_cast<std::uint64_t>(v));
  return out;
}

void expect_same_bits(const truth::Result& a, const truth::Result& b,
                      const std::string& label) {
  EXPECT_EQ(bits(a.truths), bits(b.truths)) << label;
  EXPECT_EQ(bits(a.weights), bits(b.weights)) << label;
  EXPECT_EQ(a.iterations, b.iterations) << label;
}

void expect_results_bitwise_equal(const RoundOutcome& a,
                                  const RoundOutcome& b,
                                  const std::string& label) {
  expect_same_bits(a.result, b.result, label);
  EXPECT_EQ(a.reports_received, b.reports_received) << label;
}

TEST(LabelServer, FlatShardedAndPipelinedPublishIdenticalBits) {
  const categorical::LabelDataset dataset = label_workload(11, 36, 8);
  const RoundOutcome flat =
      run_label_round(label_config(8, 1, 0), dataset);
  EXPECT_EQ(flat.reports_received, 36u);
  ASSERT_FALSE(flat.result.truths.empty());
  // Published truths are exact label ids.
  for (const double t : flat.result.truths) {
    EXPECT_EQ(t, static_cast<double>(static_cast<categorical::Label>(t)));
    EXPECT_LT(t, static_cast<double>(kLabels));
  }

  const RoundOutcome sharded =
      run_label_round(label_config(8, 4, 0), dataset);
  expect_results_bitwise_equal(flat, sharded, "sharded K=4");
  const RoundOutcome pipelined =
      run_label_round(label_config(8, 4, 3), dataset);
  expect_results_bitwise_equal(flat, pipelined, "pipelined K=4 W=3");

  // The batch front door over the generator's own claims, at the round's
  // block size: the generator's store is the store the round ingested.
  expect_same_bits(flat.result,
                   weighted_vote()->run_sharded(
                       data::ShardedMatrix::single(dataset.claims, 4)),
                   "batch run_sharded");
}

TEST(LabelServer, ServerSideRrIsDeterministicAcrossWorkersAndShards) {
  // Named for server-side k-RR, which is gone: devices flip their labels.
  const categorical::LabelDataset dataset = label_workload(21, 32, 10);
  const double keep = 0.7;  // > 1/kLabels, real flips
  const RoundOutcome base = run_label_round(label_config(10, 1, 0), dataset,
                                            keep);
  for (std::size_t shards : {1, 4}) {
    for (std::size_t workers : {0, 1, 3}) {
      expect_results_bitwise_equal(
          base,
          run_label_round(label_config(10, shards, workers), dataset, keep),
          "rr K=" + std::to_string(shards) + " W=" + std::to_string(workers));
    }
  }

  // Sanity: the flips actually perturbed something — the weighted-vote
  // outcome differs somewhere from the unperturbed round.
  const RoundOutcome clean = run_label_round(label_config(10, 1, 0), dataset);
  bool differs = false;
  for (std::size_t s = 0; s < base.result.weights.size(); ++s) {
    if (base.result.weights[s] != clean.result.weights[s]) differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST(LabelServer, InvalidLabelsAreCountedAndDroppedNotFatal) {
  Harness h;
  ShardedServer server(label_config(2, 1, 0), majority_vote(), h.network);
  server.start_round(1, participant_ids(3));
  for (std::size_t s = 0; s < 3; ++s) {
    LabelReport report;
    report.round = 1;
    report.user_id = s;
    report.objects = {0, 1};
    // Object 1's claim is out of the alphabet for user 0: dropped + counted.
    report.labels = {1, s == 0 ? 99u : 1u};
    h.network.send(make_message(s, kServerId, MessageType::kLabelReport,
                                report.encode()));
  }
  h.sim.run();
  ASSERT_EQ(server.outcomes().size(), 1u);
  const RoundOutcome& outcome = server.outcomes()[0];
  EXPECT_EQ(outcome.reports_received, 3u);
  ASSERT_EQ(outcome.shard_stats.size(), 1u);
  EXPECT_EQ(outcome.shard_stats[0].invalid_labels, 1u);
  ASSERT_EQ(outcome.result.truths.size(), 2u);
  EXPECT_EQ(outcome.result.truths[0], 1.0);
  EXPECT_EQ(outcome.result.truths[1], 1.0);  // 2 valid claims survive
}

TEST(LabelServer, WrongKindUploadsAreRejectedBothWays) {
  // A label round rejects a continuous kReport from an enrolled user...
  {
    Harness h;
    ShardedServer server(label_config(2, 2, 0), majority_vote(), h.network);
    server.start_round(1, participant_ids(4));
    Report continuous;
    continuous.round = 1;
    continuous.user_id = 0;
    continuous.objects = {0, 1};
    continuous.values = {1.0, 2.0};
    h.network.send(make_message(0, kServerId, MessageType::kReport,
                                continuous.encode()));
    for (std::size_t s = 1; s < 4; ++s) {
      LabelReport report;
      report.round = 1;
      report.user_id = s;
      report.objects = {0, 1};
      report.labels = {1, 2};
      h.network.send(make_message(s, kServerId, MessageType::kLabelReport,
                                  report.encode()));
    }
    h.sim.run();  // user 0 never counts: the deadline closes the round
    ASSERT_EQ(server.outcomes().size(), 1u);
    EXPECT_EQ(server.outcomes()[0].reports_received, 3u);
    EXPECT_GE(server.outcomes()[0].reports_rejected, 1u);
  }
  // ...and a continuous round rejects a kLabelReport.
  {
    Harness h;
    ServerConfig config = label_config(2, 1, 0);
    config.labels = {};  // continuous campaign
    ShardedServer server(config, truth::make_method("mean"), h.network);
    server.start_round(1, participant_ids(2));
    LabelReport label;
    label.round = 1;
    label.user_id = 0;
    label.objects = {0};
    label.labels = {1};
    h.network.send(make_message(0, kServerId, MessageType::kLabelReport,
                                label.encode()));
    Report continuous;
    continuous.round = 1;
    continuous.user_id = 1;
    continuous.objects = {0, 1};
    continuous.values = {3.0, 4.0};
    h.network.send(make_message(1, kServerId, MessageType::kReport,
                                continuous.encode()));
    h.sim.run();
    ASSERT_EQ(server.outcomes().size(), 1u);
    EXPECT_EQ(server.outcomes()[0].reports_received, 1u);
    EXPECT_GE(server.outcomes()[0].reports_rejected, 1u);
  }
}

TEST(LabelClient, PreconditionsHoldAtEveryKeepProbability) {
  const std::vector<std::uint64_t> objects{0, 1, 2};
  const std::vector<categorical::Label> truths{0, 3, 1};
  const auto report = [&](std::span<const categorical::Label> labels,
                          std::size_t num_labels, double keep) {
    return make_label_report(1, 7, std::span(objects).first(labels.size()),
                             labels, num_labels, keep, /*seed=*/5);
  };
  // Valid: the identity at keep 1.0, and real k-RR inside (1/L, 1).
  EXPECT_EQ(report(truths, 4, 1.0).labels, truths);
  EXPECT_EQ(report(truths, 8, 0.6).labels.size(), 3u);
  // A keep above 1 is refused, not taken for the identity.
  EXPECT_THROW(report(truths, 4, 1.5), std::invalid_argument);
  EXPECT_THROW(report({}, 4, 1.5), std::invalid_argument);
  // A keep at or below 1/L carries no signal.
  EXPECT_THROW(report(truths, 4, 0.25), std::invalid_argument);
  EXPECT_THROW(report(truths, 4, 0.1), std::invalid_argument);
  EXPECT_THROW(report(truths, 4, 0.0), std::invalid_argument);
  // A label outside the alphabet is refused at every keep, 1.0 included.
  EXPECT_THROW(report(truths, 3, 1.0), std::invalid_argument);
  EXPECT_THROW(report(truths, 3, 0.9), std::invalid_argument);
  // One label is no alphabet, whether or not a draw would flip.
  const std::vector<categorical::Label> zeros{0, 0, 0};
  EXPECT_THROW(report(zeros, 1, 1.0), std::invalid_argument);
  EXPECT_THROW(report(zeros, 1, 0.999), std::invalid_argument);
}

}  // namespace
}  // namespace dptd::crowd
