// Failure-model behaviours of the distributed coordinator: straggler timeout
// and same-op-id resend (exactly-once on the shard), shard failure aborting
// the round and shrinking the roster, rejoin with the stable-id warm-start
// remap across churn, and byzantine robustness — a truncated protocol message
// at ANY byte offset is counted, never fatal, on both ends.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdlib>
#include <functional>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "data/builder.h"
#include "data/sharding.h"
#include "data/synthetic.h"
#include "dist/coordinator.h"
#include "dist/pinned_ops.h"
#include "dist/shard_node.h"
#include "truth/fold_backend.h"
#include "truth/interface.h"
#include "net/network.h"
#include "testing/address_space.h"

namespace dptd::dist {
namespace {

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

MethodSpec crh_spec() {
  MethodSpec spec;
  spec.kind = MethodSpec::Kind::kCrh;
  return spec;
}

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

struct Fleet {
  net::Simulator sim;
  net::Network network;
  std::vector<std::unique_ptr<ShardNode>> shards;
  std::unique_ptr<Coordinator> coordinator;

  Fleet(std::size_t num_shards, const MethodSpec& spec,
        std::size_t num_objects, bool warm_start = false,
        net::LatencyModel latency = net::LatencyModel{0.01, 0.0, 0.0})
      : network(sim, latency, 7) {
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

std::vector<net::NodeId> participant_ids(std::size_t count,
                                         net::NodeId first = 0) {
  std::vector<net::NodeId> ids;
  for (std::size_t s = 0; s < count; ++s) ids.push_back(first + s);
  return ids;
}

/// Sends every user's report toward the coordinator WITHOUT pumping the
/// simulator; returns the number of reports sent.
std::size_t send_reports(Fleet& fleet, const data::Dataset& dataset,
                         std::uint64_t round, net::NodeId first_id = 0) {
  std::size_t sent = 0;
  for (std::size_t s = 0; s < dataset.num_users(); ++s) {
    const auto entries = dataset.observations.user_entries(s);
    if (entries.empty()) continue;
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
    ++sent;
  }
  return sent;
}

void send_dataset(Fleet& fleet, const data::Dataset& dataset,
                  std::uint64_t round, net::NodeId first_id = 0) {
  send_reports(fleet, dataset, round, first_id);
  fleet.sim.run();
}

/// Test endpoint that records everything delivered to it (captures shard
/// responses when a test drives a ShardNode with hand-crafted envelopes).
struct Recorder final : public net::Node {
  std::vector<net::Message> received;
  void on_message(const net::Message& message) override {
    received.push_back(message);
  }
};

TEST(DistributedProtocol, StragglerResendsRecoverTheExactResult) {
  const data::Dataset dataset = random_dataset(11, 64, 5, 0.3);
  Fleet fleet(4, crh_spec(), dataset.num_objects());
  ASSERT_TRUE(
      fleet.coordinator->begin_round(1, participant_ids(dataset.num_users())));
  send_dataset(fleet, dataset, 1);

  // Shard 2 drops off AFTER ingestion with its state intact; requests sent
  // while it is dark go undeliverable and the coordinator must resend (same
  // op id) until the node is back. op_timeout 0.25s, offline window 0.6s:
  // roughly two lost rounds, well inside max_resends.
  fleet.shards[2]->go_offline();
  fleet.sim.schedule(0.6, [&] { fleet.shards[2]->come_online(); });
  const DistributedOutcome outcome = fleet.coordinator->close_round();

  ASSERT_TRUE(outcome.completed);
  ASSERT_TRUE(outcome.aggregated);
  EXPECT_GT(outcome.resends, 0u);
  EXPECT_GT(outcome.network.messages_undeliverable, 0u);
  EXPECT_EQ(fleet.coordinator->roster().size(), 4u);  // nobody got expelled

  // Stragglers cost latency, never correctness: bitwise identical anyway.
  const truth::Result reference = make_method(crh_spec())->run_sharded(
      data::ShardedMatrix::partition(dataset.observations, 4, kTestBlock));
  expect_bitwise_equal(reference, outcome.result, "straggler");
}

TEST(DistributedProtocol, RepeatedStragglingNeverDoubleExecutes) {
  // Two separate dark windows force resends for several distinct ops. The
  // shard's exactly-once memo must keep non-idempotent ops (finalize) single-
  // shot, which the bitwise check would expose immediately if violated.
  const data::Dataset dataset = random_dataset(12, 32, 4, 0.25);
  Fleet fleet(2, crh_spec(), dataset.num_objects());
  ASSERT_TRUE(
      fleet.coordinator->begin_round(1, participant_ids(dataset.num_users())));
  send_dataset(fleet, dataset, 1);

  fleet.shards[0]->go_offline();
  fleet.sim.schedule(0.3, [&] { fleet.shards[0]->come_online(); });
  fleet.sim.schedule(0.9, [&] { fleet.shards[1]->go_offline(); });
  fleet.sim.schedule(1.2, [&] { fleet.shards[1]->come_online(); });
  const DistributedOutcome outcome = fleet.coordinator->close_round();

  ASSERT_TRUE(outcome.aggregated);
  EXPECT_GT(outcome.resends, 0u);
  const truth::Result reference = make_method(crh_spec())->run_sharded(
      data::ShardedMatrix::partition(dataset.observations, 2, kTestBlock));
  expect_bitwise_equal(reference, outcome.result, "double straggler");
}

/// Builds the renumbered sub-matrix of the given global user ranges — the
/// in-process twin of what a degraded close aggregates over the survivors.
data::ObservationMatrix submatrix_of_ranges(
    const data::ObservationMatrix& obs,
    const std::vector<std::pair<std::size_t, std::size_t>>& ranges) {
  std::size_t users = 0;
  for (const auto& [begin, end] : ranges) users += end - begin;
  data::ObservationMatrixBuilder builder(users, obs.num_objects());
  std::size_t local = 0;
  for (const auto& [begin, end] : ranges) {
    for (std::size_t s = begin; s < end; ++s, ++local) {
      const auto entries = obs.user_entries(s);
      if (entries.empty()) continue;
      std::vector<std::uint64_t> objects;
      std::vector<double> values;
      for (const auto& entry : entries) {
        objects.push_back(entry.object);
        values.push_back(entry.value);
      }
      builder.add_row(local, objects, values);
    }
  }
  return builder.finalize();
}

/// Every MethodSpec kind; the categorical ones over a 4-label alphabet.
std::vector<MethodSpec> every_method_kind() {
  std::vector<MethodSpec> specs;
  for (const MethodSpec::Kind kind :
       {MethodSpec::Kind::kCrh, MethodSpec::Kind::kGtm, MethodSpec::Kind::kCatd,
        MethodSpec::Kind::kMean, MethodSpec::Kind::kMedian,
        MethodSpec::Kind::kMajority, MethodSpec::Kind::kVote}) {
    MethodSpec spec;
    spec.kind = kind;
    spec.majority.num_labels = 4;
    spec.vote.num_labels = 4;
    specs.push_back(spec);
  }
  return specs;
}

/// Sends each non-empty row of `obs` as one upload: a kLabelReport carrying
/// the label ids a categorical round stores as exact doubles, else a kReport.
void send_rows(Fleet& fleet, const data::ObservationMatrix& obs,
               std::uint64_t round, bool labels) {
  for (std::size_t s = 0; s < obs.num_users(); ++s) {
    const auto entries = obs.user_entries(s);
    if (entries.empty()) continue;
    if (labels) {
      crowd::LabelReport report;
      report.round = round;
      report.user_id = s;
      for (const auto& entry : entries) {
        report.objects.push_back(entry.object);
        report.labels.push_back(static_cast<std::uint32_t>(entry.value));
      }
      fleet.network.send(crowd::make_message(s, kCoordinatorId,
                                             crowd::MessageType::kLabelReport,
                                             report.encode()));
    } else {
      crowd::Report report;
      report.round = round;
      report.user_id = s;
      for (const auto& entry : entries) {
        report.objects.push_back(entry.object);
        report.values.push_back(entry.value);
      }
      fleet.network.send(crowd::make_message(
          s, kCoordinatorId, crowd::MessageType::kReport, report.encode()));
    }
  }
  fleet.sim.run();
}

TEST(DistributedProtocol, DeadShardClosesDegradedOverSurvivors) {
  // Before the degraded-close change this choreography aborted the whole
  // round (completed=false, result scrubbed). Now the failed shard is
  // excluded mid-round and the close re-runs over the survivors — for every
  // method kind, whichever collective first meets the dead shard.
  for (const MethodSpec& spec : every_method_kind()) {
    const auto method = make_method(spec);
    const std::string name = method->name();
    // Label rounds carry label ids 0..3 as exact doubles.
    data::ObservationMatrix obs =
        random_dataset(13, 48, 4, 0.3).observations;
    if (spec.categorical()) {
      data::ObservationMatrix labels(obs.num_users(), obs.num_objects());
      obs.for_each([&](std::size_t s, std::size_t n, double v) {
        labels.set(s, n, static_cast<double>((s + n + (v > 0.0)) % 4));
      });
      obs = std::move(labels);
    }
    // Warm, so that the warm state left unrecorded below is the degraded
    // close's doing: a cold fleet records no seed at all.
    Fleet fleet(3, spec, obs.num_objects(), /*warm_start=*/true);
    ASSERT_TRUE(
        fleet.coordinator->begin_round(1, participant_ids(obs.num_users())))
        << name;
    send_rows(fleet, obs, 1, spec.categorical());

    // Shard 1 owns users [16, 32): its delivered reports are the exact loss.
    std::size_t expected_lost = 0;
    for (std::size_t s = 16; s < 32; ++s) {
      if (!obs.user_entries(s).empty()) ++expected_lost;
    }

    fleet.shards[1]->fail();  // crash: state gone, never comes back
    const DistributedOutcome outcome = fleet.coordinator->close_round();

    EXPECT_TRUE(outcome.completed) << name;
    ASSERT_TRUE(outcome.aggregated) << name;
    EXPECT_TRUE(outcome.degraded) << name;
    EXPECT_FALSE(outcome.failed_shard.has_value()) << name;
    ASSERT_EQ(outcome.excluded_shards.size(), 1u) << name;
    EXPECT_EQ(outcome.excluded_shards[0], kShardBase + 1) << name;
    EXPECT_EQ(outcome.reports_lost, expected_lost) << name;
    EXPECT_EQ(outcome.reports_undeliverable, 0u) << name;
    EXPECT_GT(outcome.resends, 0u) << name;
    ASSERT_EQ(fleet.coordinator->roster().size(), 2u) << name;
    // A degraded result never becomes a warm seed.
    EXPECT_FALSE(fleet.coordinator->warm().valid) << name;

    // The degraded result is bitwise identical to the in-process run over
    // the survivors' concatenated sub-matrices at the surviving shard count.
    const data::ObservationMatrix survivors =
        submatrix_of_ranges(obs, {{0, 16}, {32, 48}});
    const truth::Result degraded_reference = method->run_sharded(
        data::ShardedMatrix::partition(survivors, 2, kTestBlock));
    expect_bitwise_equal(degraded_reference, outcome.result,
                         name + " degraded close");

    // The retry round re-plans over the survivors, re-routing the dead
    // shard's users, and must land on the canonical (K-invariant) result.
    ASSERT_TRUE(
        fleet.coordinator->begin_round(2, participant_ids(obs.num_users())))
        << name;
    send_rows(fleet, obs, 2, spec.categorical());
    const DistributedOutcome retry = fleet.coordinator->close_round();
    ASSERT_TRUE(retry.aggregated) << name;
    EXPECT_FALSE(retry.degraded) << name;
    const truth::Result reference = method->run_sharded(
        data::ShardedMatrix::partition(obs, 2, kTestBlock));
    expect_bitwise_equal(reference, retry.result, name + " post-failure retry");
  }
}

/// Stands between one ShardNode and the network: requests reach the node
/// untouched, and `rewrite` may edit the node's reply to each of them.
class ReplyTamper final : public net::Transport, public net::Node {
 public:
  using Rewrite = std::function<void(const crowd::StatsEnvelope& request,
                                     crowd::StatsEnvelope& reply)>;
  ReplyTamper(net::Transport& inner, Rewrite rewrite)
      : inner_(&inner), rewrite_(std::move(rewrite)) {}

  void attach(net::NodeId id, net::Node& node) override {
    node_ = &node;
    inner_->attach(id, *this);
  }
  void detach(net::NodeId id) override { inner_->detach(id); }
  bool attached(net::NodeId id) const override {
    return inner_->attached(id);
  }
  void on_message(const net::Message& message) override {
    // The node replies from inside on_message, so the request being served
    // is the one send() sees a reply to.
    if (message.type ==
        static_cast<std::uint32_t>(crowd::MessageType::kShardRequest)) {
      request_ = crowd::StatsEnvelope::decode(message.payload);
    }
    node_->on_message(message);
  }
  void send(net::Message message) override {
    if (message.type ==
        static_cast<std::uint32_t>(crowd::MessageType::kShardResponse)) {
      crowd::StatsEnvelope reply =
          crowd::StatsEnvelope::decode(message.payload);
      rewrite_(request_, reply);
      message.payload = reply.encode();
    }
    inner_->send(std::move(message));
  }
  double now() const override { return inner_->now(); }
  std::size_t poll(double deadline) override { return inner_->poll(deadline); }
  std::size_t run_until_idle() override { return inner_->run_until_idle(); }
  void schedule(double delay, std::function<void()> fn) override {
    inner_->schedule(delay, std::move(fn));
  }
  const net::NetworkStats& stats() const override { return inner_->stats(); }
  std::size_t undeliverable_to(net::NodeId destination) const override {
    return inner_->undeliverable_to(destination);
  }
  double drain_window_seconds() const override {
    return inner_->drain_window_seconds();
  }

 private:
  net::Transport* inner_;
  Rewrite rewrite_;
  net::Node* node_ = nullptr;
  crowd::StatsEnvelope request_;
};

TEST(DistributedProtocol, BatchedReplyWithWrongBodyCountIsExcludedUnfolded) {
  // A shard's batched reply comes from another process: one body too many or
  // too few is malformed even when its last body would decode. CATD's cold
  // start sends [kCatdPrepare, kGather] to every shard; shard 1's reply is
  // rewritten to carry the wrong number of bodies, its gather fragment left
  // last and intact.
  MethodSpec spec;
  spec.kind = MethodSpec::Kind::kCatd;
  const data::Dataset dataset = random_dataset(14, 48, 4, 0.3);
  std::size_t expected_lost = 0;
  for (std::size_t s = 16; s < 32; ++s) {
    if (!dataset.observations.user_entries(s).empty()) ++expected_lost;
  }
  for (const bool extra : {true, false}) {
    const std::string label = extra ? "one body too many" : "one body too few";
    Fleet fleet(3, spec, dataset.num_objects());
    fleet.shards[1].reset();
    ReplyTamper tamper(fleet.network, [&](const crowd::StatsEnvelope& request,
                                          crowd::StatsEnvelope& reply) {
      if (request.op != static_cast<std::uint8_t>(ShardOp::kBatch) ||
          BatchBody::decode(request.body).items.back().op != ShardOp::kGather) {
        return;
      }
      BatchReplyBody bodies = BatchReplyBody::decode(reply.body);
      if (extra) {
        bodies.bodies.insert(bodies.bodies.begin(),
                             std::vector<std::uint8_t>{});
      } else {
        bodies.bodies.erase(bodies.bodies.begin());
      }
      reply.body = bodies.encode();
    });
    ShardNode tampered(kShardBase + 1, tamper);
    ASSERT_TRUE(fleet.coordinator->begin_round(
        1, participant_ids(dataset.num_users())));
    send_dataset(fleet, dataset, 1);
    const DistributedOutcome outcome = fleet.coordinator->close_round();

    ASSERT_TRUE(outcome.aggregated) << label;
    EXPECT_TRUE(outcome.degraded) << label;
    ASSERT_EQ(outcome.excluded_shards.size(), 1u) << label;
    EXPECT_EQ(outcome.excluded_shards[0], kShardBase + 1) << label;
    EXPECT_EQ(outcome.reports_lost, expected_lost) << label;
    ASSERT_EQ(outcome.node_counters.size(), 3u) << label;
    EXPECT_EQ(outcome.node_counters[1].malformed_responses, 1u) << label;
    EXPECT_EQ(outcome.node_counters[0].malformed_responses, 0u) << label;
    // Never folded: the result is the survivors' run, bit for bit.
    const data::ObservationMatrix survivors =
        submatrix_of_ranges(dataset.observations, {{0, 16}, {32, 48}});
    expect_bitwise_equal(
        make_method(spec)->run_sharded(
            data::ShardedMatrix::partition(survivors, 2, kTestBlock)),
        outcome.result, label);
  }
}

TEST(DistributedProtocol, GatherReplyWhoseLengthsWrapIsExcludedUnfolded) {
  // Regression: a gather fragment's per-object lengths were summed without an
  // overflow check, so {2^64 - 1, 1, 0, 0} with no values summed to 0, passed
  // as consistent, and the coordinator copied a length of -1. The same CATD
  // cold start as above; shard 1's gather fragment is rewritten this way.
  MethodSpec spec;
  spec.kind = MethodSpec::Kind::kCatd;
  const data::Dataset dataset = random_dataset(14, 48, 4, 0.3);
  std::size_t expected_lost = 0;
  for (std::size_t s = 16; s < 32; ++s) {
    if (!dataset.observations.user_entries(s).empty()) ++expected_lost;
  }
  Fleet fleet(3, spec, dataset.num_objects());
  fleet.shards[1].reset();
  ReplyTamper tamper(fleet.network, [&](const crowd::StatsEnvelope& request,
                                        crowd::StatsEnvelope& reply) {
    if (request.op != static_cast<std::uint8_t>(ShardOp::kBatch) ||
        BatchBody::decode(request.body).items.back().op != ShardOp::kGather) {
      return;
    }
    BatchReplyBody bodies = BatchReplyBody::decode(reply.body);
    Encoder wrapped;
    wrapped.write_varint(4);
    for (const std::uint64_t length : {~std::uint64_t{0}, std::uint64_t{1},
                                       std::uint64_t{0}, std::uint64_t{0}}) {
      wrapped.write_varint(length);
    }
    wrapped.write_varint(0);  // no values
    bodies.bodies.back() = wrapped.take();
    reply.body = bodies.encode();
  });
  ShardNode tampered(kShardBase + 1, tamper);
  ASSERT_TRUE(
      fleet.coordinator->begin_round(1, participant_ids(dataset.num_users())));
  send_dataset(fleet, dataset, 1);
  const DistributedOutcome outcome = fleet.coordinator->close_round();

  ASSERT_TRUE(outcome.aggregated);
  EXPECT_TRUE(outcome.degraded);
  ASSERT_EQ(outcome.excluded_shards.size(), 1u);
  EXPECT_EQ(outcome.excluded_shards[0], kShardBase + 1);
  EXPECT_EQ(outcome.reports_lost, expected_lost);
  ASSERT_EQ(outcome.node_counters.size(), 3u);
  EXPECT_EQ(outcome.node_counters[1].malformed_responses, 1u);
  EXPECT_EQ(outcome.node_counters[0].malformed_responses, 0u);
  const data::ObservationMatrix survivors =
      submatrix_of_ranges(dataset.observations, {{0, 16}, {32, 48}});
  expect_bitwise_equal(
      make_method(spec)->run_sharded(
          data::ShardedMatrix::partition(survivors, 2, kTestBlock)),
      outcome.result, "wrapped gather lengths");
}

TEST(DistributedProtocol, DegradedRoundRecordCarriesLossAccounting) {
  // The campaign-facing projection: degraded/excluded/reports_lost flow
  // through dist::to_round_record alongside the ingest totals.
  const data::Dataset dataset = random_dataset(17, 32, 4, 0.2);
  Fleet fleet(2, crh_spec(), dataset.num_objects());
  ASSERT_TRUE(
      fleet.coordinator->begin_round(1, participant_ids(dataset.num_users())));
  const std::size_t sent = send_reports(fleet, dataset, 1);
  fleet.sim.run();
  fleet.shards[0]->fail();
  const DistributedOutcome outcome = fleet.coordinator->close_round();
  ASSERT_TRUE(outcome.degraded);

  const crowd::RoundRecord record = to_round_record(outcome);
  EXPECT_EQ(record.round, 1u);
  EXPECT_TRUE(record.degraded);
  ASSERT_EQ(record.excluded_shards.size(), 1u);
  EXPECT_EQ(record.excluded_shards[0], kShardBase + 0);
  EXPECT_EQ(record.reports_lost, outcome.reports_lost);
  EXPECT_EQ(record.reports_expected, sent);
  // Conservation in the record: every routed report is either in a surviving
  // shard's received total or accounted lost.
  EXPECT_EQ(record.reports_received + record.reports_lost, sent);
  EXPECT_EQ(record.truths.size(), dataset.num_objects());
  EXPECT_EQ(record.iterations, outcome.result.iterations);
}

TEST(DistributedProtocol, RejoinAndChurnReuseTheStableIdWarmRemap) {
  const data::Dataset first = random_dataset(21, 64, 5, 0.25);
  const data::Dataset second = random_dataset(22, 64, 5, 0.25);
  Fleet fleet(3, crh_spec(), first.num_objects(), /*warm_start=*/true);
  const auto roster1 = participant_ids(64);       // users 0..63
  const auto roster2 = participant_ids(64, 8);    // churn: 8 leave, 8 join

  ASSERT_TRUE(fleet.coordinator->begin_round(1, roster1));
  send_dataset(fleet, first, 1);
  ASSERT_TRUE(fleet.coordinator->close_round().aggregated);
  ASSERT_TRUE(fleet.coordinator->warm().valid);

  // Round 2 loses a shard mid-protocol: it closes degraded over the
  // survivors, and the warm state from round 1 must survive UNCHANGED (a
  // degraded result never becomes a warm seed — the round-3 reference below
  // would diverge bitwise if it did).
  ASSERT_TRUE(fleet.coordinator->begin_round(2, roster2));
  send_dataset(fleet, second, 2, /*first_id=*/8);
  fleet.shards[2]->fail();
  const DistributedOutcome degraded = fleet.coordinator->close_round();
  EXPECT_TRUE(degraded.completed);
  EXPECT_TRUE(degraded.degraded);
  ASSERT_EQ(degraded.excluded_shards.size(), 1u);
  EXPECT_EQ(degraded.excluded_shards[0], kShardBase + 2);
  EXPECT_EQ(fleet.coordinator->roster().size(), 2u);
  EXPECT_TRUE(fleet.coordinator->warm().valid);

  // The crashed node rejoins blank and re-enrolls for the retry round.
  fleet.shards[2]->rejoin();
  fleet.coordinator->add_shard(kShardBase + 2);
  ASSERT_TRUE(fleet.coordinator->begin_round(3, roster2));
  send_dataset(fleet, second, 3, /*first_id=*/8);
  const DistributedOutcome retry = fleet.coordinator->close_round();
  ASSERT_TRUE(retry.aggregated);
  EXPECT_TRUE(retry.warm_started);

  // In-process twin of the same churned warm start: remap round 1's weights
  // through stable ids (survivors keep theirs, joiners start at the mean).
  const auto method = make_method(crh_spec());
  const truth::Result prior = method->run_sharded(
      data::ShardedMatrix::partition(first.observations, 3, kTestBlock));
  crowd::WarmState warm;
  warm.result = prior;
  warm.participants = roster1;
  warm.valid = true;
  truth::WarmStart seed;
  seed.truths = prior.truths;
  seed.weights = crowd::remap_warm_weights(warm, roster2, 64);
  const truth::Result reference = method->run_sharded(
      data::ShardedMatrix::partition(second.observations, 3, kTestBlock),
      seed);
  expect_bitwise_equal(reference, retry.result, "churned warm rejoin");
}

TEST(DistributedProtocol, ColdFleetRecordsNoWarmSeed) {
  // Without warm_start no round reads a seed, so an aggregated round records
  // none: no copy of the weights and the roster it would be indexed by.
  const data::Dataset dataset = random_dataset(23, 32, 4, 0.25);
  Fleet fleet(2, crh_spec(), dataset.num_objects());
  for (std::uint64_t round = 1; round <= 2; ++round) {
    ASSERT_TRUE(fleet.coordinator->begin_round(
        round, participant_ids(dataset.num_users())));
    send_dataset(fleet, dataset, round);
    const DistributedOutcome outcome = fleet.coordinator->close_round();
    ASSERT_TRUE(outcome.aggregated);
    EXPECT_FALSE(outcome.degraded);
    EXPECT_FALSE(outcome.warm_started);
    EXPECT_FALSE(fleet.coordinator->warm().valid);
    EXPECT_TRUE(fleet.coordinator->warm().result.weights.empty());
    EXPECT_TRUE(fleet.coordinator->warm().participants.empty());
  }
}

TEST(DistributedProtocol, SetupFailureReplansOverSurvivors) {
  const data::Dataset dataset = random_dataset(31, 48, 4, 0.3);
  Fleet fleet(3, crh_spec(), dataset.num_objects());
  fleet.shards[0]->fail();  // dead before the round even opens

  // begin_round must burn through the dead shard's resends, expel it,
  // re-plan over the two survivors, and still succeed.
  ASSERT_TRUE(
      fleet.coordinator->begin_round(1, participant_ids(dataset.num_users())));
  EXPECT_EQ(fleet.coordinator->roster().size(), 2u);
  EXPECT_GT(fleet.coordinator->total_resends(), 0u);

  send_dataset(fleet, dataset, 1);
  const DistributedOutcome outcome = fleet.coordinator->close_round();
  ASSERT_TRUE(outcome.aggregated);
  const truth::Result reference = make_method(crh_spec())->run_sharded(
      data::ShardedMatrix::partition(dataset.observations, 2, kTestBlock));
  expect_bitwise_equal(reference, outcome.result, "setup re-plan");
}

TEST(DistributedProtocol, EmptyRosterFailsBeginRoundCleanly) {
  Fleet fleet(1, crh_spec(), 3);
  fleet.shards[0]->fail();
  EXPECT_FALSE(fleet.coordinator->begin_round(1, participant_ids(8)));
  EXPECT_TRUE(fleet.coordinator->roster().empty());
}

TEST(DistributedProtocol, RepeatedRosterIdIsRefusedBeforeAnySetup) {
  // Regression: a roster with a repeated id used to be accepted; the shard
  // owning the repeat then waited for a row nobody could fill.
  const data::Dataset dataset = random_dataset(41, 16, 3, 0.2);
  Fleet fleet(2, crh_spec(), dataset.num_objects());
  std::vector<net::NodeId> roster = participant_ids(16);
  roster[9] = roster[3];
  const std::size_t sent = fleet.network.stats().messages_sent;
  EXPECT_THROW(fleet.coordinator->begin_round(1, roster),
               std::invalid_argument);
  EXPECT_EQ(fleet.network.stats().messages_sent, sent);  // no kSetup went out

  ASSERT_TRUE(fleet.coordinator->begin_round(1, participant_ids(16)));
  send_dataset(fleet, dataset, 1);
  const DistributedOutcome outcome = fleet.coordinator->close_round();
  ASSERT_TRUE(outcome.aggregated);
  const truth::Result reference = make_method(crh_spec())->run_sharded(
      data::ShardedMatrix::partition(dataset.observations, 2, kTestBlock));
  expect_bitwise_equal(reference, outcome.result, "after refusal");
}

TEST(DistributedProtocol, TruncatedResponsesAreCountedNeverFatal) {
  // Satellite bugfix: the coordinator decode path must treat DecodeError /
  // short payloads as a per-node malformed_messages stat instead of aborting.
  // Fuzz: a valid stats response truncated at EVERY byte offset.
  Fleet fleet(2, crh_spec(), 3);
  const net::NodeId byzantine = 4242;

  crowd::StatsEnvelope env;
  env.op_id = 77;
  env.op = static_cast<std::uint8_t>(ShardOp::kAggregate);
  truth::AggregateStats stats;
  stats.reset(3);
  env.body = write_fields(stats);
  const std::vector<std::uint8_t> wire = env.encode();
  ASSERT_GT(wire.size(), 8u);

  for (std::size_t len = 0; len < wire.size(); ++len) {
    net::Message message;
    message.source = byzantine;
    message.destination = kCoordinatorId;
    message.type = static_cast<std::uint32_t>(
        crowd::MessageType::kShardResponse);
    message.payload = std::vector<std::uint8_t>(
        wire.begin(), wire.begin() + static_cast<std::ptrdiff_t>(len));
    EXPECT_NO_THROW(fleet.coordinator->on_message(message)) << len;
  }
  // The intact envelope decodes but matches no outstanding op: stale.
  net::Message full;
  full.source = byzantine;
  full.destination = kCoordinatorId;
  full.type = static_cast<std::uint32_t>(crowd::MessageType::kShardResponse);
  full.payload = wire;
  EXPECT_NO_THROW(fleet.coordinator->on_message(full));

  const auto& malformed = fleet.coordinator->malformed_by_node();
  ASSERT_TRUE(malformed.contains(byzantine));
  EXPECT_EQ(malformed.at(byzantine) + fleet.coordinator->stale_responses(),
            wire.size() + 1);

  // And the coordinator is still fully operational afterwards.
  const data::Dataset dataset = random_dataset(51, 32, 3, 0.2);
  ASSERT_TRUE(
      fleet.coordinator->begin_round(1, participant_ids(dataset.num_users())));
  send_dataset(fleet, dataset, 1);
  EXPECT_TRUE(fleet.coordinator->close_round().aggregated);
}

TEST(DistributedProtocol, TruncatedRequestsNeverKillAShard) {
  Fleet fleet(1, crh_spec(), 3);
  ShardNode& shard = *fleet.shards[0];

  crowd::StatsEnvelope env;
  env.op_id = 99;
  env.op = static_cast<std::uint8_t>(ShardOp::kSetup);
  SetupBody setup;
  setup.round = 1;
  setup.num_users = 16;
  setup.num_shards = 1;
  setup.shard_index = 0;
  setup.num_objects = 3;
  setup.block_size = kTestBlock;
  for (std::size_t s = 0; s < 16; ++s) setup.participants.push_back(s);
  env.body = setup.encode();
  const std::vector<std::uint8_t> wire = env.encode();

  for (std::size_t len = 0; len < wire.size(); ++len) {
    net::Message message;
    message.source = kCoordinatorId;
    message.destination = shard.id();
    message.type =
        static_cast<std::uint32_t>(crowd::MessageType::kShardRequest);
    message.payload = std::vector<std::uint8_t>(
        wire.begin(), wire.begin() + static_cast<std::ptrdiff_t>(len));
    EXPECT_NO_THROW(shard.on_message(message)) << len;
  }
  EXPECT_EQ(shard.malformed_messages(), wire.size());

  // The shard still serves a full round after the garbage barrage.
  const data::Dataset dataset = random_dataset(52, 24, 3, 0.2);
  ASSERT_TRUE(
      fleet.coordinator->begin_round(1, participant_ids(dataset.num_users())));
  send_dataset(fleet, dataset, 1);
  EXPECT_TRUE(fleet.coordinator->close_round().aggregated);

  // Every op's pinned request (pinned_ops.h), in its round's order: each
  // body truncated at every offset, inside an intact envelope, is counted
  // malformed and leaves the watermark where it was; the intact request
  // then executes and is answered.
  Recorder recorder;
  const net::NodeId kRecorder = 7776;
  fleet.network.attach(kRecorder, recorder);
  std::uint64_t op_id = shard.op_watermark().value();
  for (const pinned::PinnedOp& pin : pinned::kOps) {
    const std::string label = "op " + std::to_string(static_cast<int>(pin.op));
    if (pin.op == ShardOp::kFinalizeIngest) {
      shard.on_message(crowd::make_message(kCoordinatorId, shard.id(),
                                           crowd::MessageType::kReportBatch,
                                           pinned::report_batch()));
    }
    crowd::StatsEnvelope request;
    request.op_id = ++op_id;
    request.op = static_cast<std::uint8_t>(pin.op);
    const std::vector<std::uint8_t> body = pinned::from_hex(pin.request);
    const std::size_t malformed = shard.malformed_messages();
    for (std::size_t len = 0; len < body.size(); ++len) {
      request.body.assign(body.begin(),
                          body.begin() + static_cast<std::ptrdiff_t>(len));
      EXPECT_NO_THROW(shard.on_message(crowd::make_message(
          kRecorder, shard.id(), crowd::MessageType::kShardRequest,
          request.encode())))
          << label << " truncated at " << len;
    }
    EXPECT_EQ(shard.malformed_messages() - malformed, body.size()) << label;
    EXPECT_EQ(shard.op_watermark(), op_id - 1) << label;
    request.body = body;
    shard.on_message(crowd::make_message(kRecorder, shard.id(),
                                         crowd::MessageType::kShardRequest,
                                         request.encode()));
    fleet.sim.run();
    EXPECT_EQ(shard.op_watermark(), op_id) << label;
    ASSERT_FALSE(recorder.received.empty()) << label;
    EXPECT_EQ(crowd::StatsEnvelope::decode(recorder.received.back().payload)
                  .op_id,
              op_id)
        << label;
  }
}

TEST(DistributedProtocol, UnroutableReportsAreCountedNotFatal) {
  const data::Dataset dataset = random_dataset(61, 24, 3, 0.2);
  Fleet fleet(2, crh_spec(), dataset.num_objects());
  ASSERT_TRUE(
      fleet.coordinator->begin_round(1, participant_ids(dataset.num_users())));
  send_dataset(fleet, dataset, 1);

  // Unknown user, stale round, and an undecodable payload: all unroutable.
  crowd::Report unknown;
  unknown.round = 1;
  unknown.user_id = 9999;
  unknown.objects = {0};
  unknown.values = {1.0};
  fleet.network.send(crowd::make_message(9999, kCoordinatorId,
                                         crowd::MessageType::kReport,
                                         unknown.encode()));
  crowd::Report stale;
  stale.round = 0;
  stale.user_id = 1;
  stale.objects = {0};
  stale.values = {1.0};
  fleet.network.send(crowd::make_message(
      1, kCoordinatorId, crowd::MessageType::kReport, stale.encode()));
  fleet.network.send(crowd::make_message(2, kCoordinatorId,
                                         crowd::MessageType::kReport,
                                         {0xff, 0xff, 0xff}));
  fleet.sim.run();

  const DistributedOutcome outcome = fleet.coordinator->close_round();
  ASSERT_TRUE(outcome.aggregated);
  EXPECT_EQ(outcome.reports_unroutable, 3u);
}

/// Hands `shard` one upload the way the coordinator routes it: a one-item
/// kReportBatch.
void deliver_report(ShardNode& shard, const crowd::Report& report) {
  const std::vector<std::uint8_t> upload = report.encode();
  crowd::ReportBatchBuilder batch;
  batch.add(upload, *crowd::Report::peek_header(upload));
  shard.on_message(crowd::make_message(
      kCoordinatorId, shard.id(), crowd::MessageType::kReportBatch,
      batch.take(report.round, crowd::MessageType::kReport)));
}

// Drives a ShardNode with a hand-crafted request envelope, as the coordinator
// (or a jittered link replaying an old copy) would.
void deliver_request(ShardNode& shard, net::NodeId source,
                     std::uint64_t op_id, ShardOp op,
                     std::vector<std::uint8_t> body) {
  crowd::StatsEnvelope env;
  env.op_id = op_id;
  env.op = static_cast<std::uint8_t>(op);
  env.body = std::move(body);
  shard.on_message(crowd::make_message(
      source, shard.id(), crowd::MessageType::kShardRequest, env.encode()));
}

TEST(DistributedProtocolDeathTest, OversizedCountPrefixIsMalformedNotAnAbort) {
  // Regression: container decoders reserved a count's worth of elements
  // before checking the bytes left, so a kBatch claiming 2^28 items reserved
  // 8 GiB and a shard died of std::bad_alloc. The child caps its own address
  // space 1 GiB above its current size, so such a reservation fails at once
  // instead of paging; each request must be refused as malformed instead.
#ifdef DPTD_TEST_SANITIZED
  GTEST_SKIP() << "sanitizers reserve shadow memory up front";
#endif
  EXPECT_EXIT(
      {
        dptd::testing::cap_address_space(rlim_t{1} << 30);

        Fleet fleet(1, crh_spec(), 2);
        ShardNode& shard = *fleet.shards[0];
        Encoder count;  // 2^28 elements, and not one byte behind them
        count.write_varint(std::uint64_t{1} << 28);
        Encoder setup;
        for (int field = 0; field < 7; ++field) setup.write_varint(0);
        setup.write_raw(count.bytes());
        deliver_request(shard, kCoordinatorId, 1, ShardOp::kBatch, count.bytes());
        deliver_request(shard, kCoordinatorId, 2, ShardOp::kMoments,
                        count.bytes());
        deliver_request(shard, kCoordinatorId, 3, ShardOp::kSetup, setup.take());
        std::exit(shard.malformed_messages() == 3 ? 0 : 1);
      },
      ::testing::ExitedWithCode(0), "");
}

TEST(DistributedProtocol, DelayedDuplicateOfAnOlderOpIsDroppedNotReexecuted) {
  // Regression: the exactly-once memo used to hold only the LAST op id, so a
  // delayed duplicate of an OLDER op (a resent copy overtaken by newer ops —
  // possible whenever jitter exceeds the op timeout) was re-executed instead
  // of dropped. Here a late duplicate kFinalizeIngest must not re-finalize
  // and reset the weights that kSetWeights installed after it.
  Fleet fleet(1, crh_spec(), 2);
  ShardNode& shard = *fleet.shards[0];
  Recorder recorder;
  const net::NodeId kRecorder = 7777;
  fleet.network.attach(kRecorder, recorder);

  SetupBody setup;
  setup.round = 1;
  setup.num_users = 4;
  setup.num_shards = 1;
  setup.shard_index = 0;
  setup.num_objects = 2;
  setup.block_size = kTestBlock;
  for (std::size_t s = 0; s < 4; ++s) setup.participants.push_back(s);
  deliver_request(shard, kRecorder, 1, ShardOp::kSetup, setup.encode());

  for (std::size_t s = 0; s < 4; ++s) {
    crowd::Report report;
    report.round = 1;
    report.user_id = s;
    report.objects = {0, 1};
    report.values = {1.0 + static_cast<double>(s),
                     2.0 + static_cast<double>(s)};
    deliver_report(shard, report);
  }
  deliver_request(shard, kRecorder, 2, ShardOp::kFinalizeIngest, {});

  WeightsBody weights;
  weights.uniform = false;
  weights.weights = {2.0, 3.0, 4.0, 5.0};
  deliver_request(shard, kRecorder, 3, ShardOp::kSetWeights,
                  weights.encode());

  // The delayed duplicate of op 2 arrives after op 3 executed: dropped.
  deliver_request(shard, kRecorder, 2, ShardOp::kFinalizeIngest, {});
  EXPECT_EQ(shard.stale_requests(), 1u);

  deliver_request(shard, kRecorder, 4, ShardOp::kCollectWeights, {});
  fleet.sim.run();
  ASSERT_FALSE(recorder.received.empty());
  const crowd::StatsEnvelope reply =
      crowd::StatsEnvelope::decode(recorder.received.back().payload);
  EXPECT_EQ(reply.op_id, 4u);
  const WeightsBody collected = WeightsBody::decode(reply.body);
  EXPECT_EQ(collected.weights, weights.weights);
  // And the stale duplicate produced no response at all: one reply per
  // executed op (4 ops), nothing for the drop.
  EXPECT_EQ(recorder.received.size(), 4u);
}

TEST(DistributedProtocol, StaleSetupFromAnAbandonedPlanIsRejected) {
  // Regression companion to the re-plan loop: when a shard fails setup, the
  // coordinator abandons the outstanding kSetups and re-plans over the
  // survivors — but the abandoned (older-id) kSetup may still be in flight
  // and, under jitter, deliver AFTER the re-planned one. The op-id watermark
  // must reject it, or the shard would run the round on the dead plan's
  // smaller roster slice.
  Fleet fleet(1, crh_spec(), 2);
  ShardNode& shard = *fleet.shards[0];
  Recorder recorder;
  const net::NodeId kRecorder = 7778;
  fleet.network.attach(kRecorder, recorder);

  SetupBody fresh;  // the re-planned split: 1 surviving shard, all 16 users
  fresh.round = 1;
  fresh.num_users = 16;
  fresh.num_shards = 1;
  fresh.shard_index = 0;
  fresh.num_objects = 2;
  fresh.block_size = kTestBlock;
  for (std::size_t s = 0; s < 16; ++s) fresh.participants.push_back(s);
  deliver_request(shard, kRecorder, 7, ShardOp::kSetup, fresh.encode());

  SetupBody stale = fresh;  // the abandoned 2-shard split: first block only
  stale.num_shards = 2;
  stale.participants.resize(kTestBlock);
  deliver_request(shard, kRecorder, 3, ShardOp::kSetup, stale.encode());
  EXPECT_EQ(shard.stale_requests(), 1u);

  // All 16 users of the fresh plan must still be in the roster slice.
  for (std::size_t s = 0; s < 16; ++s) {
    crowd::Report report;
    report.round = 1;
    report.user_id = s;
    report.objects = {0, 1};
    report.values = {1.0, 2.0};
    deliver_report(shard, report);
  }
  deliver_request(shard, kRecorder, 8, ShardOp::kFinalizeIngest, {});
  fleet.sim.run();
  ASSERT_FALSE(recorder.received.empty());
  const crowd::StatsEnvelope reply =
      crowd::StatsEnvelope::decode(recorder.received.back().payload);
  ASSERT_EQ(reply.op_id, 8u);
  const IngestSummaryBody summary = IngestSummaryBody::decode(reply.body);
  EXPECT_EQ(summary.stats.reports_received, 16u);
  EXPECT_EQ(summary.stats.rejected_reports, 0u);
}

TEST(DistributedProtocol, SetupWithARepeatedIdIsMalformedNotFatal) {
  // A kSetup whose roster slice repeats an id is refused like any malformed
  // body: counted, unanswered, and with the open round left as it was.
  Fleet fleet(1, crh_spec(), 2);
  ShardNode& shard = *fleet.shards[0];
  Recorder recorder;
  const net::NodeId kRecorder = 7779;
  fleet.network.attach(kRecorder, recorder);

  SetupBody setup;
  setup.round = 1;
  setup.num_users = 4;
  setup.num_shards = 1;
  setup.shard_index = 0;
  setup.num_objects = 2;
  setup.block_size = kTestBlock;
  setup.participants = {5, 7, 8, 9};
  deliver_request(shard, kRecorder, 1, ShardOp::kSetup, setup.encode());

  SetupBody repeated = setup;
  repeated.round = 2;
  repeated.participants = {5, 7, 5, 9};
  deliver_request(shard, kRecorder, 2, ShardOp::kSetup, repeated.encode());
  EXPECT_EQ(shard.malformed_messages(), 1u);

  for (net::NodeId user : setup.participants) {
    crowd::Report report;
    report.round = 1;
    report.user_id = user;
    report.objects = {0, 1};
    report.values = {1.0, 2.0};
    deliver_report(shard, report);
  }
  deliver_request(shard, kRecorder, 3, ShardOp::kFinalizeIngest, {});
  fleet.sim.run();
  ASSERT_EQ(recorder.received.size(), 2u);  // ops 1 and 3, never op 2
  const crowd::StatsEnvelope reply =
      crowd::StatsEnvelope::decode(recorder.received.back().payload);
  ASSERT_EQ(reply.op_id, 3u);
  const IngestSummaryBody summary = IngestSummaryBody::decode(reply.body);
  EXPECT_EQ(summary.stats.reports_received, 4u);
  EXPECT_EQ(summary.stats.rejected_reports, 0u);
}

TEST(DistributedProtocol, SetupWithMoreObjectsThanIdsHoldIsMalformed) {
  // Regression: claims store 32-bit object ids, so a kSetup shaped for
  // 2^32 + 1 objects must be refused like any malformed body: counted,
  // unanswered, the watermark and the open round left as they were. An
  // accepted one made the shard size a 32 GiB per-object array at finalize.
  const data::Dataset dataset = random_dataset(71, 24, 3, 0.2);
  Fleet fleet(1, crh_spec(), dataset.num_objects());
  ShardNode& shard = *fleet.shards[0];
  Recorder recorder;
  const net::NodeId kRecorder = 7780;
  fleet.network.attach(kRecorder, recorder);
  ASSERT_TRUE(
      fleet.coordinator->begin_round(1, participant_ids(dataset.num_users())));
  const std::uint64_t watermark = shard.op_watermark().value();

  SetupBody wide;
  wide.round = 2;
  wide.num_users = 4;
  wide.num_shards = 1;
  wide.shard_index = 0;
  wide.num_objects = data::ObservationMatrix::kMaxObjects + 1;
  wide.block_size = kTestBlock;
  wide.participants = {100, 101, 102, 103};
  deliver_request(shard, kRecorder, watermark + 1, ShardOp::kSetup,
                  wide.encode());
  fleet.sim.run();
  // Past these the round would finalize the refused shape.
  ASSERT_EQ(shard.malformed_messages(), 1u);
  ASSERT_EQ(shard.op_watermark(), watermark);
  EXPECT_TRUE(recorder.received.empty());

  send_dataset(fleet, dataset, 1);
  const DistributedOutcome outcome = fleet.coordinator->close_round();
  ASSERT_TRUE(outcome.aggregated);
  EXPECT_EQ(outcome.shard_stats[0].rejected_reports, 0u);
  const truth::Result reference = make_method(crh_spec())->run_sharded(
      data::ShardedMatrix::partition(dataset.observations, 1, kTestBlock));
  expect_bitwise_equal(reference, outcome.result, "after refused setup");
}

TEST(DistributedProtocol, SetupWithABadRangeIsMalformed) {
  // A range slice whose end runs past the largest id, or whose count is not
  // the plan's slice, is refused like any malformed body: counted,
  // unanswered, the watermark and the open round left as they were.
  const data::Dataset dataset = random_dataset(73, 24, 3, 0.2);
  Fleet fleet(1, crh_spec(), dataset.num_objects());
  ShardNode& shard = *fleet.shards[0];
  Recorder recorder;
  const net::NodeId kRecorder = 7781;
  fleet.network.attach(kRecorder, recorder);
  ASSERT_TRUE(
      fleet.coordinator->begin_round(1, participant_ids(dataset.num_users())));
  const std::uint64_t watermark = shard.op_watermark().value();

  SetupBody overflow;
  overflow.round = 2;
  overflow.num_users = 4;
  overflow.num_shards = 1;
  overflow.shard_index = 0;
  overflow.num_objects = 3;
  overflow.block_size = kTestBlock;
  overflow.range_base = std::numeric_limits<net::NodeId>::max() - 2;
  overflow.range_count = 4;
  SetupBody short_slice = overflow;
  short_slice.range_base = 100;
  short_slice.range_count = 3;
  SetupBody huge_slice = short_slice;
  huge_slice.range_count = std::numeric_limits<std::uint64_t>::max();
  for (const SetupBody* bad : {&overflow, &short_slice, &huge_slice}) {
    deliver_request(shard, kRecorder, watermark + 1, ShardOp::kSetup,
                    bad->encode());
  }
  fleet.sim.run();
  ASSERT_EQ(shard.malformed_messages(), 3u);
  ASSERT_EQ(shard.op_watermark(), watermark);
  EXPECT_TRUE(recorder.received.empty());

  send_dataset(fleet, dataset, 1);
  const DistributedOutcome outcome = fleet.coordinator->close_round();
  ASSERT_TRUE(outcome.aggregated);
  EXPECT_EQ(outcome.shard_stats[0].rejected_reports, 0u);
  const truth::Result reference = make_method(crh_spec())->run_sharded(
      data::ShardedMatrix::partition(dataset.observations, 1, kTestBlock));
  expect_bitwise_equal(reference, outcome.result, "after refused ranges");
}

/// The Coordinator's transport: forwards everything, and once armed, throws
/// from the next send, as a failing socket or an allocation could.
class ThrowingTransport final : public net::Transport {
 public:
  explicit ThrowingTransport(net::Transport& inner) : inner_(&inner) {}

  bool armed = false;

  void attach(net::NodeId id, net::Node& node) override {
    inner_->attach(id, node);
  }
  void detach(net::NodeId id) override { inner_->detach(id); }
  bool attached(net::NodeId id) const override {
    return inner_->attached(id);
  }
  void send(net::Message message) override {
    if (armed) {
      armed = false;
      throw std::runtime_error("transport: send failed");
    }
    inner_->send(std::move(message));
  }
  double now() const override { return inner_->now(); }
  std::size_t poll(double deadline) override { return inner_->poll(deadline); }
  std::size_t run_until_idle() override { return inner_->run_until_idle(); }
  void schedule(double delay, std::function<void()> fn) override {
    inner_->schedule(delay, std::move(fn));
  }
  const net::NetworkStats& stats() const override { return inner_->stats(); }
  std::size_t undeliverable_to(net::NodeId destination) const override {
    return inner_->undeliverable_to(destination);
  }
  double drain_window_seconds() const override {
    return inner_->drain_window_seconds();
  }

 private:
  net::Transport* inner_;
};

TEST(DistributedProtocol, CloseThatThrowsLeavesTheCoordinatorReady) {
  // Regression: close_round caught only shard failures, so any other
  // exception left the round planned and every later begin_round threw "a
  // round is already open".
  const data::Dataset dataset = random_dataset(75, 32, 4, 0.25);
  const MethodSpec spec = crh_spec();
  net::Simulator sim;
  net::Network network(sim, net::LatencyModel{0.01, 0.0, 0.0}, 7);
  ThrowingTransport transport(network);
  CoordinatorConfig config;
  config.id = kCoordinatorId;
  config.num_objects = dataset.num_objects();
  config.block_size = kTestBlock;
  Coordinator coordinator(config, spec, transport);
  std::vector<std::unique_ptr<ShardNode>> shards;
  for (std::size_t i = 0; i < 2; ++i) {
    shards.push_back(std::make_unique<ShardNode>(kShardBase + i, network));
    coordinator.add_shard(kShardBase + i);
  }
  const auto send_round = [&](std::uint64_t round) {
    for (std::size_t s = 0; s < dataset.num_users(); ++s) {
      crowd::Report report;
      report.round = round;
      report.user_id = s;
      for (const auto& entry : dataset.observations.user_entries(s)) {
        report.objects.push_back(entry.object);
        report.values.push_back(entry.value);
      }
      network.send(crowd::make_message(s, kCoordinatorId,
                                       crowd::MessageType::kReport,
                                       report.encode()));
    }
    sim.run();
  };

  ASSERT_TRUE(coordinator.begin_round(1, participant_ids(dataset.num_users())));
  send_round(1);
  transport.armed = true;  // the close's first send throws
  EXPECT_THROW(coordinator.close_round(), std::runtime_error);
  EXPECT_FALSE(transport.armed);
  EXPECT_FALSE(coordinator.round_open());

  ASSERT_TRUE(coordinator.begin_round(2, participant_ids(dataset.num_users())));
  send_round(2);
  const DistributedOutcome outcome = coordinator.close_round();
  ASSERT_TRUE(outcome.aggregated);
  EXPECT_FALSE(outcome.degraded);
  EXPECT_EQ(outcome.resends, 0u);

  // The bits of a fresh fleet running the same round.
  Fleet fresh(2, spec, dataset.num_objects());
  ASSERT_TRUE(
      fresh.coordinator->begin_round(2, participant_ids(dataset.num_users())));
  send_dataset(fresh, dataset, 2);
  const DistributedOutcome fresh_outcome = fresh.coordinator->close_round();
  ASSERT_TRUE(fresh_outcome.aggregated);
  expect_bitwise_equal(fresh_outcome.result, outcome.result,
                       "after a throwing close");
}

/// Opens round 1 on a single-shard fleet with 4 users / 2 objects and brings
/// it to the ready-to-iterate state (setup, 4 reports, finalize) using op ids
/// 1 and 2 — the staging every kBatch protocol test below builds on.
void stage_single_shard_round(Fleet& fleet, net::NodeId source) {
  ShardNode& shard = *fleet.shards[0];
  SetupBody setup;
  setup.round = 1;
  setup.num_users = 4;
  setup.num_shards = 1;
  setup.shard_index = 0;
  setup.num_objects = 2;
  setup.block_size = kTestBlock;
  for (std::size_t s = 0; s < 4; ++s) setup.participants.push_back(s);
  deliver_request(shard, source, 1, ShardOp::kSetup, setup.encode());
  for (std::size_t s = 0; s < 4; ++s) {
    crowd::Report report;
    report.round = 1;
    report.user_id = s;
    report.objects = {0, 1};
    report.values = {1.0 + static_cast<double>(s),
                     2.0 + static_cast<double>(s)};
    deliver_report(shard, report);
  }
  deliver_request(shard, source, 2, ShardOp::kFinalizeIngest, {});
}

/// A two-item batch [kSetWeights(weights), kCollectWeights] — the smallest
/// batch with a real nested-op boundary in the middle of the frame.
std::vector<std::uint8_t> set_and_collect_batch(
    const std::vector<double>& weights) {
  WeightsBody body;
  body.uniform = false;
  body.weights = weights;
  BatchBody batch;
  batch.items.push_back({ShardOp::kSetWeights, body.encode()});
  batch.items.push_back({ShardOp::kCollectWeights, {}});
  return batch.encode();
}

TEST(DistributedProtocol, BatchFuzzedAtEveryByteNeverKillsAShard) {
  // kBatch adds nested structure (item count, per-item op tag, per-item
  // length-prefixed body) to the wire: truncation at EVERY byte offset and
  // corruption of every byte must be counted or refused, never fatal — and
  // must never advance the exactly-once watermark, so the intact frame still
  // executes afterwards.
  Fleet fleet(1, crh_spec(), 2);
  ShardNode& shard = *fleet.shards[0];
  Recorder recorder;
  const net::NodeId kRecorder = 7779;
  fleet.network.attach(kRecorder, recorder);
  stage_single_shard_round(fleet, kRecorder);

  crowd::StatsEnvelope env;
  env.op_id = 3;
  env.op = static_cast<std::uint8_t>(ShardOp::kBatch);
  env.body = set_and_collect_batch({2.0, 3.0, 4.0, 5.0});
  const std::vector<std::uint8_t> wire = env.encode();

  const std::size_t malformed_before = shard.malformed_messages();
  for (std::size_t len = 0; len < wire.size(); ++len) {
    net::Message message;
    message.source = kRecorder;
    message.destination = shard.id();
    message.type =
        static_cast<std::uint32_t>(crowd::MessageType::kShardRequest);
    message.payload = std::vector<std::uint8_t>(
        wire.begin(), wire.begin() + static_cast<std::ptrdiff_t>(len));
    EXPECT_NO_THROW(shard.on_message(message)) << "truncate " << len;
  }
  // Every strict prefix dies in a decoder (envelope, batch shell, or nested
  // item) BEFORE any sub-op runs: all counted, none executed, no replies.
  EXPECT_EQ(shard.malformed_messages() - malformed_before, wire.size());
  EXPECT_EQ(shard.stale_requests(), 0u);

  // The watermark never moved, so the intact batch executes now and returns
  // one reply body per item, the last being the collected weights.
  deliver_request(shard, kRecorder, 3, ShardOp::kBatch, env.body);
  fleet.sim.run();
  ASSERT_FALSE(recorder.received.empty());
  const crowd::StatsEnvelope reply =
      crowd::StatsEnvelope::decode(recorder.received.back().payload);
  EXPECT_EQ(reply.op_id, 3u);
  const BatchReplyBody bodies = BatchReplyBody::decode(reply.body);
  ASSERT_EQ(bodies.bodies.size(), 2u);
  const WeightsBody collected = WeightsBody::decode(bodies.bodies.back());
  EXPECT_EQ(collected.weights, (std::vector<double>{2.0, 3.0, 4.0, 5.0}));

  // Corruption pass: flip every single byte of the valid frame (hitting the
  // batch count, each nested op tag, and each nested length in turn). Any
  // outcome is acceptable — refused, stale, or reinterpreted as some other
  // well-formed request — except a crash.
  for (std::size_t i = 0; i < wire.size(); ++i) {
    net::Message message;
    message.source = kRecorder;
    message.destination = shard.id();
    message.type =
        static_cast<std::uint32_t>(crowd::MessageType::kShardRequest);
    message.payload = wire;
    message.payload.mutable_bytes()[i] ^= 0xFF;
    EXPECT_NO_THROW(shard.on_message(message)) << "corrupt " << i;
  }
}

TEST(DistributedProtocol, ForbiddenOpsInsideABatchRefuseBeforeAnySubOpRuns) {
  // Lifecycle ops (kSetup, kFinalizeIngest) and nested kBatch are refused at
  // DECODE time, before the first sub-op executes — otherwise a mid-batch
  // abort could leave half a lifecycle transition applied, which a resend of
  // the same op id would then replay from the memo without repairing.
  Fleet fleet(1, crh_spec(), 2);
  ShardNode& shard = *fleet.shards[0];
  Recorder recorder;
  const net::NodeId kRecorder = 7780;
  fleet.network.attach(kRecorder, recorder);
  stage_single_shard_round(fleet, kRecorder);

  WeightsBody good;
  good.uniform = false;
  good.weights = {2.0, 3.0, 4.0, 5.0};
  deliver_request(shard, kRecorder, 3, ShardOp::kSetWeights, good.encode());

  // A batch that would first overwrite the weights, then smuggle a kSetup.
  WeightsBody overwrite;
  overwrite.uniform = false;
  overwrite.weights = {9.0, 9.0, 9.0, 9.0};
  SetupBody smuggled;
  smuggled.round = 2;
  smuggled.num_users = 4;
  smuggled.num_shards = 1;
  smuggled.shard_index = 0;
  smuggled.num_objects = 2;
  smuggled.block_size = kTestBlock;
  for (std::size_t s = 0; s < 4; ++s) smuggled.participants.push_back(s);
  BatchBody lifecycle;
  lifecycle.items.push_back({ShardOp::kSetWeights, overwrite.encode()});
  lifecycle.items.push_back({ShardOp::kSetup, smuggled.encode()});
  deliver_request(shard, kRecorder, 4, ShardOp::kBatch, lifecycle.encode());
  EXPECT_EQ(shard.malformed_messages(), 1u);

  // Nested batch and the empty batch: refused the same way.
  BatchBody nested;
  nested.items.push_back({ShardOp::kBatch, set_and_collect_batch({1, 1, 1, 1})});
  deliver_request(shard, kRecorder, 5, ShardOp::kBatch, nested.encode());
  BatchBody empty;
  deliver_request(shard, kRecorder, 6, ShardOp::kBatch, empty.encode());
  EXPECT_EQ(shard.malformed_messages(), 3u);
  EXPECT_EQ(shard.stale_requests(), 0u);

  // None of the refused frames executed their first item or advanced the
  // watermark: the weights are still the op-3 ones, served under op id 4.
  deliver_request(shard, kRecorder, 4, ShardOp::kCollectWeights, {});
  fleet.sim.run();
  ASSERT_FALSE(recorder.received.empty());
  const crowd::StatsEnvelope reply =
      crowd::StatsEnvelope::decode(recorder.received.back().payload);
  EXPECT_EQ(reply.op_id, 4u);
  EXPECT_EQ(WeightsBody::decode(reply.body).weights, good.weights);
}

TEST(DistributedProtocol, DelayedDuplicateBatchReplaysMemoNeverReexecutes) {
  // One op id covers the whole batch, so the exactly-once rules apply to the
  // batch as a unit: an immediate duplicate replays the memoized reply bytes
  // without re-running any sub-op, and a delayed duplicate that arrives after
  // newer ops is dropped on the watermark with no reply at all.
  Fleet fleet(1, crh_spec(), 2);
  ShardNode& shard = *fleet.shards[0];
  Recorder recorder;
  const net::NodeId kRecorder = 7781;
  fleet.network.attach(kRecorder, recorder);
  stage_single_shard_round(fleet, kRecorder);

  const std::vector<std::uint8_t> batch =
      set_and_collect_batch({2.0, 3.0, 4.0, 5.0});
  deliver_request(shard, kRecorder, 3, ShardOp::kBatch, batch);
  fleet.sim.run();
  ASSERT_EQ(recorder.received.size(), 3u);  // setup, finalize, batch
  const std::vector<std::uint8_t> first_reply =
      recorder.received.back().payload;

  // Resend of the in-flight op id: the reply bytes are replayed verbatim
  // from the memo (a re-executed kCollectWeights would find the register
  // handed over and reply all ones — the memo path is what keeps
  // non-idempotent batches safe).
  deliver_request(shard, kRecorder, 3, ShardOp::kBatch, batch);
  fleet.sim.run();
  ASSERT_EQ(recorder.received.size(), 4u);
  EXPECT_EQ(recorder.received.back().payload, first_reply);
  EXPECT_EQ(shard.stale_requests(), 0u);

  // Overwrite the weights with a newer op, then replay the batch once more:
  // now it is BELOW the watermark — dropped, counted, no reply, and the
  // newer weights survive (re-execution would clobber them back).
  WeightsBody newer;
  newer.uniform = false;
  newer.weights = {7.0, 7.0, 7.0, 7.0};
  deliver_request(shard, kRecorder, 4, ShardOp::kSetWeights, newer.encode());
  deliver_request(shard, kRecorder, 3, ShardOp::kBatch, batch);
  EXPECT_EQ(shard.stale_requests(), 1u);
  deliver_request(shard, kRecorder, 5, ShardOp::kCollectWeights, {});
  fleet.sim.run();
  // Replies for ops 4 and 5 only — nothing at all for the stale drop.
  ASSERT_EQ(recorder.received.size(), 6u);
  const crowd::StatsEnvelope reply =
      crowd::StatsEnvelope::decode(recorder.received.back().payload);
  EXPECT_EQ(reply.op_id, 5u);
  EXPECT_EQ(WeightsBody::decode(reply.body).weights, newer.weights);
}

TEST(DistributedProtocol, AWeightUpdateResentAfterAMidBatchAbortAppliesOnce) {
  // kCrhWeights turns the losses in the shard's weight register into weights
  // in place. When a later item of its batch fails to decode, the update has
  // run, and the coordinator resends the whole batch under the same op id:
  // the second run must leave the weights as the first made them, not take
  // the log of weights.
  Fleet fleet(1, crh_spec(), 2);
  ShardNode& shard = *fleet.shards[0];
  Recorder recorder;
  const net::NodeId kRecorder = 7782;
  fleet.network.attach(kRecorder, recorder);
  stage_single_shard_round(fleet, kRecorder);

  const Doubles stddevs{1.0, 1.0};
  const Doubles truths{2.0, 3.0};
  deliver_request(shard, kRecorder, 3, ShardOp::kCrhPrepare,
                  encode_fields(ArgsOf<ShardOp::kCrhPrepare>{
                      truth::CrhLoss::kSquared, 1e-12, stddevs}));
  deliver_request(shard, kRecorder, 4, ShardOp::kCrhLoss,
                  encode_fields(ArgsOf<ShardOp::kCrhLoss>{truths, 0.0}));
  fleet.sim.run();
  ASSERT_EQ(recorder.received.size(), 4u);  // setup, finalize, prepare, loss
  const double total =
      std::get<0>(decode_fields<ReplyOf<ShardOp::kCrhLoss>>(
          crowd::StatsEnvelope::decode(recorder.received.back().payload)
              .body));

  truth::AggregateStats acc;
  acc.reset(2);
  BatchBody batch;
  batch.items.push_back(
      {ShardOp::kCrhWeights,
       encode_fields(ArgsOf<ShardOp::kCrhWeights>{total})});
  batch.items.push_back(
      {ShardOp::kAggregate, encode_fields(ArgsOf<ShardOp::kAggregate>{acc})});
  BatchBody cut = batch;
  cut.items.back().body.pop_back();  // the aggregate no longer decodes
  deliver_request(shard, kRecorder, 5, ShardOp::kBatch, cut.encode());
  EXPECT_EQ(shard.malformed_messages(), 1u);
  deliver_request(shard, kRecorder, 5, ShardOp::kBatch, batch.encode());
  deliver_request(shard, kRecorder, 6, ShardOp::kCollectWeights, {});
  fleet.sim.run();
  ASSERT_EQ(recorder.received.size(), 6u);

  // The in-process backend over the same claims, updated once.
  const data::ObservationMatrix claims = data::ObservationMatrix::from_rows(
      {{{0, 1.0}, {1, 2.0}},
       {{0, 2.0}, {1, 3.0}},
       {{0, 3.0}, {1, 4.0}},
       {{0, 4.0}, {1, 5.0}}},
      2);
  const data::ShardedMatrix matrix =
      data::ShardedMatrix::single(claims, kTestBlock);
  truth::LocalBackend reference(matrix, nullptr);
  reference.crh_prepare(truth::CrhLoss::kSquared, 1e-12, stddevs);
  reference.crh_weights(reference.crh_loss(truths, 0.0));
  const crowd::StatsEnvelope reply =
      crowd::StatsEnvelope::decode(recorder.received.back().payload);
  EXPECT_EQ(WeightsBody::decode(reply.body).weights,
            reference.collect_weights());
}

TEST(DistributedProtocol, OnlyTelemetryMayFollowACollectInABatch) {
  // kCollectWeights hands the shard's weight register over. Were an item
  // after it to abort the batch, the resend would collect an empty register
  // and reply all ones, so decode refuses any op after a collect but
  // kGetTelemetry, which cannot fail, before a sub-op runs.
  Fleet fleet(1, crh_spec(), 2);
  ShardNode& shard = *fleet.shards[0];
  Recorder recorder;
  const net::NodeId kRecorder = 7783;
  fleet.network.attach(kRecorder, recorder);
  stage_single_shard_round(fleet, kRecorder);

  WeightsBody good;
  good.weights = {2.0, 3.0, 4.0, 5.0};
  deliver_request(shard, kRecorder, 3, ShardOp::kSetWeights, good.encode());
  WeightsBody overwrite;
  overwrite.weights = {9.0, 9.0, 9.0, 9.0};
  BatchBody refused;
  refused.items.push_back({ShardOp::kSetWeights, overwrite.encode()});
  refused.items.push_back({ShardOp::kCollectWeights, {}});
  refused.items.push_back({ShardOp::kSetWeights, overwrite.encode()});
  deliver_request(shard, kRecorder, 4, ShardOp::kBatch, refused.encode());
  EXPECT_EQ(shard.malformed_messages(), 1u);

  // The coordinator's collect frame, under the same op id: the collect,
  // then the telemetry. Neither refused item ran.
  BatchBody collect;
  collect.items.push_back({ShardOp::kCollectWeights, {}});
  collect.items.push_back({ShardOp::kGetTelemetry, {}});
  deliver_request(shard, kRecorder, 4, ShardOp::kBatch, collect.encode());
  fleet.sim.run();
  ASSERT_EQ(recorder.received.size(), 4u);  // setup, finalize, set, batch
  const BatchReplyBody bodies = BatchReplyBody::decode(
      crowd::StatsEnvelope::decode(recorder.received.back().payload).body);
  ASSERT_EQ(bodies.bodies.size(), 2u);
  EXPECT_EQ(WeightsBody::decode(bodies.bodies[0]).weights, good.weights);
}

/// A kReportBatch of continuous uploads from users 0..2 (two claims each),
/// encoded as the coordinator routes them to one shard in `round`.
std::vector<std::uint8_t> three_report_batch(std::uint64_t round) {
  crowd::ReportBatchBuilder batch;
  for (std::uint64_t user = 0; user < 3; ++user) {
    crowd::Report report;
    report.round = round;
    report.user_id = user;
    report.objects = {0, 1};
    report.values = {1.0 + static_cast<double>(user),
                     2.0 - static_cast<double>(user)};
    const std::vector<std::uint8_t> upload = report.encode();
    batch.add(upload, *crowd::Report::peek_header(upload));
  }
  return batch.take(round, crowd::MessageType::kReport);
}

net::Message batch_message(ShardNode& shard,
                           std::vector<std::uint8_t> payload) {
  return crowd::make_message(kCoordinatorId, shard.id(),
                             crowd::MessageType::kReportBatch,
                             std::move(payload));
}

TEST(DistributedProtocol, ReportBatchFuzzedAtEveryByteNeverKillsAShard) {
  // kReportBatch nests a count, a type and length-prefixed items inside one
  // frame: a 3-item batch truncated at EVERY byte offset, then with every
  // byte flipped, must never throw out of the shard, never ingest part of an
  // item, and leave the shard serving full rounds.
  Fleet fleet(1, crh_spec(), 2);
  ShardNode& shard = *fleet.shards[0];
  const std::vector<net::NodeId> roster = participant_ids(4);

  ASSERT_TRUE(fleet.coordinator->begin_round(1, roster));
  const std::vector<std::uint8_t> wire = three_report_batch(1);
  for (std::size_t len = 0; len < wire.size(); ++len) {
    EXPECT_NO_THROW(shard.on_message(batch_message(
        shard, {wire.begin(), wire.begin() + static_cast<std::ptrdiff_t>(len)})))
        << "truncate " << len;
  }
  // A strict prefix ingests only the items it holds whole; the intact batch
  // then adds the rest, and every earlier copy of an item is a duplicate.
  shard.on_message(batch_message(shard, wire));
  const DistributedOutcome truncated = fleet.coordinator->close_round();
  ASSERT_TRUE(truncated.aggregated);
  ASSERT_EQ(truncated.shard_stats.size(), 1u);
  EXPECT_EQ(truncated.shard_stats[0].reports_received, 3u);
  EXPECT_EQ(truncated.shard_stats[0].malformed_reports, 0u);
  // Had any item been ingested in part, its row would miss a claim and the
  // whole copy would have been dropped as its duplicate: the bits would move.
  data::ObservationMatrix rows(4, 2);
  for (std::size_t user = 0; user < 3; ++user) {
    rows.set(user, 0, 1.0 + static_cast<double>(user));
    rows.set(user, 1, 2.0 - static_cast<double>(user));
  }
  expect_bitwise_equal(
      make_method(crh_spec())->run_sharded(
          data::ShardedMatrix::partition(rows, 1, kTestBlock)),
      truncated.result, "truncation barrage");

  // Corruption pass: any outcome but a crash is acceptable — a flipped byte
  // may still decode as a well-formed batch of other values.
  ASSERT_TRUE(fleet.coordinator->begin_round(2, roster));
  const std::vector<std::uint8_t> second = three_report_batch(2);
  for (std::size_t i = 0; i < second.size(); ++i) {
    std::vector<std::uint8_t> corrupt = second;
    corrupt[i] ^= 0xFF;
    EXPECT_NO_THROW(shard.on_message(batch_message(shard, std::move(corrupt))))
        << "corrupt " << i;
  }
  EXPECT_TRUE(fleet.coordinator->close_round().completed);

  // The shard still serves a full routed round.
  const data::Dataset dataset = random_dataset(53, 24, 2, 0.2);
  ASSERT_TRUE(
      fleet.coordinator->begin_round(3, participant_ids(dataset.num_users())));
  send_dataset(fleet, dataset, 3);
  const DistributedOutcome outcome = fleet.coordinator->close_round();
  ASSERT_TRUE(outcome.aggregated);
  expect_bitwise_equal(
      make_method(crh_spec())->run_sharded(
          data::ShardedMatrix::partition(dataset.observations, 1, kTestBlock)),
      outcome.result, "after the fuzz");
}

TEST(DistributedProtocol, ReportBatchOfAnotherRoundOrKindChargesEveryItem) {
  Fleet fleet(1, crh_spec(), 2);
  ShardNode& shard = *fleet.shards[0];
  ASSERT_TRUE(fleet.coordinator->begin_round(5, participant_ids(4)));
  shard.on_message(batch_message(shard, three_report_batch(4)));  // late
  std::vector<std::uint8_t> labelled = three_report_batch(5);
  labelled[2] = static_cast<std::uint8_t>(crowd::MessageType::kLabelReport);
  shard.on_message(batch_message(shard, labelled));  // wrong kind
  shard.on_message(batch_message(shard, three_report_batch(5)));
  const DistributedOutcome outcome = fleet.coordinator->close_round();
  ASSERT_TRUE(outcome.aggregated);
  ASSERT_EQ(outcome.shard_stats.size(), 1u);
  EXPECT_EQ(outcome.shard_stats[0].rejected_reports, 6u);
  EXPECT_EQ(outcome.shard_stats[0].reports_received, 3u);
}

TEST(DistributedProtocol, DestroyedCoordinatorLeavesItsScheduledFlushHarmless) {
  // Routed reports wait for the next transport turn; a coordinator destroyed
  // before that turn must not be called back by the flush it scheduled (the
  // bench's UDS stack destroys its coordinator, then pumps the transport to
  // shut the fleet down). The sanitizer build turns a dangling callback into
  // a failure here.
  const data::Dataset dataset = random_dataset(81, 16, 3, 0.2);
  Fleet fleet(2, crh_spec(), dataset.num_objects());
  ASSERT_TRUE(
      fleet.coordinator->begin_round(1, participant_ids(dataset.num_users())));
  for (std::size_t s = 0; s < dataset.num_users(); ++s) {
    crowd::Report report;
    report.round = 1;
    report.user_id = s;
    for (const auto& entry : dataset.observations.user_entries(s)) {
      report.objects.push_back(entry.object);
      report.values.push_back(entry.value);
    }
    fleet.coordinator->on_message(crowd::make_message(
        s, kCoordinatorId, crowd::MessageType::kReport, report.encode()));
  }
  const std::size_t sent = fleet.network.stats().messages_sent;
  fleet.coordinator.reset();
  EXPECT_GT(fleet.sim.pending(), 0u);  // the flush is still queued
  fleet.sim.run();
  // The staged reports died with their coordinator; nothing went out.
  EXPECT_EQ(fleet.network.stats().messages_sent, sent);
}

TEST(DistributedProtocol, CloseRoundDrainsInFlightRoutedReports) {
  // Regression: close_round used to send kFinalizeIngest immediately, so on
  // jittered links the finalize could overtake a report the coordinator had
  // already forwarded and the shard rejected an on-time report as late.
  // Jitter is 5x base latency here, so without the pre-finalize drain many
  // of the in-flight forwards below would lose that race.
  const data::Dataset dataset = random_dataset(71, 64, 4, 0.2);
  Fleet fleet(2, crh_spec(), dataset.num_objects(), /*warm_start=*/false,
              net::LatencyModel{0.01, 0.05, 0.0});
  ASSERT_TRUE(
      fleet.coordinator->begin_round(1, participant_ids(dataset.num_users())));

  const std::size_t sent = send_reports(fleet, dataset, 1);
  // Deliver every device->coordinator leg (worst case 0.06s one-way) but
  // leave coordinator->shard forwards in flight, then close immediately.
  fleet.sim.run_until(fleet.sim.now() + 0.06);
  const DistributedOutcome outcome = fleet.coordinator->close_round();

  ASSERT_TRUE(outcome.aggregated);
  EXPECT_EQ(outcome.reports_routed, sent);
  std::size_t received = 0;
  std::size_t rejected = 0;
  for (const auto& stats : outcome.shard_stats) {
    received += stats.reports_received;
    rejected += stats.rejected_reports;
  }
  EXPECT_EQ(received, sent);
  EXPECT_EQ(rejected, 0u);

  // With every routed report ingested, jitter costs latency, not bits.
  const truth::Result reference = make_method(crh_spec())->run_sharded(
      data::ShardedMatrix::partition(dataset.observations, 2, kTestBlock));
  expect_bitwise_equal(reference, outcome.result, "drained close");
}

}  // namespace
}  // namespace dptd::dist
