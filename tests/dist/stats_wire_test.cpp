// Golden bytes of the coordinator <-> shard statistics protocol, driven
// through the wire only: every request body is a literal (pinned_ops.h) and
// every reply body must come back byte for byte. The digests fold every
// (op, body) a Coordinator sends over one whole round of each iterative
// method, so a change to any op's fields, their order or their encoding,
// or to which frame a queued write rides, moves a pin here.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "dist/coordinator.h"
#include "dist/pinned_ops.h"
#include "dist/shard_node.h"
#include "net/network.h"

namespace dptd::dist {
namespace {

constexpr net::NodeId kCoordinatorId = 9'000'000;
constexpr net::NodeId kRecorderId = 7000;

struct Recorder final : public net::Node {
  std::vector<net::Message> received;
  void on_message(const net::Message& message) override {
    received.push_back(message);
  }
};

/// The coordinator's transport: forwards everything, and folds the op and
/// body of every shard request sent through it into an FNV-1a digest.
class SendTap final : public net::Transport {
 public:
  explicit SendTap(net::Transport& inner) : inner_(&inner) {}

  void attach(net::NodeId id, net::Node& node) override {
    inner_->attach(id, node);
  }
  void detach(net::NodeId id) override { inner_->detach(id); }
  bool attached(net::NodeId id) const override {
    return inner_->attached(id);
  }
  void send(net::Message message) override {
    if (message.type ==
        static_cast<std::uint32_t>(crowd::MessageType::kShardRequest)) {
      const crowd::StatsEnvelope env =
          crowd::StatsEnvelope::decode(message.payload);
      mix(env.op);
      for (int i = 0; i < 8; ++i) {
        mix(static_cast<std::uint8_t>(env.body.size() >> (8 * i)));
      }
      for (const std::uint8_t b : env.body) mix(b);
      if (env.op == static_cast<std::uint8_t>(ShardOp::kSetup)) {
        setups.push_back(pinned::to_hex(env.body));
      }
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

  std::uint64_t digest = 0xcbf29ce484222325ULL;
  std::vector<std::string> setups;  ///< kSetup bodies sent, hex

 private:
  void mix(std::uint8_t b) {
    digest ^= b;
    digest *= 0x100000001b3ULL;
  }

  net::Transport* inner_;
};

/// One round of `spec` on two shards over 16 users x 3 objects, block 4;
/// returns the digest of the coordinator's shard requests. The roster, ids
/// 0..15, is contiguous, so each kSetup carries its slice as a range.
std::uint64_t round_digest(const MethodSpec& spec) {
  net::Simulator sim;
  net::Network network(sim, net::LatencyModel{0.01, 0.0, 0.0}, 7);
  SendTap tap(network);
  CoordinatorConfig config;
  config.id = kCoordinatorId;
  config.num_objects = 3;
  config.block_size = 4;
  Coordinator coordinator(config, spec, tap);
  ShardNode first(1000, network);
  ShardNode second(1001, network);
  coordinator.add_shard(1000);
  coordinator.add_shard(1001);
  std::vector<net::NodeId> users;
  for (net::NodeId u = 0; u < 16; ++u) users.push_back(u);
  EXPECT_TRUE(coordinator.begin_round(1, users));
  for (std::uint64_t u = 0; u < 16; ++u) {
    crowd::Report report;
    crowd::LabelReport labels;
    report.round = labels.round = 1;
    report.user_id = labels.user_id = u;
    for (std::uint64_t n = 0; n < 3; ++n) {
      if ((u + 2 * n) % 5 == 0) continue;
      report.objects.push_back(n);
      report.values.push_back(static_cast<double>(n) +
                              0.25 * static_cast<double>((u * 7 + n * 3) % 9) -
                              1.0);
      labels.objects.push_back(n);
      labels.labels.push_back(
          static_cast<std::uint32_t>(u % 4 == 0 ? (n + 1) % 3 : n % 3));
    }
    network.send(spec.categorical()
                     ? crowd::make_message(u, kCoordinatorId,
                                           crowd::MessageType::kLabelReport,
                                           labels.encode())
                     : crowd::make_message(u, kCoordinatorId,
                                           crowd::MessageType::kReport,
                                           report.encode()));
  }
  sim.run();
  const DistributedOutcome outcome = coordinator.close_round();
  EXPECT_TRUE(outcome.aggregated);
  EXPECT_FALSE(outcome.degraded);
  return tap.digest;
}

TEST(StatsWire, SetupSliceIsARangeOrTodaysIdList) {
  // The plan fields of the pinned round: round 300, 8 users, 1 shard, shard
  // 0, 3 objects, block 4, no labels.
  const std::string plan = "ac02080100030400";
  SetupBody setup;
  setup.round = pinned::kRound;
  setup.num_users = 8;
  setup.num_shards = 1;
  setup.num_objects = 3;
  setup.block_size = 4;

  // A range is [0][base][count]: ids 1000..1007 in four bytes.
  setup.range_base = 1000;
  setup.range_count = 8;
  EXPECT_EQ(pinned::to_hex(setup.encode()), plan + "00" + "e807" + "08");
  SetupBody decoded = SetupBody::decode(setup.encode());
  EXPECT_TRUE(decoded.participants.empty());
  EXPECT_EQ(decoded.range_base, 1000u);
  EXPECT_EQ(decoded.range_count, 8u);
  EXPECT_EQ(decoded.slice_size(), 8u);

  // An id list keeps its bytes: [count][ids...], one varint each, whatever
  // the ids (the range fields do not travel with it).
  setup.participants = {1000, 1002, 1001, 5, 1003, 1004, 1005, 1006};
  EXPECT_EQ(pinned::to_hex(setup.encode()),
            plan + "08" + "e807ea07e90705eb07ec07ed07ee07");
  decoded = SetupBody::decode(setup.encode());
  EXPECT_EQ(decoded.participants, setup.participants);
  EXPECT_EQ(decoded.slice_size(), 8u);

  // A range cut short, or with bytes past its count, is malformed.
  EXPECT_THROW(SetupBody::decode(pinned::from_hex(plan + "00e807")),
               DecodeError);
  EXPECT_THROW(SetupBody::decode(pinned::from_hex(plan + "00e8070800")),
               DecodeError);
}

TEST(StatsWire, CoordinatorSendsRangesOnlyForAContiguousRoster) {
  // Two shards over 16 users at block 4: slices of rows [0, 8) and [8, 16).
  const auto setups_for = [](const std::vector<net::NodeId>& roster) {
    net::Simulator sim;
    net::Network network(sim, net::LatencyModel{0.01, 0.0, 0.0}, 7);
    SendTap tap(network);
    CoordinatorConfig config;
    config.id = kCoordinatorId;
    config.num_objects = 3;
    config.block_size = 4;
    Coordinator coordinator(config, MethodSpec{}, tap);
    ShardNode first(1000, network);
    ShardNode second(1001, network);
    coordinator.add_shard(1000);
    coordinator.add_shard(1001);
    EXPECT_TRUE(coordinator.begin_round(1, roster));
    return tap.setups;
  };
  // Plan fields: round 1, 16 users, 2 shards, then the shard index, 3
  // objects, block 4, no labels.
  const auto plan = [](const char* shard) {
    return std::string("011002") + shard + "030400";
  };

  std::vector<net::NodeId> roster;
  for (net::NodeId id = 5000; id < 5016; ++id) roster.push_back(id);
  EXPECT_EQ(setups_for(roster),
            (std::vector<std::string>{plan("00") + "00" + "8827" + "08",
                                      plan("01") + "00" + "9027" + "08"}));

  // Churned: one id replaced. Every slice is an id list, the second too,
  // although its own ids happen to run contiguously.
  roster[5] = 77;
  EXPECT_EQ(setups_for(roster),
            (std::vector<std::string>{
                plan("00") + "08" + "882789278a278b278c274d" + "8e278f27",
                plan("01") + "08" + "902791279227932794279527" + "96279727"}));
}

TEST(StatsWire, EveryOpKeepsItsBytes) {
  net::Simulator sim;
  net::Network network(sim, net::LatencyModel{0.01, 0.0, 0.0}, 7);
  ShardNode shard(1000, network);
  Recorder recorder;
  network.attach(kRecorderId, recorder);

  std::uint64_t op_id = 0;
  for (const pinned::PinnedOp& pin : pinned::kOps) {
    const std::string label =
        "op " + std::to_string(static_cast<int>(pin.op)) + " (id " +
        std::to_string(op_id + 1) + ")";
    if (pin.op == ShardOp::kFinalizeIngest) {
      shard.on_message(crowd::make_message(kCoordinatorId, shard.id(),
                                           crowd::MessageType::kReportBatch,
                                           pinned::report_batch()));
    }
    crowd::StatsEnvelope request;
    request.op_id = ++op_id;
    request.op = static_cast<std::uint8_t>(pin.op);
    request.body = pinned::from_hex(pin.request);
    shard.on_message(crowd::make_message(kRecorderId, shard.id(),
                                         crowd::MessageType::kShardRequest,
                                         request.encode()));
    sim.run();
    ASSERT_EQ(recorder.received.size(), op_id) << label << ": no reply";
    const crowd::StatsEnvelope reply =
        crowd::StatsEnvelope::decode(recorder.received.back().payload);
    EXPECT_EQ(reply.op_id, op_id) << label;
    EXPECT_EQ(reply.op, request.op) << label;
    EXPECT_EQ(pinned::to_hex(reply.body), pin.reply) << label;
  }
  EXPECT_EQ(shard.malformed_messages(), 0u);

  struct RoundPin {
    const char* name;
    MethodSpec::Kind kind;
    std::uint64_t digest;
  };
  const RoundPin rounds[] = {
      {"crh", MethodSpec::Kind::kCrh, 0xcb063fd542e1570bULL},
      {"gtm", MethodSpec::Kind::kGtm, 0xd1f5464c682fb618ULL},
      {"catd", MethodSpec::Kind::kCatd, 0xa08456b19c855ab5ULL},
      {"vote", MethodSpec::Kind::kVote, 0xc75cb62a20766256ULL},
  };
  for (const RoundPin& pin : rounds) {
    MethodSpec spec;
    spec.kind = pin.kind;
    spec.crh.convergence.max_iterations = 10;
    spec.gtm.convergence.max_iterations = 10;
    spec.catd.convergence.max_iterations = 10;
    spec.vote.num_labels = 3;
    spec.vote.max_iterations = 10;
    EXPECT_EQ(round_digest(spec), pin.digest) << pin.name << std::hex;
  }
}

}  // namespace
}  // namespace dptd::dist
