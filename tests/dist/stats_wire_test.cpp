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

 private:
  void mix(std::uint8_t b) {
    digest ^= b;
    digest *= 0x100000001b3ULL;
  }

  net::Transport* inner_;
};

/// One round of `spec` on two shards over 16 users x 3 objects, block 4;
/// returns the digest of the coordinator's shard requests.
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
      {"crh", MethodSpec::Kind::kCrh, 0x0a2153accd540523ULL},
      {"gtm", MethodSpec::Kind::kGtm, 0x76bba2dfaa331c40ULL},
      {"catd", MethodSpec::Kind::kCatd, 0x04767f8784be5e4dULL},
      {"vote", MethodSpec::Kind::kVote, 0x17879988473c4c02ULL},
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
