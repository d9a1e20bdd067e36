// FaultInjectionTransport unit suite: each fault class in isolation over the
// in-process simulator, the accounting contract (injected loss surfaces as
// undeliverable, never dropped), and seed determinism — the property the
// chaos suites lean on when they re-run a red schedule from its printed seed.
#include "net/fault_transport.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <optional>
#include <vector>

#include "net/network.h"

namespace dptd::net {
namespace {

class RecordingNode final : public Node {
 public:
  void on_message(const Message& message) override {
    received.push_back(message);
    received_at.push_back(when ? *when : -1.0);
  }
  std::vector<Message> received;
  std::vector<double> received_at;
  const double* when = nullptr;  ///< optional clock to stamp deliveries with
};

Message make(NodeId from, NodeId to, std::uint32_t type = 1,
             std::vector<std::uint8_t> payload = {1, 2, 3}) {
  Message m;
  m.source = from;
  m.destination = to;
  m.type = type;
  m.payload = std::move(payload);
  return m;
}

/// A lossless, zero-jitter inner network so every observed fault is injected.
struct Rig {
  Simulator sim;
  Network net{sim, LatencyModel{0.01, 0.0, 0.0}, 7};
};

TEST(FaultTransport, ZeroScheduleIsPurePassThrough) {
  Rig rig;
  FaultInjectionTransport faulty(rig.net, FaultSchedule{});
  RecordingNode node;
  faulty.attach(5, node);
  for (int i = 0; i < 20; ++i) faulty.send(make(1, 5, 42));
  rig.sim.run();

  ASSERT_EQ(node.received.size(), 20u);
  EXPECT_EQ(node.received[0].payload, (std::vector<std::uint8_t>{1, 2, 3}));
  EXPECT_EQ(faulty.stats().messages_sent, 20u);
  EXPECT_EQ(faulty.stats().messages_delivered, 20u);
  EXPECT_EQ(faulty.stats().messages_undeliverable, 0u);
  EXPECT_EQ(faulty.stats().messages_dropped, 0u);
  EXPECT_EQ(faulty.stats().bytes_sent, 60u);
  EXPECT_EQ(faulty.stats().bytes_delivered, 60u);
  EXPECT_EQ(faulty.fault_stats().total_losses(), 0u);
  EXPECT_EQ(faulty.fault_stats().delays + faulty.fault_stats().duplicates +
                faulty.fault_stats().corruptions +
                faulty.fault_stats().truncations,
            0u);
}

TEST(FaultTransport, DropCountsUndeliverableNotDropped) {
  Rig rig;
  FaultSchedule schedule;
  schedule.rpc.drop_probability = 1.0;
  FaultInjectionTransport faulty(rig.net, schedule);
  RecordingNode node;
  faulty.attach(5, node);
  for (int i = 0; i < 8; ++i) faulty.send(make(1, 5));
  rig.sim.run();

  EXPECT_TRUE(node.received.empty());
  EXPECT_EQ(faulty.fault_stats().drops, 8u);
  // The accounting contract: injected loss is visible synchronously at
  // send() time through the undeliverable rails — the same rails a routing
  // failure uses — so report-conservation callers never miss it. The drop
  // counter stays the inner transport's (real link loss), which is zero.
  EXPECT_EQ(faulty.stats().messages_undeliverable, 8u);
  EXPECT_EQ(faulty.undeliverable_to(5), 8u);
  EXPECT_EQ(faulty.stats().messages_dropped, 0u);
  EXPECT_EQ(faulty.stats().messages_delivered, 0u);
  EXPECT_EQ(faulty.stats().messages_sent, 8u);
}

TEST(FaultTransport, ReportClassIsSelectedByMessageType) {
  Rig rig;
  FaultSchedule schedule;
  schedule.reports.drop_probability = 1.0;
  schedule.report_types = {2, 7};
  FaultInjectionTransport faulty(rig.net, schedule);
  RecordingNode node;
  faulty.attach(5, node);
  faulty.send(make(1, 5, 2));  // report class: dropped
  faulty.send(make(1, 5, 7));  // report class: dropped
  faulty.send(make(1, 5, 4));  // rpc class: clean
  rig.sim.run();

  ASSERT_EQ(node.received.size(), 1u);
  EXPECT_EQ(node.received[0].type, 4u);
  EXPECT_EQ(faulty.fault_stats().drops, 2u);
}

TEST(FaultTransport, ExactLinkOverrideBeatsTheClass) {
  Rig rig;
  FaultSchedule schedule;
  schedule.rpc.drop_probability = 1.0;  // everything dies...
  schedule.links[{2, 5}] = LinkFaults{};  // ...except the 2 -> 5 link
  FaultInjectionTransport faulty(rig.net, schedule);
  RecordingNode node;
  faulty.attach(5, node);
  faulty.send(make(1, 5));
  faulty.send(make(2, 5));
  rig.sim.run();

  ASSERT_EQ(node.received.size(), 1u);
  EXPECT_EQ(node.received[0].source, 2u);
  EXPECT_EQ(faulty.fault_stats().drops, 1u);
}

TEST(FaultTransport, DelayDefersDeliveryWithinTheConfiguredWindow) {
  Rig rig;
  FaultSchedule schedule;
  schedule.rpc.delay_probability = 1.0;
  schedule.rpc.delay_min_seconds = 0.5;
  schedule.rpc.delay_max_seconds = 0.5;
  FaultInjectionTransport faulty(rig.net, schedule);
  RecordingNode node;
  faulty.attach(5, node);
  faulty.send(make(1, 5));
  rig.sim.run();

  ASSERT_EQ(node.received.size(), 1u);
  EXPECT_EQ(faulty.fault_stats().delays, 1u);
  // 0.5s injected defer + 0.01s inner latency.
  EXPECT_DOUBLE_EQ(rig.sim.now(), 0.51);
  // And the drain window accounts for the worst injected defer, so protocol
  // drains still flush delayed traffic.
  EXPECT_DOUBLE_EQ(faulty.drain_window_seconds(),
                   rig.net.drain_window_seconds() + 0.5);
}

TEST(FaultTransport, ReorderLetsLaterSendsOvertake) {
  Rig rig;
  FaultSchedule schedule;
  // Only the first link reorders (by a fat margin); the second is clean, so
  // the overtake is deterministic rather than a racing coin flip.
  LinkFaults reorder;
  reorder.reorder_probability = 1.0;
  reorder.reorder_max_seconds = 1.0;
  schedule.links[{1, 5}] = reorder;
  FaultInjectionTransport faulty(rig.net, schedule);
  RecordingNode node;
  faulty.attach(5, node);
  faulty.send(make(1, 5, 100));  // deferred uniform (0, 1)
  faulty.send(make(2, 5, 200));  // clean: lands at 0.01
  rig.sim.run();

  ASSERT_EQ(node.received.size(), 2u);
  EXPECT_EQ(faulty.fault_stats().reorders, 1u);
  EXPECT_EQ(node.received[0].type, 200u);
  EXPECT_EQ(node.received[1].type, 100u);
}

TEST(FaultTransport, DuplicateDeliversTheMessageTwice) {
  Rig rig;
  FaultSchedule schedule;
  schedule.rpc.duplicate_probability = 1.0;
  FaultInjectionTransport faulty(rig.net, schedule);
  RecordingNode node;
  faulty.attach(5, node);
  faulty.send(make(1, 5, 42));
  rig.sim.run();

  ASSERT_EQ(node.received.size(), 2u);
  EXPECT_EQ(node.received[0].type, 42u);
  EXPECT_EQ(node.received[1].type, 42u);
  EXPECT_EQ(faulty.fault_stats().duplicates, 1u);
  // The duplicate counts as a second send on the decorator's rails, keeping
  // sent == delivered + losses balanced for conservation checks.
  EXPECT_EQ(faulty.stats().messages_sent, 2u);
  EXPECT_EQ(faulty.stats().messages_delivered, 2u);

  // A shared payload's duplicate shares it too: both deliveries read the
  // sender's buffer, and the byte rails count it at full size twice.
  const Payload shared = Payload::shared({4, 5, 6, 7});
  faulty.send(Message{1, 5, 43, shared});
  rig.sim.run();
  ASSERT_EQ(node.received.size(), 4u);
  EXPECT_EQ(faulty.fault_stats().duplicates, 2u);
  for (std::size_t i = 2; i < 4; ++i) {
    EXPECT_EQ(node.received[i].type, 43u);
    EXPECT_EQ(node.received[i].payload.data(), shared.data()) << i;
  }
  EXPECT_EQ(shared, (std::vector<std::uint8_t>{4, 5, 6, 7}));
  EXPECT_EQ(faulty.stats().bytes_sent, 2u * 3u + 2u * 4u);
  EXPECT_EQ(faulty.stats().bytes_delivered, 2u * 3u + 2u * 4u);
}

/// Bits that differ between `original` and `payload` (equal sizes).
int flipped_bits(const std::vector<std::uint8_t>& original,
                 const Payload& payload) {
  int flipped = 0;
  for (std::size_t i = 0; i < original.size(); ++i) {
    flipped += std::popcount(static_cast<unsigned>(original[i] ^ payload[i]));
  }
  return flipped;
}

/// A payload shared by two messages, 1 -> 6 and 1 -> 7, over a schedule that
/// faults only the 1 -> 6 link: the rig for checking that a fault changes the
/// faulted recipient's copy and never the shared buffer.
struct SharedFanOut {
  explicit SharedFanOut(const LinkFaults& faulted_link,
                        const std::vector<std::uint8_t>& bytes)
      : sent(Payload::shared(bytes)) {
    FaultSchedule schedule;
    schedule.links[{1, 6}] = faulted_link;
    faulty.emplace(rig.net, schedule);
    faulty->attach(6, faulted);
    faulty->attach(7, clean);
    faulty->send(Message{1, 6, 1, sent});
    faulty->send(Message{1, 7, 1, sent});
    rig.sim.run();
  }

  RecordingNode faulted;  // attached nodes outlive the transports
  RecordingNode clean;
  Payload sent;
  Rig rig;
  std::optional<FaultInjectionTransport> faulty;
};

TEST(FaultTransport, CorruptionFlipsExactlyOneBit) {
  Rig rig;
  FaultSchedule schedule;
  schedule.rpc.corrupt_probability = 1.0;
  FaultInjectionTransport faulty(rig.net, schedule);
  RecordingNode node;
  faulty.attach(5, node);
  const std::vector<std::uint8_t> original = {0x00, 0xff, 0x5a, 0xa5};
  faulty.send(make(1, 5, 1, original));
  rig.sim.run();

  ASSERT_EQ(node.received.size(), 1u);
  EXPECT_EQ(faulty.fault_stats().corruptions, 1u);
  const auto& mutated = node.received[0].payload;
  ASSERT_EQ(mutated.size(), original.size());
  int flipped = 0;
  for (std::size_t i = 0; i < original.size(); ++i) {
    flipped += std::popcount(
        static_cast<unsigned>(original[i] ^ mutated[i]));
  }
  EXPECT_EQ(flipped, 1);

  // A shared payload: the flip lands in the faulted recipient's copy only.
  LinkFaults corrupt;
  corrupt.corrupt_probability = 1.0;
  SharedFanOut fan(corrupt, original);
  ASSERT_EQ(fan.faulted.received.size(), 1u);
  ASSERT_EQ(fan.clean.received.size(), 1u);
  EXPECT_EQ(fan.faulty->fault_stats().corruptions, 1u);
  ASSERT_EQ(fan.faulted.received[0].payload.size(), original.size());
  EXPECT_EQ(flipped_bits(original, fan.faulted.received[0].payload), 1);
  EXPECT_EQ(fan.clean.received[0].payload, original);
  EXPECT_EQ(fan.sent, original);
}

TEST(FaultTransport, TruncationShortensThePayload) {
  Rig rig;
  FaultSchedule schedule;
  schedule.rpc.truncate_probability = 1.0;
  FaultInjectionTransport faulty(rig.net, schedule);
  RecordingNode node;
  faulty.attach(5, node);
  faulty.send(make(1, 5, 1, {1, 2, 3, 4, 5, 6, 7, 8}));
  rig.sim.run();

  ASSERT_EQ(node.received.size(), 1u);
  EXPECT_EQ(faulty.fault_stats().truncations, 1u);
  EXPECT_LT(node.received[0].payload.size(), 8u);

  // A shared payload: only the faulted recipient's copy is shorter.
  LinkFaults truncate;
  truncate.truncate_probability = 1.0;
  const std::vector<std::uint8_t> original = {1, 2, 3, 4, 5, 6, 7, 8};
  SharedFanOut fan(truncate, original);
  ASSERT_EQ(fan.faulted.received.size(), 1u);
  ASSERT_EQ(fan.clean.received.size(), 1u);
  EXPECT_EQ(fan.faulty->fault_stats().truncations, 1u);
  EXPECT_LT(fan.faulted.received[0].payload.size(), original.size());
  EXPECT_EQ(fan.clean.received[0].payload, original);
  EXPECT_EQ(fan.sent, original);
}

TEST(FaultTransport, PartitionWindowSeversBothDirectionsThenHeals) {
  Rig rig;
  FaultSchedule schedule;
  PartitionWindow window;
  window.from = 1;
  window.to = 2;
  window.begin_seconds = 0.0;
  window.end_seconds = 1.0;
  schedule.partitions.push_back(window);
  FaultInjectionTransport faulty(rig.net, schedule);
  RecordingNode one;
  RecordingNode two;
  faulty.attach(1, one);
  faulty.attach(2, two);

  faulty.send(make(1, 2));  // inside the window, forward direction
  faulty.send(make(2, 1));  // inside the window, reverse direction
  faulty.schedule(1.5, [&] {
    faulty.send(make(1, 2, 9));  // after the window heals
  });
  rig.sim.run();

  EXPECT_EQ(faulty.fault_stats().partition_losses, 2u);
  EXPECT_EQ(faulty.stats().messages_undeliverable, 2u);
  EXPECT_EQ(faulty.undeliverable_to(1), 1u);
  EXPECT_EQ(faulty.undeliverable_to(2), 1u);
  EXPECT_TRUE(one.received.empty());
  ASSERT_EQ(two.received.size(), 1u);
  EXPECT_EQ(two.received[0].type, 9u);
}

TEST(FaultTransport, OneWayPartitionLeavesTheReversePathAlive) {
  Rig rig;
  FaultSchedule schedule;
  PartitionWindow window;
  window.from = 1;
  window.to = 2;
  window.bidirectional = false;
  schedule.partitions.push_back(window);  // permanent: end = infinity
  FaultInjectionTransport faulty(rig.net, schedule);
  RecordingNode one;
  RecordingNode two;
  faulty.attach(1, one);
  faulty.attach(2, two);
  faulty.send(make(1, 2));
  faulty.send(make(2, 1));
  rig.sim.run();

  EXPECT_TRUE(two.received.empty());
  ASSERT_EQ(one.received.size(), 1u);
  EXPECT_EQ(faulty.fault_stats().partition_losses, 1u);
}

TEST(FaultTransport, CrashWindowTakesTheNodeDarkBothWays) {
  Rig rig;
  FaultSchedule schedule;
  CrashWindow crash;
  crash.node = 2;
  crash.begin_seconds = 0.0;
  crash.end_seconds = 1.0;
  schedule.crashes.push_back(crash);
  FaultInjectionTransport faulty(rig.net, schedule);
  RecordingNode one;
  RecordingNode two;
  faulty.attach(1, one);
  faulty.attach(2, two);

  faulty.send(make(1, 2));  // toward the crashed node
  faulty.send(make(2, 1));  // from the crashed node
  faulty.send(make(3, 1));  // uninvolved traffic flows
  faulty.schedule(1.5, [&] {
    faulty.send(make(1, 2, 9));  // the node is back
  });
  rig.sim.run();

  EXPECT_EQ(faulty.fault_stats().crash_losses, 2u);
  ASSERT_EQ(one.received.size(), 1u);
  EXPECT_EQ(one.received[0].source, 3u);
  ASSERT_EQ(two.received.size(), 1u);
  EXPECT_EQ(two.received[0].type, 9u);
}

TEST(FaultTransport, SameSeedReproducesTheExactFaultInterleaving) {
  auto run = [](std::uint64_t seed) {
    Rig rig;
    FaultSchedule schedule;
    schedule.seed = seed;
    schedule.rpc.drop_probability = 0.3;
    schedule.rpc.delay_probability = 0.2;
    schedule.rpc.delay_max_seconds = 0.1;
    schedule.rpc.duplicate_probability = 0.1;
    FaultInjectionTransport faulty(rig.net, schedule);
    RecordingNode node;
    faulty.attach(5, node);
    for (std::uint32_t i = 0; i < 200; ++i) faulty.send(make(1, 5, i));
    rig.sim.run();
    std::vector<std::uint32_t> order;
    for (const Message& m : node.received) order.push_back(m.type);
    return order;
  };

  const auto a = run(99);
  const auto b = run(99);
  EXPECT_EQ(a, b);  // bit-identical replay from the seed alone
  const auto c = run(100);
  EXPECT_NE(a, c);  // and the seed genuinely steers the schedule
}

TEST(FaultTransport, ValidationRejectsBrokenSchedules) {
  Rig rig;
  FaultSchedule negative;
  negative.rpc.drop_probability = -0.1;
  EXPECT_THROW(FaultInjectionTransport(rig.net, negative),
               std::invalid_argument);

  FaultSchedule window;
  window.rpc.delay_probability = 0.5;
  window.rpc.delay_min_seconds = 1.0;
  window.rpc.delay_max_seconds = 0.5;
  EXPECT_THROW(FaultInjectionTransport(rig.net, window),
               std::invalid_argument);

  FaultSchedule backwards;
  backwards.crashes.push_back(CrashWindow{7, 2.0, 1.0});
  EXPECT_THROW(FaultInjectionTransport(rig.net, backwards),
               std::invalid_argument);
}

TEST(FaultTransport, ComposesUndeliverableWithTheInnerTransport) {
  Rig rig;
  FaultSchedule schedule;
  schedule.links[{1, 5}].drop_probability = 1.0;
  FaultInjectionTransport faulty(rig.net, schedule);
  RecordingNode node;
  faulty.attach(5, node);
  faulty.send(make(1, 5));   // injected loss
  faulty.send(make(1, 99));  // real routing failure in the inner transport
  rig.sim.run();

  // Both loss layers surface through one pair of rails.
  EXPECT_EQ(faulty.stats().messages_undeliverable, 2u);
  EXPECT_EQ(faulty.undeliverable_to(5), 1u);
  EXPECT_EQ(faulty.undeliverable_to(99), 1u);
}

}  // namespace
}  // namespace dptd::net
