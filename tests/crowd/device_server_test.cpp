// Unit tests for UserDevice and the flat server path — a ShardedServer at
// K = 1 without ingest workers — in isolation (run_session covers them
// end-to-end; these pin down the protocol behaviours individually). The
// CrowdServer suite keeps the name of the single-shard server class it was
// written for, so its test ids stay stable.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <vector>

#include "crowd/device.h"
#include "crowd/server.h"
#include "crowd/sharded_server.h"
#include "truth/registry.h"
#include "net/network.h"

namespace dptd::crowd {
namespace {

constexpr net::NodeId kServerId = 1000;

struct Harness {
  net::Simulator sim;
  net::Network network{sim, net::LatencyModel{0.01, 0.0, 0.0}, 5};
};

DeviceConfig device_config(net::NodeId id) {
  DeviceConfig config;
  config.id = id;
  config.server_id = kServerId;
  config.think_time_seconds = 0.1;
  config.seed = 42 + id;
  return config;
}

TaskAnnounce announce(double lambda2 = 1.0, std::uint64_t objects = 3) {
  TaskAnnounce task;
  task.round = 1;
  task.lambda2 = lambda2;
  task.num_objects = objects;
  return task;
}

/// Captures whatever reaches the server id.
class CapturingServer final : public net::Node {
 public:
  explicit CapturingServer(net::Network& network) { network.attach(kServerId, *this); }
  void on_message(const net::Message& message) override {
    if (static_cast<MessageType>(message.type) == MessageType::kReport) {
      reports.push_back(Report::decode(message.payload));
    }
  }
  std::vector<Report> reports;
};

TEST(UserDevice, HonestDevicePerturbsAndUploads) {
  Harness h;
  CapturingServer server(h.network);
  UserDevice device(device_config(0), {0, 1, 2}, {10.0, 20.0, 30.0},
                    h.network);

  h.network.send(make_message(kServerId, 0, MessageType::kTaskAnnounce,
                              announce(1.0).encode()));
  h.sim.run();

  ASSERT_EQ(server.reports.size(), 1u);
  const Report& report = server.reports[0];
  EXPECT_EQ(report.user_id, 0u);
  EXPECT_EQ(report.objects, (std::vector<std::uint64_t>{0, 1, 2}));
  ASSERT_EQ(report.values.size(), 3u);
  ASSERT_TRUE(device.sampled_variance().has_value());
  // Perturbed values differ from the raw readings (noise was added)…
  bool any_different = false;
  const double raw[] = {10.0, 20.0, 30.0};
  for (std::size_t i = 0; i < 3; ++i) {
    if (std::abs(report.values[i] - raw[i]) > 1e-12) any_different = true;
  }
  EXPECT_TRUE(any_different);
}

TEST(UserDevice, DropoutNeverReports) {
  Harness h;
  CapturingServer server(h.network);
  DeviceConfig config = device_config(0);
  config.behavior = DeviceBehavior::kDropout;
  UserDevice device(config, {0}, {1.0}, h.network);
  h.network.send(make_message(kServerId, 0, MessageType::kTaskAnnounce,
                              announce().encode()));
  h.sim.run();
  EXPECT_TRUE(server.reports.empty());
  EXPECT_FALSE(device.sampled_variance().has_value());
}

TEST(UserDevice, ConstantLiarSendsConstant) {
  Harness h;
  CapturingServer server(h.network);
  DeviceConfig config = device_config(0);
  config.behavior = DeviceBehavior::kConstantLiar;
  config.constant_value = 7.5;
  UserDevice device(config, {0, 1}, {1.0, 2.0}, h.network);
  h.network.send(make_message(kServerId, 0, MessageType::kTaskAnnounce,
                              announce().encode()));
  h.sim.run();
  ASSERT_EQ(server.reports.size(), 1u);
  for (double v : server.reports[0].values) EXPECT_DOUBLE_EQ(v, 7.5);
}

TEST(UserDevice, SpammerStaysInRange) {
  Harness h;
  CapturingServer server(h.network);
  DeviceConfig config = device_config(0);
  config.behavior = DeviceBehavior::kSpammer;
  config.spam_lo = 5.0;
  config.spam_hi = 6.0;
  UserDevice device(config, {0, 1, 2, 3}, {0.0, 0.0, 0.0, 0.0}, h.network);
  h.network.send(make_message(kServerId, 0, MessageType::kTaskAnnounce,
                              announce().encode()));
  h.sim.run();
  ASSERT_EQ(server.reports.size(), 1u);
  for (double v : server.reports[0].values) {
    EXPECT_GE(v, 5.0);
    EXPECT_LT(v, 6.0);
  }
}

TEST(UserDevice, StoresPublishedTruths) {
  Harness h;
  UserDevice device(device_config(3), {0}, {1.0}, h.network);
  ResultPublish publish;
  publish.round = 1;
  publish.truths = {4.5, 6.5};
  h.network.send(make_message(kServerId, 3, MessageType::kResultPublish,
                              publish.encode()));
  h.sim.run();
  EXPECT_EQ(device.published_truths(), (std::vector<double>{4.5, 6.5}));
}

TEST(UserDevice, RejectsMismatchedReadings) {
  Harness h;
  EXPECT_THROW(
      UserDevice(device_config(0), {0, 1}, {1.0}, h.network),
      std::invalid_argument);
}

TEST(CrowdServer, AggregatesAndPublishes) {
  Harness h;
  ServerConfig config;
  config.id = kServerId;
  config.lambda2 = 5.0;
  config.num_objects = 2;
  config.collection_window_seconds = 10.0;
  ShardedServer server(config, truth::make_method("mean"), h.network);

  std::vector<std::unique_ptr<UserDevice>> devices;
  std::vector<net::NodeId> ids;
  for (net::NodeId id = 0; id < 3; ++id) {
    devices.push_back(std::make_unique<UserDevice>(
        device_config(id), std::vector<std::uint64_t>{0, 1},
        std::vector<double>{static_cast<double>(id),
                            static_cast<double>(id) + 10.0},
        h.network));
    ids.push_back(id);
  }
  server.start_round(1, ids);
  h.sim.run();

  ASSERT_EQ(server.outcomes().size(), 1u);
  const RoundOutcome& outcome = server.outcomes()[0];
  EXPECT_EQ(outcome.reports_received, 3u);
  ASSERT_EQ(outcome.result.truths.size(), 2u);
  // Mean of {0,1,2} + noise; lambda2 = 5 keeps noise small.
  EXPECT_NEAR(outcome.result.truths[0], 1.0, 1.5);
  EXPECT_NEAR(outcome.result.truths[1], 11.0, 1.5);
  // All devices received the published truths.
  for (const auto& device : devices) {
    EXPECT_EQ(device->published_truths().size(), 2u);
  }
}

TEST(CrowdServer, DuplicatorDoesNotCloseRoundEarly) {
  // Regression: the round used to close when the RAW report count reached the
  // participant count, so a device re-sending its report shut honest
  // stragglers out. Distinct user ids must drive the close instead.
  Harness h;
  ServerConfig config;
  config.id = kServerId;
  config.num_objects = 1;
  config.collection_window_seconds = 30.0;
  ShardedServer server(config, truth::make_method("mean"), h.network);

  DeviceConfig duplicator = device_config(0);
  duplicator.behavior = DeviceBehavior::kDuplicator;
  duplicator.think_time_seconds = 0.1;
  UserDevice dup(duplicator, {0}, {4.0}, h.network);

  UserDevice fast(device_config(1), {0}, {5.0}, h.network);

  DeviceConfig slow = device_config(2);
  slow.think_time_seconds = 5.0;  // honest straggler, well within the window
  UserDevice straggler(slow, {0}, {6.0}, h.network);

  server.start_round(1, {0, 1, 2});
  h.sim.run();

  ASSERT_EQ(server.outcomes().size(), 1u);
  const RoundOutcome& outcome = server.outcomes()[0];
  EXPECT_EQ(outcome.reports_expected, 3u);
  EXPECT_EQ(outcome.reports_received, 3u);  // straggler made it in
  EXPECT_EQ(outcome.duplicates_ignored, 1u);
  EXPECT_EQ(outcome.reports_rejected, 0u);
  ASSERT_EQ(outcome.result.truths.size(), 1u);
  // All three distinct values aggregated — the straggler's 6.0 is included.
  EXPECT_GT(outcome.result.truths[0], 4.0);
}

TEST(CrowdServer, OutOfRangeUserIdIsDroppedNotFatal) {
  // Regression: an out-of-range user id in a report used to abort the whole
  // server via DPTD_CHECK. It must be dropped, counted, and the round must
  // finish normally on the remaining honest reports.
  Harness h;
  ServerConfig config;
  config.id = kServerId;
  config.num_objects = 1;
  config.collection_window_seconds = 10.0;
  ShardedServer server(config, truth::make_method("mean"), h.network);

  UserDevice honest(device_config(0), {0}, {5.0}, h.network);
  server.start_round(1, {0});

  Report bogus;
  bogus.round = 1;
  bogus.user_id = 9999;  // not a participant
  bogus.objects = {0};
  bogus.values = {1234.0};
  h.network.send(make_message(777, kServerId, MessageType::kReport,
                              bogus.encode()));
  h.sim.run();

  ASSERT_EQ(server.outcomes().size(), 1u);
  const RoundOutcome& outcome = server.outcomes()[0];
  EXPECT_EQ(outcome.reports_received, 1u);
  EXPECT_EQ(outcome.reports_rejected, 1u);
  ASSERT_EQ(outcome.result.truths.size(), 1u);
  // The byzantine 1234.0 never entered the aggregate.
  EXPECT_NEAR(outcome.result.truths[0], 5.0, 2.0);
}

TEST(CrowdServer, UndecodableReportIsDroppedNotFatal) {
  Harness h;
  ServerConfig config;
  config.id = kServerId;
  config.num_objects = 1;
  config.collection_window_seconds = 10.0;
  ShardedServer server(config, truth::make_method("mean"), h.network);

  UserDevice honest(device_config(0), {0}, {5.0}, h.network);
  server.start_round(1, {0});
  h.network.send(make_message(777, kServerId, MessageType::kReport,
                              {0xff, 0xff, 0xff, 0xff, 0xff}));
  h.sim.run();

  ASSERT_EQ(server.outcomes().size(), 1u);
  EXPECT_EQ(server.outcomes()[0].reports_received, 1u);
  EXPECT_EQ(server.outcomes()[0].reports_rejected, 1u);
}

TEST(CrowdServer, NonFiniteAndOutOfRangeClaimsAreFiltered) {
  // A report from a legitimate user with poisoned claims: the valid subset
  // is ingested, the rest is dropped (previously a NaN value aborted the
  // deadline aggregation).
  Harness h;
  ServerConfig config;
  config.id = kServerId;
  config.num_objects = 2;
  config.collection_window_seconds = 10.0;
  config.lambda2 = 1e9;  // negligible device noise: exact aggregates
  ShardedServer server(config, truth::make_method("mean"), h.network);

  UserDevice honest(device_config(1), {0, 1}, {2.0, 3.0}, h.network);
  server.start_round(1, {0, 1});

  Report poisoned;
  poisoned.round = 1;
  poisoned.user_id = 0;
  poisoned.objects = {0, 1, 57};
  poisoned.values = {std::numeric_limits<double>::quiet_NaN(), 8.0, 1.0};
  h.network.send(make_message(0, kServerId, MessageType::kReport,
                              poisoned.encode()));
  h.sim.run();

  ASSERT_EQ(server.outcomes().size(), 1u);
  const RoundOutcome& outcome = server.outcomes()[0];
  EXPECT_EQ(outcome.reports_received, 2u);
  // The outcome schema is uniform across K: one whole-fleet entry at K = 1
  // carrying the malformed counter.
  ASSERT_EQ(outcome.shard_stats.size(), 1u);
  EXPECT_EQ(outcome.shard_stats[0].reports_received, 2u);
  EXPECT_EQ(outcome.shard_stats[0].malformed_reports, 1u);
  ASSERT_EQ(outcome.result.truths.size(), 2u);
  // Object 1 averages the honest 3.0 with the poisoned user's valid 8.0.
  EXPECT_NEAR(outcome.result.truths[1], 5.5, 1e-3);
}

TEST(CrowdServer, WarmStartSeedsSecondRound) {
  Harness h;
  ServerConfig config;
  config.id = kServerId;
  config.num_objects = 2;
  config.collection_window_seconds = 5.0;
  config.lambda2 = 50.0;  // tiny noise: rounds resemble each other
  config.warm_start = true;
  truth::ConvergenceCriteria convergence;
  convergence.tolerance = 1e-9;
  convergence.max_iterations = 100;
  ShardedServer server(config, truth::make_method("crh", convergence),
                       h.network);

  std::vector<std::unique_ptr<UserDevice>> devices;
  std::vector<net::NodeId> ids;
  for (net::NodeId id = 0; id < 6; ++id) {
    devices.push_back(std::make_unique<UserDevice>(
        device_config(id), std::vector<std::uint64_t>{0, 1},
        std::vector<double>{3.0 + 0.1 * static_cast<double>(id), 7.0},
        h.network));
    ids.push_back(id);
  }
  server.start_round(1, ids);
  h.sim.run();
  server.start_round(2, ids);
  h.sim.run();

  ASSERT_EQ(server.outcomes().size(), 2u);
  EXPECT_FALSE(server.outcomes()[0].warm_started);
  EXPECT_TRUE(server.outcomes()[1].warm_started);
  EXPECT_LE(server.outcomes()[1].result.iterations,
            server.outcomes()[0].result.iterations);
}

TEST(UserDevice, RetaskSwapsReadingsAndClearsRoundState) {
  Harness h;
  CapturingServer server(h.network);
  UserDevice device(device_config(0), {0}, {1.0}, h.network);

  h.network.send(make_message(kServerId, 0, MessageType::kTaskAnnounce,
                              announce(1.0, 1).encode()));
  h.sim.run();
  ASSERT_EQ(server.reports.size(), 1u);
  ASSERT_TRUE(device.sampled_variance().has_value());

  device.retask({0, 1}, {10.0, 20.0}, 777);
  EXPECT_FALSE(device.sampled_variance().has_value());
  EXPECT_TRUE(device.published_truths().empty());

  h.network.send(make_message(kServerId, 0, MessageType::kTaskAnnounce,
                              announce(1.0, 2).encode()));
  h.sim.run();
  ASSERT_EQ(server.reports.size(), 2u);
  EXPECT_EQ(server.reports[1].objects,
            (std::vector<std::uint64_t>{0, 1}));

  EXPECT_THROW(device.retask({0, 1}, {1.0}, 3), std::invalid_argument);
}

TEST(UserDevice, RetaskWithSameSeedReproducesReport) {
  // The per-round noise stream is deterministic in (seed, device id):
  // re-tasking with the same seed and readings reproduces the exact report.
  Harness h;
  CapturingServer server(h.network);
  DeviceConfig config = device_config(0);
  config.seed = 99;
  UserDevice device(config, {0, 1}, {1.0, 2.0}, h.network);

  h.network.send(make_message(kServerId, 0, MessageType::kTaskAnnounce,
                              announce().encode()));
  h.sim.run();
  device.retask({0, 1}, {1.0, 2.0}, 99);
  h.network.send(make_message(kServerId, 0, MessageType::kTaskAnnounce,
                              announce().encode()));
  h.sim.run();

  ASSERT_EQ(server.reports.size(), 2u);
  EXPECT_EQ(server.reports[0].values, server.reports[1].values);
}

TEST(CrowdServer, LateReportsAreIgnored) {
  Harness h;
  ServerConfig config;
  config.id = kServerId;
  config.num_objects = 1;
  config.collection_window_seconds = 0.05;  // closes before think time
  ShardedServer server(config, truth::make_method("mean"), h.network);

  DeviceConfig slow = device_config(0);
  slow.think_time_seconds = 1.0;
  UserDevice device(slow, {0}, {5.0}, h.network);
  server.start_round(1, {0});
  h.sim.run();

  ASSERT_EQ(server.outcomes().size(), 1u);
  EXPECT_EQ(server.outcomes()[0].reports_received, 0u);
}

TEST(CrowdServer, SecondRoundAfterFirstCompletes) {
  Harness h;
  ServerConfig config;
  config.id = kServerId;
  config.num_objects = 1;
  config.collection_window_seconds = 5.0;
  ShardedServer server(config, truth::make_method("mean"), h.network);

  UserDevice device(device_config(0), {0}, {5.0}, h.network);
  server.start_round(1, {0});
  h.sim.run();
  server.start_round(2, {0});
  h.sim.run();
  EXPECT_EQ(server.outcomes().size(), 2u);
  EXPECT_EQ(server.outcomes()[1].round, 2u);
}

TEST(CrowdServer, OpenRoundRejectsSecondStart) {
  Harness h;
  ServerConfig config;
  config.id = kServerId;
  config.num_objects = 1;
  ShardedServer server(config, truth::make_method("mean"), h.network);
  UserDevice device(device_config(0), {0}, {1.0}, h.network);
  server.start_round(1, {0});
  EXPECT_THROW(server.start_round(2, {0}), std::invalid_argument);
}

TEST(CrowdServer, RepeatedRosterIdIsRefusedAtRoundOpen) {
  // Regression: a roster with a repeated id used to be accepted. Its second
  // row could never be filled, so the round stayed open until its deadline,
  // closed with 2 of 3 reports, and published to user 5 twice.
  Harness h;
  ServerConfig config;
  config.id = kServerId;
  config.num_objects = 1;
  config.collection_window_seconds = 30.0;
  ShardedServer server(config, truth::make_method("mean"), h.network);
  UserDevice five(device_config(5), {0}, {4.0}, h.network);
  UserDevice seven(device_config(7), {0}, {6.0}, h.network);

  EXPECT_THROW(server.start_round(1, {5, 7, 5}), std::invalid_argument);
  EXPECT_EQ(h.network.stats().messages_sent, 0u);  // no TaskAnnounce

  // The refusal changed nothing: a valid round opens right after and closes
  // on its last report, long before the deadline.
  server.start_round(1, {5, 7});
  h.sim.run_until(5.0);
  ASSERT_EQ(server.outcomes().size(), 1u);
  EXPECT_EQ(server.outcomes()[0].reports_expected, 2u);
  EXPECT_EQ(server.outcomes()[0].reports_received, 2u);
  EXPECT_EQ(five.published_truths().size(), 1u);
}

TEST(ParticipantIndex, ContiguousRosterResolvesBySubtraction) {
  // A ShardNode's roster slice [base, base + P): its own ids and no others.
  ParticipantIndex index;
  index.build({1000, 1001, 1002, 1003});
  EXPECT_EQ(index.row_of(1000), 0u);
  EXPECT_EQ(index.row_of(1003), 3u);
  EXPECT_EQ(index.row_of(999), std::nullopt);
  EXPECT_EQ(index.row_of(1004), std::nullopt);
  EXPECT_EQ(index.row_of(0), std::nullopt);

  // The full fleet [0, P) is the base-0 roster.
  index.build({0, 1, 2});
  EXPECT_EQ(index.row_of(0), 0u);
  EXPECT_EQ(index.row_of(2), 2u);
  EXPECT_EQ(index.row_of(3), std::nullopt);

  // Ids that wrap past the largest NodeId resolve too (a range never wraps,
  // so this roster keeps its id list).
  constexpr net::NodeId kTop = std::numeric_limits<net::NodeId>::max();
  index.build({kTop, 0});
  EXPECT_EQ(index.row_of(kTop), 0u);
  EXPECT_EQ(index.row_of(0), 1u);
  EXPECT_EQ(index.row_of(1), std::nullopt);
  EXPECT_EQ(index.row_of(kTop - 1), std::nullopt);
}

TEST(ParticipantIndex, OtherRostersResolveThroughTheTable) {
  ParticipantIndex index;
  index.build({7, 3, 12});  // a churned fleet
  EXPECT_EQ(index.row_of(7), 0u);
  EXPECT_EQ(index.row_of(3), 1u);
  EXPECT_EQ(index.row_of(12), 2u);
  EXPECT_EQ(index.row_of(4), std::nullopt);
  EXPECT_EQ(index.row_of(8), std::nullopt);
  EXPECT_EQ(index.row_of(0), std::nullopt);

  index.build({5, 4, 3});  // a run in descending order is no slice
  EXPECT_EQ(index.row_of(5), 0u);
  EXPECT_EQ(index.row_of(3), 2u);
  EXPECT_EQ(index.row_of(6), std::nullopt);
}

TEST(ParticipantIndex, RepeatedIdIsRefusedAndLeavesTheIndexUnchanged) {
  ParticipantIndex index;
  index.build({1000, 1001, 1002});
  EXPECT_THROW(index.build({1001, 1002, 1001}), std::invalid_argument);
  EXPECT_EQ(index.row_of(1000), 0u);
  EXPECT_EQ(index.row_of(1002), 2u);
  EXPECT_EQ(index.row_of(1003), std::nullopt);

  index.build({9, 4});
  EXPECT_THROW(index.build({4, 4}), std::invalid_argument);
  EXPECT_EQ(index.row_of(9), 0u);
  EXPECT_EQ(index.row_of(4), 1u);
  EXPECT_EQ(index.row_of(5), std::nullopt);
}

TEST(ParticipantIndex, IdsAndSlicesOverBothForms) {
  ParticipantIndex index;
  // A contiguous roster is a range: its slices are ranges too.
  index.build({1000, 1001, 1002, 1003, 1004});
  EXPECT_EQ(index.size(), 5u);
  EXPECT_EQ(index.id_of(0), 1000u);
  EXPECT_EQ(index.id_of(4), 1004u);
  ParticipantIndex::Slice slice = index.slice(1, 4);
  EXPECT_TRUE(slice.ids.empty());
  EXPECT_EQ(slice.first, 1001u);
  EXPECT_EQ(slice.count, 3u);
  EXPECT_EQ(index.ids(),
            (std::vector<net::NodeId>{1000, 1001, 1002, 1003, 1004}));

  // build_range is the same roster without the list.
  index.build_range(1000, 5);
  EXPECT_EQ(index.size(), 5u);
  EXPECT_EQ(index.row_of(1004), 4u);
  EXPECT_EQ(index.row_of(1005), std::nullopt);
  EXPECT_EQ(index.id_of(2), 1002u);
  EXPECT_EQ(index.slice(0, 5).first, 1000u);
  EXPECT_EQ(index.slice(0, 5).count, 5u);

  // Any other roster keeps its list, and a slice views it.
  index.build({7, 3, 12, 5});
  EXPECT_EQ(index.size(), 4u);
  EXPECT_EQ(index.id_of(0), 7u);
  EXPECT_EQ(index.id_of(3), 5u);
  slice = index.slice(1, 3);
  EXPECT_EQ(slice.count, 2u);
  EXPECT_EQ(std::vector<net::NodeId>(slice.ids.begin(), slice.ids.end()),
            (std::vector<net::NodeId>{3, 12}));
  EXPECT_EQ(index.ids(), (std::vector<net::NodeId>{7, 3, 12, 5}));
  EXPECT_THROW(index.slice(2, 5), std::invalid_argument);

  // A run that wraps past the largest id is no range.
  constexpr net::NodeId kTop = std::numeric_limits<net::NodeId>::max();
  index.build({kTop - 1, kTop, 0});
  slice = index.slice(0, 3);
  EXPECT_EQ(std::vector<net::NodeId>(slice.ids.begin(), slice.ids.end()),
            (std::vector<net::NodeId>{kTop - 1, kTop, 0}));
  EXPECT_EQ(index.row_of(0), 2u);

  // A range past the largest id is refused and changes nothing.
  EXPECT_THROW(index.build_range(kTop - 1, 2), std::invalid_argument);
  EXPECT_EQ(index.size(), 3u);
  EXPECT_EQ(index.row_of(kTop), 1u);
  index.build_range(kTop - 1, 1);
  EXPECT_EQ(index.row_of(kTop - 1), 0u);
  EXPECT_EQ(index.row_of(kTop), std::nullopt);
}

TEST(CrowdServer, ValidatesConfiguration) {
  Harness h;
  ServerConfig config;
  config.id = kServerId;
  config.num_objects = 0;
  EXPECT_THROW(ShardedServer(config, truth::make_method("mean"), h.network),
               std::invalid_argument);
  ServerConfig config2;
  config2.id = kServerId;
  config2.num_objects = 1;
  EXPECT_THROW(ShardedServer(config2, nullptr, h.network),
               std::invalid_argument);
}

}  // namespace
}  // namespace dptd::crowd
