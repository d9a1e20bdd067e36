// ShardedServer behaviours: consistent routing across K ingestion shards,
// per-shard dedup/byzantine accounting rolled up into RoundOutcome, the early
// round close on distinct reporters across shards, and bitwise equivalence with
// the single-shard (K = 1) server at equal canonical block size.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <string>

#include "common/serialize.h"
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

ServerConfig sharded_config(std::size_t num_objects, std::size_t num_shards,
                            std::size_t block_size = 2) {
  ServerConfig config;
  config.id = kServerId;
  config.num_objects = num_objects;
  config.collection_window_seconds = 10.0;
  config.num_shards = num_shards;
  config.stats_block_size = block_size;
  return config;
}

/// Injects a fully-formed report for `user` claiming every object with
/// deterministic values (no devices, no noise: exact aggregates).
void send_report(Harness& h, std::size_t user, std::size_t num_objects,
                 double offset = 0.0, std::uint64_t round = 1) {
  Report report;
  report.round = round;
  report.user_id = user;
  for (std::size_t n = 0; n < num_objects; ++n) {
    report.objects.push_back(n);
    report.values.push_back(static_cast<double>(user + 10 * n) + offset);
  }
  h.network.send(
      make_message(user, kServerId, MessageType::kReport, report.encode()));
}

std::vector<net::NodeId> participant_ids(std::size_t count) {
  std::vector<net::NodeId> ids;
  for (std::size_t s = 0; s < count; ++s) ids.push_back(s);
  return ids;
}

TEST(ShardedServer, RoutesAcrossShardsAndAggregatesExactly) {
  Harness h;
  // 12 users at block 2 -> 6 blocks -> 3 real shards of 2 blocks each.
  ShardedServer server(sharded_config(2, 3), truth::make_method("mean"),
                       h.network);
  server.start_round(1, participant_ids(12));
  EXPECT_EQ(server.plan().num_shards, 3u);
  for (std::size_t s = 0; s < 12; ++s) send_report(h, s, 2);
  h.sim.run();

  ASSERT_EQ(server.outcomes().size(), 1u);
  const RoundOutcome& outcome = server.outcomes()[0];
  EXPECT_EQ(outcome.reports_received, 12u);
  EXPECT_EQ(outcome.reports_expected, 12u);
  EXPECT_EQ(outcome.reports_rejected, 0u);
  EXPECT_EQ(outcome.duplicates_ignored, 0u);
  ASSERT_EQ(outcome.shard_stats.size(), 3u);
  for (const ShardIngestStats& stats : outcome.shard_stats) {
    EXPECT_EQ(stats.reports_received, 4u);  // 2 blocks x 2 users each
    EXPECT_EQ(stats.duplicates_ignored, 0u);
    EXPECT_EQ(stats.malformed_reports, 0u);
  }
  // mean of user values 0..11 per object: 5.5 and 15.5.
  ASSERT_EQ(outcome.result.truths.size(), 2u);
  EXPECT_NEAR(outcome.result.truths[0], 5.5, 1e-12);
  EXPECT_NEAR(outcome.result.truths[1], 15.5, 1e-12);
}

TEST(ShardedServer, MatchesSingleShardBitwiseOnIdenticalReports) {
  // The tentpole guarantee end-to-end: the same report stream through one
  // shard (K = 1) and through a genuinely multi-shard server (K = 4)
  // publishes bitwise-identical truths and weights at equal
  // stats_block_size.
  constexpr std::size_t kUsers = 30;
  constexpr std::size_t kObjects = 3;
  const auto run_server = [&](bool sharded) {
    Harness h;
    ServerConfig config = sharded_config(kObjects, sharded ? 4 : 1,
                                         /*block_size=*/4);
    truth::ConvergenceCriteria convergence;
    convergence.tolerance = 1e-9;
    convergence.max_iterations = 100;
    ShardedServer server(config, truth::make_method("crh", convergence),
                         h.network);
    server.start_round(1, participant_ids(kUsers));
    if (sharded) {
      EXPECT_EQ(server.plan().num_shards, 4u);
    }
    for (std::size_t s = 0; s < kUsers; ++s) {
      send_report(h, s, kObjects, 0.25 * static_cast<double>(s % 5));
    }
    h.sim.run();
    const auto& outcomes = server.outcomes();
    EXPECT_EQ(outcomes.size(), 1u);
    return outcomes[0];
  };

  const RoundOutcome flat = run_server(false);
  const RoundOutcome sharded = run_server(true);
  EXPECT_EQ(flat.reports_received, sharded.reports_received);
  ASSERT_EQ(flat.result.truths.size(), sharded.result.truths.size());
  for (std::size_t n = 0; n < flat.result.truths.size(); ++n) {
    EXPECT_EQ(flat.result.truths[n], sharded.result.truths[n]) << n;
  }
  ASSERT_EQ(flat.result.weights.size(), sharded.result.weights.size());
  for (std::size_t s = 0; s < flat.result.weights.size(); ++s) {
    EXPECT_EQ(flat.result.weights[s], sharded.result.weights[s]) << s;
  }
  EXPECT_EQ(flat.result.iterations, sharded.result.iterations);
}

TEST(ShardedServer, DuplicateResendsLandOnTheSameShardAndCountOnce) {
  Harness h;
  ShardedServer server(sharded_config(1, 3, /*block_size=*/1),
                       truth::make_method("mean"), h.network);
  server.start_round(1, participant_ids(3));
  ASSERT_EQ(server.plan().num_shards, 3u);
  const std::size_t resender = 1;
  send_report(h, resender, 1);
  send_report(h, resender, 1);  // identical re-send
  send_report(h, resender, 1, 99.0);  // replay with different values
  send_report(h, 0, 1);
  send_report(h, 2, 1);
  h.sim.run();

  ASSERT_EQ(server.outcomes().size(), 1u);
  const RoundOutcome& outcome = server.outcomes()[0];
  EXPECT_EQ(outcome.reports_received, 3u);
  EXPECT_EQ(outcome.duplicates_ignored, 2u);
  ASSERT_EQ(outcome.shard_stats.size(), 3u);
  const std::size_t home = server.plan().shard_of_user(resender);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(outcome.shard_stats[i].duplicates_ignored, i == home ? 2u : 0u);
    EXPECT_EQ(outcome.shard_stats[i].reports_received, 1u);
  }
  // First-report-wins: the 99.0 replay never entered the aggregate
  // (mean of users {0,1,2} claiming value == user id is 1.0).
  ASSERT_EQ(outcome.result.truths.size(), 1u);
  EXPECT_NEAR(outcome.result.truths[0], 1.0, 1e-12);
}

TEST(ShardedServer, UnknownUserAndUndecodableReportsAreRejectedNotFatal) {
  Harness h;
  ShardedServer server(sharded_config(1, 2, /*block_size=*/1),
                       truth::make_method("mean"), h.network);
  server.start_round(1, participant_ids(2));

  send_report(h, 0, 1);
  // Unknown user id: routable to no shard.
  Report bogus;
  bogus.round = 1;
  bogus.user_id = 9999;
  bogus.objects = {0};
  bogus.values = {1234.0};
  h.network.send(
      make_message(777, kServerId, MessageType::kReport, bogus.encode()));
  // Undecodable payload.
  h.network.send(make_message(777, kServerId, MessageType::kReport,
                              {0xff, 0xff, 0xff, 0xff, 0xff}));
  send_report(h, 1, 1);
  h.sim.run();

  ASSERT_EQ(server.outcomes().size(), 1u);
  const RoundOutcome& outcome = server.outcomes()[0];
  EXPECT_EQ(outcome.reports_received, 2u);
  EXPECT_EQ(outcome.reports_rejected, 2u);
  ASSERT_EQ(outcome.result.truths.size(), 1u);
  EXPECT_NEAR(outcome.result.truths[0], 0.5, 1e-12);  // mean of {0, 1}
}

TEST(ShardedServer, NonFiniteClaimsAreSanitizedOnTheOwningShard) {
  Harness h;
  ShardedServer server(sharded_config(2, 2, /*block_size=*/1),
                       truth::make_method("mean"), h.network);
  server.start_round(1, participant_ids(2));

  send_report(h, 0, 2);
  Report poisoned;
  poisoned.round = 1;
  poisoned.user_id = 1;
  poisoned.objects = {0, 1, 57};  // 57 out of range
  poisoned.values = {std::numeric_limits<double>::quiet_NaN(), 8.0, 1.0};
  h.network.send(
      make_message(1, kServerId, MessageType::kReport, poisoned.encode()));
  h.sim.run();

  ASSERT_EQ(server.outcomes().size(), 1u);
  const RoundOutcome& outcome = server.outcomes()[0];
  EXPECT_EQ(outcome.reports_received, 2u);
  ASSERT_EQ(outcome.shard_stats.size(), 2u);
  const std::size_t home = server.plan().shard_of_user(1);
  EXPECT_EQ(outcome.shard_stats[home].malformed_reports, 1u);
  EXPECT_EQ(outcome.shard_stats[1 - home].malformed_reports, 0u);
  // Object 1 averages user 0's 10.0 with the poisoned user's valid 8.0;
  // object 0 keeps only user 0's 0.0 (the NaN was dropped).
  ASSERT_EQ(outcome.result.truths.size(), 2u);
  EXPECT_NEAR(outcome.result.truths[0], 0.0, 1e-12);
  EXPECT_NEAR(outcome.result.truths[1], 9.0, 1e-12);
}

TEST(ShardedServer, ShardReceivingZeroReportsDoesNotBlockTheRound) {
  Harness h;
  // 6 users, 3 shards of 2; the last shard's users stay silent.
  ShardedServer server(sharded_config(1, 3, /*block_size=*/2),
                       truth::make_method("mean"), h.network);
  server.start_round(1, participant_ids(6));
  for (std::size_t s = 0; s < 4; ++s) send_report(h, s, 1);
  h.sim.run();  // deadline closes the round; shard 2 never reported

  ASSERT_EQ(server.outcomes().size(), 1u);
  const RoundOutcome& outcome = server.outcomes()[0];
  EXPECT_EQ(outcome.reports_received, 4u);
  EXPECT_EQ(outcome.reports_expected, 6u);
  ASSERT_EQ(outcome.shard_stats.size(), 3u);
  EXPECT_EQ(outcome.shard_stats[2].reports_received, 0u);
  // Coverage held (all reporters claimed object 0), so aggregation ran on
  // the union of the two non-empty shards: mean of {0,1,2,3}.
  ASSERT_EQ(outcome.result.truths.size(), 1u);
  EXPECT_NEAR(outcome.result.truths[0], 1.5, 1e-12);
}

TEST(ShardedServer, AllShardsSilentSkipsAggregationGracefully) {
  Harness h;
  ShardedServer server(sharded_config(1, 2, /*block_size=*/1),
                       truth::make_method("mean"), h.network);
  server.start_round(1, participant_ids(2));
  h.sim.run();
  ASSERT_EQ(server.outcomes().size(), 1u);
  EXPECT_EQ(server.outcomes()[0].reports_received, 0u);
  EXPECT_TRUE(server.outcomes()[0].result.truths.empty());
}

TEST(ShardedServer, ClosesOnDistinctReportersAcrossShardsNotRawCount) {
  // A duplicator on shard 0 must not close the round before the straggler on
  // shard 2 reports (the distinct-reporters close must span all shards).
  Harness h;
  ServerConfig config = sharded_config(1, 3, /*block_size=*/1);
  config.collection_window_seconds = 30.0;
  ShardedServer server(config, truth::make_method("mean"), h.network);

  DeviceConfig duplicator;
  duplicator.id = 0;
  duplicator.server_id = kServerId;
  duplicator.behavior = DeviceBehavior::kDuplicator;
  duplicator.think_time_seconds = 0.1;
  duplicator.seed = 42;
  UserDevice dup(duplicator, {0}, {4.0}, h.network);

  DeviceConfig fast;
  fast.id = 1;
  fast.server_id = kServerId;
  fast.think_time_seconds = 0.1;
  fast.seed = 43;
  UserDevice quick(fast, {0}, {5.0}, h.network);

  DeviceConfig slow;
  slow.id = 2;
  slow.server_id = kServerId;
  slow.think_time_seconds = 5.0;  // honest straggler, well within the window
  slow.seed = 44;
  UserDevice straggler(slow, {0}, {6.0}, h.network);

  server.start_round(1, {0, 1, 2});
  h.sim.run();

  ASSERT_EQ(server.outcomes().size(), 1u);
  const RoundOutcome& outcome = server.outcomes()[0];
  EXPECT_EQ(outcome.reports_expected, 3u);
  EXPECT_EQ(outcome.reports_received, 3u);  // straggler made it in
  EXPECT_EQ(outcome.duplicates_ignored, 1u);
  EXPECT_EQ(outcome.shard_stats[0].duplicates_ignored, 1u);
  ASSERT_EQ(outcome.result.truths.size(), 1u);
  // All three distinct values aggregated — the straggler's 6.0 is included.
  EXPECT_GT(outcome.result.truths[0], 4.0);
}

TEST(ShardedServer, ClosesOnTheLastDistinctReportNotTheDeadline) {
  // Every user reporting once closes the round on the last report, long
  // before its 30 s deadline: a probe at t = 1 s already sees the outcome.
  // When the last user's first upload is cut after its header, its valid
  // re-send still ingests, but only a row's first submission can complete
  // the roster: the probe sees no outcome, and the deadline closes the round
  // with every user received. Both hold at every worker count.
  for (const std::size_t ingest_threads : {0u, 2u}) {
    for (const bool cut : {false, true}) {
      SCOPED_TRACE("ingest_threads=" + std::to_string(ingest_threads) +
                   (cut ? " cut first upload" : " every upload whole"));
      Harness h;
      ServerConfig config = sharded_config(2, 2);
      config.collection_window_seconds = 30.0;
      config.ingest_threads = ingest_threads;
      ShardedServer server(config, truth::make_method("mean"), h.network);
      server.start_round(1, participant_ids(4));
      for (std::size_t s = 0; s < 3; ++s) send_report(h, s, 2);
      if (cut) {
        Encoder header;  // user 3's round and id, and not one byte more
        header.write_varint(1);
        header.write_varint(3);
        h.network.send(
            make_message(3, kServerId, MessageType::kReport, header.take()));
      }
      send_report(h, 3, 2);
      bool closed_at_probe = false;
      h.sim.schedule(1.0,
                     [&] { closed_at_probe = !server.outcomes().empty(); });
      h.sim.run();

      EXPECT_EQ(closed_at_probe, !cut);
      ASSERT_EQ(server.outcomes().size(), 1u);
      const RoundOutcome& outcome = server.outcomes()[0];
      EXPECT_EQ(outcome.reports_received, 4u);
      EXPECT_EQ(outcome.reports_rejected, cut ? 1u : 0u);
      EXPECT_EQ(outcome.result.truths.size(), 2u);
    }
  }
}

TEST(ShardedServer, WarmStartSeedsSecondRoundAcrossShards) {
  Harness h;
  ServerConfig config = sharded_config(2, 3, /*block_size=*/2);
  config.warm_start = true;
  truth::ConvergenceCriteria convergence;
  convergence.tolerance = 1e-9;
  convergence.max_iterations = 100;
  ShardedServer server(config, truth::make_method("crh", convergence),
                       h.network);

  server.start_round(1, participant_ids(6));
  for (std::size_t s = 0; s < 6; ++s) send_report(h, s, 2, 0.1);
  h.sim.run();
  server.start_round(2, participant_ids(6));
  for (std::size_t s = 0; s < 6; ++s) send_report(h, s, 2, 0.12, /*round=*/2);
  h.sim.run();

  ASSERT_EQ(server.outcomes().size(), 2u);
  EXPECT_FALSE(server.outcomes()[0].warm_started);
  EXPECT_TRUE(server.outcomes()[1].warm_started);
  EXPECT_LE(server.outcomes()[1].result.iterations,
            server.outcomes()[0].result.iterations);
}

TEST(ShardedServer, MoreShardsThanBlocksClampGracefully) {
  Harness h;
  // 3 users at block 2 -> 2 blocks: 16 requested shards clamp to 2.
  ShardedServer server(sharded_config(1, 16, /*block_size=*/2),
                       truth::make_method("mean"), h.network);
  server.start_round(1, participant_ids(3));
  EXPECT_EQ(server.plan().num_shards, 2u);
  for (std::size_t s = 0; s < 3; ++s) send_report(h, s, 1);
  h.sim.run();
  ASSERT_EQ(server.outcomes().size(), 1u);
  EXPECT_EQ(server.outcomes()[0].reports_received, 3u);
  EXPECT_EQ(server.outcomes()[0].shard_stats.size(), 2u);
}

TEST(ShardedServer, RepeatedRosterIdIsRefusedAtRoundOpen) {
  // Regression: a roster with a repeated id used to be accepted, and the
  // round then waited for its deadline for a row nobody could fill.
  for (std::size_t ingest_threads : {0, 2}) {
    SCOPED_TRACE("ingest_threads=" + std::to_string(ingest_threads));
    Harness h;
    ServerConfig config = sharded_config(2, 2);
    config.collection_window_seconds = 30.0;
    config.ingest_threads = ingest_threads;
    ShardedServer server(config, truth::make_method("mean"), h.network);

    EXPECT_THROW(server.start_round(1, {5, 7, 6, 5}), std::invalid_argument);
    EXPECT_EQ(h.network.stats().messages_sent, 0u);  // no TaskAnnounce

    server.start_round(1, {5, 7, 6, 8});
    for (std::size_t user = 5; user <= 8; ++user) send_report(h, user, 2);
    h.sim.run_until(5.0);
    ASSERT_EQ(server.outcomes().size(), 1u);
    EXPECT_EQ(server.outcomes()[0].reports_received, 4u);
    EXPECT_EQ(server.outcomes()[0].reports_rejected, 0u);
  }
}

TEST(ShardedServer, ValidatesConfiguration) {
  Harness h;
  ServerConfig bad_shards = sharded_config(1, 0);
  EXPECT_THROW(
      ShardedServer(bad_shards, truth::make_method("mean"), h.network),
      std::invalid_argument);
  ServerConfig bad_block = sharded_config(1, 2, /*block_size=*/0);
  EXPECT_THROW(
      ShardedServer(bad_block, truth::make_method("mean"), h.network),
      std::invalid_argument);
  ServerConfig ok = sharded_config(1, 2);
  EXPECT_THROW(ShardedServer(ok, nullptr, h.network), std::invalid_argument);
}

}  // namespace
}  // namespace dptd::crowd
