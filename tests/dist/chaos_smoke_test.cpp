// Tier-1 chaos smoke: one fixed seed per fault family over the in-process
// simulator. Fast and fully deterministic (virtual time, seeded schedule) —
// the broad randomized sweep lives in the slow-tier chaos soak; this row
// keeps the four invariants continuously guarded in the fast suite. The
// families route one report per batch; the last two tests send multi-report
// batches through exact faults.
#include <gtest/gtest.h>

#include <functional>

#include "dist/chaos_harness.h"

namespace dptd::dist {
namespace {

constexpr std::size_t kBatchShards = 3;

/// A K=3 CRH fleet behind `schedule` on the simulator, with round 1 open.
struct BatchFleet {
  data::Dataset dataset = chaos::chaos_dataset(5);
  data::ShardedMatrix plan = data::ShardedMatrix::partition(
      dataset.observations, kBatchShards, chaos::kChaosBlock);
  net::Simulator sim;
  net::Network inner{sim, net::LatencyModel{0.01, 0.0, 0.0}, 7};
  net::FaultInjectionTransport net;
  std::unique_ptr<Coordinator> coordinator;
  std::vector<std::unique_ptr<ShardNode>> shards;

  explicit BatchFleet(net::FaultSchedule schedule)
      : net(inner, std::move(schedule)) {
    CoordinatorConfig config;
    config.id = chaos::kChaosCoordinatorId;
    config.num_objects = dataset.num_objects();
    config.block_size = chaos::kChaosBlock;
    coordinator = std::make_unique<Coordinator>(config, MethodSpec{}, net);
    for (std::size_t i = 0; i < kBatchShards; ++i) {
      shards.push_back(
          std::make_unique<ShardNode>(chaos::kChaosShardBase + i, net));
      coordinator->add_shard(chaos::kChaosShardBase + i);
    }
    EXPECT_TRUE(coordinator->begin_round(
        1, chaos::chaos_participants(dataset.num_users())));
  }

  /// Routes the reports of the users `pick` selects, all in one transport
  /// turn, then runs that turn: one batch per shard. Returns the count.
  std::size_t route(const std::function<bool(std::size_t)>& pick) {
    std::size_t sent = 0;
    for (std::size_t s = 0; s < dataset.num_users(); ++s) {
      const auto entries = dataset.observations.user_entries(s);
      if (entries.empty() || !pick(s)) continue;
      crowd::Report report;
      report.round = 1;
      report.user_id = s;
      for (const auto& entry : entries) {
        report.objects.push_back(entry.object);
        report.values.push_back(entry.value);
      }
      coordinator->on_message(crowd::make_message(
          s, chaos::kChaosCoordinatorId, crowd::MessageType::kReport,
          report.encode()));
      ++sent;
    }
    sim.run_until(sim.now());
    return sent;
  }

  std::size_t routed_to(std::size_t shard) const {
    const std::size_t base = plan.user_base(shard);
    return chaos::reports_in_range(dataset, base,
                                   base + plan.shard(shard).num_users());
  }
};

net::FaultSchedule batch_schedule(std::uint64_t seed) {
  net::FaultSchedule schedule;
  schedule.seed = seed;
  schedule.report_types = {
      static_cast<std::uint32_t>(crowd::MessageType::kReportBatch)};
  return schedule;
}

TEST(ChaosSmoke, TransientScheduleIsBitwiseInvisible) {
  chaos::run_simulator_chaos(chaos::Family::kTransient, 11);
  chaos::run_simulator_chaos(chaos::Family::kTransient, 12);
}

TEST(ChaosSmoke, LossyReportsConserveEveryReport) {
  chaos::run_simulator_chaos(chaos::Family::kLossyReports, 21);
}

TEST(ChaosSmoke, TransientCrashWindowRecoversTheExactAnswer) {
  chaos::run_simulator_chaos(chaos::Family::kTransientCrash, 31);
}

TEST(ChaosSmoke, PermanentCrashClosesDegradedWithExactLoss) {
  chaos::run_simulator_chaos(chaos::Family::kPermanentCrash, 41);
}

TEST(ChaosSmoke, DroppedBatchChargesEveryReportInItUndeliverable) {
  // begin_round's setup wave ends exactly one op timeout in (the simulator
  // jumps to each RPC deadline), so the routing turn runs at that instant. A
  // one-way partition over that instant alone severs the one batch routed to
  // the victim; finalize leaves a drain window later and gets through.
  const std::size_t victim = 1;
  const double route_time = net::RpcPolicy{}.op_timeout_seconds;
  net::FaultSchedule schedule = batch_schedule(51);
  net::PartitionWindow window;
  window.from = chaos::kChaosCoordinatorId;
  window.to = chaos::kChaosShardBase + victim;
  window.begin_seconds = route_time;
  window.end_seconds = route_time + 0.005;
  window.bidirectional = false;
  schedule.partitions.push_back(window);
  BatchFleet fleet(std::move(schedule));
  ASSERT_EQ(fleet.sim.now(), route_time);

  const std::size_t sent = fleet.route([](std::size_t) { return true; });
  const DistributedOutcome outcome = fleet.coordinator->close_round();

  ASSERT_GT(fleet.routed_to(victim), 1u);  // a real multi-report batch
  EXPECT_EQ(fleet.net.fault_stats().partition_losses, 1u);
  ASSERT_TRUE(outcome.completed);
  EXPECT_FALSE(outcome.degraded);
  EXPECT_EQ(outcome.reports_routed, sent);
  EXPECT_EQ(outcome.reports_undeliverable, fleet.routed_to(victim));
  EXPECT_EQ(outcome.reports_lost, 0u);
  std::size_t aggregated = 0;
  for (const crowd::ShardIngestStats& stats : outcome.shard_stats) {
    aggregated += stats.reports_received;
  }
  EXPECT_EQ(aggregated + outcome.reports_undeliverable + outcome.reports_lost,
            sent);
  ASSERT_EQ(outcome.shard_stats.size(), kBatchShards);
  EXPECT_EQ(outcome.shard_stats[victim].reports_received, 0u);
}

TEST(ChaosSmoke, DuplicatedAndReorderedBatchesKeepTheBits) {
  // Every batch arrives twice, and about half are deferred so a later batch
  // can overtake them. Two routing turns give each shard two batches.
  net::FaultSchedule schedule = batch_schedule(52);
  schedule.reports.duplicate_probability = 1.0;
  schedule.reports.reorder_probability = 0.5;
  schedule.reports.reorder_max_seconds = 0.02;
  BatchFleet fleet(std::move(schedule));

  std::size_t sent = fleet.route([](std::size_t s) { return s % 2 == 0; });
  sent += fleet.route([](std::size_t s) { return s % 2 == 1; });
  const DistributedOutcome outcome = fleet.coordinator->close_round();

  EXPECT_EQ(fleet.net.fault_stats().duplicates, 2 * kBatchShards);
  EXPECT_GT(fleet.net.fault_stats().reorders, 0u);
  ASSERT_TRUE(outcome.aggregated);
  EXPECT_EQ(outcome.reports_routed, sent);
  EXPECT_EQ(outcome.reports_undeliverable, 0u);
  ASSERT_EQ(outcome.shard_stats.size(), kBatchShards);
  for (std::size_t i = 0; i < kBatchShards; ++i) {
    EXPECT_EQ(outcome.shard_stats[i].reports_received, fleet.routed_to(i))
        << "shard " << i;
    EXPECT_EQ(outcome.shard_stats[i].duplicates_ignored, fleet.routed_to(i))
        << "shard " << i;
  }
  chaos::expect_bitwise(make_method(MethodSpec{})->run_sharded(fleet.plan),
                        outcome.result, "duplicated + reordered batches");
}

}  // namespace
}  // namespace dptd::dist
