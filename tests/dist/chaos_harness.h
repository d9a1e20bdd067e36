// Shared chaos-testing harness: seeded fault-schedule families over the
// distributed protocol, on the in-process simulator and on real forked-UDS
// fleets, asserting the four robustness invariants of the fault-injection PR:
//
//   (a) exactly-once — no sub-op double-executes under duplication or
//       resends (the bitwise checks are the teeth: a re-executed fold or
//       finalize corrupts shard registers and changes bits immediately) and
//       every shard's op-id watermark is monotonic through the whole run;
//   (b) report conservation — every routed report is either aggregated by a
//       surviving shard, counted undeliverable at routing time, or charged
//       to an excluded shard as reports_lost: the buckets sum to the exact
//       number of reports sent, no silent loss;
//   (c) transient faults (delay / reorder / duplicate / recoverable drop /
//       truncation) never change the answer: the round closes bitwise
//       identical to the fault-free reference;
//   (d) permanent faults close DEGRADED over the survivors with exact loss
//       accounting (reports_lost == the victim shard's ingested reports).
//
// Every assertion carries the schedule seed (and the UDS socket dir for
// multi-process runs); any red run reproduces with DPTD_CHAOS_SEED=<seed>.
// All schedule parameters derive from the seed alone, so the seed plus the
// family IS the schedule.
#pragma once

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "crowd/protocol.h"
#include "data/builder.h"
#include "data/sharding.h"
#include "data/synthetic.h"
#include "dist/coordinator.h"
#include "dist/shard_node.h"
#include "net/fault_transport.h"
#include "net/network.h"
#include "net/socket_transport.h"
#include "truth/interface.h"

namespace dptd::dist::chaos {

constexpr std::size_t kChaosBlock = 8;
constexpr net::NodeId kChaosCoordinatorId = 9'000'000;
constexpr net::NodeId kChaosShardBase = 1000;

enum class Family {
  kTransient,       ///< delay/reorder/dup/recoverable-drop/truncate; bitwise
  kLossyReports,    ///< report frames dropped for good; conservation holds
  kTransientCrash,  ///< finite crash window the resend budget outlasts
  kPermanentCrash,  ///< a shard goes dark forever mid-round; degraded close
};

inline const char* family_name(Family family) {
  switch (family) {
    case Family::kTransient: return "transient";
    case Family::kLossyReports: return "lossy-reports";
    case Family::kTransientCrash: return "transient-crash";
    case Family::kPermanentCrash: return "permanent-crash";
  }
  return "?";
}

/// Honors DPTD_CHAOS_SEED: when set, the soak runs exactly that schedule
/// (any uint64 works — the schedule is derived from the seed) instead of the
/// suite's default seed list. This is the one-env-var repro path printed in
/// every chaos assertion.
inline std::vector<std::uint64_t> chaos_seeds(
    std::vector<std::uint64_t> defaults) {
  if (const char* env = std::getenv("DPTD_CHAOS_SEED")) {
    return {std::strtoull(env, nullptr, 10)};
  }
  return defaults;
}

/// The assertion context: everything needed to reproduce this exact run.
inline std::string chaos_context(Family family, std::uint64_t seed,
                                 const std::string& transport,
                                 const std::string& extra = "") {
  std::string ctx = "[chaos family=" + std::string(family_name(family)) +
                    " seed=" + std::to_string(seed) +
                    " transport=" + transport;
  if (!extra.empty()) ctx += " " + extra;
  ctx += "] re-run just this schedule with DPTD_CHAOS_SEED=" +
         std::to_string(seed);
  return ctx;
}

/// Schedule family -> concrete FaultSchedule, derived from the seed alone.
/// `victim` is only consulted by the crash families.
inline net::FaultSchedule make_schedule(Family family, std::uint64_t seed,
                                        net::NodeId victim) {
  net::FaultSchedule schedule;
  schedule.seed = seed;
  schedule.report_types = {
      static_cast<std::uint32_t>(crowd::MessageType::kReport),
      static_cast<std::uint32_t>(crowd::MessageType::kLabelReport),
      static_cast<std::uint32_t>(crowd::MessageType::kReportBatch)};
  switch (family) {
    case Family::kTransient:
      // Every recoverable class at once. RPC drops and truncations ride the
      // timeout/resend machinery; report frames get only answer-preserving
      // faults (defer, overtake, duplicate — ingest dedups) because reports
      // have no resend path.
      schedule.rpc.drop_probability = 0.10 + 0.05 * (seed % 3);
      schedule.rpc.truncate_probability = 0.08;
      schedule.rpc.duplicate_probability = 0.10;
      schedule.rpc.delay_probability = 0.30;
      schedule.rpc.delay_max_seconds = 0.15;
      schedule.rpc.reorder_probability = 0.15;
      schedule.rpc.reorder_max_seconds = 0.05;
      schedule.reports.delay_probability = 0.30;
      schedule.reports.delay_max_seconds = 0.10;
      schedule.reports.reorder_probability = 0.20;
      schedule.reports.reorder_max_seconds = 0.10;
      schedule.reports.duplicate_probability = 0.20;
      break;
    case Family::kLossyReports:
      // Unrecoverable report loss (plus mild RPC stress): conservation, not
      // bitwise equality, is the invariant under test.
      schedule.reports.drop_probability = 0.20 + 0.15 * (seed % 3);
      schedule.reports.duplicate_probability = 0.10;
      schedule.rpc.delay_probability = 0.20;
      schedule.rpc.delay_max_seconds = 0.10;
      break;
    case Family::kTransientCrash: {
      // A 1.0s blackout against a 8-resend x 0.25s budget: the coordinator
      // must straggle through and land the exact answer. The width matters:
      // the simulator advances one op-timeout per RPC wave and the chained
      // collectives visit shards round-robin, so a K-shard fleet talks to
      // any one shard every K x 0.25 <= 1.0 virtual seconds — a 1.0s window
      // is guaranteed to sever at least one op toward the victim.
      net::CrashWindow window;
      window.node = victim;
      window.begin_seconds = 0.3 + 0.05 * (seed % 4);
      window.end_seconds = window.begin_seconds + 1.0;
      schedule.crashes.push_back(window);
      break;
    }
    case Family::kPermanentCrash: {
      // The node never comes back. The simulator advances one op-timeout
      // (0.25s) per RPC wave, so reports are routed at ~0.25s and delivered
      // by ~0.27s; an onset of 0.35s lands after ingest but before the
      // iterate waves — the victim dies holding real ingested rows, the
      // exact-loss degraded-close scenario.
      net::CrashWindow window;
      window.node = victim;
      window.begin_seconds = 0.35;
      schedule.crashes.push_back(window);
      break;
    }
  }
  return schedule;
}

inline data::Dataset chaos_dataset(std::uint64_t seed) {
  data::SyntheticConfig config;
  config.num_users = 48;
  config.num_objects = 4;
  config.missing_rate = 0.3;
  config.lambda1 = 1.0;
  config.seed = derive_seed(seed, 97);
  return data::generate_synthetic(config);
}

inline MethodSpec chaos_spec(Family family, std::uint64_t seed) {
  MethodSpec spec;
  // The crash families need a protocol that outlives the crash window's
  // virtual onset, so they always run the iterative method.
  const bool iterative = family == Family::kTransientCrash ||
                         family == Family::kPermanentCrash || seed % 2 == 0;
  spec.kind = iterative ? MethodSpec::Kind::kCrh : MethodSpec::Kind::kMean;
  return spec;
}

inline std::vector<net::NodeId> chaos_participants(std::size_t count) {
  std::vector<net::NodeId> ids;
  for (std::size_t s = 0; s < count; ++s) ids.push_back(s);
  return ids;
}

inline void expect_bitwise(const truth::Result& want, const truth::Result& got,
                           const std::string& ctx) {
  ASSERT_EQ(want.truths.size(), got.truths.size()) << ctx;
  for (std::size_t n = 0; n < want.truths.size(); ++n) {
    EXPECT_EQ(want.truths[n], got.truths[n]) << ctx << " truth " << n;
  }
  ASSERT_EQ(want.weights.size(), got.weights.size()) << ctx;
  for (std::size_t s = 0; s < want.weights.size(); ++s) {
    EXPECT_EQ(want.weights[s], got.weights[s]) << ctx << " weight " << s;
  }
  EXPECT_EQ(want.iterations, got.iterations) << ctx;
  EXPECT_EQ(want.converged, got.converged) << ctx;
}

/// Reports actually present for users [begin, end) — one report per
/// non-empty row, the exact count a shard owning that range ingests.
inline std::size_t reports_in_range(const data::Dataset& dataset,
                                    std::size_t begin, std::size_t end) {
  std::size_t count = 0;
  for (std::size_t s = begin; s < end; ++s) {
    if (!dataset.observations.user_entries(s).empty()) ++count;
  }
  return count;
}

/// Renumbered concatenation of every survivor's user range (victim's rows
/// cut out) — the degraded close aggregates exactly this matrix.
inline data::ObservationMatrix survivors_matrix(const data::Dataset& dataset,
                                                const data::ShardedMatrix& plan,
                                                std::size_t victim_index) {
  std::size_t users = 0;
  for (std::size_t i = 0; i < plan.num_shards(); ++i) {
    if (i != victim_index) users += plan.shard(i).num_users();
  }
  data::ObservationMatrixBuilder builder(users, dataset.num_objects());
  std::size_t local = 0;
  for (std::size_t i = 0; i < plan.num_shards(); ++i) {
    if (i == victim_index) continue;
    const std::size_t base = plan.user_base(i);
    for (std::size_t s = base; s < base + plan.shard(i).num_users();
         ++s, ++local) {
      const auto entries = dataset.observations.user_entries(s);
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

/// One seeded chaos round over the in-process simulator. Builds a K-shard
/// fleet behind a FaultInjectionTransport, runs a full round under the
/// family's schedule, and asserts that family's invariants against the
/// fault-free in-process reference.
inline void run_simulator_chaos(Family family, std::uint64_t seed) {
  const std::size_t k = 2 + seed % 3;
  const MethodSpec spec = chaos_spec(family, seed);
  const data::Dataset dataset = chaos_dataset(seed);
  const std::string ctx = chaos_context(
      family, seed, "simulator",
      "k=" + std::to_string(k) +
          " spec=" + (spec.kind == MethodSpec::Kind::kCrh ? "crh" : "mean"));

  const data::ShardedMatrix plan =
      data::ShardedMatrix::partition(dataset.observations, k, kChaosBlock);
  const std::size_t victim_index = seed % k;
  const net::NodeId victim = kChaosShardBase + victim_index;

  net::Simulator sim;
  net::Network inner(sim, net::LatencyModel{0.01, 0.0, 0.0}, 7);
  net::FaultInjectionTransport net(inner, make_schedule(family, seed, victim));

  CoordinatorConfig config;
  config.id = kChaosCoordinatorId;
  config.num_objects = dataset.num_objects();
  config.block_size = kChaosBlock;
  config.rpc.op_timeout_seconds = 0.25;
  config.rpc.max_resends = 8;
  Coordinator coordinator(config, spec, net);
  std::vector<std::unique_ptr<ShardNode>> shards;
  for (std::size_t i = 0; i < k; ++i) {
    shards.push_back(std::make_unique<ShardNode>(kChaosShardBase + i, net));
    coordinator.add_shard(kChaosShardBase + i);
  }

  ASSERT_TRUE(coordinator.begin_round(1, chaos_participants(48))) << ctx;
  std::size_t sent = 0;
  for (std::size_t s = 0; s < dataset.num_users(); ++s) {
    const auto entries = dataset.observations.user_entries(s);
    if (entries.empty()) continue;
    crowd::Report report;
    report.round = 1;
    report.user_id = s;
    for (const auto& entry : entries) {
      report.objects.push_back(entry.object);
      report.values.push_back(entry.value);
    }
    coordinator.on_message(crowd::make_message(
        report.user_id, kChaosCoordinatorId, crowd::MessageType::kReport,
        report.encode()));
    ++sent;
    // A zero-time pump fires the coordinator's turn flush, so each report
    // still travels as its own batch and draws its own per-frame faults.
    sim.run_until(sim.now());
  }
  sim.run();

  // Watermark floor after setup + ingest; the close must never lower it.
  std::vector<std::uint64_t> floor(k, 0);
  for (std::size_t i = 0; i < k; ++i) {
    floor[i] = shards[i]->op_watermark().value_or(0);
  }

  const DistributedOutcome outcome = coordinator.close_round();

  // Invariant (a): op-id watermarks only ever move forward.
  for (std::size_t i = 0; i < k; ++i) {
    const std::uint64_t after = shards[i]->op_watermark().value_or(0);
    EXPECT_GE(after, floor[i]) << ctx << " shard " << i << " watermark";
  }

  // Invariant (b): routed = aggregated + undeliverable + lost, exactly.
  EXPECT_EQ(outcome.reports_routed, sent) << ctx;
  EXPECT_EQ(outcome.reports_unroutable, 0u) << ctx;
  std::size_t aggregated = 0;
  for (const crowd::ShardIngestStats& stats : outcome.shard_stats) {
    aggregated += stats.reports_received;
  }
  EXPECT_EQ(aggregated + outcome.reports_undeliverable + outcome.reports_lost,
            sent)
      << ctx << " (report conservation)";

  switch (family) {
    case Family::kTransient:
    case Family::kTransientCrash: {
      // Invariant (c): transient faults are invisible in the answer.
      ASSERT_TRUE(outcome.completed) << ctx;
      ASSERT_TRUE(outcome.aggregated) << ctx;
      EXPECT_FALSE(outcome.degraded) << ctx;
      EXPECT_TRUE(outcome.excluded_shards.empty()) << ctx;
      EXPECT_EQ(outcome.reports_lost, 0u) << ctx;
      EXPECT_EQ(outcome.reports_undeliverable, 0u) << ctx;
      if (family == Family::kTransientCrash) {
        EXPECT_GT(net.fault_stats().crash_losses, 0u)
            << ctx << " (window never severed anything)";
        EXPECT_GT(outcome.resends, 0u) << ctx;
      } else {
        EXPECT_GT(net.fault_stats().delays + net.fault_stats().reorders +
                      net.fault_stats().duplicates + net.fault_stats().drops +
                      net.fault_stats().truncations,
                  0u)
            << ctx << " (schedule injected nothing)";
      }
      const truth::Result reference =
          make_method(spec)->run_sharded(data::ShardedMatrix::partition(
              dataset.observations, k, kChaosBlock));
      expect_bitwise(reference, outcome.result, ctx);
      break;
    }
    case Family::kLossyReports: {
      // Dropped report frames surface synchronously as undeliverable — the
      // routing layer observed every single injected loss.
      ASSERT_TRUE(outcome.completed) << ctx;
      EXPECT_FALSE(outcome.degraded) << ctx;
      EXPECT_EQ(outcome.reports_undeliverable, net.fault_stats().drops) << ctx;
      EXPECT_GT(net.fault_stats().drops, 0u) << ctx;
      EXPECT_EQ(outcome.reports_lost, 0u) << ctx;
      break;
    }
    case Family::kPermanentCrash: {
      // Invariant (d): the round closes degraded over the survivors, the
      // victim's ingested reports are charged as lost to the report, and the
      // surviving aggregation is the canonical answer over their rows.
      ASSERT_TRUE(outcome.completed) << ctx;
      ASSERT_TRUE(outcome.aggregated) << ctx;
      EXPECT_TRUE(outcome.degraded) << ctx;
      ASSERT_EQ(outcome.excluded_shards.size(), 1u) << ctx;
      EXPECT_EQ(outcome.excluded_shards[0], victim) << ctx;
      EXPECT_EQ(outcome.reports_undeliverable, 0u)
          << ctx << " (crash began after ingest)";
      const std::size_t base = plan.user_base(victim_index);
      EXPECT_EQ(outcome.reports_lost,
                reports_in_range(dataset, base,
                                 base + plan.shard(victim_index).num_users()))
          << ctx << " (exact loss accounting)";
      const truth::Result reference =
          make_method(spec)->run_sharded(data::ShardedMatrix::single(
              survivors_matrix(dataset, plan, victim_index), kChaosBlock));
      expect_bitwise(reference, outcome.result, ctx);
      break;
    }
  }
}

// ---------------------------------------------------------------------------
// Forked-UDS variant: real shard processes, real sockets; the decorator
// wraps the coordinator's SocketTransport, so faults hit the coordinator's
// outbound frames (requests and routed reports) — the direction every
// injectable loss matters on. Crash families stay simulator/SIGKILL-side;
// over UDS the transient and lossy families are the meaningful ones.

struct ChaosTempDir {
  std::string path;
  ChaosTempDir() {
    char tmpl[] = "/tmp/dptd_chaos_XXXXXX";
    path = mkdtemp(tmpl);
  }
  ~ChaosTempDir() { std::filesystem::remove_all(path); }
  std::string sock(std::size_t i) const {
    return path + "/s" + std::to_string(i) + ".sock";
  }
};

inline pid_t chaos_spawn_shard(net::NodeId id, const std::string& path) {
  const pid_t pid = fork();
  if (pid != 0) return pid;
  int status = 0;
  {
    net::SocketTransportConfig cfg;
    cfg.listen = "unix:" + path;
    net::SocketTransport transport(cfg);
    ShardNode node(id, transport);
    ShardServiceConfig service;
    service.poll_interval_seconds = 0.005;
    service.idle_timeout_seconds = 60.0;
    status = serve_shard(transport, node, service) ? 0 : 2;
  }
  _exit(status);
}

inline bool chaos_wait_for_path(const std::string& path,
                                double timeout_seconds = 10.0) {
  const auto start = std::chrono::steady_clock::now();
  struct stat st{};
  while (::stat(path.c_str(), &st) != 0) {
    if (std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count() > timeout_seconds) {
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return true;
}

/// One seeded chaos round over a real forked two-shard UDS fleet.
inline void run_uds_chaos(Family family, std::uint64_t seed) {
  const std::size_t k = 2;
  const MethodSpec spec = chaos_spec(family, seed);
  const data::Dataset dataset = chaos_dataset(seed);

  ChaosTempDir dir;
  const std::string ctx = chaos_context(
      family, seed, "uds",
      "sockets=" + dir.path +
          " spec=" + (spec.kind == MethodSpec::Kind::kCrh ? "crh" : "mean"));

  std::vector<pid_t> pids;
  net::SocketTransportConfig net_cfg;
  for (std::size_t i = 0; i < k; ++i) {
    pids.push_back(chaos_spawn_shard(kChaosShardBase + i, dir.sock(i)));
    net_cfg.peers[kChaosShardBase + i] = "unix:" + dir.sock(i);
  }
  for (std::size_t i = 0; i < k; ++i) {
    ASSERT_TRUE(chaos_wait_for_path(dir.sock(i))) << ctx;
  }

  net::SocketTransport inner(net_cfg);
  // Real-clock fleet: keep injected defers tiny and the drop rates low
  // enough that 8 resends never exhaust (p_fail ~ p^9).
  net::FaultSchedule schedule = make_schedule(family, seed, 0);
  schedule.rpc.delay_max_seconds = 0.02;
  schedule.rpc.reorder_max_seconds = 0.01;
  schedule.reports.delay_max_seconds = 0.02;
  schedule.reports.reorder_max_seconds = 0.01;
  if (family == Family::kTransient) {
    schedule.rpc.drop_probability = 0.05;
    schedule.rpc.truncate_probability = 0.05;
  }
  net::FaultInjectionTransport net(inner, schedule);

  CoordinatorConfig config;
  config.id = kChaosCoordinatorId;
  config.num_objects = dataset.num_objects();
  config.block_size = kChaosBlock;
  config.rpc.op_timeout_seconds = 0.1;
  config.rpc.max_resends = 8;
  Coordinator coordinator(config, spec, net);
  for (std::size_t i = 0; i < k; ++i) {
    coordinator.add_shard(kChaosShardBase + i);
  }

  ASSERT_TRUE(coordinator.begin_round(1, chaos_participants(48))) << ctx;
  std::size_t sent = 0;
  for (std::size_t s = 0; s < dataset.num_users(); ++s) {
    const auto entries = dataset.observations.user_entries(s);
    if (entries.empty()) continue;
    crowd::Report report;
    report.round = 1;
    report.user_id = s;
    for (const auto& entry : entries) {
      report.objects.push_back(entry.object);
      report.values.push_back(entry.value);
    }
    coordinator.on_message(crowd::make_message(
        report.user_id, kChaosCoordinatorId, crowd::MessageType::kReport,
        report.encode()));
    ++sent;
    net.run_until_idle();  // one batch per report, as on the simulator
  }
  const DistributedOutcome outcome = coordinator.close_round();

  // Teardown bypasses the fault layer: a dropped/delayed kShutdown would
  // leave the child to its 60s orphan timeout and stall the suite.
  for (std::size_t i = 0; i < k; ++i) {
    inner.send(crowd::make_message(kChaosCoordinatorId, kChaosShardBase + i,
                                   crowd::MessageType::kShutdown, {}));
  }
  inner.run_until_idle();
  for (const pid_t pid : pids) {
    int status = 0;
    waitpid(pid, &status, 0);
  }

  // Invariant (b), same ledger as the simulator variant.
  EXPECT_EQ(outcome.reports_routed, sent) << ctx;
  std::size_t aggregated = 0;
  for (const crowd::ShardIngestStats& stats : outcome.shard_stats) {
    aggregated += stats.reports_received;
  }
  EXPECT_EQ(aggregated + outcome.reports_undeliverable + outcome.reports_lost,
            sent)
      << ctx << " (report conservation)";

  ASSERT_TRUE(outcome.completed) << ctx;
  EXPECT_FALSE(outcome.degraded) << ctx;
  if (family == Family::kTransient) {
    // Invariant (c) over real sockets.
    ASSERT_TRUE(outcome.aggregated) << ctx;
    EXPECT_EQ(outcome.reports_undeliverable, 0u) << ctx;
    const truth::Result reference =
        make_method(spec)->run_sharded(data::ShardedMatrix::partition(
            dataset.observations, k, kChaosBlock));
    expect_bitwise(reference, outcome.result, ctx);
  } else {
    EXPECT_EQ(outcome.reports_undeliverable, net.fault_stats().drops) << ctx;
  }
}

}  // namespace dptd::dist::chaos
