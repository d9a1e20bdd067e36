// The PR-7 acceptance test: a real K-process deployment — one forked OS
// process per shard, each serving its ShardNode over its own Unix-domain
// listener — runs the identical protocol bytes and produces bitwise-identical
// DistributedOutcome results to the simulator-backed fleet at the same K and
// block size.
// Plus the churn story: SIGKILL a shard mid-round and the coordinator
// excludes it after max_resends, closes the round DEGRADED over the
// survivors with exact loss accounting, re-plans the next round, and
// re-admits a restarted process on the same socket path — and the PR-9
// regression: reports routed into a reconnect-backoff window park on the
// peer link and flush on reconnect instead of silently dropping.
#include <gtest/gtest.h>

#include <csignal>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "categorical/label_matrix.h"
#include "categorical/synthetic.h"
#include "data/builder.h"
#include "data/sharding.h"
#include "data/synthetic.h"
#include "dist/coordinator.h"
#include "dist/shard_node.h"
#include "net/network.h"
#include "net/socket_transport.h"
#include "truth/interface.h"

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

constexpr std::size_t kNumLabels = 4;

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
  } else if (name == "majority") {
    spec.kind = MethodSpec::Kind::kMajority;
    spec.majority.num_labels = kNumLabels;
  } else if (name == "vote") {
    spec.kind = MethodSpec::Kind::kVote;
    spec.vote.num_labels = kNumLabels;
  } else {
    ADD_FAILURE() << "unknown method " << name;
  }
  return spec;
}

/// One workload serving both round kinds: continuous claims for the
/// numeric methods, label claims for the categorical ones.
struct Workload {
  std::optional<data::Dataset> continuous;
  std::optional<categorical::LabelDataset> labels;

  std::size_t num_users() const {
    return continuous ? continuous->num_users() : labels->claims.num_users();
  }
  std::size_t num_objects() const {
    return continuous ? continuous->num_objects()
                      : labels->claims.num_objects();
  }
};

Workload workload_for(const MethodSpec& spec, std::uint64_t seed,
                      std::size_t users, std::size_t objects,
                      double missing) {
  Workload w;
  if (spec.categorical()) {
    categorical::CategoricalConfig config;
    config.num_users = users;
    config.num_objects = objects;
    config.num_labels = kNumLabels;
    config.lambda_err = 2.0;
    config.missing_rate = missing;
    config.seed = seed;
    w.labels = categorical::generate_categorical(config);
  } else {
    w.continuous = random_dataset(seed, users, objects, missing);
  }
  return w;
}

/// Survivor reference for degraded-close checks: the same workload truncated
/// to its first `keep_users` rows (the surviving shard's user range when the
/// dead shard owned the tail). Continuous methods only — the churn tests
/// below all run numeric specs.
Workload prefix_workload(const Workload& workload, std::size_t keep_users) {
  const data::ObservationMatrix& obs = workload.continuous->observations;
  data::ObservationMatrixBuilder builder(keep_users, obs.num_objects());
  for (std::size_t s = 0; s < keep_users; ++s) {
    const auto entries = obs.user_entries(s);
    if (entries.empty()) continue;
    std::vector<std::uint64_t> objects;
    std::vector<double> values;
    for (const auto& entry : entries) {
      objects.push_back(entry.object);
      values.push_back(entry.value);
    }
    builder.add_row(s, objects, values);
  }
  Workload survivor;
  survivor.continuous = data::Dataset{};
  survivor.continuous->observations = builder.finalize();
  return survivor;
}

/// Number of users in [begin, end) that actually report (non-empty rows) —
/// the exact count of routed reports a shard owning that range receives, and
/// therefore the exact `reports_lost` when that shard dies mid-round.
std::size_t reporting_users_in(const Workload& workload, std::size_t begin,
                               std::size_t end) {
  std::size_t count = 0;
  for (std::size_t s = begin; s < end; ++s) {
    if (!workload.continuous->observations.user_entries(s).empty()) ++count;
  }
  return count;
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

std::vector<net::NodeId> participant_ids(std::size_t count) {
  std::vector<net::NodeId> ids;
  for (std::size_t s = 0; s < count; ++s) ids.push_back(s);
  return ids;
}

struct TempDir {
  std::string path;
  TempDir() {
    char tmpl[] = "/tmp/dptd_mp_XXXXXX";
    path = mkdtemp(tmpl);
  }
  ~TempDir() { std::filesystem::remove_all(path); }
  std::string sock(std::size_t i) const {
    return path + "/s" + std::to_string(i) + ".sock";
  }
};

/// Forks one shard process: it binds its own UDS listener, serves its
/// ShardNode until a kShutdown message (or a 60s idle orphan timeout), and
/// _exit()s without touching the parent's gtest state.
pid_t spawn_shard(net::NodeId id, const std::string& path) {
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

bool wait_for_path(const std::string& path, double timeout_seconds = 10.0) {
  const auto start = std::chrono::steady_clock::now();
  struct stat st{};
  while (::stat(path.c_str(), &st) != 0) {
    if (std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count() > timeout_seconds) {
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return true;
}

/// Hands users [user_begin, user_end)'s claims to the coordinator directly
/// (the coordinator is the report sink either way; what is under test is its
/// socket-side routing to the owning shard processes).
void inject_reports(Coordinator& coordinator, const Workload& workload,
                    std::uint64_t round, std::size_t user_begin = 0,
                    std::size_t user_end = static_cast<std::size_t>(-1)) {
  user_end = std::min(user_end, workload.num_users());
  if (workload.labels) {
    for (std::size_t s = user_begin; s < user_end; ++s) {
      const auto row = workload.labels->claims.user_entries(s);
      if (row.empty()) continue;
      crowd::LabelReport report;
      report.round = round;
      report.user_id = s;
      for (const auto& entry : row) {
        report.objects.push_back(entry.object);
        report.labels.push_back(static_cast<categorical::Label>(entry.value));
      }
      coordinator.on_message(
          crowd::make_message(report.user_id, kCoordinatorId,
                              crowd::MessageType::kLabelReport,
                              report.encode()));
    }
    return;
  }
  for (std::size_t s = user_begin; s < user_end; ++s) {
    const auto entries = workload.continuous->observations.user_entries(s);
    if (entries.empty()) continue;
    crowd::Report report;
    report.round = round;
    report.user_id = s;
    for (const auto& entry : entries) {
      report.objects.push_back(entry.object);
      report.values.push_back(entry.value);
    }
    coordinator.on_message(crowd::make_message(report.user_id, kCoordinatorId,
                                               crowd::MessageType::kReport,
                                               report.encode()));
  }
}

void shutdown_shards(net::Transport& transport,
                     const std::vector<net::NodeId>& ids,
                     const std::vector<pid_t>& pids) {
  for (const net::NodeId id : ids) {
    transport.send(crowd::make_message(kCoordinatorId, id,
                                       crowd::MessageType::kShutdown, {}));
  }
  transport.run_until_idle();
  for (const pid_t pid : pids) {
    int status = 0;
    waitpid(pid, &status, 0);
  }
}

/// A simulator-backed fleet with the same topology, for the reference run.
truth::Result run_simulator_round(std::size_t k, const MethodSpec& spec,
                                  const Workload& workload) {
  net::Simulator sim;
  net::Network network(sim, net::LatencyModel{0.01, 0.0, 0.0}, 7);
  CoordinatorConfig config;
  config.id = kCoordinatorId;
  config.num_objects = workload.num_objects();
  config.block_size = kTestBlock;
  Coordinator coordinator(config, spec, network);
  std::vector<std::unique_ptr<ShardNode>> shards;
  for (std::size_t i = 0; i < k; ++i) {
    shards.push_back(std::make_unique<ShardNode>(kShardBase + i, network));
    coordinator.add_shard(kShardBase + i);
  }
  EXPECT_TRUE(
      coordinator.begin_round(1, participant_ids(workload.num_users())));
  inject_reports(coordinator, workload, 1);
  sim.run();
  const DistributedOutcome outcome = coordinator.close_round();
  EXPECT_TRUE(outcome.aggregated);
  return outcome.result;
}

class MultiProcessEquivalence : public ::testing::TestWithParam<const char*> {
};

TEST_P(MultiProcessEquivalence, UdsFleetMatchesSimulatorBitwiseAtEveryK) {
  const std::string name = GetParam();
  const MethodSpec spec = spec_for(name);
  // 64 users / block 8 = 8 blocks, so K=8 is a real one-block-per-shard
  // fleet rather than a clamped roster.
  const Workload workload = workload_for(spec, 101, 64, 4, 0.3);

  for (const std::size_t k : {1u, 2u, 4u, 8u}) {
    const std::string label = name + " K=" + std::to_string(k);
    TempDir dir;
    std::vector<pid_t> pids;
    std::vector<net::NodeId> shard_ids;
    net::SocketTransportConfig net_cfg;
    for (std::size_t i = 0; i < k; ++i) {
      shard_ids.push_back(kShardBase + i);
      pids.push_back(spawn_shard(kShardBase + i, dir.sock(i)));
      net_cfg.peers[kShardBase + i] = "unix:" + dir.sock(i);
    }
    for (std::size_t i = 0; i < k; ++i) {
      ASSERT_TRUE(wait_for_path(dir.sock(i))) << label;
    }

    net::SocketTransport transport(net_cfg);
    CoordinatorConfig config;
    config.id = kCoordinatorId;
    config.num_objects = workload.num_objects();
    config.block_size = kTestBlock;
    Coordinator coordinator(config, spec, transport);
    for (const net::NodeId id : shard_ids) coordinator.add_shard(id);

    ASSERT_TRUE(
        coordinator.begin_round(1, participant_ids(workload.num_users())))
        << label;
    inject_reports(coordinator, workload, 1);
    const DistributedOutcome outcome = coordinator.close_round();
    shutdown_shards(transport, shard_ids, pids);

    ASSERT_TRUE(outcome.completed) << label;
    ASSERT_TRUE(outcome.aggregated) << label;
    EXPECT_FALSE(outcome.failed_shard.has_value()) << label;
    EXPECT_EQ(outcome.reports_unroutable, 0u) << label;
    EXPECT_EQ(outcome.reports_undeliverable, 0u) << label;

    // Clean loopback round: no stale drops, no malformed traffic, on either
    // side of any connection — the per-node counters say so uniformly.
    ASSERT_EQ(outcome.node_counters.size(), outcome.shard_stats.size())
        << label;
    for (const NodeCounters& counters : outcome.node_counters) {
      EXPECT_EQ(counters.stale_requests, 0u) << label;
      EXPECT_EQ(counters.malformed_messages, 0u) << label;
      EXPECT_EQ(counters.malformed_responses, 0u) << label;
      EXPECT_EQ(counters.messages_undeliverable, 0u) << label;
    }
    EXPECT_EQ(outcome.stale_responses, 0u) << label;
    EXPECT_EQ(transport.malformed_frames(), 0u) << label;
    // End-to-end byte symmetry: every protocol byte the coordinator sent or
    // received is accounted on both rails.
    EXPECT_EQ(outcome.network.messages_dropped, 0u) << label;
    EXPECT_GT(outcome.network.bytes_sent, 0u) << label;
    EXPECT_GT(outcome.network.bytes_delivered, 0u) << label;

    // The tentpole claim: identical bits to the simulator fleet at same K.
    const truth::Result reference = run_simulator_round(k, spec, workload);
    expect_bitwise_equal(reference, outcome.result, label);
  }
}

INSTANTIATE_TEST_SUITE_P(AllMethods, MultiProcessEquivalence,
                         ::testing::Values("crh", "gtm", "catd", "mean",
                                           "median", "majority", "vote"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

TEST(MultiProcessChurn, KilledShardFailsRoundThenRestartRejoins) {
  const MethodSpec spec = spec_for("crh");
  const Workload dataset = workload_for(spec, 202, 32, 4, 0.25);
  const auto participants = participant_ids(dataset.num_users());

  TempDir dir;
  pid_t pid_a = spawn_shard(kShardBase + 0, dir.sock(0));
  pid_t pid_b = spawn_shard(kShardBase + 1, dir.sock(1));
  ASSERT_TRUE(wait_for_path(dir.sock(0)));
  ASSERT_TRUE(wait_for_path(dir.sock(1)));

  net::SocketTransportConfig net_cfg;
  net_cfg.peers[kShardBase + 0] = "unix:" + dir.sock(0);
  net_cfg.peers[kShardBase + 1] = "unix:" + dir.sock(1);
  net_cfg.reconnect_backoff_seconds = 0.01;
  net_cfg.reconnect_backoff_max_seconds = 0.05;
  net::SocketTransport transport(net_cfg);

  CoordinatorConfig config;
  config.id = kCoordinatorId;
  config.num_objects = dataset.num_objects();
  config.block_size = kTestBlock;
  config.rpc.op_timeout_seconds = 0.1;
  config.rpc.max_resends = 2;
  Coordinator coordinator(config, spec, transport);
  coordinator.add_shard(kShardBase + 0);
  coordinator.add_shard(kShardBase + 1);

  // Round 1: both shards healthy, K=2 bits match the simulator.
  ASSERT_TRUE(coordinator.begin_round(1, participants));
  inject_reports(coordinator, dataset, 1);
  const DistributedOutcome round1 = coordinator.close_round();
  ASSERT_TRUE(round1.aggregated);
  expect_bitwise_equal(run_simulator_round(2, spec, dataset), round1.result,
                       "round1 K=2");

  // Round 2: SIGKILL shard B after setup. The coordinator burns through
  // max_resends against the dead process (connect refusals on the stale
  // socket path), excludes B mid-round, and closes DEGRADED over the
  // survivor instead of aborting — with B's routed reports counted lost to
  // the exact report. (Before the degraded-close change this asserted
  // completed == false with failed_shard == B.)
  ASSERT_TRUE(coordinator.begin_round(2, participants));
  kill(pid_b, SIGKILL);
  int status = 0;
  waitpid(pid_b, &status, 0);
  inject_reports(coordinator, dataset, 2);
  const DistributedOutcome round2 = coordinator.close_round();
  EXPECT_TRUE(round2.completed);
  ASSERT_TRUE(round2.aggregated);
  EXPECT_TRUE(round2.degraded);
  EXPECT_FALSE(round2.failed_shard.has_value());
  ASSERT_EQ(round2.excluded_shards.size(), 1u);
  EXPECT_EQ(round2.excluded_shards[0], kShardBase + 1);
  // B owned users [16, 32); every one of its routed reports parked on the
  // dead link (never transport-undeliverable) and is now unaccountable.
  EXPECT_EQ(round2.reports_lost, reporting_users_in(dataset, 16, 32));
  EXPECT_GT(round2.resends, 0u);
  ASSERT_EQ(coordinator.roster().size(), 1u);  // B left the roster
  EXPECT_EQ(coordinator.roster()[0], kShardBase + 0);
  // The degraded result is the canonical aggregation over the survivor's
  // sub-matrix: bitwise identical to a one-shard fleet fed only A's users.
  expect_bitwise_equal(
      run_simulator_round(1, spec, prefix_workload(dataset, 16)),
      round2.result, "round2 degraded over survivor");

  // Round 3: the automatic re-plan routes every user to the survivor; the
  // K=1 round completes and matches the K=1 simulator bits.
  ASSERT_TRUE(coordinator.begin_round(3, participants));
  inject_reports(coordinator, dataset, 3);
  const DistributedOutcome round3 = coordinator.close_round();
  ASSERT_TRUE(round3.aggregated);
  expect_bitwise_equal(run_simulator_round(1, spec, dataset), round3.result,
                       "round3 K=1");

  // Restart B as a fresh process on the SAME socket path (the listener
  // unlinks the stale inode and rebinds), re-admit it, and the K=2 fleet is
  // whole again — bitwise.
  ::unlink(dir.sock(1).c_str());
  pid_b = spawn_shard(kShardBase + 1, dir.sock(1));
  ASSERT_TRUE(wait_for_path(dir.sock(1)));
  coordinator.add_shard(kShardBase + 1);
  ASSERT_TRUE(coordinator.begin_round(4, participants));
  inject_reports(coordinator, dataset, 4);
  const DistributedOutcome round4 = coordinator.close_round();
  ASSERT_TRUE(round4.aggregated);
  EXPECT_EQ(round4.shard_stats.size(), 2u);
  expect_bitwise_equal(run_simulator_round(2, spec, dataset), round4.result,
                       "round4 K=2 after rejoin");

  shutdown_shards(transport, {kShardBase + 0, kShardBase + 1},
                  {pid_a, pid_b});
}

// The PR-9 headline regression: a shard process that dies and restarts
// mid-ingest leaves the coordinator's peer link down (EPIPE on the stale
// connection, then refused/backed-off reconnects). Every report routed while
// the link is down must park on the link and flush to the restarted process —
// not silently drop. The restarted process lost its in-memory round state, so
// the round closes DEGRADED without it (churn-by-design); the
// transport-level claim is that not one routed frame vanished:
// outcome.reports_undeliverable stays zero. The final section replays the
// identical choreography with the backoff queue disabled
// (backoff_queue_max_frames = 0 — the pre-fix behaviour) and watches the same
// counter go positive: that is the silent loss this fix removes.
TEST(MultiProcessChurn, ReportsRoutedDuringBackoffWindowAreNeverLost) {
  const MethodSpec spec = spec_for("mean");
  // missing_rate 0 so all 64 users report; 64 users / block 8 at K=2 puts
  // users 0..31 on shard A and 32..63 on shard B.
  const Workload dataset = workload_for(spec, 303, 64, 4, 0.0);
  const auto participants = participant_ids(dataset.num_users());

  TempDir dir;
  pid_t pid_a = spawn_shard(kShardBase + 0, dir.sock(0));
  pid_t pid_b = spawn_shard(kShardBase + 1, dir.sock(1));
  ASSERT_TRUE(wait_for_path(dir.sock(0)));
  ASSERT_TRUE(wait_for_path(dir.sock(1)));

  net::SocketTransportConfig net_cfg;
  net_cfg.peers[kShardBase + 0] = "unix:" + dir.sock(0);
  net_cfg.peers[kShardBase + 1] = "unix:" + dir.sock(1);
  net_cfg.reconnect_backoff_seconds = 0.05;
  net_cfg.reconnect_backoff_max_seconds = 0.2;
  net::SocketTransport transport(net_cfg);

  CoordinatorConfig config;
  config.id = kCoordinatorId;
  config.num_objects = dataset.num_objects();
  config.block_size = kTestBlock;
  config.rpc.op_timeout_seconds = 0.2;
  config.rpc.max_resends = 2;
  Coordinator coordinator(config, spec, transport);
  coordinator.add_shard(kShardBase + 0);
  coordinator.add_shard(kShardBase + 1);

  // Round 1: ingest shard A's half, SIGKILL B, then route B's entire half
  // while the process is down. The first report dies on the stale connection
  // (EPIPE) and re-parks; the reconnect probe is refused (dead path) and
  // arms the backoff; the remaining 30 reports land inside the window. All
  // 32 park on the link. Restart B before close: the retry reconnects and
  // flushes every parked frame, in order, to the fresh process.
  ASSERT_TRUE(coordinator.begin_round(1, participants));
  inject_reports(coordinator, dataset, 1, 0, 32);
  kill(pid_b, SIGKILL);
  int status = 0;
  waitpid(pid_b, &status, 0);
  inject_reports(coordinator, dataset, 1, 32, 64);
  ::unlink(dir.sock(1).c_str());
  pid_b = spawn_shard(kShardBase + 1, dir.sock(1));
  ASSERT_TRUE(wait_for_path(dir.sock(1)));
  const DistributedOutcome round1 = coordinator.close_round();
  // The fresh process has no round-1 setup state, so finalize fails against
  // it and the round closes DEGRADED over shard A — but nothing was silently
  // dropped at the transport: every routed report was handed to a live
  // process (which counts strays as rejected, an observable outcome, unlike
  // a transport drop), so reports_undeliverable stays zero while the
  // excluded shard's 32 routed reports are counted lost — accounted, not
  // vanished.
  EXPECT_TRUE(round1.completed);
  EXPECT_TRUE(round1.degraded);
  EXPECT_FALSE(round1.failed_shard.has_value());
  ASSERT_EQ(round1.excluded_shards.size(), 1u);
  EXPECT_EQ(round1.excluded_shards[0], kShardBase + 1);
  EXPECT_EQ(round1.reports_unroutable, 0u);
  EXPECT_EQ(round1.reports_undeliverable, 0u);
  EXPECT_EQ(round1.reports_lost, 32u);  // B's half: users 32..63, missing 0
  // And the degraded aggregation is the canonical answer over the survivor's
  // half of the fleet.
  ASSERT_TRUE(round1.aggregated);
  expect_bitwise_equal(
      run_simulator_round(1, spec, prefix_workload(dataset, 32)),
      round1.result, "round1 degraded over survivor");

  // Re-admit the (alive, fresh) process — the degraded close evicted it from
  // the roster: the K=2 fleet completes a clean round, bitwise identical to
  // the simulator reference.
  coordinator.add_shard(kShardBase + 1);
  ASSERT_TRUE(coordinator.begin_round(2, participants));
  inject_reports(coordinator, dataset, 2);
  const DistributedOutcome round2 = coordinator.close_round();
  ASSERT_TRUE(round2.aggregated);
  EXPECT_EQ(round2.reports_undeliverable, 0u);
  expect_bitwise_equal(run_simulator_round(2, spec, dataset), round2.result,
                       "round2 K=2 after mid-ingest restart");
  shutdown_shards(transport, {kShardBase + 0, kShardBase + 1},
                  {pid_a, pid_b});

  // Pre-fix control: the same kill-during-ingest choreography with the
  // backoff queue disabled. Reports routed while B's link is down are
  // counted undeliverable — silently lost on the wire, with no resend path
  // to save them. This is the exact failure the queue removes.
  TempDir ctrl_dir;
  pid_t ctrl_a = spawn_shard(kShardBase + 0, ctrl_dir.sock(0));
  pid_t ctrl_b = spawn_shard(kShardBase + 1, ctrl_dir.sock(1));
  ASSERT_TRUE(wait_for_path(ctrl_dir.sock(0)));
  ASSERT_TRUE(wait_for_path(ctrl_dir.sock(1)));
  net::SocketTransportConfig ctrl_cfg;
  ctrl_cfg.peers[kShardBase + 0] = "unix:" + ctrl_dir.sock(0);
  ctrl_cfg.peers[kShardBase + 1] = "unix:" + ctrl_dir.sock(1);
  ctrl_cfg.reconnect_backoff_seconds = 0.05;
  ctrl_cfg.reconnect_backoff_max_seconds = 0.2;
  ctrl_cfg.backoff_queue_max_frames = 0;  // pre-fix: drop instead of park
  net::SocketTransport ctrl_transport(ctrl_cfg);
  Coordinator ctrl(config, spec, ctrl_transport);
  ctrl.add_shard(kShardBase + 0);
  ctrl.add_shard(kShardBase + 1);
  ASSERT_TRUE(ctrl.begin_round(1, participants));
  inject_reports(ctrl, dataset, 1, 0, 32);
  kill(ctrl_b, SIGKILL);
  waitpid(ctrl_b, &status, 0);
  inject_reports(ctrl, dataset, 1, 32, 64);
  ::unlink(ctrl_dir.sock(1).c_str());
  ctrl_b = spawn_shard(kShardBase + 1, ctrl_dir.sock(1));
  ASSERT_TRUE(wait_for_path(ctrl_dir.sock(1)));
  const DistributedOutcome ctrl_round = ctrl.close_round();
  EXPECT_GT(ctrl_round.reports_undeliverable, 0u);
  // The degraded close still accounts for every one of B's 32 routed
  // reports: the dropped-on-the-wire ones show up undeliverable at routing
  // time, the rest are charged to the excluded shard as lost. Conservation
  // holds either way — the queue's value is moving loss from the transport
  // column to the (recoverable-by-resend) shard column.
  EXPECT_TRUE(ctrl_round.degraded);
  EXPECT_EQ(ctrl_round.reports_undeliverable + ctrl_round.reports_lost, 32u);
  shutdown_shards(ctrl_transport, {kShardBase + 0, kShardBase + 1},
                  {ctrl_a, ctrl_b});
}

}  // namespace
}  // namespace dptd::dist
