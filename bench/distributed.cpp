// Distributed-coordinator capacity benchmark: a synthetic round of 1,000,000
// users streamed as wire reports through the simulated network into K
// ShardNodes, then converged by the dist::Coordinator purely over serialized
// chained-fold RPCs. Results are bitwise identical at every K (the tentpole
// guarantee), so rows differ only in time and traffic.
//
// The headline counters, per shard count K:
//  - iterations_per_sec: truth-discovery iterations the protocol completes
//    per wall-clock second of the close phase (finalize + converge +
//    collect).
//  - bytes_per_iteration / messages_per_iteration: protocol traffic of the
//    iteration loop alone, from the coordinator's NetworkStats delta. Grows
//    with K (one chain hop per shard per collective; CRH pays 4K frames per
//    iteration) — the cost model the README's distributed-mode section
//    describes.
#include <benchmark/benchmark.h>

#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/stopwatch.h"
#include "crowd/protocol.h"
#include "dist/coordinator.h"
#include "dist/shard_node.h"
#include "net/fault_transport.h"
#include "net/network.h"
#include "net/socket_transport.h"

namespace {

using dptd::dist::Coordinator;
using dptd::dist::CoordinatorConfig;
using dptd::dist::DistributedOutcome;
using dptd::dist::MethodSpec;
using dptd::dist::ShardNode;

constexpr std::size_t kMillionUsers = 1'000'000;
constexpr std::size_t kObjects = 1'000;
constexpr std::size_t kClaimsPerUser = 6;
/// Big blocks keep the canonical fold coarse at this scale; every K uses the
/// same block size, so all rows publish bitwise-identical truths.
constexpr std::size_t kBlock = 4'096;
constexpr dptd::net::NodeId kCoordinatorId = 9'000'000;
constexpr dptd::net::NodeId kShardBase = 8'000'000;

inline std::uint64_t xorshift(std::uint64_t& state) {
  state ^= state << 13;
  state ^= state >> 7;
  state ^= state << 17;
  return state;
}

/// One user's report, generated procedurally (cheap xorshift noise around a
/// per-object truth) so data generation never dominates the round timing.
dptd::crowd::Report make_report(std::size_t user, std::uint64_t round = 1) {
  dptd::crowd::Report report;
  report.round = round;
  report.user_id = user;
  report.objects.reserve(kClaimsPerUser);
  report.values.reserve(kClaimsPerUser);
  std::uint64_t rng = 0x9e3779b97f4a7c15ull ^ (user * 0xbf58476d1ce4e5b9ull);
  const std::size_t start = xorshift(rng) % kObjects;
  const std::size_t stride = 1 + xorshift(rng) % 97;
  for (std::size_t j = 0; j < kClaimsPerUser; ++j) {
    const std::size_t object = (start + j * stride) % kObjects;
    const double truth = static_cast<double>(object % 50);
    const double noise =
        (static_cast<double>(xorshift(rng) % 2'000'001) - 1'000'000.0) / 1e6;
    report.objects.push_back(object);
    report.values.push_back(truth + noise);
  }
  return report;
}

/// One simulated million-user round per iteration. With `fault_passthrough`
/// the whole protocol runs through a zero-schedule FaultInjectionTransport —
/// no fault ever fires, so the row prices the decorator's overhead (one
/// virtual hop plus an Rng draw per send) against the bare-Network rows at
/// equal shards.
void run_distributed_round_crh(benchmark::State& state,
                               bool fault_passthrough) {
  const auto num_shards = static_cast<std::size_t>(state.range(0));

  MethodSpec spec;
  spec.kind = MethodSpec::Kind::kCrh;
  spec.crh.convergence.tolerance = 1e-6;
  spec.crh.convergence.max_iterations = 10;

  std::vector<dptd::net::NodeId> participants(kMillionUsers);
  for (std::size_t s = 0; s < kMillionUsers; ++s) participants[s] = s;

  double close_seconds = 0.0;
  double ingest_seconds = 0.0;
  std::size_t rounds = 0;
  std::size_t iterations = 0;
  std::size_t iteration_messages = 0;
  std::size_t iteration_bytes = 0;
  std::size_t round_bytes = 0;
  for (auto _ : state) {
    dptd::net::Simulator sim;
    dptd::net::Network inner(sim, dptd::net::LatencyModel{0.001, 0.0, 0.0}, 1);
    dptd::net::FaultInjectionTransport faulty(inner,
                                              dptd::net::FaultSchedule{});
    dptd::net::Transport& network =
        fault_passthrough ? static_cast<dptd::net::Transport&>(faulty) : inner;
    CoordinatorConfig config;
    config.id = kCoordinatorId;
    config.num_objects = kObjects;
    config.block_size = kBlock;
    Coordinator coordinator(config, spec, network);
    std::vector<std::unique_ptr<ShardNode>> shards;
    for (std::size_t i = 0; i < num_shards; ++i) {
      shards.push_back(std::make_unique<ShardNode>(kShardBase + i, network));
      coordinator.add_shard(kShardBase + i);
    }
    if (!coordinator.begin_round(1, participants)) {
      state.SkipWithError("begin_round failed");
      return;
    }

    dptd::Stopwatch ingest_timer;
    for (std::size_t user = 0; user < kMillionUsers; ++user) {
      network.send(dptd::crowd::make_message(
          user, kCoordinatorId, dptd::crowd::MessageType::kReport,
          make_report(user).encode()));
      // Batched draining keeps the event queue (and its payload copies)
      // small instead of holding a million in-flight messages.
      if ((user & 0x3fff) == 0x3fff) sim.run();
    }
    sim.run();
    ingest_seconds += ingest_timer.elapsed_seconds();

    dptd::Stopwatch close_timer;
    const DistributedOutcome outcome = coordinator.close_round();
    close_seconds += close_timer.elapsed_seconds();
    if (!outcome.aggregated) {
      state.SkipWithError("round did not aggregate");
      return;
    }
    benchmark::DoNotOptimize(outcome.result.truths.data());
    ++rounds;
    iterations += outcome.result.iterations;
    iteration_messages += outcome.iteration_messages;
    iteration_bytes += outcome.iteration_bytes;
    round_bytes += outcome.network.bytes_sent;
  }

  const auto per_round = [&](double total) {
    return rounds > 0 ? total / static_cast<double>(rounds) : 0.0;
  };
  const auto per_iteration = [&](std::size_t total) {
    return iterations > 0
               ? static_cast<double>(total) / static_cast<double>(iterations)
               : 0.0;
  };
  state.counters["iterations_per_sec"] = benchmark::Counter(
      close_seconds > 0.0 ? static_cast<double>(iterations) / close_seconds
                          : 0.0);
  state.counters["bytes_per_iteration"] =
      benchmark::Counter(per_iteration(iteration_bytes));
  state.counters["messages_per_iteration"] =
      benchmark::Counter(per_iteration(iteration_messages));
  state.counters["round_bytes"] =
      benchmark::Counter(per_round(static_cast<double>(round_bytes)));
  state.counters["ingest_seconds"] = benchmark::Counter(per_round(ingest_seconds));
  state.counters["close_seconds"] = benchmark::Counter(per_round(close_seconds));
  state.counters["td_iterations"] =
      benchmark::Counter(per_round(static_cast<double>(iterations)));
}

void BM_DistributedRoundCrh(benchmark::State& state) {
  run_distributed_round_crh(state, /*fault_passthrough=*/false);
}
BENCHMARK(BM_DistributedRoundCrh)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->ArgName("shards")
    ->Unit(benchmark::kSecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

// The chaos suites decorate every transport with FaultInjectionTransport;
// this row proves the decorator is free when its schedule is empty, so the
// fault layer can stay in integration rigs without distorting measurements.
// Compare against BM_DistributedRoundCrh at equal shards.
void BM_DistributedRoundCrhFaultPassthrough(benchmark::State& state) {
  run_distributed_round_crh(state, /*fault_passthrough=*/true);
}
BENCHMARK(BM_DistributedRoundCrhFaultPassthrough)
    ->Arg(1)
    ->Arg(4)
    ->ArgName("shards")
    ->Unit(benchmark::kSecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

// ---------------------------------------------------------------------------
// The same round over real processes: K forked shard servers on UDS loopback
// (net::SocketTransport), driven by the identical coordinator protocol. A
// smaller fleet (100k users) keeps the row a smoke-scale measurement of the
// socket stack — framing, poll loop, kernel round trips — rather than of the
// shard kernels, which the simulator row already times at the million-user
// scale. Results stay bitwise identical to the simulator rows' method output
// at equal K and block size (the multiprocess equivalence suite enforces it);
// this row exists to price the transport swap: each iteration costs 4K
// kernel round trips.
// ---------------------------------------------------------------------------

constexpr std::size_t kUdsUsers = 100'000;

pid_t spawn_bench_shard(dptd::net::NodeId id, const std::string& path) {
  const pid_t pid = fork();
  if (pid != 0) return pid;
  {
    dptd::net::SocketTransportConfig cfg;
    cfg.listen = "unix:" + path;
    dptd::net::SocketTransport transport(cfg);
    dptd::dist::ShardNode node(id, transport);
    dptd::dist::ShardServiceConfig service;
    service.poll_interval_seconds = 0.002;
    service.idle_timeout_seconds = 600.0;
    dptd::dist::serve_shard(transport, node, service);
  }
  _exit(0);
}

void BM_DistributedRoundCrhUdsLoopback(benchmark::State& state) {
  const auto num_shards = static_cast<std::size_t>(state.range(0));

  MethodSpec spec;
  spec.kind = MethodSpec::Kind::kCrh;
  spec.crh.convergence.tolerance = 1e-6;
  spec.crh.convergence.max_iterations = 10;

  char tmpl[] = "/tmp/dptd_bench_XXXXXX";
  const std::string dir = mkdtemp(tmpl);
  std::vector<pid_t> pids;
  dptd::net::SocketTransportConfig net_config;
  for (std::size_t i = 0; i < num_shards; ++i) {
    const std::string path = dir + "/s" + std::to_string(i) + ".sock";
    pids.push_back(spawn_bench_shard(kShardBase + i, path));
    net_config.peers[kShardBase + i] = "unix:" + path;
  }
  for (const auto& [id, endpoint] : net_config.peers) {
    const std::string path = endpoint.substr(5);
    struct stat st{};
    while (::stat(path.c_str(), &st) != 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  dptd::net::SocketTransport network(net_config);

  CoordinatorConfig config;
  config.id = kCoordinatorId;
  config.num_objects = kObjects;
  config.block_size = kBlock;
  Coordinator coordinator(config, spec, network);
  for (std::size_t i = 0; i < num_shards; ++i) {
    coordinator.add_shard(kShardBase + i);
  }

  std::vector<dptd::net::NodeId> participants(kUdsUsers);
  for (std::size_t s = 0; s < kUdsUsers; ++s) participants[s] = s;

  double close_seconds = 0.0;
  double ingest_seconds = 0.0;
  std::size_t rounds = 0;
  std::size_t iterations = 0;
  std::size_t iteration_messages = 0;
  std::size_t iteration_bytes = 0;
  std::size_t round_bytes = 0;
  std::uint64_t round = 0;
  for (auto _ : state) {
    ++round;
    if (!coordinator.begin_round(round, participants)) {
      state.SkipWithError("begin_round failed");
      break;
    }

    dptd::Stopwatch ingest_timer;
    for (std::size_t user = 0; user < kUdsUsers; ++user) {
      coordinator.on_message(dptd::crowd::make_message(
          user, kCoordinatorId, dptd::crowd::MessageType::kReport,
          make_report(user, round).encode()));
      // Periodic pumping flushes routed reports into the shard sockets so
      // the coordinator's write queues stay bounded.
      if ((user & 0xfff) == 0xfff) network.run_until_idle();
    }
    network.run_until_idle();
    ingest_seconds += ingest_timer.elapsed_seconds();

    dptd::Stopwatch close_timer;
    const DistributedOutcome outcome = coordinator.close_round();
    close_seconds += close_timer.elapsed_seconds();
    if (!outcome.aggregated) {
      state.SkipWithError("round did not aggregate");
      break;
    }
    benchmark::DoNotOptimize(outcome.result.truths.data());
    ++rounds;
    iterations += outcome.result.iterations;
    iteration_messages += outcome.iteration_messages;
    iteration_bytes += outcome.iteration_bytes;
    round_bytes += outcome.network.bytes_sent;
  }

  for (std::size_t i = 0; i < num_shards; ++i) {
    network.send(dptd::crowd::make_message(
        kCoordinatorId, kShardBase + i, dptd::crowd::MessageType::kShutdown,
        {}));
  }
  network.run_until_idle();
  for (const pid_t pid : pids) {
    int status = 0;
    waitpid(pid, &status, 0);
  }
  std::filesystem::remove_all(dir);

  const auto per_round = [&](double total) {
    return rounds > 0 ? total / static_cast<double>(rounds) : 0.0;
  };
  const auto per_iteration = [&](std::size_t total) {
    return iterations > 0
               ? static_cast<double>(total) / static_cast<double>(iterations)
               : 0.0;
  };
  state.counters["iterations_per_sec"] = benchmark::Counter(
      close_seconds > 0.0 ? static_cast<double>(iterations) / close_seconds
                          : 0.0);
  state.counters["bytes_per_iteration"] =
      benchmark::Counter(per_iteration(iteration_bytes));
  state.counters["messages_per_iteration"] =
      benchmark::Counter(per_iteration(iteration_messages));
  state.counters["round_bytes"] =
      benchmark::Counter(per_round(static_cast<double>(round_bytes)));
  state.counters["ingest_seconds"] = benchmark::Counter(per_round(ingest_seconds));
  state.counters["close_seconds"] = benchmark::Counter(per_round(close_seconds));
  state.counters["td_iterations"] =
      benchmark::Counter(per_round(static_cast<double>(iterations)));
}
BENCHMARK(BM_DistributedRoundCrhUdsLoopback)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->ArgName("shards")
    ->Unit(benchmark::kSecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
