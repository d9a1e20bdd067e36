// Multi-process distributed truth discovery over real sockets.
//
// One binary, two roles. Shards serve their slice of the users over a UDS or
// TCP listener; the coordinator connects to every shard, drives one protocol
// round per --rounds, and prints a bit-exact digest of the published truths
// and weights — the same digest an in-process simulator fleet (--transport=sim)
// prints at the same K, which is the whole point.
//
// A 2-shard UDS deployment on one machine:
//
//   dptd_example_dist_node --role=shard --id=1000 --listen=unix:/tmp/s0.sock &
//   dptd_example_dist_node --role=shard --id=1001 --listen=unix:/tmp/s1.sock &
//   dptd_example_dist_node --role=coordinator --method=crh --users=64
//       --objects=8 --rounds=2
//       --shards=1000=unix:/tmp/s0.sock,1001=unix:/tmp/s1.sock
//
// The coordinator sends every shard a shutdown message when it finishes, so
// the backgrounded shard processes exit on their own (and a forgotten shard
// exits anyway after --idle-timeout seconds).
#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "categorical/synthetic.h"
#include "common/cli.h"
#include "data/synthetic.h"
#include "dist/coordinator.h"
#include "dist/shard_node.h"
#include "net/network.h"
#include "net/socket_transport.h"

namespace {

using namespace dptd;

/// FNV-1a over the raw IEEE-754 bits: two runs print the same digest iff
/// every truth and weight is bitwise identical.
std::uint64_t bit_digest(const std::vector<double>& values,
                         std::uint64_t hash = 14695981039346656037ull) {
  for (const double value : values) {
    std::uint64_t bits = std::bit_cast<std::uint64_t>(value);
    for (int i = 0; i < 8; ++i) {
      hash ^= bits & 0xFF;
      hash *= 1099511628211ull;
      bits >>= 8;
    }
  }
  return hash;
}

dist::MethodSpec spec_for(const std::string& name, std::size_t num_labels) {
  dist::MethodSpec spec;
  if (name == "crh") {
    spec.kind = dist::MethodSpec::Kind::kCrh;
  } else if (name == "gtm") {
    spec.kind = dist::MethodSpec::Kind::kGtm;
  } else if (name == "catd") {
    spec.kind = dist::MethodSpec::Kind::kCatd;
  } else if (name == "mean") {
    spec.kind = dist::MethodSpec::Kind::kMean;
  } else if (name == "median") {
    spec.kind = dist::MethodSpec::Kind::kMedian;
  } else if (name == "majority") {
    spec.kind = dist::MethodSpec::Kind::kMajority;
    spec.majority.num_labels = num_labels;
  } else if (name == "vote") {
    spec.kind = dist::MethodSpec::Kind::kVote;
    spec.vote.num_labels = num_labels;
  } else {
    throw std::invalid_argument("unknown --method: " + name);
  }
  return spec;
}

/// "--shards=1000=unix:/tmp/s0.sock,1001=tcp:10.0.0.2:9100" -> peer table.
std::unordered_map<net::NodeId, std::string> parse_shards(
    const std::string& spec) {
  std::unordered_map<net::NodeId, std::string> peers;
  std::size_t start = 0;
  while (start < spec.size()) {
    std::size_t end = spec.find(',', start);
    if (end == std::string::npos) end = spec.size();
    const std::string entry = spec.substr(start, end - start);
    const std::size_t eq = entry.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 >= entry.size()) {
      throw std::invalid_argument("--shards entry must be id=endpoint: " +
                                  entry);
    }
    peers[static_cast<net::NodeId>(std::stoull(entry.substr(0, eq)))] =
        entry.substr(eq + 1);
    start = end + 1;
  }
  if (peers.empty()) throw std::invalid_argument("--shards is empty");
  return peers;
}

constexpr net::NodeId kCoordinatorId = 9'000'000;

/// The deterministic synthetic workload every process derives locally from
/// (--seed, --users, --objects): the coordinator needs the claims to inject,
/// and nothing else needs to agree out of band.
data::Dataset workload(std::uint64_t seed, std::size_t users,
                       std::size_t objects) {
  data::SyntheticConfig config;
  config.num_users = users;
  config.num_objects = objects;
  config.missing_rate = 0.3;
  config.lambda1 = 1.0;
  config.seed = seed;
  return data::generate_synthetic(config);
}

void inject_reports(dist::Coordinator& coordinator,
                    const data::Dataset& dataset, std::uint64_t round) {
  for (std::size_t s = 0; s < dataset.num_users(); ++s) {
    const auto entries = dataset.observations.user_entries(s);
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

/// Categorical twin of workload(): the label claims every process can derive
/// locally from the same flags.
categorical::LabelDataset label_workload(std::uint64_t seed, std::size_t users,
                                         std::size_t objects,
                                         std::size_t labels) {
  categorical::CategoricalConfig config;
  config.num_users = users;
  config.num_objects = objects;
  config.num_labels = labels;
  config.missing_rate = 0.3;
  config.seed = seed;
  return categorical::generate_categorical(config);
}

void inject_label_reports(dist::Coordinator& coordinator,
                          const categorical::LabelDataset& dataset,
                          std::uint64_t round) {
  for (std::size_t s = 0; s < dataset.claims.num_users(); ++s) {
    const auto entries = dataset.claims.user_entries(s);
    if (entries.empty()) continue;
    crowd::LabelReport report;
    report.round = round;
    report.user_id = s;
    for (const auto& entry : entries) {
      report.objects.push_back(entry.object);
      report.labels.push_back(static_cast<categorical::Label>(entry.value));
    }
    coordinator.on_message(crowd::make_message(report.user_id, kCoordinatorId,
                                               crowd::MessageType::kLabelReport,
                                               report.encode()));
  }
}

int run_shard(const CliParser& cli) {
  net::SocketTransportConfig config;
  config.listen = cli.get_string("listen");
  if (config.listen.empty()) {
    std::fprintf(stderr, "--role=shard requires --listen\n");
    return 1;
  }
  net::SocketTransport transport(config);
  dist::ShardNode node(static_cast<net::NodeId>(cli.get_int("id")),
                       transport);
  std::printf("shard %lld serving on %s\n",
              static_cast<long long>(cli.get_int("id")),
              transport.listen_endpoint().c_str());
  std::fflush(stdout);

  dist::ShardServiceConfig service;
  service.idle_timeout_seconds = cli.get_double("idle-timeout");
  const bool shut_down = dist::serve_shard(transport, node, service);
  std::printf("shard %lld exiting (%s); stale=%zu malformed=%zu\n",
              static_cast<long long>(cli.get_int("id")),
              shut_down ? "shutdown" : "idle timeout", node.stale_requests(),
              node.malformed_messages());
  return 0;
}

int run_rounds(net::Transport& transport, const CliParser& cli,
               const std::vector<net::NodeId>& shard_ids) {
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  const auto users = static_cast<std::size_t>(cli.get_int("users"));
  const auto objects = static_cast<std::size_t>(cli.get_int("objects"));
  const auto labels = static_cast<std::size_t>(cli.get_int("labels"));
  const dist::MethodSpec spec = spec_for(cli.get_string("method"), labels);

  // Every process derives the same workload locally from the flags; only the
  // coordinator injects it (as kReport or kLabelReport uploads by kind).
  std::optional<data::Dataset> dataset;
  std::optional<categorical::LabelDataset> label_dataset;
  if (spec.categorical()) {
    label_dataset = label_workload(seed, users, objects, labels);
  } else {
    dataset = workload(seed, users, objects);
  }

  dist::CoordinatorConfig config;
  config.id = kCoordinatorId;
  config.num_objects = objects;
  config.block_size = static_cast<std::size_t>(cli.get_int("block"));
  dist::Coordinator coordinator(config, spec, transport);
  for (const net::NodeId id : shard_ids) coordinator.add_shard(id);

  std::vector<net::NodeId> participants;
  for (std::size_t s = 0; s < users; ++s) participants.push_back(s);

  const auto rounds = static_cast<std::uint64_t>(cli.get_int("rounds"));
  for (std::uint64_t round = 1; round <= rounds; ++round) {
    if (!coordinator.begin_round(round, participants)) {
      std::fprintf(stderr, "round %llu: no shard survived setup\n",
                   static_cast<unsigned long long>(round));
      return 1;
    }
    if (label_dataset.has_value()) {
      inject_label_reports(coordinator, *label_dataset, round);
    } else {
      inject_reports(coordinator, *dataset, round);
    }
    const dist::DistributedOutcome outcome = coordinator.close_round();
    if (!outcome.completed) {
      std::fprintf(stderr, "round %llu: failed (shard %llu)\n",
                   static_cast<unsigned long long>(round),
                   static_cast<unsigned long long>(
                       outcome.failed_shard.value_or(0)));
      return 1;
    }
    std::printf(
        "round %llu: K=%zu iters=%zu truths=%016llx weights=%016llx "
        "msgs=%zu bytes=%zu resends=%zu\n",
        static_cast<unsigned long long>(round), outcome.shard_stats.size(),
        outcome.result.iterations,
        static_cast<unsigned long long>(bit_digest(outcome.result.truths)),
        static_cast<unsigned long long>(bit_digest(outcome.result.weights)),
        outcome.network.messages_sent, outcome.network.bytes_sent,
        outcome.resends);
  }
  return 0;
}

int run_coordinator(const CliParser& cli) {
  if (cli.get_string("transport") == "sim") {
    // In-process reference fleet: same K, same digests as the socket run.
    const auto k = static_cast<std::size_t>(cli.get_int("sim-shards"));
    net::Simulator sim;
    net::Network network(sim, net::LatencyModel{0.01, 0.0, 0.0}, 7);
    std::vector<std::unique_ptr<dist::ShardNode>> shards;
    std::vector<net::NodeId> ids;
    for (std::size_t i = 0; i < k; ++i) {
      ids.push_back(1000 + i);
      shards.push_back(std::make_unique<dist::ShardNode>(1000 + i, network));
    }
    return run_rounds(network, cli, ids);
  }

  net::SocketTransportConfig config;
  config.peers = parse_shards(cli.get_string("shards"));
  std::vector<net::NodeId> ids;
  for (const auto& [id, endpoint] : config.peers) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  net::SocketTransport transport(config);
  const int status = run_rounds(transport, cli, ids);

  // Tell every shard process to exit, and flush the frames out.
  for (const net::NodeId id : ids) {
    transport.send(crowd::make_message(kCoordinatorId, id,
                                       crowd::MessageType::kShutdown, {}));
  }
  transport.run_until_idle();
  transport.drain_for(transport.drain_window_seconds());
  return status;
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli(
      "Distributed truth discovery across OS processes over TCP/UDS sockets. "
      "Run one --role=shard process per shard, then one --role=coordinator "
      "pointing at all of them; digests are bit-exact across transports.");
  cli.add_string("role", "coordinator", "coordinator | shard");
  cli.add_string("transport", "socket",
                 "coordinator only: socket | sim (in-process reference)");
  cli.add_int("id", 1000, "shard only: node id to serve");
  cli.add_string("listen", "", "shard only: unix:/path or tcp:ip:port");
  cli.add_double("idle-timeout", 600.0,
                 "shard only: exit after this many idle seconds (0 = never)");
  cli.add_string("shards", "",
                 "coordinator only: comma-separated id=endpoint routes");
  cli.add_int("sim-shards", 2, "coordinator --transport=sim only: fleet size");
  cli.add_string("method", "crh",
                 "crh | gtm | catd | mean | median | majority | vote");
  cli.add_int("users", 64, "synthetic workload: number of users");
  cli.add_int("objects", 8, "synthetic workload: number of objects");
  cli.add_int("labels", 4,
              "majority/vote only: label alphabet of the synthetic workload");
  cli.add_int("rounds", 1, "protocol rounds to run");
  cli.add_int("seed", 7, "synthetic workload seed");
  cli.add_int("block", 8,
              "stats block size (same value on both transports for bit "
              "equality; small blocks let small fleets split across shards)");

  try {
    if (!cli.parse(argc, argv)) return 0;
    const std::string role = cli.get_string("role");
    if (role == "shard") return run_shard(cli);
    if (role == "coordinator") return run_coordinator(cli);
    std::fprintf(stderr, "unknown --role: %s\n", role.c_str());
    return 1;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
}
