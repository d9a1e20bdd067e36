// The serving stacks a round runs on, the closed-loop round driver for each,
// and the generators of the workloads' report streams.
//
// Closed loop: one producer (this thread) hands each report over when the
// previous send returns, and makes transport progress every kPumpEvery
// reports. Reports are generated and encoded before the round starts.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "crowd/sharded_server.h"
#include "dist/coordinator.h"
#include "dist/shard_node.h"
#include "harness.h"
#include "net/network.h"
#include "net/simulator.h"
#include "net/socket_transport.h"

namespace dptd::bench {

/// One round as the driver saw it. Times are wall seconds.
struct RoundSample {
  double round_s = 0.0;   ///< round opened -> truths published
  double close_s = 0.0;   ///< last report handed over -> truths published
  double ingest_s = 0.0;  ///< first report handed over -> every report
                          ///< ingested and finalized
  double open_s = 0.0;        ///< the round-open call alone
  double close_call_s = 0.0;  ///< Coordinator::close_round alone
  double cpu_s = 0.0;         ///< driver plus shard processes
  double route_s = 0.0;       ///< inside Coordinator::on_message
  std::size_t reports = 0;    ///< handed over, duplicates included
  std::size_t accepted = 0;   ///< distinct reports ingested
  net::NetworkStats traffic;  ///< server-side transport, this round
  std::size_t iterations = 0;
  /// Iterations a cold in-process run needs on the same claims (0 = not
  /// measured).
  std::size_t cold_iterations = 0;
  /// truth_error of the published truths against the ground truth.
  double truth_error = 0.0;
  std::size_t iteration_messages = 0;
  std::size_t iteration_bytes = 0;
  std::size_t rpc_requests = 0;
  std::size_t resends = 0;
  std::size_t stale_responses = 0;
  std::size_t malformed_frames = 0;
  bool dist = false;     ///< ran on the Coordinator (dist fields are valid)
  bool sockets = false;  ///< ... over shard processes and UDS
  std::string problem;  ///< empty when the round is healthy
  truth::Result result;
};

/// Forwards to the round's truth-discovery method and timestamps the
/// run_sharded call the server makes once ingestion is drained and
/// finalized.
class TimedMethod final : public truth::TruthDiscovery {
 public:
  explicit TimedMethod(std::unique_ptr<truth::TruthDiscovery> inner)
      : inner_(std::move(inner)) {}

  truth::Result run(const data::ObservationMatrix& obs) const override {
    return inner_->run(obs);
  }
  truth::Result run_warm(const data::ObservationMatrix& obs,
                         const truth::WarmStart& warm) const override {
    return inner_->run_warm(obs, warm);
  }
  bool supports_warm_start() const override {
    return inner_->supports_warm_start();
  }
  truth::Result run_sharded(const data::ShardedMatrix& shards,
                            const truth::WarmStart& warm) const override;
  std::string name() const override { return inner_->name(); }

  double last_begin_s() const { return begin_s_; }

 private:
  std::unique_ptr<truth::TruthDiscovery> inner_;
  mutable double begin_s_ = 0.0;
};

/// In-process server stack: simulator Network (zero latency) behind the
/// bench transport, one crowd::ShardedServer with K = 3.
class ServerStack {
 public:
  ServerStack(const Stream& stream, bool warm_start);
  ServerStack(const ServerStack&) = delete;
  ServerStack& operator=(const ServerStack&) = delete;

  /// One round over `stream` (its encoded round number).
  RoundSample run_round(const Stream& stream);

 private:
  net::Simulator sim_;
  net::Network network_;
  BenchTransport edge_;
  TimedMethod* method_;  ///< owned by server_
  crowd::ShardedServer server_;
};

/// dist::Coordinator over K = 3 shards: in-process ShardNodes on a simulator
/// Network with the given one-way latency, or forked shard processes over
/// Unix-domain sockets (`socket_dir` non-empty).
class DistStack {
 public:
  DistStack(const Stream& stream, bool warm_start, double latency_s,
            const std::string& socket_dir);
  ~DistStack();
  DistStack(const DistStack&) = delete;
  DistStack& operator=(const DistStack&) = delete;

  /// One round. `via_network`: reports travel from their user ids over the
  /// transport to the coordinator; otherwise the driver hands each one to
  /// Coordinator::on_message and pumps the transport every kPumpEvery.
  RoundSample run_round(const Stream& stream, bool via_network);

  double peak_rss_mb() const;  ///< shard processes only

 private:
  std::unique_ptr<net::Simulator> sim_;
  std::unique_ptr<net::Network> network_;
  std::vector<std::unique_ptr<dist::ShardNode>> shards_;
  std::unique_ptr<ShardFleet> fleet_;
  std::unique_ptr<net::SocketTransport> socket_;
  std::unique_ptr<BenchTransport> bench_;
  std::unique_ptr<dist::Coordinator> coordinator_;
};

/// Coordinator method spec matching make_round_method(stream).
dist::MethodSpec round_method_spec(const Stream& stream);

/// The dist layer's per-layer metrics over Coordinator rounds; with
/// `fallback`, only those nothing has set yet.
void record_dist_layers(const std::vector<RoundSample>& samples,
                        MetricSet& metrics, bool fallback);

/// Device-side cost: perturbation (Algorithm 2 or k-RR) plus encoding,
/// summed over every upload the stream generators produce.
struct ClientTiming {
  double seconds = 0.0;
  std::size_t reports = 0;

  double us_per_report() const {
    return reports == 0 ? 0.0 : seconds * 1e6 / static_cast<double>(reports);
  }
};

/// 1,000,000 users x 1,000 objects x 6 claims on the strided object walk,
/// round 1. Continuous: truth + per-user quality noise, perturbed by
/// core::UserSampledGaussianMechanism (lambda2 = 1). Labels (L = 8): a
/// per-user error rate, then client-side k-RR via crowd::make_label_report
/// (keep 0.6). The one pass of device uploads is timed into `timing`.
Stream million_user_stream(std::uint64_t seed, bool labels,
                           ClientTiming& timing);

/// The multi-round campaign: 2,000 enrolled users x 100 objects x 6 claims
/// per round, 5% roster churn, 1% duplicate re-sends, truths drifting by
/// N(0, 0.05^2) per round, users of persistent quality.
class Campaign {
 public:
  explicit Campaign(std::uint64_t seed);
  Stream next_round(ClientTiming& timing);

 private:
  std::uint64_t seed_;
  Rng rng_;
  std::uint64_t round_ = 0;
  std::vector<net::NodeId> roster_;
  net::NodeId next_id_ = 0;
  std::vector<double> truths_;
};

/// Mean absolute error of `truths` against `ground_truth`; for label streams
/// the share of objects whose label is wrong.
double truth_error(const Stream& stream, const std::vector<double>& truths);

}  // namespace dptd::bench
