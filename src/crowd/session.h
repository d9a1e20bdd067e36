// One-call orchestration of a full crowd sensing round over the simulated
// network: builds a server and one device per dataset user, runs the
// discrete-event simulation to completion, and returns the aggregation
// outcome together with network statistics.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "crowd/device.h"
#include "crowd/server.h"
#include "data/dataset.h"
#include "net/network.h"

namespace dptd::crowd {

struct SessionConfig {
  double lambda2 = 1.0;
  std::string method = "crh";
  truth::ConvergenceCriteria convergence;
  net::LatencyModel latency;
  double collection_window_seconds = 30.0;
  double mean_think_time_seconds = 0.5;

  /// Ingestion/aggregation shards of the crowd::ShardedServer (results are
  /// bitwise identical for every value at equal stats_block_size).
  std::size_t num_shards = 1;
  /// Canonical sufficient-statistics block size for the sharded path.
  std::size_t stats_block_size = data::kDefaultStatsBlockSize;
  /// Parallel ingestion workers (see ServerConfig::ingest_threads): 0 keeps
  /// ingestion synchronous; N >= 1 pipelines decode/dedup/append across
  /// min(N, num_shards) worker threads. Results are bitwise identical for
  /// every value.
  std::size_t ingest_threads = 0;

  /// Fractions of users replaced by non-honest behaviours (applied to the
  /// lowest user ids, mirroring data::SyntheticConfig).
  double dropout_fraction = 0.0;
  double adversary_fraction = 0.0;
  DeviceBehavior adversary_behavior = DeviceBehavior::kConstantLiar;

  std::uint64_t seed = 17;
};

struct SessionResult {
  RoundOutcome round;              ///< aggregation outcome
  net::NetworkStats network;       ///< traffic accounting
  double sim_duration_seconds = 0; ///< virtual time at drain
  /// delta_s^2 sampled by each honest device this round (index = user id;
  /// NaN for devices that did not sample).
  std::vector<double> sampled_variances;
};

/// Runs one round of Algorithm 2 over the simulated network. The dataset's
/// observations are the devices' private readings.
SessionResult run_session(const data::Dataset& dataset,
                          const SessionConfig& config);

}  // namespace dptd::crowd
