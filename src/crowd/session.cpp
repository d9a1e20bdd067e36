#include "crowd/session.h"

#include <cmath>
#include <limits>
#include <memory>

#include "common/check.h"
#include "common/distributions.h"
#include "crowd/sharded_server.h"
#include "truth/registry.h"

namespace dptd::crowd {

void SessionConfig::validate() const {
  DPTD_REQUIRE(dropout_fraction >= 0.0 && dropout_fraction < 1.0,
               "SessionConfig: dropout_fraction must be in [0,1)");
  DPTD_REQUIRE(adversary_fraction >= 0.0 && adversary_fraction < 1.0,
               "SessionConfig: adversary_fraction must be in [0,1)");
  DPTD_REQUIRE(dropout_fraction + adversary_fraction < 1.0,
               "SessionConfig: dropouts + adversaries must leave honest users");
  DPTD_REQUIRE(mean_think_time_seconds >= 0.0,
               "SessionConfig: negative think time");
}

ServerConfig SessionConfig::server_config(std::size_t num_objects) const {
  ServerConfig config;
  config.lambda2 = lambda2;
  config.collection_window_seconds = collection_window_seconds;
  config.num_objects = num_objects;
  config.num_shards = num_shards;
  config.stats_block_size = stats_block_size;
  config.ingest_threads = ingest_threads;
  return config;
}

DeviceReadings device_readings(const data::ObservationMatrix& observations,
                               std::size_t user) {
  DeviceReadings out;
  const auto row = observations.user_entries(user);
  out.objects.reserve(row.size());
  out.readings.reserve(row.size());
  for (const auto& e : row) {
    out.objects.push_back(e.object);
    out.readings.push_back(e.value);
  }
  return out;
}

SessionResult run_session(const data::Dataset& dataset,
                          const SessionConfig& config) {
  dataset.validate();
  config.validate();

  const std::size_t S = dataset.num_users();
  const std::size_t N = dataset.num_objects();

  net::Simulator sim;
  net::Network network(sim, config.latency, derive_seed(config.seed, 0xfe7));

  // num_shards > 1 routes ingestion across K shard ingestors (and
  // ingest_threads > 0 pipelines it across workers); aggregation is bitwise
  // identical either way (same canonical block size).
  const ServerConfig server_config = config.server_config(N);
  ShardedServer server(server_config,
                       truth::make_method(config.method, config.convergence),
                       network);

  // Behaviour assignment: adversaries take the lowest ids, dropouts the next
  // block, everyone else honest (deterministic, mirrors data::synthetic).
  const auto num_adversaries = static_cast<std::size_t>(
      std::floor(config.adversary_fraction * static_cast<double>(S)));
  const auto num_dropouts = static_cast<std::size_t>(
      std::floor(config.dropout_fraction * static_cast<double>(S)));

  Rng think_rng(derive_seed(config.seed, 0x714e4));
  std::vector<std::unique_ptr<UserDevice>> devices;
  std::vector<net::NodeId> user_ids;
  devices.reserve(S);
  user_ids.reserve(S);

  for (std::size_t s = 0; s < S; ++s) {
    DeviceReadings claims = device_readings(dataset.observations, s);
    DeviceConfig dc;
    dc.id = s;
    dc.server_id = server_config.id;
    dc.seed = derive_seed(config.seed, 0xd371c3, s);
    dc.think_time_seconds =
        config.mean_think_time_seconds > 0.0
            ? exponential(think_rng, 1.0 / config.mean_think_time_seconds)
            : 0.0;
    if (s < num_adversaries) {
      dc.behavior = config.adversary_behavior;
      dc.constant_value = 0.0;
    } else if (s < num_adversaries + num_dropouts) {
      dc.behavior = DeviceBehavior::kDropout;
    }
    devices.push_back(std::make_unique<UserDevice>(
        dc, std::move(claims.objects), std::move(claims.readings), network));
    user_ids.push_back(s);
  }

  server.start_round(1, user_ids);
  sim.run();

  SessionResult result;
  DPTD_CHECK(!server.outcomes().empty(), "session: no round outcome recorded");
  result.round = server.outcomes().back();
  result.network = network.stats();
  result.sim_duration_seconds = sim.now();
  result.sampled_variances.assign(S,
                                  std::numeric_limits<double>::quiet_NaN());
  for (std::size_t s = 0; s < S; ++s) {
    if (const auto v = devices[s]->sampled_variance()) {
      result.sampled_variances[s] = *v;
    }
  }
  return result;
}

}  // namespace dptd::crowd
