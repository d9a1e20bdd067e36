#include "crowd/campaign.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>

#include "common/check.h"
#include "common/distributions.h"
#include "common/statistics.h"
#include "crowd/sharded_server.h"
#include "truth/registry.h"

namespace dptd::crowd {

double CampaignResult::mean_mae_vs_truth() const {
  RunningStats stats;
  for (const RoundRecord& record : rounds) {
    if (std::isfinite(record.mae_vs_truth)) stats.add(record.mae_vs_truth);
  }
  return stats.count() > 0 ? stats.mean()
                           : std::numeric_limits<double>::quiet_NaN();
}

double CampaignResult::mean_iterations() const {
  RunningStats stats;
  for (const RoundRecord& record : rounds) {
    if (record.iterations > 0) {
      stats.add(static_cast<double>(record.iterations));
    }
  }
  return stats.count() > 0 ? stats.mean()
                           : std::numeric_limits<double>::quiet_NaN();
}

std::size_t CampaignResult::total_reports() const {
  std::size_t total = 0;
  for (const RoundRecord& record : rounds) total += record.reports_received;
  return total;
}

CampaignResult run_campaign(const CampaignConfig& config) {
  const SessionConfig& session = config.session;
  DPTD_REQUIRE(config.num_rounds > 0, "run_campaign: need >= 1 round");
  DPTD_REQUIRE(config.churn_probability >= 0.0 &&
                   config.churn_probability < 1.0,
               "run_campaign: churn_probability must be in [0,1)");
  session.validate();
  DPTD_REQUIRE(!config.drifting_truths || config.truth_drift_stddev >= 0.0,
               "run_campaign: negative truth_drift_stddev");
  for (const std::size_t k : config.shard_schedule) {
    DPTD_REQUIRE(k > 0, "run_campaign: shard_schedule entries must be >= 1");
  }

  const std::size_t S = config.workload.num_users;
  const std::size_t N = config.workload.num_objects;

  // Persistent fleet: one simulator, network, server, and device per user for
  // the whole campaign. Rounds re-task the fleet instead of rebuilding it.
  net::Simulator sim;
  net::Network network(sim, session.latency, derive_seed(config.seed, 0xfe7));

  // Elastic campaigns resize the server before each round opens. Round
  // outcomes are bitwise identical for every K at equal canonical block
  // size, so the knobs only change how the service scales.
  ServerConfig server_config = session.server_config(N);
  server_config.warm_start = config.warm_start;
  ShardedServer server(server_config,
                       truth::make_method(session.method, session.convergence),
                       network);

  std::vector<std::unique_ptr<UserDevice>> devices;
  std::vector<net::NodeId> user_ids;
  devices.reserve(S);
  user_ids.reserve(S);
  for (std::size_t s = 0; s < S; ++s) {
    DeviceConfig dc;
    dc.id = s;
    dc.server_id = server_config.id;
    dc.think_time_seconds = 0.0;
    dc.constant_value = 0.0;  // kConstantLiar payload, as in run_session
    devices.push_back(std::make_unique<UserDevice>(
        dc, std::vector<std::uint64_t>{}, std::vector<double>{}, network));
    user_ids.push_back(s);
  }

  // No-noise per-round reference aggregation (always cold), when requested.
  const auto reference_method =
      config.compute_reference_mae
          ? truth::make_method(session.method, session.convergence)
          : nullptr;

  Rng churn_rng(derive_seed(config.seed, 0xc4u));
  Rng think_rng(derive_seed(config.seed, 0x714e4));
  Rng drift_rng(derive_seed(config.seed, 0xd21f7));

  const auto num_adversaries = static_cast<std::size_t>(
      std::floor(session.adversary_fraction * static_cast<double>(S)));

  CampaignResult result;
  // Drift-mode state carried across rounds: truths move by a Gaussian step,
  // per-user error variances persist (a device's sensor quality is a
  // property of the device, not of the round).
  std::vector<double> truths;
  std::vector<double> user_variances;
  net::NetworkStats stats_before;

  for (std::size_t round = 0; round < config.num_rounds; ++round) {
    data::SyntheticConfig workload = config.workload;
    workload.seed = derive_seed(config.seed, round, 0xda7a);

    data::Dataset dataset;
    if (config.drifting_truths && !truths.empty()) {
      // Slowly moving world: last round's truths plus a small Gaussian step,
      // same device fleet quality as round 0.
      for (double& t : truths) {
        t += normal(drift_rng, 0.0, config.truth_drift_stddev);
      }
      dataset = data::generate_synthetic_round(workload, truths,
                                               user_variances);
    } else {
      dataset = data::generate_synthetic(workload);
      if (config.drifting_truths) {
        truths = dataset.ground_truth;
        user_variances.resize(S);
        for (std::size_t s = 0; s < S; ++s) {
          user_variances[s] = dataset.provenance[s].error_variance;
        }
      }
    }

    // Churn: re-draw this round's dropout block on top of the static
    // fraction, clamped against the remaining honest mass so that
    // adversaries + dropouts never consume the whole fleet. In roster mode
    // the churn draws instead remove the churned devices from this round's
    // participant list entirely (a partial fleet).
    std::size_t num_dropouts = static_cast<std::size_t>(
        std::floor(session.dropout_fraction * static_cast<double>(S)));
    std::vector<char> churned;  // per-user flags, roster mode only
    if (config.churn_probability > 0.0) {
      if (config.roster_churn) churned.assign(S, 0);
      for (std::size_t s = 0; s < S; ++s) {
        if (!bernoulli(churn_rng, config.churn_probability)) continue;
        if (config.roster_churn) {
          churned[s] = 1;
        } else {
          ++num_dropouts;
        }
      }
    }
    num_dropouts = std::min(num_dropouts, S - num_adversaries - 1);
    std::vector<net::NodeId> churn_roster;
    if (!churned.empty()) {
      // At least one honest device must stay enrolled; the clamp above
      // guarantees user S-1 sits in the honest block.
      bool any_honest = false;
      for (std::size_t s = num_adversaries + num_dropouts; s < S; ++s) {
        if (!churned[s]) {
          any_honest = true;
          break;
        }
      }
      if (!any_honest) churned[S - 1] = 0;
      for (std::size_t s = 0; s < S; ++s) {
        if (!churned[s]) churn_roster.push_back(user_ids[s]);
      }
    }
    // The common full-fleet path (churn off, or behaviour-only churn) hands
    // the persistent id list straight through — no per-round copy of a
    // million-entry roster.
    const std::vector<net::NodeId>& round_ids =
        churned.empty() ? user_ids : churn_roster;

    // Re-task the fleet: fresh readings, per-round noise streams, re-drawn
    // behaviours and think times. Mirrors the session layer's assignment:
    // adversaries take the lowest ids, dropouts the next block.
    const std::uint64_t round_seed = derive_seed(config.seed, round, 0x5e55);
    for (std::size_t s = 0; s < S; ++s) {
      UserDevice& device = *devices[s];
      DeviceReadings claims = device_readings(dataset.observations, s);
      device.retask(std::move(claims.objects), std::move(claims.readings),
                    derive_seed(round_seed, 0xd371c3, s));
      device.set_think_time(
          session.mean_think_time_seconds > 0.0
              ? exponential(think_rng, 1.0 / session.mean_think_time_seconds)
              : 0.0);
      if (s < num_adversaries) {
        device.set_behavior(session.adversary_behavior);
      } else if (s < num_adversaries + num_dropouts) {
        device.set_behavior(DeviceBehavior::kDropout);
      } else {
        device.set_behavior(DeviceBehavior::kHonest);
      }
    }

    if (!config.shard_schedule.empty()) {
      const std::size_t idx =
          std::min(round, config.shard_schedule.size() - 1);
      server.set_num_shards(config.shard_schedule[idx]);
    }
    server.start_round(round, round_ids);
    sim.run();

    DPTD_CHECK(!server.outcomes().empty(),
               "run_campaign: no round outcome recorded");
    const RoundOutcome& outcome = server.outcomes().back();

    RoundRecord record;
    record.round = round;
    record.reports_received = outcome.reports_received;
    record.reports_expected = outcome.reports_expected;
    record.reports_rejected = outcome.reports_rejected;
    record.duplicates_ignored = outcome.duplicates_ignored;
    record.iterations = outcome.result.iterations;
    record.converged = outcome.result.converged;
    record.warm_started = outcome.warm_started;
    record.truths = outcome.result.truths;

    // Per-round traffic: the network accumulates across the campaign, so
    // record the delta against the previous round's snapshot.
    const net::NetworkStats& stats_after = network.stats();
    record.network = stats_after.since(stats_before);
    stats_before = stats_after;

    if (!outcome.result.truths.empty()) {
      record.mae_vs_truth = mean_absolute_error(outcome.result.truths,
                                                dataset.ground_truth);
      if (reference_method != nullptr) {
        const truth::Result reference =
            reference_method->run(dataset.observations);
        record.mae_vs_unperturbed =
            mean_absolute_error(outcome.result.truths, reference.truths);
      } else {
        record.mae_vs_unperturbed = std::numeric_limits<double>::quiet_NaN();
      }
    } else {
      record.mae_vs_truth = std::numeric_limits<double>::quiet_NaN();
      record.mae_vs_unperturbed = std::numeric_limits<double>::quiet_NaN();
    }
    result.rounds.push_back(std::move(record));
  }
  return result;
}

}  // namespace dptd::crowd
