// Sharded aggregation server: consistent user → shard routing in front of K
// independent ingestion shards, each owning an incrementally built sparse
// sub-matrix of its users' reports, with a coordinator that closes the round
// and reduces per-shard sufficient statistics through
// truth::TruthDiscovery::run_sharded.
//
// Routing follows data::ShardPlan (canonical user blocks split contiguously
// across shards), so for any shard count the published truths are bitwise
// identical to what the single-server CrowdServer computes at the same
// canonical block size. Dedup and byzantine accounting happen per shard
// (a duplicate re-send always lands on the same shard as the original) and
// are rolled up into RoundOutcome.
//
// Ingestion runs in one of two modes selected by ServerConfig::ingest_threads:
// synchronous (0: decode + dedup + append inline on the network thread, the
// original path) or pipelined (N >= 1: the network thread peeks the report
// header, routes, and copies the raw payload into its worker's batch, handed
// over a batch at a time onto a bounded queue; worker threads owning the
// shard builders do the expensive decode/sanitize/append — see
// crowd::IngestPipeline). The two modes produce bitwise-identical matrices:
// each shard's queue is FIFO from the single network thread. Round close
// drains every queue behind a barrier before finalizing.
//
// Same threat model and wire protocol as CrowdServer: the server sees only
// perturbed reports, malformed or byzantine reports are dropped or sanitized
// and counted, and the round closes early on distinct reporters across all
// shards — duplicate re-sends never inflate the count.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "crowd/ingest_pipeline.h"
#include "crowd/protocol.h"
#include "crowd/server.h"
#include "data/builder.h"
#include "data/sharding.h"
#include "net/transport.h"
#include "truth/interface.h"

namespace dptd::crowd {

class ShardedServer final : public net::Node {
 public:
  /// `config.num_shards` requests the shard count; each round it is clamped
  /// to the number of canonical user blocks of that round's participant set
  /// (see data::ShardPlan::create).
  ShardedServer(ServerConfig config,
                std::unique_ptr<truth::TruthDiscovery> method,
                net::Transport& network);

  void on_message(const net::Message& message) override;

  /// Announces round `round` to `user_ids` and schedules the aggregation
  /// deadline, exactly like CrowdServer::start_round. The server is
  /// persistent across rounds.
  void start_round(std::uint64_t round,
                   const std::vector<net::NodeId>& user_ids);

  /// Elastic scaling: changes the requested shard count, effective from the
  /// next start_round (results are bitwise K-invariant at equal
  /// stats_block_size, so resizing between rounds never perturbs published
  /// truths). Must not be called while a round is open.
  void set_num_shards(std::size_t num_shards);

  const std::vector<RoundOutcome>& outcomes() const { return outcomes_; }
  const ServerConfig& config() const { return config_; }
  /// The open (or most recent) round's routing plan, for tests and ops.
  const data::ShardPlan& plan() const { return plan_; }

 private:
  void finish_round();
  void ingest_report_serial(const Report& report);
  void ingest_label_report_serial(const LabelReport& report);

  ServerConfig config_;
  std::unique_ptr<truth::TruthDiscovery> method_;
  net::Transport* network_;

  std::uint64_t current_round_ = 0;
  bool round_open_ = false;
  std::vector<net::NodeId> participants_;
  ParticipantIndex index_;
  /// Per-shard streaming ingestion state for the open round. Synchronous
  /// mode owns the builders/stats here; pipelined mode delegates both to the
  /// worker threads inside `pipeline_`.
  data::ShardPlan plan_;
  std::vector<data::ObservationMatrixBuilder> builders_;
  std::vector<ShardIngestStats> shard_stats_;
  std::optional<IngestPipeline> pipeline_;
  std::size_t distinct_reporters_ = 0;  ///< synchronous mode (exact, inline)
  /// Pipelined mode: rows the producer has already enqueued this round.
  /// First submission of a row is the only event that can complete the
  /// roster, so the early-close drain barrier runs at most once per round —
  /// duplicate floods never re-trigger it.
  std::vector<char> submitted_rows_;
  std::size_t producer_distinct_ = 0;
  std::size_t unroutable_rejected_ = 0; ///< unknown user / undecodable header
  WarmState warm_;
  std::vector<RoundOutcome> outcomes_;
};

/// Owns whichever server ServerConfig selects (CrowdServer for the
/// single-shard synchronous path, ShardedServer when shards or ingest
/// workers are requested) behind one start_round / outcomes surface, so
/// orchestration code (run_session, run_campaign) never branches on the
/// scaling knobs itself.
class RoundServer {
 public:
  RoundServer(const ServerConfig& config,
              std::unique_ptr<truth::TruthDiscovery> method,
              net::Transport& network) {
    if (config.num_shards > 1 || config.ingest_threads > 0) {
      sharded_.emplace(config, std::move(method), network);
    } else {
      flat_.emplace(config, std::move(method), network);
    }
  }

  void start_round(std::uint64_t round,
                   const std::vector<net::NodeId>& user_ids) {
    if (sharded_) {
      sharded_->start_round(round, user_ids);
    } else {
      flat_->start_round(round, user_ids);
    }
  }

  /// Elastic scaling passthrough; a flat server only accepts K <= 1.
  void set_num_shards(std::size_t num_shards);

  const std::vector<RoundOutcome>& outcomes() const {
    return sharded_ ? sharded_->outcomes() : flat_->outcomes();
  }

 private:
  std::optional<CrowdServer> flat_;
  std::optional<ShardedServer> sharded_;
};

}  // namespace dptd::crowd
