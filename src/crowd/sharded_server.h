// The aggregation server: consistent user → shard routing in front of K
// independent ingestion shards, each a ShardIngestor owning an incrementally
// built sparse sub-matrix of its users' reports, with a coordinator that
// closes the round and reduces per-shard sufficient statistics through
// truth::TruthDiscovery::run_sharded. K = 1 at zero ingest workers is the
// flat, single-shard server. The announce and the ResultPublish are each
// encoded once and fanned out (crowd::fan_out) as messages sharing that
// buffer.
//
// Routing follows data::ShardPlan (canonical user blocks split contiguously
// across shards), so for any shard count the published truths are bitwise
// identical to the K = 1 server's at the same canonical block size. Dedup and
// byzantine accounting happen per shard (a duplicate re-send always lands on
// the same shard as the original) and are rolled up into RoundOutcome.
//
// The network thread routes on the header: one O(1) peek reads round + user,
// a stale round is ignored, and an undecodable header or an unknown user is
// rejected before any shard sees it. Every routed report then goes through
// the server's one crowd::IngestPipeline, whose owning shard's ingestor
// decodes it. ServerConfig::ingest_threads is the pipeline's worker count:
// at 0 the ingestor runs on the network thread inside the submit, at N >= 1
// on the worker owning the shard. Each shard ingests in arrival order either
// way, so the matrices and counters are the same for every worker count.
// Round close drains the pipeline before finalizing.
//
// The server sees only perturbed reports, malformed or byzantine reports are
// dropped or sanitized and counted, and the round closes early on distinct
// reporters across all shards — duplicate re-sends never inflate the count.
// Only a row's first submission can complete the roster, so a roster that
// only a valid re-send after a rejected first upload completes waits for
// its deadline.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "crowd/ingest_pipeline.h"
#include "crowd/protocol.h"
#include "crowd/server.h"
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
  /// deadline. Results are available from `outcomes()` after the transport
  /// drains. The server is persistent: call again for each round of a
  /// campaign once the previous round has closed.
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

  ServerConfig config_;
  std::unique_ptr<truth::TruthDiscovery> method_;
  net::Transport* network_;

  std::uint64_t current_round_ = 0;
  bool round_open_ = false;
  std::vector<net::NodeId> participants_;
  ParticipantIndex index_;
  data::ShardPlan plan_;
  /// The open round's per-shard ingestion, with ingest_threads workers.
  IngestPipeline pipeline_;
  /// Rows submitted to the pipeline this round. First submission of a row
  /// is the only event that can complete the roster, so the early-close
  /// drain barrier runs at most once per round — duplicate floods never
  /// re-trigger it.
  std::vector<char> submitted_rows_;
  std::size_t producer_distinct_ = 0;  ///< rows set in submitted_rows_
  /// Rejects no shard saw: wrong kind, undecodable header, unknown user.
  std::size_t unroutable_rejected_ = 0;
  WarmState warm_;
  std::vector<RoundOutcome> outcomes_;
};

}  // namespace dptd::crowd
