// The untrusted aggregation server: announces tasks with the lambda2
// hyper-parameter, collects perturbed reports until a deadline, runs a
// truth-discovery method over whatever arrived, and publishes results. The
// announce and the ResultPublish are each encoded once and fanned out
// (crowd::fan_out) as messages sharing that buffer.
//
// Reports are ingested as they arrive: each one is decoded, sanitized, and
// folded into an incremental ObservationMatrixBuilder (deduplicated by user
// id), so the deadline event only finalizes the matrix instead of assembling
// it in one burst. Malformed or byzantine reports (unknown user id,
// undecodable payload) are dropped and counted — one bad report never kills
// the server.
//
// The server never sees raw readings or per-user variances — only perturbed
// reports — matching the paper's threat model.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "crowd/protocol.h"
#include "data/builder.h"
#include "data/dataset.h"
#include "data/sharding.h"
#include "net/transport.h"
#include "truth/interface.h"

namespace dptd::crowd {

/// Categorical-round ingestion policy, shared verbatim by CrowdServer, the
/// ShardedServer serial path, and the IngestPipeline workers so every
/// ingestion mode applies identical mechanisms and lands identical bits.
struct LabelIngestPolicy {
  /// Label alphabet size of the round; 0 (or 1) means a continuous campaign
  /// and disables label ingestion entirely.
  std::size_t num_labels = 0;
  /// Server-side empirical k-RR sampling applied per ingested claim (the
  /// pipeline-side mechanism: it runs on the ingest worker that owns the
  /// user's shard, never on the network thread). 1.0 disables it — clients
  /// that already perturbed locally are the normal LDP deployment.
  double rr_keep_probability = 1.0;
  /// Root seed of the sampling stream; each report's draws come from
  /// Rng(derive_seed(rr_seed, round, global_row)), so results are identical
  /// for every worker count and every shard count.
  std::uint64_t rr_seed = 0x6c61626cULL;  // "labl"

  bool enabled() const { return num_labels >= 2; }
};

struct ServerConfig {
  net::NodeId id = 1'000'000;  ///< out of the user-id range
  double lambda2 = 1.0;
  /// Collection window after the announcement; reports arriving later are
  /// ignored (stragglers).
  double collection_window_seconds = 30.0;
  std::size_t num_objects = 0;
  /// Seed each round's truth discovery from the previous round's converged
  /// truths/weights (honored by iterative methods; no-op for baselines and
  /// for the first round).
  bool warm_start = false;
  /// Ingestion shards for ShardedServer (clamped to the number of canonical
  /// user blocks each round). CrowdServer, the single-server path, ignores
  /// it. Aggregation results are bitwise identical for every value.
  std::size_t num_shards = 1;
  /// Canonical sufficient-statistics block size of the sharded aggregation
  /// path; runs compare bitwise only at equal block sizes.
  std::size_t stats_block_size = data::kDefaultStatsBlockSize;
  /// Ingestion worker threads for ShardedServer's parallel pipeline
  /// (crowd::IngestPipeline). 0 keeps ingestion synchronous on the network
  /// thread; N >= 1 routes reports onto bounded queues drained by
  /// min(N, num_shards) workers. The finalized matrices — and hence the
  /// published truths — are bitwise identical for every value: each shard's
  /// queue is FIFO from the single network thread, so per-shard ingestion
  /// order matches the serial path exactly. CrowdServer ignores it.
  std::size_t ingest_threads = 0;
  /// Categorical campaign knobs; labels.enabled() switches the round to
  /// kLabelReport ingestion (kReport uploads are then rejected, and vice
  /// versa for continuous rounds).
  LabelIngestPolicy labels;
};

/// Per-shard ingestion accounting for one round. CrowdServer reports one
/// entry (the whole fleet), ShardedServer one per ingestion shard, so the
/// outcome schema — including the malformed counter — is uniform across the
/// scaling knob.
struct ShardIngestStats {
  std::size_t reports_received = 0;   ///< distinct users landed on this shard
  std::size_t duplicates_ignored = 0; ///< re-sends routed to this shard
  std::size_t malformed_reports = 0;  ///< reports needing claim sanitization
  std::size_t rejected_reports = 0;   ///< undecodable after routing (pipeline)
  std::size_t invalid_labels = 0;     ///< label claims >= num_labels, dropped
};

struct RoundOutcome {
  std::uint64_t round = 0;
  std::size_t reports_received = 0;   ///< distinct users whose report counted
  std::size_t reports_expected = 0;
  std::size_t reports_rejected = 0;   ///< dropped: unknown user / undecodable
  std::size_t duplicates_ignored = 0; ///< re-sends from already-counted users
  /// Per-shard rollup (one entry on CrowdServer); the scalar counters above
  /// are the sums across shards plus unroutable rejects.
  std::vector<ShardIngestStats> shard_stats;
  truth::Result result;
  double aggregation_seconds = 0.0;  ///< wall-clock spent in truth discovery
  bool warm_started = false;         ///< truth discovery was seeded
};

/// Sanitizes a decoded report's claim list exactly like the batch assembler
/// (out-of-range objects and non-finite values are dropped, mismatched array
/// tails truncated) and ingests the valid subset into `builder` under
/// `local_user`. Shared by CrowdServer and ShardedServer so the two ingestion
/// paths can never diverge. Returns true when anything had to be dropped
/// (a malformed report); the clean path ingests the decoded arrays directly,
/// no copy. The caller must have dedup-checked `local_user` already.
bool ingest_report_claims(data::ObservationMatrixBuilder& builder,
                          std::size_t local_user, const Report& report,
                          std::size_t num_objects);

/// What ingest_label_claims had to drop or rewrite.
struct LabelIngestOutcome {
  bool malformed = false;          ///< array mismatch / out-of-range objects
  std::size_t invalid_labels = 0;  ///< claims with label >= num_labels
};

/// The categorical twin of ingest_report_claims: validates every claim's
/// object range AND label range (out-of-alphabet labels are dropped and
/// counted, never aborting the report), optionally applies the policy's
/// server-side k-RR sampling (seeded by (round, global_user), so the result
/// is identical on every ingestion mode), and ingests the surviving claims
/// as exact label-id doubles under `local_user`. Shared by CrowdServer, the
/// ShardedServer serial path, and the pipeline workers. The caller must have
/// dedup-checked `local_user` already.
LabelIngestOutcome ingest_label_claims(data::ObservationMatrixBuilder& builder,
                                       std::size_t local_user,
                                       std::size_t global_user,
                                       const LabelReport& report,
                                       std::size_t num_objects,
                                       const LabelIngestPolicy& policy,
                                       std::uint64_t round);

/// Maps a report's stable user/node id to its row in the round's observation
/// matrix (= its position in the participants roster). The common dense
/// roster [0, P) resolves by identity without a table; arbitrary rosters —
/// partial fleets after churn — build a hash index. Shared by both servers so
/// their ingestion semantics can never diverge.
class ParticipantIndex {
 public:
  /// Throws std::invalid_argument, leaving the index unchanged, when an id
  /// repeats: its second row could never be filled, so the round would wait
  /// for its deadline.
  void build(const std::vector<net::NodeId>& participants);
  /// The matrix row of `user`, or nullopt when `user` is not enrolled this
  /// round (byzantine or stale id).
  std::optional<std::size_t> row_of(net::NodeId user) const;

 private:
  std::size_t size_ = 0;
  bool identity_ = true;
  std::unordered_map<net::NodeId, std::size_t> rows_;
};

/// Previous round's converged state, the warm-start seed, together with the
/// roster its weights are indexed by. Keeping the roster is what lets
/// partial fleets warm-start: when the participant set changes
/// round-over-round, each surviving user's weight is remapped through its
/// stable node id instead of the whole seed being dropped.
struct WarmState {
  truth::Result result;
  std::vector<net::NodeId> participants;
  bool valid = false;
};

/// The weight seed for `participants` derived from `warm`: the previous
/// weights verbatim when the roster is unchanged, a stable-id remap (new
/// users start at the surviving fleet's mean weight) when it differs, empty
/// when nothing usable survives.
std::vector<double> remap_warm_weights(
    const WarmState& warm, const std::vector<net::NodeId>& participants,
    std::size_t num_users);

/// Round-close tail shared by CrowdServer and ShardedServer: object-coverage
/// check over the (possibly sharded) matrix, warm-seed construction, the
/// run_sharded aggregation call, the ResultPublish fan-out, and the
/// warm-state update. Returns false when uncovered objects forced the round
/// to skip aggregation. Keeping this in one place is what guarantees the two
/// servers publish bitwise-identical outcomes.
bool aggregate_and_publish(const ServerConfig& config,
                           truth::TruthDiscovery& method,
                           net::Transport& network,
                           std::uint64_t round,
                           const std::vector<net::NodeId>& participants,
                           const data::ShardedMatrix& matrix, WarmState& warm,
                           RoundOutcome& outcome);

class CrowdServer final : public net::Node {
 public:
  CrowdServer(ServerConfig config, std::unique_ptr<truth::TruthDiscovery> method,
              net::Transport& network);

  void on_message(const net::Message& message) override;

  /// Announces round `round` to `user_ids` and schedules the aggregation
  /// deadline. Results are available from `outcomes()` after the simulator
  /// drains. The server is persistent: call again for each round of a
  /// campaign once the previous round has closed.
  void start_round(std::uint64_t round,
                   const std::vector<net::NodeId>& user_ids);

  const std::vector<RoundOutcome>& outcomes() const { return outcomes_; }
  const ServerConfig& config() const { return config_; }

 private:
  void finish_round();
  void ingest_report(const Report& report);
  void ingest_label_report(const LabelReport& report);

  ServerConfig config_;
  std::unique_ptr<truth::TruthDiscovery> method_;
  net::Transport* network_;

  std::uint64_t current_round_ = 0;
  bool round_open_ = false;
  std::vector<net::NodeId> participants_;
  ParticipantIndex index_;
  /// Streaming ingestion state for the open round.
  std::optional<data::ObservationMatrixBuilder> builder_;
  std::size_t rejected_ = 0;
  std::size_t duplicates_ = 0;
  std::size_t malformed_ = 0;
  std::size_t invalid_labels_ = 0;
  WarmState warm_;
  std::vector<RoundOutcome> outcomes_;
};

}  // namespace dptd::crowd
