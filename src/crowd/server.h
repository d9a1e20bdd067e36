// The untrusted aggregation server's building blocks: its configuration and
// round outcome, the per-shard ingestor every ingest path runs, the roster
// index, and the warm-start state. crowd::ShardedServer assembles them into
// the in-process server, which ingests through one crowd::IngestPipeline (K
// = 1 at zero ingest workers is the flat path); dist::Coordinator and
// dist::ShardNode use them across processes.
//
// Reports are ingested as they arrive: each one is decoded, sanitized, and
// folded into its shard's incremental ObservationMatrixBuilder (deduplicated
// by user row), so the deadline event only finalizes the matrix instead of
// assembling it in one burst. Malformed or byzantine reports (unknown user
// id, undecodable payload) are dropped and counted — one bad report never
// kills the server.
//
// The server never sees raw readings or per-user variances — only perturbed
// reports — matching the paper's threat model.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "crowd/protocol.h"
#include "data/builder.h"
#include "data/dataset.h"
#include "data/sharding.h"
#include "net/transport.h"
#include "truth/interface.h"

namespace dptd::crowd {

/// Categorical-round ingestion policy. Every ShardIngestor of a round applies
/// the same one, so every ingestion mode lands identical bits.
struct LabelIngestPolicy {
  /// Label alphabet size of the round; 0 (or 1) means a continuous campaign
  /// and disables label ingestion entirely.
  std::size_t num_labels = 0;
  /// Server-side empirical k-RR sampling applied per ingested claim by the
  /// shard's ingestor (with ingest workers, on the worker that owns the
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
  /// Ingestion shards (clamped to the number of canonical user blocks each
  /// round); 1 is the flat, single-shard server. Aggregation results are
  /// bitwise identical for every value.
  std::size_t num_shards = 1;
  /// Canonical sufficient-statistics block size of the sharded aggregation
  /// path; runs compare bitwise only at equal block sizes.
  std::size_t stats_block_size = data::kDefaultStatsBlockSize;
  /// Worker threads of the server's crowd::IngestPipeline. 0 ingests each
  /// report on the network thread as it is routed; N >= 1 hands reports
  /// over bounded queues to min(N, num_shards) workers. The finalized
  /// matrices, the published truths, the counters and the early close are
  /// the same for every value: each shard ingests in arrival order either
  /// way, and only a row's first submission can close the round early.
  std::size_t ingest_threads = 0;
  /// Categorical campaign knobs; labels.enabled() switches the round to
  /// kLabelReport ingestion (kReport uploads are then rejected, and vice
  /// versa for continuous rounds).
  LabelIngestPolicy labels;
};

/// Per-shard ingestion accounting for one round, kept by the shard's
/// ShardIngestor: one entry per ingestion shard (one at K = 1), so the outcome
/// schema is uniform across the scaling knob and across ingest paths.
struct ShardIngestStats {
  std::size_t reports_received = 0;   ///< distinct users landed on this shard
  std::size_t duplicates_ignored = 0; ///< re-sends routed to this shard
  std::size_t malformed_reports = 0;  ///< reports needing claim sanitization
  std::size_t rejected_reports = 0;   ///< undecodable after routing
  std::size_t invalid_labels = 0;     ///< label claims >= num_labels, dropped
};

struct RoundOutcome {
  std::uint64_t round = 0;
  std::size_t reports_received = 0;   ///< distinct users whose report counted
  std::size_t reports_expected = 0;
  std::size_t reports_rejected = 0;   ///< dropped: unknown user / undecodable
  std::size_t duplicates_ignored = 0; ///< re-sends from already-counted users
  /// Per-shard rollup (one entry at K = 1); the scalar counters above are the
  /// sums across shards plus the rejects no shard saw (unknown user,
  /// undecodable header, wrong kind).
  std::vector<ShardIngestStats> shard_stats;
  truth::Result result;
  double aggregation_seconds = 0.0;  ///< wall-clock spent in truth discovery
  bool warm_started = false;         ///< truth discovery was seeded
};

/// Sanitizes a decoded report's claim list exactly like the batch assembler
/// (out-of-range objects and non-finite values are dropped, mismatched array
/// tails truncated) and ingests the valid subset into `builder` under
/// `local_user`: ShardIngestor's continuous step, and the serial reference
/// the pipeline tests compare against. Returns true when anything had to be
/// dropped (a malformed report); the clean path ingests the decoded arrays
/// directly, no copy. The caller must have dedup-checked `local_user`
/// already.
bool ingest_report_claims(data::ObservationMatrixBuilder& builder,
                          std::size_t local_user, const Report& report,
                          std::size_t num_objects);

/// One shard's ingestion for one round: the ObservationMatrixBuilder of its
/// user rows, first-wins dedup, claim sanitizing under the round's
/// LabelIngestPolicy, and the shard's ShardIngestStats. The IngestPipeline
/// (at every worker count, zero included) and every dist::ShardNode run
/// this one class, so every ingest path counts an upload alike. Callers route
/// on the header and hand over an upload's fields with the local row they
/// already resolved; the ingestor decodes on the shard.
///
/// Cache-line aligned: pipeline workers write their own shards' ingestors,
/// and two ingestors never share a line.
class alignas(64) ShardIngestor {
 public:
  /// Arms the ingestor for round `round`: `num_users` local rows, the first
  /// of them global row `user_base` (the k-RR stream's key is user_base +
  /// row), claims on objects [0, num_objects). Uploads decode as LabelReport
  /// when `labels` is enabled, as Report otherwise. Zeroes the counters and
  /// reuses the builder's storage across rounds.
  void begin_round(std::size_t num_users, std::size_t user_base,
                   std::size_t num_objects, std::uint64_t round,
                   const LabelIngestPolicy& labels);

  /// Ingests one upload for local row `row` of an armed ingestor. `fields`
  /// are its bytes after the round varint — exactly a kReportBatch item.
  /// Undecodable: one rejected report. A re-send of an ingested row: one
  /// duplicate. Otherwise the sanitized claims land (counting a malformed
  /// report or invalid labels when claims were dropped), and the call
  /// returns true: a new distinct reporter.
  bool ingest(std::size_t row, std::span<const std::uint8_t> fields);

  /// Counts `count` uploads the caller refused before a row was resolved
  /// (unreadable framing, wrong round or kind, id outside the roster slice).
  void reject(std::size_t count = 1) { stats_.rejected_reports += count; }

  const ShardIngestStats& stats() const { return stats_; }

  /// Moves the ingested rows out as the shard's sub-matrix; the counters
  /// stay until the next begin_round.
  data::ObservationMatrix finalize();

 private:
  template <typename Upload>
  bool ingest_as(std::size_t row, std::span<const std::uint8_t> fields);

  std::optional<data::ObservationMatrixBuilder> builder_;
  std::size_t user_base_ = 0;
  std::size_t num_objects_ = 0;
  std::uint64_t round_ = 0;
  LabelIngestPolicy labels_;
  ShardIngestStats stats_;
};

/// Maps a report's stable user/node id to its row in the round's observation
/// matrix (= its position in the participants roster). The common dense
/// roster [0, P) resolves by identity without a table; arbitrary rosters —
/// partial fleets after churn — build a hash index. ShardedServer and the
/// Coordinator resolve global rows with it, each ShardNode its roster slice.
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

  /// The seed of a round over `participants`: the recorded truths and
  /// remap_warm_weights' weights. Empty when `warm_start` is off, nothing is
  /// recorded yet, or `method` ignores seeds. Both servers seed from here.
  truth::WarmStart seed(bool warm_start, const truth::TruthDiscovery& method,
                        const std::vector<net::NodeId>& participants) const;
  /// Records a round's result and the roster its weights are indexed by.
  void record(const truth::Result& round_result,
              const std::vector<net::NodeId>& roster);
};

/// The weight seed for `participants` derived from `warm`: the previous
/// weights verbatim when the roster is unchanged, a stable-id remap (new
/// users start at the surviving fleet's mean weight) when it differs, empty
/// when nothing usable survives.
std::vector<double> remap_warm_weights(
    const WarmState& warm, const std::vector<net::NodeId>& participants,
    std::size_t num_users);

}  // namespace dptd::crowd
