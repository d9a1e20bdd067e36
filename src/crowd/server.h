// The untrusted aggregation server's building blocks: its configuration and
// round outcome, the per-shard ingestor every ingest path runs, the round's
// roster (ParticipantIndex) and the fan-out over it, and the warm-start
// state. crowd::ShardedServer assembles them into the in-process server,
// which ingests through one crowd::IngestPipeline (K = 1 at zero ingest
// workers is the flat path); dist::Coordinator and dist::ShardNode use them
// across processes.
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
/// the same one, so every ingestion mode lands identical bits. Labels arrive
/// already perturbed: devices apply k-RR before upload
/// (crowd::make_label_report), and ingestion only range-checks them.
struct LabelIngestPolicy {
  /// Label alphabet size of the round; 0 means a continuous campaign and
  /// disables label ingestion entirely. ShardedServer accepts 0 or
  /// [2, truth::kMaxBridgedLabels].
  std::size_t num_labels = 0;

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
  /// The round's label alphabet; labels.enabled() switches the round to
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
  /// In ShardedServer::outcomes(), only the newest outcome keeps its truths
  /// and weights; older ones keep `iterations` and `converged` with both
  /// vectors released, so a campaign's history stays a few counters a round.
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
  /// Arms the ingestor for round `round`: `num_users` local rows, claims on
  /// objects [0, num_objects). Uploads decode as LabelReport when `labels`
  /// is enabled, as Report otherwise. Zeroes the counters and reuses the
  /// builder's storage across rounds. A shape the builder refuses
  /// (std::invalid_argument, e.g. more than 2^32 objects) leaves the
  /// ingestor as it was.
  void begin_round(std::size_t num_users, std::size_t num_objects,
                   std::uint64_t round, const LabelIngestPolicy& labels);

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
  std::size_t num_objects_ = 0;
  std::uint64_t round_ = 0;
  LabelIngestPolicy labels_;
  ShardIngestStats stats_;
};

/// The round's roster: row -> stable user/node id and back, a row being a
/// user's row in the round's observation matrix. A contiguous roster
/// [base, base + P) — the full fleet [0, P), and every ShardNode's slice of
/// it — is stored as its two ends and resolves by subtraction; only another
/// roster (a partial fleet after churn) keeps its id list, with a hash index.
/// ShardedServer and the Coordinator hold the round's roster in one, each
/// ShardNode its slice. A range never runs past the largest NodeId, so an id
/// list that would wrap is kept as a list.
class ParticipantIndex {
 public:
  /// Rows [begin, end) of the roster, e.g. one shard's ShardPlan slice. A
  /// contiguous roster's slice is the range [first, first + count) and
  /// leaves `ids` empty; an id list's slice views its ids.
  struct Slice {
    net::NodeId first = 0;
    std::size_t count = 0;
    std::span<const net::NodeId> ids;
  };

  /// Throws std::invalid_argument, leaving the index unchanged, when an id
  /// repeats: its second row could never be filled, so the round would wait
  /// for its deadline.
  void build(const std::vector<net::NodeId>& participants);
  /// The contiguous roster [base, base + count). Throws
  /// std::invalid_argument, leaving the index unchanged, when the range runs
  /// past the largest NodeId.
  void build_range(net::NodeId base, std::size_t count);

  /// The matrix row of `user`, or nullopt when `user` is not enrolled this
  /// round (byzantine or stale id).
  std::optional<std::size_t> row_of(net::NodeId user) const;
  std::size_t size() const { return size_; }
  /// The id of row `row` < size().
  net::NodeId id_of(std::size_t row) const {
    return ids_.empty() ? base_ + row : ids_[row];
  }
  Slice slice(std::size_t begin, std::size_t end) const;
  /// The roster as an id list, in row order: a copy, for the warm state.
  std::vector<net::NodeId> ids() const;

 private:
  std::size_t size_ = 0;
  net::NodeId base_ = 0;          ///< first id of a contiguous roster
  std::vector<net::NodeId> ids_;  ///< empty for a contiguous roster
  std::unordered_map<net::NodeId, std::size_t> rows_;
};

/// Sends one `type` message from `source` to every id of `roster`, in row
/// order, all carrying the same encoded `payload`. The messages share one
/// read-only buffer (net::Payload::shared), so a million-device fan-out
/// costs a reference count per device, not a copy of the bytes, and a
/// contiguous roster is walked without an id list; every transport still
/// counts one message of the full payload size per recipient.
void fan_out(net::Transport& transport, net::NodeId source,
             const ParticipantIndex& roster, MessageType type,
             std::vector<std::uint8_t> payload);

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
  /// Records nothing when `warm_start` is off: no round would read the seed.
  void record(bool warm_start, const truth::Result& round_result,
              std::vector<net::NodeId> roster);
};

/// The weight seed for `participants` derived from `warm`: the previous
/// weights verbatim when the roster is unchanged, a stable-id remap (new
/// users start at the surviving fleet's mean weight) when it differs, empty
/// when nothing usable survives.
std::vector<double> remap_warm_weights(
    const WarmState& warm, const std::vector<net::NodeId>& participants,
    std::size_t num_users);

}  // namespace dptd::crowd
