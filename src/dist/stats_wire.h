// Bodies of the coordinator <-> shard sufficient-statistics RPCs, framed by
// crowd::StatsEnvelope inside kShardRequest/kShardResponse messages.
//
// The protocol is built around one invariant: floating-point addition is not
// associative, so a shard can NEVER compute a partial "from zero" for the
// coordinator to re-associate. Every mergeable statistic instead travels as a
// *chain*: the coordinator sends the current accumulator state to shard 0,
// shard 0 folds its (block-aligned) users on top and replies, the coordinator
// forwards the updated state to shard 1, and so on in ascending shard order.
// Because shard user ranges are block-aligned, each shard's local fold
// reproduces the exact per-block segments of the global fold, and threading
// the accumulator through shards reproduces the exact chain — so a K-node
// distributed run is bitwise identical to the in-process run_sharded at the
// same K (and, by the block-fold contract, at every K).
//
// Each statistics op is one truth::FoldBackend call (truth/fold_backend.h):
// the coordinator's RemoteBackend encodes the call, and the owning shard runs
// it on its own LocalBackend. Per-user state (weights, losses, qualities)
// never crosses the wire during iterations: it lives in the shard's backend
// and only the final weight slices are collected. Register writes (weights,
// truths, scalars, prepared constants) are idempotent by construction and
// ride the next frame each shard receives as kBatch prefix items; chained ops
// carry their full input state in the request body, so a timeout-and-resend
// re-executes deterministically.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/serialize.h"
#include "common/statistics.h"
#include "crowd/server.h"
#include "net/transport.h"
#include "truth/interface.h"

namespace dptd::dist {

/// Opcode inside a crowd::StatsEnvelope. Requests flow coordinator -> shard;
/// every request gets exactly one response under the same op_id.
enum class ShardOp : std::uint8_t {
  // Round lifecycle.
  kSetup = 1,           ///< SetupBody -> empty ack
  kFinalizeIngest = 2,  ///< empty -> IngestSummaryBody
  // Generic statistics collectives.
  kSetWeights = 3,      ///< WeightsBody -> empty ack
  kMoments = 4,         ///< moments chain: MomentsBody -> MomentsBody
  kGather = 5,          ///< empty -> GatherBody (this shard's column fragments)
  kAggregate = 6,       ///< aggregate chain: AggregateBody -> AggregateBody
  kCollectWeights = 7,  ///< empty -> WeightsBody (this shard's weight slice)
  // CRH.
  kCrhPrepare = 8,      ///< CrhPrepareBody -> empty ack
  kCrhLoss = 9,         ///< loss chain: CrhLossBody -> CrhTotalBody
  kCrhWeights = 10,     ///< CrhTotalBody write -> empty ack
  // GTM.
  kGtmPrepare = 11,     ///< GtmPrepareBody -> empty ack
  kGtmStep = 12,        ///< GtmStepBody write (M-step) -> empty ack
  kGtmFold = 13,        ///< posterior chain: GtmFoldBody -> GtmFoldBody
  // CATD.
  kCatdPrepare = 14,    ///< CatdPrepareBody -> empty ack
  kCatdWeights = 15,    ///< TruthsBody write -> empty ack
  // Telemetry.
  kGetTelemetry = 16,   ///< empty -> TelemetryBody (lifetime shard counters)
  // Categorical voting (majority / weighted vote over label claims).
  kVotePrepare = 17,    ///< VotePrepareBody -> empty ack (builds label view)
  kVoteScores = 18,     ///< score chain: VoteScoresBody -> VoteScoresBody
  kVoteDisagree = 19,   ///< disagreement chain: VoteDisagreeBody -> CrhTotalBody
  kVoteWeights = 20,    ///< CrhTotalBody write -> empty ack
  // Queued writes riding another op's frame.
  kBatch = 21,          ///< BatchBody -> BatchReplyBody (sub-ops in order)
};

/// One sub-op inside a kBatch frame: the opcode plus its encoded body, exactly
/// as it would travel alone.
struct BatchItem {
  ShardOp op = ShardOp::kBatch;  ///< never actually kBatch (no nesting)
  std::vector<std::uint8_t> body;
};

/// Several ShardOps carried in one frame under one op_id. The shard executes
/// them strictly in order and replies with one body per item; the whole batch
/// rides the exactly-once watermark as a single unit, so a resend replays the
/// memoized reply rather than re-executing. Round-lifecycle ops (kSetup,
/// kFinalizeIngest) and nested batches are refused at decode time — before any
/// sub-op runs — so a malformed batch can never half-apply; the remaining ops
/// are all idempotent, which keeps a mid-batch DecodeError abort safe to
/// resend.
struct BatchBody {
  std::vector<BatchItem> items;

  std::vector<std::uint8_t> encode() const;
  static BatchBody decode(std::span<const std::uint8_t> bytes);
};

/// One response body per batch item, in the same order.
struct BatchReplyBody {
  std::vector<std::vector<std::uint8_t>> bodies;

  std::vector<std::uint8_t> encode() const;
  static BatchReplyBody decode(std::span<const std::uint8_t> bytes);
};

/// Round setup: the shard derives its global user range from the plan fields
/// and builds a local participant index over its roster slice.
struct SetupBody {
  std::uint64_t round = 0;
  std::uint64_t num_users = 0;   ///< global (= roster size)
  std::uint64_t num_shards = 0;  ///< plan shard count this round
  std::uint64_t shard_index = 0;
  std::uint64_t num_objects = 0;
  std::uint64_t block_size = 0;
  /// Label alphabet size of a categorical round; 0 = continuous round. A
  /// categorical round ingests crowd::LabelReport uploads (kReport uploads
  /// are rejected, and vice versa).
  std::uint64_t num_labels = 0;
  std::vector<net::NodeId> participants;  ///< this shard's roster slice

  std::vector<std::uint8_t> encode() const;
  static SetupBody decode(std::span<const std::uint8_t> bytes);
};

/// Ingestion accounting + per-object local claim counts (the coordinator sums
/// them across shards for the coverage check). The five counters travel as
/// varints in ShardIngestStats' field order.
struct IngestSummaryBody {
  crowd::ShardIngestStats stats;
  std::vector<std::uint64_t> object_counts;

  std::vector<std::uint8_t> encode() const;
  static IngestSummaryBody decode(std::span<const std::uint8_t> bytes);
};

/// A per-user weight slice: uniform 1.0 (empty vector on the wire) or
/// explicit values, local-user indexed.
struct WeightsBody {
  bool uniform = false;
  std::vector<double> weights;

  std::vector<std::uint8_t> encode() const;
  static WeightsBody decode(std::span<const std::uint8_t> bytes);
};

/// Per-object RunningStats accumulators, bit-exact (count, mean, M2, min,
/// max per object). The moments chain's carried state.
std::vector<std::uint8_t> encode_moments(std::span<const RunningStats> moments);
std::vector<RunningStats> decode_moments(std::span<const std::uint8_t> bytes);

/// One shard's column fragments in local user order: per-object lengths plus
/// the flat value array. Concatenating fragments in ascending shard order
/// reproduces gather_object_values' global columns.
struct GatherBody {
  std::vector<std::uint64_t> lengths;  ///< claims per object on this shard
  std::vector<double> values;          ///< flat, column-major

  std::vector<std::uint8_t> encode() const;
  static GatherBody decode(std::span<const std::uint8_t> bytes);
};

/// The weighted-aggregation chain's carried state (truth::AggregateStats).
struct AggregateBody {
  truth::AggregateStats stats;

  std::vector<std::uint8_t> encode() const;
  static AggregateBody decode(std::span<const std::uint8_t> bytes);
};

struct CrhPrepareBody {
  std::uint8_t loss = 0;  ///< truth::CrhLoss
  double min_loss_fraction = 0.0;
  std::vector<double> stddevs;  ///< per object

  std::vector<std::uint8_t> encode() const;
  static CrhPrepareBody decode(std::span<const std::uint8_t> bytes);
};

/// CRH loss chain request: current truths plus the running block-chained loss
/// total of the preceding shards (the shard's block_chain_sum init).
struct CrhLossBody {
  std::vector<double> truths;
  double total = 0.0;

  std::vector<std::uint8_t> encode() const;
  static CrhLossBody decode(std::span<const std::uint8_t> bytes);
};

/// A chained block-sum total — the kCrhLoss/kVoteDisagree reply and the
/// kCrhWeights/kVoteWeights body.
struct CrhTotalBody {
  double total = 0.0;

  std::vector<std::uint8_t> encode() const;
  static CrhTotalBody decode(std::span<const std::uint8_t> bytes);
};

struct GtmPrepareBody {
  double quality_prior_alpha = 0.0;
  double quality_prior_beta = 0.0;
  double min_variance = 0.0;
  std::vector<double> shift;  ///< per object
  std::vector<double> scale;  ///< per object

  std::vector<std::uint8_t> encode() const;
  static GtmPrepareBody decode(std::span<const std::uint8_t> bytes);
};

/// GTM M-step: current truth posteriors.
struct GtmStepBody {
  std::vector<double> truth_mean;
  std::vector<double> truth_var;

  std::vector<std::uint8_t> encode() const;
  static GtmStepBody decode(std::span<const std::uint8_t> bytes);
};

/// GTM posterior chain state: per-object precision and precision-weighted
/// sums (the coordinator pre-fills both with the prior terms).
struct GtmFoldBody {
  std::vector<double> precision;
  std::vector<double> weighted;

  std::vector<std::uint8_t> encode() const;
  static GtmFoldBody decode(std::span<const std::uint8_t> bytes);
};

struct CatdPrepareBody {
  double significance = 0.0;
  double min_residual = 0.0;

  std::vector<std::uint8_t> encode() const;
  static CatdPrepareBody decode(std::span<const std::uint8_t> bytes);
};

/// A bare truth vector (the CATD weight update).
struct TruthsBody {
  std::vector<double> truths;

  std::vector<std::uint8_t> encode() const;
  static TruthsBody decode(std::span<const std::uint8_t> bytes);
};

/// Arms a shard for categorical voting: it materializes the sparse label
/// view of its finalized sub-matrix (out-of-domain values sanitize-dropped,
/// the same rule as the in-process bridge) and allocates the disagreement
/// register.
struct VotePrepareBody {
  std::uint64_t num_labels = 0;
  double min_disagreement_fraction = 0.0;

  std::vector<std::uint8_t> encode() const;
  static VotePrepareBody decode(std::span<const std::uint8_t> bytes);
};

/// The weighted label-score chain's carried state: the row-major
/// num_objects x num_labels histogram, folded in canonical block order. Each
/// shard adds its claims on top and passes the table on — the exact
/// categorical::fold_label_scores chain, shard ranges being block-aligned.
struct VoteScoresBody {
  std::vector<double> scores;

  std::vector<std::uint8_t> encode() const;
  static VoteScoresBody decode(std::span<const std::uint8_t> bytes);
};

/// Vote disagreement chain request: the current truth estimates (label ids)
/// plus the running block-chained disagreement total of the preceding shards
/// (the shard's block_chain_sum init). Response is CrhTotalBody.
struct VoteDisagreeBody {
  std::vector<std::uint32_t> truths;  ///< one label per object
  double total = 0.0;

  std::vector<std::uint8_t> encode() const;
  static VoteDisagreeBody decode(std::span<const std::uint8_t> bytes);
};

/// A shard's lifetime robustness counters, collected at round close so
/// DistributedOutcome surfaces them uniformly per node (not just through
/// in-process accessors the coordinator cannot reach over a socket).
struct TelemetryBody {
  std::uint64_t stale_requests = 0;     ///< watermark-dropped requests
  std::uint64_t malformed_messages = 0; ///< undecodable envelopes/bodies

  std::vector<std::uint8_t> encode() const;
  static TelemetryBody decode(std::span<const std::uint8_t> bytes);
};

}  // namespace dptd::dist
