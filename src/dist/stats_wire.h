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
// One table drives both ends. Each statistics op is one truth::FoldBackend
// call (truth/fold_backend.h), written once as a row of kOpTable: its opcode
// and a function of the backend whose parameters are the request's fields
// and whose result is the reply's fields. The coordinator's RemoteBackend
// builds each request from its row's fields; a shard decodes it through the
// same row and runs it on its own LocalBackend (run_op). One tuple codec
// writes every body, a field at a time, with one field codec per wire type.
// Per-user state (the weight register, which holds losses between a loss fold
// and its weight update) never crosses the wire during iterations: it lives
// in the shard's backend and only the final weight slices are collected.
// Register writes (weights, truths, scalars, prepared constants, weight
// updates) are idempotent by construction and ride the next frame each shard
// receives as kBatch prefix items; chained folds carry their full input state
// in the request body, so a timeout-and-resend re-executes deterministically.
// The one op a second run would change is kCollectWeights, which hands the
// register over; in a batch, only kGetTelemetry may follow it.
#pragma once

#include <concepts>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/serialize.h"
#include "common/statistics.h"
#include "crowd/server.h"
#include "net/transport.h"
#include "truth/fold_backend.h"

namespace dptd::dist {

/// Opcode inside a crowd::StatsEnvelope. Requests flow coordinator -> shard;
/// every request gets exactly one response under the same op_id.
enum class ShardOp : std::uint8_t {
  // Round lifecycle.
  kSetup = 1,           ///< SetupBody -> empty ack
  kFinalizeIngest = 2,  ///< empty -> IngestSummaryBody
  // Generic statistics collectives (kOpTable rows).
  kSetWeights = 3,      ///< weight slice -> empty ack
  kMoments = 4,         ///< moments chain
  kGather = 5,          ///< empty -> this shard's column fragments
  kAggregate = 6,       ///< weighted-aggregation chain
  kCollectWeights = 7,  ///< empty -> this shard's weight slice
  // CRH.
  kCrhPrepare = 8,
  kCrhLoss = 9,         ///< loss chain: (truths, total) -> total
  kCrhWeights = 10,     ///< chained total -> empty ack
  // GTM.
  kGtmPrepare = 11,
  kGtmStep = 12,        ///< M-step write
  kGtmFold = 13,        ///< posterior chain
  // CATD.
  kCatdPrepare = 14,
  kCatdWeights = 15,
  // Telemetry.
  kGetTelemetry = 16,   ///< empty -> Telemetry (lifetime shard counters)
  // Categorical voting (majority / weighted vote over label claims).
  kVotePrepare = 17,    ///< sets the alphabet the vote ops read claims by
  kVoteScores = 18,     ///< label-score chain
  kVoteDisagree = 19,   ///< disagreement chain: (truths, total) -> total
  kVoteWeights = 20,    ///< chained total -> empty ack
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
/// sub-op runs — so a malformed batch can never half-apply, and so is any op
/// but kGetTelemetry (which cannot fail) after a kCollectWeights; every op
/// that can run before an abort is idempotent, which keeps a mid-batch
/// DecodeError abort safe to resend.
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
/// and builds a local participant index over its roster slice. The slice
/// travels last, in one of two forms. An id list is [count >= 1][ids...],
/// one varint each. With `participants` empty, the slice is the contiguous
/// range [range_base, range_base + range_count), sent as
/// [0][range_base][range_count]: a few bytes for a slice of any size. The
/// Coordinator sends a range for every slice of a contiguous roster, a list
/// for any other; a zero count never meant a list, as kSetup refuses an
/// empty slice.
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
  std::vector<net::NodeId> participants;  ///< an id-list slice
  net::NodeId range_base = 0;             ///< a range slice, when no list
  std::uint64_t range_count = 0;

  /// Users in the slice, in either form.
  std::uint64_t slice_size() const {
    return participants.empty() ? range_count : participants.size();
  }

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

/// A per-user weight slice, local-user indexed: uniform 1.0 (mode byte 1, no
/// values) or explicit (mode byte 2, at least one value).
struct WeightsBody {
  bool uniform = false;
  std::vector<double> weights;

  std::vector<std::uint8_t> encode() const;
  static WeightsBody decode(std::span<const std::uint8_t> bytes);
};

/// kGetTelemetry's reply: a shard's lifetime (stale_requests,
/// malformed_messages), collected at round close so DistributedOutcome
/// surfaces them per node even over sockets.
using Telemetry = std::tuple<std::uint64_t, std::uint64_t>;

using Doubles = std::vector<double>;
using Labels = std::vector<categorical::Label>;
using Moments = std::vector<RunningStats>;

// Field codecs, one per wire type. Every array is a varint count, then its
// elements; a count is refused before anything is reserved when the bytes
// left cannot hold it (Decoder::read_count).
//  - double: 8 bytes, bit-cast; varint: LEB128; CrhLoss: one byte <= 2.
//  - Doubles; an unsigned array (varint counts, Labels) as varints, each
//    refused past its element type's range.
//  - Moments: per accumulator its count, then mean, M2, min and max unless
//    the count is 0.
//  - AggregateStats: weighted_sum, weight_sum and plain_sum as Doubles, then
//    counts as varints, all four of one length.
//  - WeightsBody: the mode byte, then Doubles.
//  - GatheredColumns (a gather fragment): per-object lengths as varints,
//    then the values column-major as Doubles; the lengths must sum to the
//    value count without overflowing.
void write_field(Encoder& enc, double x);
void write_field(Encoder& enc, std::uint64_t x);
void write_field(Encoder& enc, truth::CrhLoss loss);
void write_field(Encoder& enc, const Doubles& xs);
void write_field(Encoder& enc, const Moments& moments);
void write_field(Encoder& enc, const truth::AggregateStats& stats);
void write_field(Encoder& enc, const WeightsBody& slice);
void write_field(Encoder& enc, const truth::GatheredColumns& columns);
void read_field(Decoder& dec, double& x);
void read_field(Decoder& dec, std::uint64_t& x);
void read_field(Decoder& dec, truth::CrhLoss& loss);
void read_field(Decoder& dec, Doubles& xs);
void read_field(Decoder& dec, Moments& moments);
void read_field(Decoder& dec, truth::AggregateStats& stats);
void read_field(Decoder& dec, WeightsBody& slice);
void read_field(Decoder& dec, truth::GatheredColumns& columns);
template <std::unsigned_integral T>
void write_field(Encoder& enc, const std::vector<T>& xs) {
  enc.write_varint(xs.size());
  for (const T x : xs) enc.write_varint(x);
}
template <std::unsigned_integral T>
void read_field(Decoder& dec, std::vector<T>& xs) {
  xs.resize(dec.read_count());
  for (T& x : xs) {
    const std::uint64_t v = dec.read_varint();
    if (v > std::numeric_limits<T>::max()) throw DecodeError("varint array: element overflow");
    x = static_cast<T>(v);
  }
}

/// Element count of an array field (an AggregateStats counts its objects);
/// a scalar has none.
template <typename T>
std::optional<std::size_t> length_of(const T&) { return std::nullopt; }
template <typename T>
std::optional<std::size_t> length_of(const std::vector<T>& xs) { return xs.size(); }
inline std::optional<std::size_t> length_of(const truth::AggregateStats& s) {
  return s.counts.size();
}
using Lengths = std::vector<std::optional<std::size_t>>;
template <typename... Fields>
Lengths lengths(const std::tuple<Fields...>& fields) {
  return std::apply([](const auto&... f) { return Lengths{length_of(f)...}; }, fields);
}

// The tuple codec: a body is its fields in order, nothing more, and every
// array field of one body has the same length.
template <typename... Fields>
std::vector<std::uint8_t> write_fields(const Fields&... fields) {
  Encoder enc;
  (write_field(enc, fields), ...);
  return enc.take();
}
template <typename... Fields>
void read_fields(std::span<const std::uint8_t> bytes, Fields&... fields) {
  Decoder dec(bytes);
  (read_field(dec, fields), ...);
  if (!dec.done()) throw DecodeError("stats body: trailing bytes");
  std::optional<std::size_t> first;
  for (const std::optional<std::size_t> n : lengths(std::tie(fields...))) {
    if (!first) first = n;
    if (n && *n != *first) throw DecodeError("stats body: array lengths differ");
  }
}
template <typename Tuple>
std::vector<std::uint8_t> encode_fields(const Tuple& fields) {
  return std::apply([](const auto&... f) { return write_fields(f...); }, fields);
}
template <typename Tuple>
Tuple decode_fields(std::span<const std::uint8_t> bytes) {
  Tuple fields;
  std::apply([&](auto&... f) { read_fields(bytes, f...); }, fields);
  return fields;
}

/// One row of the op table: `run` makes the FoldBackend call. Its parameters
/// after the backend are the request fields (Args); the tuple it returns is
/// the reply fields (Reply), and a register write returns nothing.
template <ShardOp Op, typename Run>
struct OpRow {
  template <typename M>
  struct Signature;
  template <typename R, typename... Ps>
  struct Signature<R (Run::*)(truth::FoldBackend&, Ps...) const> {
    using Args = std::tuple<std::decay_t<Ps>...>;
    using Reply = std::conditional_t<std::is_void_v<R>, std::tuple<>, R>;
  };
  static constexpr ShardOp op = Op;
  using Args = typename Signature<decltype(&Run::operator())>::Args;
  using Reply = typename Signature<decltype(&Run::operator())>::Reply;
  Run run;
};
template <ShardOp Op, typename Run>
constexpr OpRow<Op, Run> op_row(Run run) {
  return {run};
}

/// The op table: every FoldBackend call that crosses the wire. A chained
/// fold's reply is its carried state, the trailing request fields, which the
/// coordinator threads on to the next shard at the lengths it sent.
inline constexpr auto kOpTable = std::make_tuple(
    // Register writes: the reply is an empty ack.
    op_row<ShardOp::kSetWeights>([](truth::FoldBackend& b, const WeightsBody& slice) {
      b.set_weights(slice.weights);  // a uniform slice carries no values
    }),
    op_row<ShardOp::kCrhPrepare>([](truth::FoldBackend& b, truth::CrhLoss loss,
                                    double min_loss_fraction, const Doubles& stddevs) {
      b.crh_prepare(loss, min_loss_fraction, stddevs);
    }),
    op_row<ShardOp::kCrhWeights>([](truth::FoldBackend& b, double total) { b.crh_weights(total); }),
    op_row<ShardOp::kGtmPrepare>([](truth::FoldBackend& b, double quality_prior_alpha,
                                    double quality_prior_beta, double min_variance,
                                    const Doubles& shift, const Doubles& scale) {
      truth::GtmConfig config;
      config.quality_prior_alpha = quality_prior_alpha;
      config.quality_prior_beta = quality_prior_beta;
      config.min_variance = min_variance;
      b.gtm_prepare(config, shift, scale);
    }),
    op_row<ShardOp::kGtmStep>([](truth::FoldBackend& b, const Doubles& mean, const Doubles& var) {
      b.gtm_step(mean, var);
    }),
    op_row<ShardOp::kCatdPrepare>([](truth::FoldBackend& b, double significance,
                                     double min_residual) {
      b.catd_prepare(significance, min_residual);
    }),
    op_row<ShardOp::kCatdWeights>(
        [](truth::FoldBackend& b, const Doubles& truths) { b.catd_weights(truths); }),
    op_row<ShardOp::kVotePrepare>([](truth::FoldBackend& b, std::uint64_t num_labels,
                                     double min_disagreement_fraction) {
      if (num_labels > kMaxContainerLength) throw DecodeError("vote: label alphabet too large");
      b.vote_prepare(num_labels, min_disagreement_fraction);
    }),
    op_row<ShardOp::kVoteWeights>([](truth::FoldBackend& b, double total) { b.vote_weights(total); }),
    // Chained folds.
    op_row<ShardOp::kMoments>([](truth::FoldBackend& b, Moments acc) {
      b.moments(acc);
      return std::tuple{std::move(acc)};
    }),
    op_row<ShardOp::kAggregate>([](truth::FoldBackend& b, truth::AggregateStats acc) {
      b.aggregate(acc);
      return std::tuple{std::move(acc)};
    }),
    op_row<ShardOp::kCrhLoss>([](truth::FoldBackend& b, const Doubles& truths, double total) {
      return std::tuple{b.crh_loss(truths, total)};
    }),
    op_row<ShardOp::kGtmFold>([](truth::FoldBackend& b, Doubles precision, Doubles weighted) {
      b.gtm_posterior(precision, weighted);
      return std::tuple{std::move(precision), std::move(weighted)};
    }),
    op_row<ShardOp::kVoteScores>([](truth::FoldBackend& b, Doubles scores) {
      b.vote_scores(scores);
      return std::tuple{std::move(scores)};
    }),
    op_row<ShardOp::kVoteDisagree>([](truth::FoldBackend& b, const Labels& truths, double total) {
      return std::tuple{b.vote_disagreement(truths, total)};
    }),
    // Collects.
    op_row<ShardOp::kGather>([](truth::FoldBackend& b) { return std::tuple{b.gather()}; }),
    op_row<ShardOp::kCollectWeights>([](truth::FoldBackend& b) {
      return std::tuple{WeightsBody{false, b.collect_weights()}};
    }));

/// The row of `Op`, found at compile time.
template <ShardOp Op, std::size_t I = 0>
constexpr const auto& row_of() {
  if constexpr (std::tuple_element_t<I, std::decay_t<decltype(kOpTable)>>::op == Op) {
    return std::get<I>(kOpTable);
  } else {
    return row_of<Op, I + 1>();
  }
}
template <ShardOp Op>
using ArgsOf = typename std::decay_t<decltype(row_of<Op>())>::Args;
template <ShardOp Op>
using ReplyOf = typename std::decay_t<decltype(row_of<Op>())>::Reply;

/// Runs a table op on a shard: decodes the request through its row, runs it
/// on `backend` (null before the round is finalized, refused once the
/// request has decoded) and encodes the reply. Returns nothing for an op that
/// has no row.
std::optional<std::vector<std::uint8_t>> run_op(ShardOp op, std::span<const std::uint8_t> body,
                                                truth::FoldBackend* backend);

}  // namespace dptd::dist
