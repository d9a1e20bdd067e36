#include "dist/stats_wire.h"

namespace dptd::dist {
namespace {

// Decoded-size sanity cap shared with the serialize layer's container limit:
// a hostile length prefix must not trigger a giant allocation.
constexpr std::uint64_t kMaxEntries = 1u << 28;

std::vector<std::uint64_t> read_varints(Decoder& dec) {
  const std::uint64_t count = dec.read_varint();
  if (count > kMaxEntries) throw DecodeError("varint array too long");
  std::vector<std::uint64_t> out;
  out.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) out.push_back(dec.read_varint());
  return out;
}

void write_varints(Encoder& enc, std::span<const std::uint64_t> xs) {
  enc.write_varint(xs.size());
  for (std::uint64_t x : xs) enc.write_varint(x);
}

void require_done(const Decoder& dec, const char* what) {
  if (!dec.done()) throw DecodeError(std::string(what) + ": trailing bytes");
}

}  // namespace

std::vector<std::uint8_t> SetupBody::encode() const {
  Encoder enc;
  enc.write_varint(round);
  enc.write_varint(num_users);
  enc.write_varint(num_shards);
  enc.write_varint(shard_index);
  enc.write_varint(num_objects);
  enc.write_varint(block_size);
  enc.write_varint(num_labels);
  write_varints(enc, participants);
  return enc.take();
}

SetupBody SetupBody::decode(std::span<const std::uint8_t> bytes) {
  Decoder dec(bytes);
  SetupBody msg;
  msg.round = dec.read_varint();
  msg.num_users = dec.read_varint();
  msg.num_shards = dec.read_varint();
  msg.shard_index = dec.read_varint();
  msg.num_objects = dec.read_varint();
  msg.block_size = dec.read_varint();
  msg.num_labels = dec.read_varint();
  msg.participants = read_varints(dec);
  require_done(dec, "SetupBody");
  return msg;
}

std::vector<std::uint8_t> IngestSummaryBody::encode() const {
  Encoder enc;
  enc.write_varint(stats.reports_received);
  enc.write_varint(stats.duplicates_ignored);
  enc.write_varint(stats.malformed_reports);
  enc.write_varint(stats.rejected_reports);
  enc.write_varint(stats.invalid_labels);
  write_varints(enc, object_counts);
  return enc.take();
}

IngestSummaryBody IngestSummaryBody::decode(
    std::span<const std::uint8_t> bytes) {
  Decoder dec(bytes);
  IngestSummaryBody msg;
  msg.stats.reports_received = dec.read_varint();
  msg.stats.duplicates_ignored = dec.read_varint();
  msg.stats.malformed_reports = dec.read_varint();
  msg.stats.rejected_reports = dec.read_varint();
  msg.stats.invalid_labels = dec.read_varint();
  msg.object_counts = read_varints(dec);
  require_done(dec, "IngestSummaryBody");
  return msg;
}

std::vector<std::uint8_t> WeightsBody::encode() const {
  Encoder enc;
  enc.write_u8(uniform ? 1 : 2);
  enc.write_doubles(uniform ? std::span<const double>{}
                            : std::span<const double>(weights));
  return enc.take();
}

WeightsBody WeightsBody::decode(std::span<const std::uint8_t> bytes) {
  Decoder dec(bytes);
  WeightsBody msg;
  const std::uint8_t mode = dec.read_u8();
  if (mode != 1 && mode != 2) throw DecodeError("WeightsBody: bad mode");
  msg.uniform = mode == 1;
  msg.weights = dec.read_doubles();
  if (msg.uniform && !msg.weights.empty()) {
    throw DecodeError("WeightsBody: uniform mode carries values");
  }
  require_done(dec, "WeightsBody");
  return msg;
}

std::vector<std::uint8_t> encode_moments(
    std::span<const RunningStats> moments) {
  Encoder enc;
  enc.write_varint(moments.size());
  for (const RunningStats& m : moments) {
    enc.write_varint(m.count());
    if (m.count() == 0) continue;  // empty accumulator: nothing else to carry
    enc.write_double(m.mean());
    enc.write_double(m.sum_squared_deviations());
    enc.write_double(m.min());
    enc.write_double(m.max());
  }
  return enc.take();
}

std::vector<RunningStats> decode_moments(std::span<const std::uint8_t> bytes) {
  Decoder dec(bytes);
  const std::uint64_t count = dec.read_varint();
  if (count > kMaxEntries) throw DecodeError("moments array too long");
  std::vector<RunningStats> out;
  out.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint64_t n = dec.read_varint();
    if (n == 0) {
      out.emplace_back();
      continue;
    }
    const double mean = dec.read_double();
    const double m2 = dec.read_double();
    const double min = dec.read_double();
    const double max = dec.read_double();
    out.push_back(RunningStats::restore(static_cast<std::size_t>(n), mean, m2,
                                        min, max));
  }
  require_done(dec, "moments");
  return out;
}

std::vector<std::uint8_t> GatherBody::encode() const {
  Encoder enc;
  write_varints(enc, lengths);
  enc.write_doubles(values);
  return enc.take();
}

GatherBody GatherBody::decode(std::span<const std::uint8_t> bytes) {
  Decoder dec(bytes);
  GatherBody msg;
  msg.lengths = read_varints(dec);
  msg.values = dec.read_doubles();
  std::uint64_t total = 0;
  for (std::uint64_t len : msg.lengths) total += len;
  if (total != msg.values.size()) {
    throw DecodeError("GatherBody: lengths/values mismatch");
  }
  require_done(dec, "GatherBody");
  return msg;
}

std::vector<std::uint8_t> AggregateBody::encode() const {
  Encoder enc;
  enc.write_doubles(stats.weighted_sum);
  enc.write_doubles(stats.weight_sum);
  enc.write_doubles(stats.plain_sum);
  std::vector<std::uint64_t> counts(stats.counts.begin(), stats.counts.end());
  write_varints(enc, counts);
  return enc.take();
}

AggregateBody AggregateBody::decode(std::span<const std::uint8_t> bytes) {
  Decoder dec(bytes);
  AggregateBody msg;
  msg.stats.weighted_sum = dec.read_doubles();
  msg.stats.weight_sum = dec.read_doubles();
  msg.stats.plain_sum = dec.read_doubles();
  const std::vector<std::uint64_t> counts = read_varints(dec);
  msg.stats.counts.assign(counts.begin(), counts.end());
  const std::size_t n = msg.stats.weighted_sum.size();
  if (msg.stats.weight_sum.size() != n || msg.stats.plain_sum.size() != n ||
      msg.stats.counts.size() != n) {
    throw DecodeError("AggregateBody: component size mismatch");
  }
  require_done(dec, "AggregateBody");
  return msg;
}

std::vector<std::uint8_t> CrhPrepareBody::encode() const {
  Encoder enc;
  enc.write_u8(loss);
  enc.write_double(min_loss_fraction);
  enc.write_doubles(stddevs);
  return enc.take();
}

CrhPrepareBody CrhPrepareBody::decode(std::span<const std::uint8_t> bytes) {
  Decoder dec(bytes);
  CrhPrepareBody msg;
  msg.loss = dec.read_u8();
  if (msg.loss > 2) throw DecodeError("CrhPrepareBody: bad loss kind");
  msg.min_loss_fraction = dec.read_double();
  msg.stddevs = dec.read_doubles();
  require_done(dec, "CrhPrepareBody");
  return msg;
}

std::vector<std::uint8_t> CrhLossBody::encode() const {
  Encoder enc;
  enc.write_doubles(truths);
  enc.write_double(total);
  return enc.take();
}

CrhLossBody CrhLossBody::decode(std::span<const std::uint8_t> bytes) {
  Decoder dec(bytes);
  CrhLossBody msg;
  msg.truths = dec.read_doubles();
  msg.total = dec.read_double();
  require_done(dec, "CrhLossBody");
  return msg;
}

std::vector<std::uint8_t> CrhTotalBody::encode() const {
  Encoder enc;
  enc.write_double(total);
  return enc.take();
}

CrhTotalBody CrhTotalBody::decode(std::span<const std::uint8_t> bytes) {
  Decoder dec(bytes);
  CrhTotalBody msg;
  msg.total = dec.read_double();
  require_done(dec, "CrhTotalBody");
  return msg;
}

std::vector<std::uint8_t> GtmPrepareBody::encode() const {
  Encoder enc;
  enc.write_double(quality_prior_alpha);
  enc.write_double(quality_prior_beta);
  enc.write_double(min_variance);
  enc.write_doubles(shift);
  enc.write_doubles(scale);
  return enc.take();
}

GtmPrepareBody GtmPrepareBody::decode(std::span<const std::uint8_t> bytes) {
  Decoder dec(bytes);
  GtmPrepareBody msg;
  msg.quality_prior_alpha = dec.read_double();
  msg.quality_prior_beta = dec.read_double();
  msg.min_variance = dec.read_double();
  msg.shift = dec.read_doubles();
  msg.scale = dec.read_doubles();
  if (msg.shift.size() != msg.scale.size()) {
    throw DecodeError("GtmPrepareBody: shift/scale size mismatch");
  }
  require_done(dec, "GtmPrepareBody");
  return msg;
}

std::vector<std::uint8_t> GtmStepBody::encode() const {
  Encoder enc;
  enc.write_doubles(truth_mean);
  enc.write_doubles(truth_var);
  return enc.take();
}

GtmStepBody GtmStepBody::decode(std::span<const std::uint8_t> bytes) {
  Decoder dec(bytes);
  GtmStepBody msg;
  msg.truth_mean = dec.read_doubles();
  msg.truth_var = dec.read_doubles();
  if (msg.truth_mean.size() != msg.truth_var.size()) {
    throw DecodeError("GtmStepBody: mean/var size mismatch");
  }
  require_done(dec, "GtmStepBody");
  return msg;
}

std::vector<std::uint8_t> GtmFoldBody::encode() const {
  Encoder enc;
  enc.write_doubles(precision);
  enc.write_doubles(weighted);
  return enc.take();
}

GtmFoldBody GtmFoldBody::decode(std::span<const std::uint8_t> bytes) {
  Decoder dec(bytes);
  GtmFoldBody msg;
  msg.precision = dec.read_doubles();
  msg.weighted = dec.read_doubles();
  if (msg.precision.size() != msg.weighted.size()) {
    throw DecodeError("GtmFoldBody: precision/weighted size mismatch");
  }
  require_done(dec, "GtmFoldBody");
  return msg;
}

std::vector<std::uint8_t> CatdPrepareBody::encode() const {
  Encoder enc;
  enc.write_double(significance);
  enc.write_double(min_residual);
  return enc.take();
}

CatdPrepareBody CatdPrepareBody::decode(std::span<const std::uint8_t> bytes) {
  Decoder dec(bytes);
  CatdPrepareBody msg;
  msg.significance = dec.read_double();
  msg.min_residual = dec.read_double();
  require_done(dec, "CatdPrepareBody");
  return msg;
}

std::vector<std::uint8_t> TruthsBody::encode() const {
  Encoder enc;
  enc.write_doubles(truths);
  return enc.take();
}

TruthsBody TruthsBody::decode(std::span<const std::uint8_t> bytes) {
  Decoder dec(bytes);
  TruthsBody msg;
  msg.truths = dec.read_doubles();
  require_done(dec, "TruthsBody");
  return msg;
}

std::vector<std::uint8_t> VotePrepareBody::encode() const {
  Encoder enc;
  enc.write_varint(num_labels);
  enc.write_double(min_disagreement_fraction);
  return enc.take();
}

VotePrepareBody VotePrepareBody::decode(std::span<const std::uint8_t> bytes) {
  Decoder dec(bytes);
  VotePrepareBody msg;
  msg.num_labels = dec.read_varint();
  if (msg.num_labels > kMaxEntries) {
    throw DecodeError("VotePrepareBody: label alphabet too large");
  }
  msg.min_disagreement_fraction = dec.read_double();
  require_done(dec, "VotePrepareBody");
  return msg;
}

std::vector<std::uint8_t> VoteScoresBody::encode() const {
  Encoder enc;
  enc.write_doubles(scores);
  return enc.take();
}

VoteScoresBody VoteScoresBody::decode(std::span<const std::uint8_t> bytes) {
  Decoder dec(bytes);
  VoteScoresBody msg;
  msg.scores = dec.read_doubles();
  require_done(dec, "VoteScoresBody");
  return msg;
}

std::vector<std::uint8_t> VoteDisagreeBody::encode() const {
  Encoder enc;
  enc.write_varint(truths.size());
  for (std::uint32_t t : truths) enc.write_varint(t);
  enc.write_double(total);
  return enc.take();
}

VoteDisagreeBody VoteDisagreeBody::decode(std::span<const std::uint8_t> bytes) {
  Decoder dec(bytes);
  VoteDisagreeBody msg;
  const std::uint64_t count = dec.read_varint();
  if (count > kMaxEntries) throw DecodeError("VoteDisagreeBody: too long");
  msg.truths.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint64_t t = dec.read_varint();
    if (t > 0xffffffffULL) throw DecodeError("VoteDisagreeBody: label overflow");
    msg.truths.push_back(static_cast<std::uint32_t>(t));
  }
  msg.total = dec.read_double();
  require_done(dec, "VoteDisagreeBody");
  return msg;
}

std::vector<std::uint8_t> BatchBody::encode() const {
  Encoder enc;
  enc.write_varint(items.size());
  for (const BatchItem& item : items) {
    enc.write_u8(static_cast<std::uint8_t>(item.op));
    enc.write_bytes(item.body);
  }
  return enc.take();
}

BatchBody BatchBody::decode(std::span<const std::uint8_t> bytes) {
  Decoder dec(bytes);
  BatchBody msg;
  const std::uint64_t count = dec.read_varint();
  if (count == 0) throw DecodeError("BatchBody: empty batch");
  if (count > kMaxEntries) throw DecodeError("BatchBody: too many items");
  msg.items.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint8_t op = dec.read_u8();
    if (op < static_cast<std::uint8_t>(ShardOp::kSetup) ||
        op > static_cast<std::uint8_t>(ShardOp::kBatch)) {
      throw DecodeError("BatchBody: unknown op");
    }
    // Refused here, before any sub-op executes, so a bad batch never
    // half-applies: lifecycle ops are not idempotent and nesting would defeat
    // the one-op_id-per-batch watermark contract.
    if (op == static_cast<std::uint8_t>(ShardOp::kSetup) ||
        op == static_cast<std::uint8_t>(ShardOp::kFinalizeIngest) ||
        op == static_cast<std::uint8_t>(ShardOp::kBatch)) {
      throw DecodeError("BatchBody: op not batchable");
    }
    BatchItem item;
    item.op = static_cast<ShardOp>(op);
    item.body = dec.read_bytes();
    msg.items.push_back(std::move(item));
  }
  require_done(dec, "BatchBody");
  return msg;
}

std::vector<std::uint8_t> BatchReplyBody::encode() const {
  Encoder enc;
  enc.write_varint(bodies.size());
  for (const std::vector<std::uint8_t>& body : bodies) enc.write_bytes(body);
  return enc.take();
}

BatchReplyBody BatchReplyBody::decode(std::span<const std::uint8_t> bytes) {
  Decoder dec(bytes);
  BatchReplyBody msg;
  const std::uint64_t count = dec.read_varint();
  if (count > kMaxEntries) throw DecodeError("BatchReplyBody: too many items");
  msg.bodies.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) msg.bodies.push_back(dec.read_bytes());
  require_done(dec, "BatchReplyBody");
  return msg;
}

std::vector<std::uint8_t> TelemetryBody::encode() const {
  Encoder enc;
  enc.write_varint(stale_requests);
  enc.write_varint(malformed_messages);
  return enc.take();
}

TelemetryBody TelemetryBody::decode(std::span<const std::uint8_t> bytes) {
  Decoder dec(bytes);
  TelemetryBody msg;
  msg.stale_requests = dec.read_varint();
  msg.malformed_messages = dec.read_varint();
  require_done(dec, "TelemetryBody");
  return msg;
}

}  // namespace dptd::dist
