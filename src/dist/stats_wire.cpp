#include "dist/stats_wire.h"

namespace dptd::dist {

void write_field(Encoder& enc, double x) { enc.write_double(x); }
void write_field(Encoder& enc, std::uint64_t x) { enc.write_varint(x); }
void write_field(Encoder& enc, truth::CrhLoss loss) {
  enc.write_u8(static_cast<std::uint8_t>(loss));
}
void write_field(Encoder& enc, const Doubles& xs) { enc.write_doubles(xs); }

void write_field(Encoder& enc, const Moments& moments) {
  enc.write_varint(moments.size());
  for (const RunningStats& m : moments) {
    enc.write_varint(m.count());
    if (m.count() == 0) continue;  // empty accumulator: nothing else to carry
    enc.write_double(m.mean());
    enc.write_double(m.sum_squared_deviations());
    enc.write_double(m.min());
    enc.write_double(m.max());
  }
}

void write_field(Encoder& enc, const truth::AggregateStats& stats) {
  enc.write_doubles(stats.weighted_sum);
  enc.write_doubles(stats.weight_sum);
  enc.write_doubles(stats.plain_sum);
  write_field(enc, stats.counts);
}

void write_field(Encoder& enc, const WeightsBody& slice) {
  enc.write_u8(slice.uniform ? 1 : 2);
  enc.write_doubles(slice.uniform ? std::span<const double>{}
                                  : std::span<const double>(slice.weights));
}

void write_field(Encoder& enc, const truth::GatheredColumns& columns) {
  const std::size_t objects = columns.num_objects();
  std::size_t values = 0;
  enc.write_varint(objects);
  for (std::size_t n = 0; n < objects; ++n) {
    const std::size_t length = columns.column(n).size();
    enc.write_varint(length);
    values += length;
  }
  enc.write_varint(values);
  for (std::size_t n = 0; n < objects; ++n) {
    for (const double x : columns.column(n)) enc.write_double(x);
  }
}

void read_field(Decoder& dec, double& x) { x = dec.read_double(); }
void read_field(Decoder& dec, std::uint64_t& x) { x = dec.read_varint(); }

void read_field(Decoder& dec, truth::CrhLoss& loss) {
  const std::uint8_t kind = dec.read_u8();
  if (kind > 2) throw DecodeError("CrhLoss: bad loss kind");
  loss = static_cast<truth::CrhLoss>(kind);
}

void read_field(Decoder& dec, Doubles& xs) { xs = dec.read_doubles(); }

void read_field(Decoder& dec, Moments& moments) {
  moments.resize(dec.read_count());
  for (RunningStats& m : moments) {
    const std::uint64_t n = dec.read_varint();
    if (n == 0) {
      m = RunningStats{};
      continue;
    }
    const double mean = dec.read_double();
    const double m2 = dec.read_double();
    const double min = dec.read_double();
    const double max = dec.read_double();
    m = RunningStats::restore(static_cast<std::size_t>(n), mean, m2, min, max);
  }
}

void read_field(Decoder& dec, truth::AggregateStats& stats) {
  read_field(dec, stats.weighted_sum);
  read_field(dec, stats.weight_sum);
  read_field(dec, stats.plain_sum);
  read_field(dec, stats.counts);
  const std::size_t n = stats.counts.size();
  if (stats.weighted_sum.size() != n || stats.weight_sum.size() != n ||
      stats.plain_sum.size() != n) {
    throw DecodeError("AggregateStats: component size mismatch");
  }
}

void read_field(Decoder& dec, WeightsBody& slice) {
  const std::uint8_t mode = dec.read_u8();
  if (mode != 1 && mode != 2) throw DecodeError("weight slice: bad mode");
  slice.uniform = mode == 1;
  slice.weights = dec.read_doubles();
  if (slice.uniform != slice.weights.empty()) {
    throw DecodeError(slice.uniform ? "weight slice: uniform carries values"
                                    : "weight slice: explicit and empty");
  }
}

void read_field(Decoder& dec, truth::GatheredColumns& columns) {
  columns.offsets.assign(1, 0);
  const std::size_t objects = dec.read_count();
  for (std::size_t n = 0; n < objects; ++n) {
    // A running sum past the container cap could never match the values,
    // and refusing it here keeps the sum from wrapping.
    const std::uint64_t length = dec.read_varint();
    if (length > kMaxContainerLength - columns.offsets.back()) {
      throw DecodeError("gather fragment: lengths overflow");
    }
    columns.offsets.push_back(columns.offsets.back() +
                              static_cast<std::size_t>(length));
  }
  columns.values = dec.read_doubles();
  if (columns.values.size() != columns.offsets.back()) {
    throw DecodeError("gather fragment: lengths/values mismatch");
  }
}

std::optional<std::vector<std::uint8_t>> run_op(ShardOp op, std::span<const std::uint8_t> body,
                                                truth::FoldBackend* backend) {
  std::optional<std::vector<std::uint8_t>> reply;
  const auto serve = [&](const auto& row) {
    auto args = decode_fields<typename std::decay_t<decltype(row)>::Args>(body);
    if (backend == nullptr) throw DecodeError("shard: no finalized matrix");
    const auto run = [&](auto&... fields) { return row.run(*backend, std::move(fields)...); };
    if constexpr (std::is_void_v<decltype(std::apply(run, args))>) {
      std::apply(run, args);
      reply.emplace();
    } else {
      reply = encode_fields(std::apply(run, args));
    }
  };
  std::apply([&](const auto&... rows) { ((rows.op == op && (serve(rows), true)) || ...); },
             kOpTable);
  return reply;
}

std::vector<std::uint8_t> SetupBody::encode() const {
  if (!participants.empty()) {
    return write_fields(round, num_users, num_shards, shard_index,
                        num_objects, block_size, num_labels, participants);
  }
  // A range: the zero a list's count never is, then its two ends.
  return write_fields(round, num_users, num_shards, shard_index, num_objects,
                      block_size, num_labels, std::uint64_t{0}, range_base,
                      range_count);
}

SetupBody SetupBody::decode(std::span<const std::uint8_t> bytes) {
  SetupBody msg;
  Decoder dec(bytes);
  for (std::uint64_t* x : {&msg.round, &msg.num_users, &msg.num_shards,
                           &msg.shard_index, &msg.num_objects,
                           &msg.block_size, &msg.num_labels}) {
    *x = dec.read_varint();
  }
  read_field(dec, msg.participants);
  if (msg.participants.empty()) {
    msg.range_base = dec.read_varint();
    msg.range_count = dec.read_varint();
  }
  if (!dec.done()) throw DecodeError("stats body: trailing bytes");
  return msg;
}

std::vector<std::uint8_t> IngestSummaryBody::encode() const {
  return write_fields(stats.reports_received, stats.duplicates_ignored,
                      stats.malformed_reports, stats.rejected_reports,
                      stats.invalid_labels, object_counts);
}

IngestSummaryBody IngestSummaryBody::decode(
    std::span<const std::uint8_t> bytes) {
  IngestSummaryBody msg;
  read_fields(bytes, msg.stats.reports_received, msg.stats.duplicates_ignored,
              msg.stats.malformed_reports, msg.stats.rejected_reports,
              msg.stats.invalid_labels, msg.object_counts);
  return msg;
}

std::vector<std::uint8_t> WeightsBody::encode() const {
  return write_fields(*this);
}

WeightsBody WeightsBody::decode(std::span<const std::uint8_t> bytes) {
  WeightsBody msg;
  read_fields(bytes, msg);
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
  msg.items.resize(dec.read_count());
  if (msg.items.empty()) throw DecodeError("BatchBody: empty batch");
  bool collected = false;
  for (BatchItem& item : msg.items) {
    const std::uint8_t op = dec.read_u8();
    if (op < static_cast<std::uint8_t>(ShardOp::kSetup) ||
        op > static_cast<std::uint8_t>(ShardOp::kBatch)) {
      throw DecodeError("BatchBody: unknown op");
    }
    item.op = static_cast<ShardOp>(op);
    // Refused here, before any sub-op executes, so a bad batch never
    // half-applies: lifecycle ops are not idempotent and nesting would defeat
    // the one-op_id-per-batch watermark contract.
    if (item.op == ShardOp::kSetup || item.op == ShardOp::kFinalizeIngest ||
        item.op == ShardOp::kBatch) {
      throw DecodeError("BatchBody: op not batchable");
    }
    // A collect hands the weight register over, so the only op that may
    // follow it is kGetTelemetry, which never fails: an abort after the
    // collect would have the resend collect an empty register.
    if (collected && item.op != ShardOp::kGetTelemetry) {
      throw DecodeError("BatchBody: op after kCollectWeights");
    }
    collected = collected || item.op == ShardOp::kCollectWeights;
    item.body = dec.read_bytes();
  }
  if (!dec.done()) throw DecodeError("BatchBody: trailing bytes");
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
  msg.bodies.resize(dec.read_count());
  for (std::vector<std::uint8_t>& body : msg.bodies) body = dec.read_bytes();
  if (!dec.done()) throw DecodeError("BatchReplyBody: trailing bytes");
  return msg;
}

}  // namespace dptd::dist
