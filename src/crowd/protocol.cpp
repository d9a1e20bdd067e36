#include "crowd/protocol.h"

#include "common/check.h"

namespace dptd::crowd {

std::vector<std::uint8_t> TaskAnnounce::encode() const {
  Encoder enc;
  enc.write_varint(round);
  enc.write_double(lambda2);
  enc.write_varint(num_objects);
  return enc.take();
}

TaskAnnounce TaskAnnounce::decode(std::span<const std::uint8_t> bytes) {
  Decoder dec(bytes);
  TaskAnnounce msg;
  msg.round = dec.read_varint();
  msg.lambda2 = dec.read_double();
  msg.num_objects = dec.read_varint();
  if (!dec.done()) throw DecodeError("TaskAnnounce: trailing bytes");
  return msg;
}

std::vector<std::uint8_t> Report::encode() const {
  DPTD_REQUIRE(objects.size() == values.size(),
               "Report: objects/values size mismatch");
  Encoder enc;
  enc.write_varint(round);
  enc.write_varint(user_id);
  enc.write_varint(objects.size());
  for (std::uint64_t object : objects) enc.write_varint(object);
  for (double value : values) enc.write_double(value);
  return enc.take();
}

namespace {

/// Reads the leading round varint and hands the rest to `decode_fields`.
template <typename Upload>
Upload decode_upload(std::span<const std::uint8_t> bytes) {
  Decoder dec(bytes);
  const std::uint64_t round = dec.read_varint();
  return Upload::decode_fields(round,
                               bytes.subspan(bytes.size() - dec.remaining()));
}

}  // namespace

Report Report::decode(std::span<const std::uint8_t> bytes) {
  return decode_upload<Report>(bytes);
}

Report Report::decode_fields(std::uint64_t round,
                             std::span<const std::uint8_t> fields) {
  Decoder dec(fields);
  Report msg;
  msg.round = round;
  msg.user_id = dec.read_varint();
  // Each claim is an object varint and a double: at least 9 bytes.
  const std::size_t count = dec.read_count(9);
  if (count > (1u << 26)) throw DecodeError("Report: implausible claim count");
  msg.objects.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    msg.objects.push_back(dec.read_varint());
  }
  msg.values.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    msg.values.push_back(dec.read_double());
  }
  if (!dec.done()) throw DecodeError("Report: trailing bytes");
  return msg;
}

std::optional<ReportHeader> Report::peek_header(
    std::span<const std::uint8_t> bytes) {
  Decoder dec(bytes);
  try {
    ReportHeader header;
    header.round = dec.read_varint();
    header.round_bytes = bytes.size() - dec.remaining();
    header.user_id = dec.read_varint();
    return header;
  } catch (const DecodeError&) {
    return std::nullopt;
  }
}

std::vector<std::uint8_t> LabelReport::encode() const {
  DPTD_REQUIRE(objects.size() == labels.size(),
               "LabelReport: objects/labels size mismatch");
  Encoder enc;
  enc.write_varint(round);
  enc.write_varint(user_id);
  enc.write_varint(objects.size());
  for (std::uint64_t object : objects) enc.write_varint(object);
  for (std::uint32_t label : labels) enc.write_varint(label);
  return enc.take();
}

LabelReport LabelReport::decode(std::span<const std::uint8_t> bytes) {
  return decode_upload<LabelReport>(bytes);
}

LabelReport LabelReport::decode_fields(std::uint64_t round,
                                       std::span<const std::uint8_t> fields) {
  Decoder dec(fields);
  LabelReport msg;
  msg.round = round;
  msg.user_id = dec.read_varint();
  // Each claim is an object varint and a label varint: at least 2 bytes.
  const std::size_t count = dec.read_count(2);
  if (count > (1u << 26)) {
    throw DecodeError("LabelReport: implausible claim count");
  }
  msg.objects.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    msg.objects.push_back(dec.read_varint());
  }
  msg.labels.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t label = dec.read_varint();
    if (label > 0xffffffffULL) throw DecodeError("LabelReport: label overflow");
    msg.labels.push_back(static_cast<std::uint32_t>(label));
  }
  if (!dec.done()) throw DecodeError("LabelReport: trailing bytes");
  return msg;
}

void ReportBatchBuilder::add(std::span<const std::uint8_t> upload,
                             const ReportHeader& header) {
  const std::span<const std::uint8_t> item = upload.subspan(header.round_bytes);
  items_.write_varint(item.size());
  items_.write_raw(item);
  ++count_;
}

std::vector<std::uint8_t> ReportBatchBuilder::take(std::uint64_t round,
                                                   MessageType type) {
  Encoder payload;
  payload.write_varint(round);
  payload.write_varint(count_);
  payload.write_varint(static_cast<std::uint32_t>(type));
  payload.write_raw(items_.bytes());
  items_.clear();
  count_ = 0;
  return payload.take();
}

ReportBatchReader::ReportBatchReader(std::span<const std::uint8_t> payload)
    : dec_(payload) {
  round_ = dec_.read_varint();
  const std::uint64_t count = dec_.read_varint();
  const std::uint64_t type = dec_.read_varint();
  if (type > 0xffffffffULL) throw DecodeError("ReportBatch: type overflow");
  if (count > dec_.remaining()) {
    throw DecodeError("ReportBatch: more items than bytes");
  }
  count_ = static_cast<std::size_t>(count);
  type_ = static_cast<MessageType>(type);
}

std::span<const std::uint8_t> ReportBatchReader::next() {
  const std::uint64_t length = dec_.read_varint();
  if (length > dec_.remaining()) {
    throw DecodeError("ReportBatch: item runs past the payload");
  }
  return dec_.read_span(static_cast<std::size_t>(length));
}

std::vector<std::uint8_t> ResultPublish::encode() const {
  Encoder enc;
  enc.write_varint(round);
  enc.write_doubles(truths);
  return enc.take();
}

ResultPublish ResultPublish::decode(std::span<const std::uint8_t> bytes) {
  Decoder dec(bytes);
  ResultPublish msg;
  msg.round = dec.read_varint();
  msg.truths = dec.read_doubles();
  if (!dec.done()) throw DecodeError("ResultPublish: trailing bytes");
  return msg;
}

std::vector<std::uint8_t> StatsEnvelope::encode() const {
  Encoder enc;
  enc.write_varint(op_id);
  enc.write_u8(op);
  enc.write_bytes(body);
  return enc.take();
}

StatsEnvelope StatsEnvelope::decode(std::span<const std::uint8_t> bytes) {
  Decoder dec(bytes);
  StatsEnvelope msg;
  msg.op_id = dec.read_varint();
  msg.op = dec.read_u8();
  msg.body = dec.read_bytes();  // mirror of encode's write_bytes
  if (!dec.done()) throw DecodeError("StatsEnvelope: trailing bytes");
  return msg;
}

net::Message make_message(net::NodeId source, net::NodeId destination,
                          MessageType type,
                          std::vector<std::uint8_t> payload) {
  return net::Message{source, destination, static_cast<std::uint32_t>(type),
                      std::move(payload)};
}

}  // namespace dptd::crowd
