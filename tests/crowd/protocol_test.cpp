#include "crowd/protocol.h"

#include <gtest/gtest.h>

#include <optional>
#include <span>
#include <vector>

#include "crowd/server.h"
#include "net/network.h"
#include "net/simulator.h"

namespace dptd::crowd {
namespace {

TEST(Protocol, TaskAnnounceRoundTrip) {
  TaskAnnounce msg;
  msg.round = 42;
  msg.lambda2 = 0.625;
  msg.num_objects = 129;
  const TaskAnnounce decoded = TaskAnnounce::decode(msg.encode());
  EXPECT_EQ(decoded.round, 42u);
  EXPECT_DOUBLE_EQ(decoded.lambda2, 0.625);
  EXPECT_EQ(decoded.num_objects, 129u);
}

TEST(Protocol, ReportRoundTrip) {
  Report msg;
  msg.round = 3;
  msg.user_id = 17;
  msg.objects = {0, 5, 128};
  msg.values = {1.5, -2.25, 1e-9};
  const Report decoded = Report::decode(msg.encode());
  EXPECT_EQ(decoded.round, 3u);
  EXPECT_EQ(decoded.user_id, 17u);
  EXPECT_EQ(decoded.objects, msg.objects);
  EXPECT_EQ(decoded.values, msg.values);
}

TEST(Protocol, EmptyReportRoundTrip) {
  Report msg;
  msg.round = 1;
  msg.user_id = 2;
  const Report decoded = Report::decode(msg.encode());
  EXPECT_TRUE(decoded.objects.empty());
  EXPECT_TRUE(decoded.values.empty());
}

TEST(Protocol, ResultPublishRoundTrip) {
  ResultPublish msg;
  msg.round = 9;
  msg.truths = {10.0, 20.5, 30.25};
  const ResultPublish decoded = ResultPublish::decode(msg.encode());
  EXPECT_EQ(decoded.round, 9u);
  EXPECT_EQ(decoded.truths, msg.truths);
}

TEST(Protocol, ReportRejectsMismatchedArrays) {
  Report msg;
  msg.objects = {1, 2};
  msg.values = {1.0};
  EXPECT_THROW(msg.encode(), std::invalid_argument);
}

TEST(Protocol, DecodeRejectsTruncatedPayload) {
  Report msg;
  msg.round = 1;
  msg.user_id = 2;
  msg.objects = {3};
  msg.values = {4.0};
  std::vector<std::uint8_t> bytes = msg.encode();
  bytes.resize(bytes.size() - 3);
  EXPECT_THROW(Report::decode(bytes), DecodeError);
}

TEST(Protocol, DecodeRejectsTrailingBytes) {
  TaskAnnounce msg;
  std::vector<std::uint8_t> bytes = msg.encode();
  bytes.push_back(0x00);
  EXPECT_THROW(TaskAnnounce::decode(bytes), DecodeError);
}

TEST(Protocol, DecodeRejectsImplausibleClaimCount) {
  Encoder enc;
  enc.write_varint(1);                   // round
  enc.write_varint(2);                   // user
  enc.write_varint(1ull << 40);          // absurd claim count
  EXPECT_THROW(Report::decode(enc.bytes()), DecodeError);
}

TEST(Protocol, PeekHeaderReportsTheRoundVarintWidth) {
  Report msg;
  msg.user_id = 5;
  for (const std::uint64_t round : {1ull, 127ull, 128ull, 1ull << 40}) {
    msg.round = round;
    const std::vector<std::uint8_t> bytes = msg.encode();
    const std::optional<ReportHeader> header = Report::peek_header(bytes);
    ASSERT_TRUE(header.has_value());
    EXPECT_EQ(header->round, round);
    EXPECT_EQ(header->user_id, 5u);
    Encoder round_only;
    round_only.write_varint(round);
    EXPECT_EQ(header->round_bytes, round_only.size()) << round;
  }
}

TEST(Protocol, DecodeFieldsMatchesDecodeAfterTheRound) {
  Report report;
  report.round = 300;  // a two-byte varint
  report.user_id = 17;
  report.objects = {0, 5};
  report.values = {1.5, -2.25};
  const std::vector<std::uint8_t> bytes = report.encode();
  const std::span<const std::uint8_t> fields =
      std::span<const std::uint8_t>(bytes).subspan(2);
  const Report decoded = Report::decode_fields(300, fields);
  EXPECT_EQ(decoded.round, 300u);
  EXPECT_EQ(decoded.user_id, 17u);
  EXPECT_EQ(decoded.objects, report.objects);
  EXPECT_EQ(decoded.values, report.values);
  // The same checks as decode(): trailing bytes and truncation are refused.
  std::vector<std::uint8_t> trailing(fields.begin(), fields.end());
  trailing.push_back(0);
  EXPECT_THROW(Report::decode_fields(300, trailing), DecodeError);
  EXPECT_THROW(Report::decode_fields(300, fields.first(fields.size() - 1)),
               DecodeError);

  LabelReport labels;
  labels.round = 2;
  labels.user_id = 9;
  labels.objects = {1, 3};
  labels.labels = {0, 2};
  const std::vector<std::uint8_t> label_bytes = labels.encode();
  const LabelReport label_decoded = LabelReport::decode_fields(
      2, std::span<const std::uint8_t>(label_bytes).subspan(1));
  EXPECT_EQ(label_decoded.round, 2u);
  EXPECT_EQ(label_decoded.user_id, 9u);
  EXPECT_EQ(label_decoded.labels, labels.labels);
}

TEST(Protocol, ReportBatchRoundTripsItemsInOrderAtThreeHeaderBytes) {
  std::vector<Report> reports;
  std::size_t upload_bytes = 0;
  ReportBatchBuilder builder;
  for (std::uint64_t user = 0; user < 5; ++user) {
    Report report;
    report.round = 4;
    report.user_id = user * 1000;
    for (std::uint64_t n = 0; n <= user; ++n) {
      report.objects.push_back(n);
      report.values.push_back(static_cast<double>(user) - 0.5 * n);
    }
    const std::vector<std::uint8_t> upload = report.encode();
    upload_bytes += upload.size();
    builder.add(upload, *Report::peek_header(upload));
    reports.push_back(report);
  }
  EXPECT_EQ(builder.count(), 5u);
  const std::vector<std::uint8_t> payload =
      builder.take(4, MessageType::kReport);
  EXPECT_TRUE(builder.empty());
  EXPECT_EQ(builder.bytes(), 0u);
  // One-byte rounds and lengths: the batch costs its header alone.
  EXPECT_EQ(payload.size(), upload_bytes + 3);

  ReportBatchReader reader(payload);
  EXPECT_EQ(reader.round(), 4u);
  EXPECT_EQ(reader.type(), MessageType::kReport);
  ASSERT_EQ(reader.count(), reports.size());
  for (const Report& want : reports) {
    const Report got = Report::decode_fields(reader.round(), reader.next());
    EXPECT_EQ(got.round, want.round);
    EXPECT_EQ(got.user_id, want.user_id);
    EXPECT_EQ(got.objects, want.objects);
    EXPECT_EQ(got.values, want.values);
  }
  EXPECT_EQ(reader.remaining(), 0u);
}

TEST(Protocol, ReportBatchReaderBoundsCountAndLengthsByTheBytesLeft) {
  Encoder too_many;
  too_many.write_varint(1);  // round
  too_many.write_varint(3);  // three items claimed...
  too_many.write_varint(static_cast<std::uint32_t>(MessageType::kReport));
  too_many.write_u8(0);  // ...in two bytes
  too_many.write_u8(0);
  EXPECT_THROW(ReportBatchReader{too_many.bytes()}, DecodeError);

  Encoder overrun;
  overrun.write_varint(1);
  overrun.write_varint(1);
  overrun.write_varint(static_cast<std::uint32_t>(MessageType::kReport));
  overrun.write_varint(50);  // item length past the end
  overrun.write_u8(7);
  ReportBatchReader reader(overrun.bytes());
  EXPECT_EQ(reader.count(), 1u);
  EXPECT_THROW(reader.next(), DecodeError);

  EXPECT_THROW(ReportBatchReader{std::span<const std::uint8_t>{}},
               DecodeError);
}

TEST(Protocol, MakeMessageSetsRouting) {
  const net::Message msg =
      make_message(3, 9, MessageType::kReport, {0xaa, 0xbb});
  EXPECT_EQ(msg.source, 3u);
  EXPECT_EQ(msg.destination, 9u);
  EXPECT_EQ(msg.type, static_cast<std::uint32_t>(MessageType::kReport));
  EXPECT_EQ(msg.payload, (std::vector<std::uint8_t>{0xaa, 0xbb}));
}

TEST(Protocol, FanOutSharesOneBufferAndCountsEveryRecipientAtFullSize) {
  // A ResultPublish fanned out to N devices: every device reads the one
  // encoded buffer, while the network counts N full-size messages.
  class Recorder final : public net::Node {
   public:
    void on_message(const net::Message& message) override {
      received.push_back(message);
    }
    std::vector<net::Message> received;
  };
  net::Simulator sim;
  net::Network network(sim, net::LatencyModel{0.01, 0.0, 0.0});
  constexpr std::size_t kDevices = 5;
  std::vector<Recorder> devices(kDevices);
  std::vector<net::NodeId> ids;
  for (std::size_t i = 0; i < kDevices; ++i) {
    ids.push_back(100 + i);
    network.attach(ids.back(), devices[i]);
  }
  ResultPublish publish;
  publish.round = 4;
  publish.truths = {1.5, -2.0, 3.25};
  const std::vector<std::uint8_t> encoded = publish.encode();
  ParticipantIndex roster;
  roster.build(ids);
  fan_out(network, 1, roster, MessageType::kResultPublish, encoded);
  sim.run();

  ASSERT_EQ(devices[0].received.size(), 1u);
  const std::uint8_t* buffer = devices[0].received[0].payload.data();
  for (std::size_t i = 0; i < kDevices; ++i) {
    ASSERT_EQ(devices[i].received.size(), 1u) << i;
    const net::Message& message = devices[i].received[0];
    EXPECT_EQ(message.source, 1u);
    EXPECT_EQ(message.destination, ids[i]);
    EXPECT_EQ(message.type,
              static_cast<std::uint32_t>(MessageType::kResultPublish));
    EXPECT_EQ(message.payload.data(), buffer) << i;
    EXPECT_EQ(message.payload, encoded) << i;
  }
  const net::NetworkStats& stats = network.stats();
  EXPECT_EQ(stats.messages_sent, kDevices);
  EXPECT_EQ(stats.messages_delivered, kDevices);
  EXPECT_EQ(stats.bytes_sent, kDevices * encoded.size());
  EXPECT_EQ(stats.bytes_delivered, kDevices * encoded.size());
}

TEST(Protocol, WireSizeIsCompact) {
  // A 129-claim report must stay near 8 bytes/value + small overhead —
  // the non-interactive protocol's single-upload efficiency claim.
  Report msg;
  msg.round = 1;
  msg.user_id = 246;
  for (std::uint64_t n = 0; n < 129; ++n) {
    msg.objects.push_back(n);
    msg.values.push_back(static_cast<double>(n) * 1.5);
  }
  const std::size_t size = msg.encode().size();
  EXPECT_LT(size, 129 * 8 + 129 * 2 + 16);
}

}  // namespace
}  // namespace dptd::crowd
