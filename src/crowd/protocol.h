// Wire protocol of the simulated crowd sensing system (paper Fig. 1 /
// Algorithm 2, distributed form):
//
//   server --TaskAnnounce{round, lambda2, objects}--> every user
//   user   --Report{round, user, (object, value)*}--> server      (one upload)
//   server --ResultPublish{round, truths}--> every user
//
// The protocol is deliberately non-interactive per user: one downlink and one
// uplink message — the efficiency property §5.3 relies on. The server encodes
// each announce and each ResultPublish once, and crowd::fan_out (server.h)
// walks the round's roster, sending every participant a message that shares
// that one read-only buffer (net::Payload): a million-device fan-out holds
// one payload, not a copy per device, and a contiguous roster no id list.
//
// Inside a distributed deployment (dist/) the coordinator forwards the
// uploads it routes to a shard as kReportBatch messages, one per shard per
// transport turn; the coordinator and its shards talk through
// kShardRequest/kShardResponse StatsEnvelopes, and kShutdown ends a shard
// process.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/serialize.h"
#include "net/transport.h"

namespace dptd::crowd {

enum class MessageType : std::uint32_t {
  kTaskAnnounce = 1,
  kReport = 2,
  kResultPublish = 3,
  /// Coordinator -> shard sufficient-statistics RPC (dist/ subsystem).
  kShardRequest = 4,
  /// Shard -> coordinator RPC response.
  kShardResponse = 5,
  /// Orderly-exit request for a remote shard process (empty payload): the
  /// dist::ShardNode sets shutdown_requested() and its service loop returns.
  /// Fire-and-forget — no response, no exactly-once bookkeeping.
  kShutdown = 6,
  /// A categorical upload: same leading round/user varints as kReport (so
  /// Report::peek_header routes both), but claims carry label ids instead of
  /// perturbed readings.
  kLabelReport = 7,
  /// Coordinator -> shard: the kReport or kLabelReport uploads routed to one
  /// shard in one transport turn, in arrival order (ReportBatchBuilder).
  kReportBatch = 8,
};

struct TaskAnnounce {
  std::uint64_t round = 0;
  double lambda2 = 1.0;       ///< server-released hyper-parameter
  std::uint64_t num_objects = 0;

  std::vector<std::uint8_t> encode() const;
  static TaskAnnounce decode(std::span<const std::uint8_t> bytes);
};

/// The routing prefix of an encoded Report, readable without decoding the
/// claim arrays. This is what lets the ingestion front end stay O(1) per
/// report: the network thread peeks round + user id to route, and the full
/// (allocating) decode happens on the owning shard's worker thread.
struct ReportHeader {
  std::uint64_t round = 0;
  std::uint64_t user_id = 0;
  /// Bytes the round varint took: a kReportBatch item starts after them.
  std::size_t round_bytes = 0;
};

struct Report {
  std::uint64_t round = 0;
  std::uint64_t user_id = 0;
  std::vector<std::uint64_t> objects;  ///< parallel arrays
  std::vector<double> values;          ///< perturbed readings

  std::vector<std::uint8_t> encode() const;
  static Report decode(std::span<const std::uint8_t> bytes);
  /// Decodes the fields after the leading round varint (a kReportBatch item,
  /// whose round the batch carries once), with every check decode() makes.
  static Report decode_fields(std::uint64_t round,
                              std::span<const std::uint8_t> fields);
  /// Reads only the leading round/user varints; nullopt when even the header
  /// is undecodable. A successful peek does NOT validate the claim arrays.
  static std::optional<ReportHeader> peek_header(
      std::span<const std::uint8_t> bytes);
};

/// Categorical upload: (object, label) claims. The leading two varints are
/// identical to Report's, so the O(1) routing peek (Report::peek_header)
/// works unchanged on both report kinds — the ingestion front end never
/// needs to know which one it is holding.
struct LabelReport {
  std::uint64_t round = 0;
  std::uint64_t user_id = 0;
  std::vector<std::uint64_t> objects;  ///< parallel arrays
  std::vector<std::uint32_t> labels;   ///< client-side k-RR output

  std::vector<std::uint8_t> encode() const;
  static LabelReport decode(std::span<const std::uint8_t> bytes);
  /// The label twin of Report::decode_fields.
  static LabelReport decode_fields(std::uint64_t round,
                                   std::span<const std::uint8_t> fields);
};

/// Builds one kReportBatch payload:
///
///   [varint round][varint count][varint upload type]
///   count x ([varint length][the upload's bytes after its round varint])
///
/// Every item shares the batch's round and type, so the batch states them
/// once. Dropping each upload's round varint pays for its length prefix (both
/// are one byte while rounds stay below 128 and uploads below 128 bytes), so
/// a batch costs its three header bytes over the uploads it carries.
class ReportBatchBuilder {
 public:
  /// Appends one upload; `header` is its peek, and its round_bytes are what
  /// gets stripped.
  void add(std::span<const std::uint8_t> upload, const ReportHeader& header);

  bool empty() const { return count_ == 0; }
  std::size_t count() const { return count_; }
  /// Item bytes staged so far (length prefixes included, header excluded).
  std::size_t bytes() const { return items_.size(); }

  /// The payload of every upload added since the last take(), all of
  /// `round` and `type`. Leaves the builder empty, its buffer kept.
  std::vector<std::uint8_t> take(std::uint64_t round, MessageType type);

 private:
  Encoder items_;
  std::size_t count_ = 0;
};

/// Walks a kReportBatch payload item by item without copying an item. The
/// constructor reads the header and refuses (DecodeError) a count larger
/// than the bytes after it — every item takes at least its length prefix —
/// so count() never exceeds the payload size.
class ReportBatchReader {
 public:
  explicit ReportBatchReader(std::span<const std::uint8_t> payload);

  std::uint64_t round() const { return round_; }
  std::size_t count() const { return count_; }
  /// The uploads' MessageType as sent; the reader does not judge it.
  MessageType type() const { return type_; }

  /// The next item: an upload's bytes after its round varint, for
  /// Report/LabelReport::decode_fields. DecodeError when its length prefix
  /// is unreadable or runs past the payload; the batch cannot be framed
  /// from there on.
  std::span<const std::uint8_t> next();
  /// Bytes after the items read so far.
  std::size_t remaining() const { return dec_.remaining(); }

 private:
  Decoder dec_;
  std::uint64_t round_ = 0;
  std::size_t count_ = 0;
  MessageType type_ = MessageType::kReport;
};

struct ResultPublish {
  std::uint64_t round = 0;
  std::vector<double> truths;

  std::vector<std::uint8_t> encode() const;
  static ResultPublish decode(std::span<const std::uint8_t> bytes);
};

/// Framing of every kShardRequest/kShardResponse payload: a correlation id, a
/// shard-statistics opcode (dist::ShardOp, kept opaque at this layer), and the
/// op-specific body. Requests and their responses carry the SAME op_id, which
/// is what makes the coordinator's timeout-and-resend loop safe: a resent
/// request re-executes (or replays) under the old id, and a late original
/// response is still accepted.
struct StatsEnvelope {
  std::uint64_t op_id = 0;
  std::uint8_t op = 0;
  std::vector<std::uint8_t> body;

  std::vector<std::uint8_t> encode() const;
  static StatsEnvelope decode(std::span<const std::uint8_t> bytes);
};

/// Wraps an encoded payload in a routed message that owns it.
net::Message make_message(net::NodeId source, net::NodeId destination,
                          MessageType type, std::vector<std::uint8_t> payload);

}  // namespace dptd::crowd
