// The wire bytes of every coordinator <-> shard op in one pinned round: a
// single shard, 8 users (ids 1000..1007), 3 objects, block size 4, round 300.
// Requests are fed to a ShardNode in table order under op ids 1, 2, ...; the
// round's uploads go in as one kReportBatch between kSetup and
// kFinalizeIngest. The values exercise the encoding: a NaN and -0.0 in
// carried state, multi-byte varints (round, ids, counts), both weight-slice
// modes and a non-zero loss byte. These literals are golden: they never
// change.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "crowd/protocol.h"
#include "dist/stats_wire.h"

namespace dptd::dist::pinned {

struct PinnedOp {
  ShardOp op;
  const char* request;  ///< request body, hex
  const char* reply;    ///< reply body, hex
};

inline constexpr std::uint64_t kRound = 300;
inline constexpr std::uint64_t kFirstUser = 1000;

inline constexpr PinnedOp kOps[] = {
    {ShardOp::kSetup, "ac0208010003040008e807e907ea07eb07ec07ed07ee07ef07", ""},
    {ShardOp::kFinalizeIngest, "", "080000000003060706"},
    {ShardOp::kSetWeights,
     "0208000000000000e03f0000000000000040000000000000f03f000000000000d03f"
     "0000000000000840000000000000f03f000000000000e83f000000000000f83f",
     ""},
    {ShardOp::kMoments,
     "0300ac02000000000000f83f00000000000010400000000000000080000000000000"
     "084002000000000000e03f000000000000c03f000000000000d03f000000000000e8"
     "3f",
     "0306000000000000f43f000000000000ec3f000000000000f03f0000000000000040"
     "b302051eb43854f9f73fc28316872aff1e4000000000000000800000000000000840"
     "08000000000000e03f0100000000000d4000000000000000000000000000000040"},
    {ShardOp::kGather,
     "",
     "0306070613000000000000f03f000000000000f83f000000000000f03f0000000000"
     "000040000000000000f03f000000000000f03f000000000000004000000000000000"
     "40000000000000f03f00000000000000400000000000000080000000000000004000"
     "0000000000f03f0000000000000000000000000000f03f0000000000000000000000"
     "000000004000000000000000000000000000000000"},
    {ShardOp::kAggregate,
     "03000000000000f87f0000000000000080000000000000e03f03000000000000f03f"
     "00000000000000000000000000000080030000000000000000000000000000004000"
     "0000000000f03f03c8010003",
     "03000000000000f87f0000000000802c400000000000001e40030000000000002440"
     "00000000000022400000000000001c40030000000000001e40000000000000284000"
     "0000000000104003ce010709"},
    {ShardOp::kCollectWeights,
     "",
     "0208000000000000e03f0000000000000040000000000000f03f000000000000d03f"
     "0000000000000840000000000000f03f000000000000e83f000000000000f83f"},
    {ShardOp::kCrhPrepare,
     "0211ea2d819997713d03000000000000e03f000000000000f03f0000000000000040",
     ""},
    {ShardOp::kCrhLoss,
     "03000000000000f03f0000000000000080000000000000e03f000000000000d03f",
     "0000000000802f40"},
    {ShardOp::kCrhWeights, "0000000000001a40", ""},
    {ShardOp::kSetWeights, "0100", ""},
    {ShardOp::kGtmPrepare,
     "0000000000000040000000000000f03f95d626e80b2e113e03000000000000f43f00"
     "0000000000f83f000000000000e03f03000000000000e03f000000000000f03f0000"
     "000000000040",
     ""},
    {ShardOp::kGtmFold,
     "03000000000000f03f000000000000f87f000000000000e03f030000000000000000"
     "000000000000f03f0000000000000080",
     "030000000000001c40000000000000f87f0000000000001a40030000000000000000"
     "000000000000e03f0000000000000000"},
    {ShardOp::kGtmStep,
     "03000000000000d03f000000000000e0bf000000000000000003000000000000f03f"
     "000000000000e03f000000000000d03f",
     ""},
    {ShardOp::kCatdPrepare, "9a9999999999a93f11ea2d819997713d", ""},
    {ShardOp::kCatdWeights,
     "03000000000000f03f000000000000f83f000000000000e03f",
     ""},
    {ShardOp::kVotePrepare, "039a9999999999b93f", ""},
    {ShardOp::kSetWeights,
     "0208000000000000f03f0000000000000040000000000000e03f000000000000f03f"
     "000000000000f03f000000000000d03f000000000000f03f0000000000001040",
     ""},
    {ShardOp::kVoteScores,
     "09000000000000f87f00000000000000000000000000000080000000000000f03f00"
     "0000000000000000000000000000000000000000000000000000000000e03f000000"
     "0000000000",
     "09000000000000f87f0000000000001740000000000000f03f000000000000f43f00"
     "0000000000144000000000000014400000000000001c40000000000000f03f000000"
     "000000f03f"},
    {ShardOp::kVoteDisagree, "03010200000000000000e03f", "0000000000001a40"},
    {ShardOp::kVoteWeights, "0000000000000840", ""},
    {ShardOp::kGetTelemetry, "", "0000"},
    {ShardOp::kBatch,
     "02030201000700",
     "0200420208000000000000f03f000000000000f03f000000000000f03f0000000000"
     "00f03f000000000000f03f000000000000f03f000000000000f03f000000000000f0"
     "3f"},
};

inline std::vector<std::uint8_t> from_hex(std::string_view hex) {
  std::vector<std::uint8_t> bytes;
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2) {
    bytes.push_back(static_cast<std::uint8_t>(
        std::stoi(std::string(hex.substr(i, 2)), nullptr, 16)));
  }
  return bytes;
}

inline std::string to_hex(std::span<const std::uint8_t> bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string hex;
  for (const std::uint8_t b : bytes) {
    hex.push_back(kDigits[b >> 4]);
    hex.push_back(kDigits[b & 0xf]);
  }
  return hex;
}

/// The round's uploads as the coordinator routes them: one kReportBatch.
/// User 1 claims a non-integer (the vote ops skip it) and user 5 claims
/// -0.0.
inline std::vector<std::uint8_t> report_batch() {
  struct Claim {
    std::uint64_t object;
    double value;
  };
  const std::vector<std::vector<Claim>> claims = {
      {{0, 1.0}, {1, 2.0}, {2, 0.0}}, {{0, 1.5}, {1, 2.0}},
      {{0, 1.0}, {2, 1.0}},           {{1, 1.0}, {2, 0.0}},
      {{0, 2.0}, {1, 2.0}, {2, 2.0}}, {{0, 1.0}, {1, -0.0}},
      {{1, 2.0}, {2, 0.0}},           {{0, 1.0}, {1, 1.0}, {2, 0.0}},
  };
  crowd::ReportBatchBuilder batch;
  for (std::size_t u = 0; u < claims.size(); ++u) {
    crowd::Report report;
    report.round = kRound;
    report.user_id = kFirstUser + u;
    for (const Claim& claim : claims[u]) {
      report.objects.push_back(claim.object);
      report.values.push_back(claim.value);
    }
    const std::vector<std::uint8_t> upload = report.encode();
    batch.add(upload, *crowd::Report::peek_header(upload));
  }
  return batch.take(kRound, crowd::MessageType::kReport);
}

}  // namespace dptd::dist::pinned
