// One shard of the distributed truth-discovery deployment: a net::Node that
// owns its user range's streaming ingestion and answers the coordinator's
// sufficient-statistics RPCs (dist/stats_wire.h).
//
// Ingest: uploads arrive only inside crowd::kReportBatch messages. Each item
// is routed on its leading user-id varint, resolved against the node's
// roster slice, and handed with its local row to the node's
// crowd::ShardIngestor — the class every in-process ingest path runs — which
// decodes, dedups first-wins, sanitizes claims and counts. So a batch ingests
// exactly what its uploads one by one would have, and an upload counts the
// same here as in ShardedServer. A batch for a closed or never-set-up round,
// for another round, or of the wrong kind charges every item to
// rejected_reports; an item whose id is unreadable or outside the slice, or
// which does not decode, counts as one rejected report, and a batch whose
// framing breaks charges each item it can no longer read. Every item is
// decoded whole before its row is touched, so no item is ever half ingested.
//
// Statistics ops: each is one row of the op table (stats_wire.h, run_op),
// decoded and run as one call on a truth::LocalBackend over the finalized
// local rows — the backend the in-process run_sharded uses — which owns the
// per-user registers and prepared constants. Because the local user range is
// block-aligned, every chained fold it continues reproduces the global
// fold's bits (see stats_wire.h for the full argument).
//
// Threads: ops run one at a time, on the thread that polls the transport.
// A slice of at least kPoolMinBlocks canonical blocks runs each op's kernels
// on the node's ThreadPool (hardware_concurrency threads, created by the
// first such finalize and kept for the node's lifetime, across rounds and
// fail()/rejoin()); a smaller slice folds serially. The kernels' results are
// bitwise identical for any pool size, so neither a reply byte nor the
// result depends on which side a slice took. Pool threads only run kernels
// over the node's matrix and registers: they never touch the transport, and
// an op returns only once they are done.
//
// RPC semantics: exactly-once per op_id, enforced with a monotonic watermark.
// Coordinator op ids are globally increasing, so the node keeps the highest
// executed op id: a request BELOW it is a delayed duplicate or an abandoned
// pre-re-plan request and is dropped (executing it would replay a state
// mutation out of order — a late kFinalizeIngest resetting weights, a stale
// kSetup re-imposing an abandoned shard plan); a request EQUAL to it replays
// the memoized response bytes without re-executing (so a coordinator resend
// after a lost response never re-runs a non-idempotent op — kFinalizeIngest
// moves the builder's rows out); only a request ABOVE it executes. The
// watermark survives fail()/rejoin() the way real replicas persist their
// dedup floor; the cached response bytes are volatile and a crash loses them
// (an equal-id duplicate then drops instead of replaying, which is safe: the
// coordinator has already declared the shard failed by then). Malformed
// envelopes or bodies are counted, never fatal.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/thread_pool.h"
#include "crowd/protocol.h"
#include "crowd/server.h"
#include "data/sharding.h"
#include "dist/stats_wire.h"
#include "net/transport.h"
#include "truth/fold_backend.h"

namespace dptd::dist {

class ShardNode final : public net::Node {
 public:
  /// Smallest slice, in canonical blocks, whose statistics ops run on the
  /// node's pool. A pooled fold hands each block to a pool thread and waits
  /// for it, which costs more than it saves over a few blocks. On a 4-CPU
  /// host, pooling every slice made the 2,000-user campaign (slices of 2 or
  /// 3 blocks of 256 users) set up 58% slower and run its rounds 33%
  /// slower, while a 333K-user slice (82 blocks of 4,096 users) ran each
  /// chain hop 2.5-3x faster.
  static constexpr std::size_t kPoolMinBlocks = 16;

  /// Attaches to the transport under `id` (the in-process simulator Network
  /// or a per-process SocketTransport — the node is transport-agnostic). The
  /// node must outlive the transport's in-flight traffic toward it or detach
  /// first (fail()/go_offline()).
  ShardNode(net::NodeId id, net::Transport& network);
  ~ShardNode() override;

  ShardNode(const ShardNode&) = delete;
  ShardNode& operator=(const ShardNode&) = delete;

  void on_message(const net::Message& message) override;

  net::NodeId id() const { return id_; }

  /// Crash: detach from the network and drop all volatile state (round,
  /// matrix, registers, cached RPC response) — what a process restart would
  /// lose. The exactly-once op-id watermark survives, like a persisted
  /// dedup floor.
  void fail();
  /// Rejoin after fail(): reattach blank; the next kSetup re-enrolls it.
  void rejoin();

  /// Straggler injection: detach/reattach WITHOUT touching state, so requests
  /// sent while offline go undeliverable and the coordinator's resends hit a
  /// live node again after come_online().
  void go_offline();
  void come_online();
  bool online() const { return attached_; }

  /// Envelopes/bodies that failed to decode (satellite of the byzantine
  /// robustness story: a corrupt coordinator message must not kill a shard).
  std::size_t malformed_messages() const { return malformed_messages_; }

  /// Requests dropped by the exactly-once watermark: op id below the newest
  /// executed op (delayed duplicates, abandoned pre-re-plan requests).
  std::size_t stale_requests() const { return stale_requests_; }

  /// Exactly-once watermark: highest executed op id, if any. Monotonic for
  /// the shard's lifetime (it survives fail()/rejoin()); the chaos suites
  /// assert it never moves backward under any fault schedule.
  std::optional<std::uint64_t> op_watermark() const { return last_op_id_; }

  /// Set by a crowd::MessageType::kShutdown message; serve_shard() returns
  /// once it is observed. Never set by the RPC path.
  bool shutdown_requested() const { return shutdown_requested_; }

  /// True while the finalized round's statistics ops run on the node's pool
  /// (its slice spans at least kPoolMinBlocks blocks); false for a smaller
  /// slice and before the round is finalized.
  bool folds_on_pool() const {
    return backend_.has_value() && backend_->pool() != nullptr;
  }

 private:
  void handle_report_batch(const net::Message& message);
  void handle_request(const net::Message& message);
  /// Executes one decoded request; returns the response body.
  std::vector<std::uint8_t> execute(ShardOp op,
                                    std::span<const std::uint8_t> body);
  void reset_round_state();

  net::NodeId id_;
  net::Transport* network_;
  bool attached_ = false;
  bool shutdown_requested_ = false;

  // Round state.
  bool round_open_ = false;
  std::uint64_t round_ = 0;
  std::size_t num_objects_ = 0;
  std::size_t block_size_ = data::kDefaultStatsBlockSize;
  std::size_t num_labels_ = 0;  ///< >= 2 in a categorical round, else 0
  crowd::ParticipantIndex index_;  ///< stable id -> local row, roster slice
  crowd::ShardIngestor ingestor_;
  std::optional<data::ObservationMatrix> matrix_;   ///< finalized local rows
  std::optional<data::ShardedMatrix> view_;         ///< borrows matrix_

  /// Created by the first finalize of a slice of kPoolMinBlocks or more
  /// blocks, then kept: round resets and fail() leave it alone. Declared
  /// before backend_, which borrows it.
  std::unique_ptr<ThreadPool> pool_;
  /// The statistics ops' fold backend over view_: it owns the per-user
  /// registers and prepared constants. Rebuilt blank by every finalize.
  std::optional<truth::LocalBackend> backend_;

  // Exactly-once RPC state: the highest executed op id (monotonic watermark,
  // never reset — see class comment) plus the response bytes of that op for
  // resend replay (volatile: a crash clears them).
  std::optional<std::uint64_t> last_op_id_;
  std::optional<std::vector<std::uint8_t>> last_response_;

  std::size_t malformed_messages_ = 0;
  std::size_t stale_requests_ = 0;
};

/// Service loop of a shard process: polls the transport until the node sees
/// a kShutdown (returns true) or, with idle_timeout_seconds > 0, until no
/// message has been delivered for that long (returns false — the orphan
/// protection that keeps a forgotten shard process from living forever).
/// Queued responses are flushed before returning.
struct ShardServiceConfig {
  double poll_interval_seconds = 0.05;
  double idle_timeout_seconds = 0.0;  ///< 0 = wait forever
};
bool serve_shard(net::Transport& transport, const ShardNode& node,
                 const ShardServiceConfig& config = {});

}  // namespace dptd::dist
