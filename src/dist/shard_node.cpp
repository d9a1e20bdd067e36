#include "dist/shard_node.h"

#include <stdexcept>

#include "common/check.h"
#include "truth/categorical.h"

namespace dptd::dist {

ShardNode::ShardNode(net::NodeId id, net::Transport& network)
    : id_(id), network_(&network) {
  network_->attach(id_, *this);
  attached_ = true;
}

ShardNode::~ShardNode() {
  if (attached_) network_->detach(id_);
}

void ShardNode::fail() {
  if (attached_) {
    network_->detach(id_);
    attached_ = false;
  }
  reset_round_state();
}

void ShardNode::rejoin() {
  reset_round_state();
  if (!attached_) {
    network_->attach(id_, *this);
    attached_ = true;
  }
}

void ShardNode::go_offline() {
  if (attached_) {
    network_->detach(id_);
    attached_ = false;
  }
}

void ShardNode::come_online() {
  if (!attached_) {
    network_->attach(id_, *this);
    attached_ = true;
  }
}

void ShardNode::reset_round_state() {
  round_open_ = false;
  round_ = 0;
  num_objects_ = 0;
  num_labels_ = 0;
  index_.build({});
  ingestor_ = {};
  backend_.reset();
  view_.reset();
  matrix_.reset();
  // last_op_id_ is deliberately NOT reset: the exactly-once watermark is the
  // dedup floor a real replica persists across restarts, and it is what keeps
  // delayed duplicates of pre-crash ops from re-executing after a rejoin.
  // The cached response bytes ARE volatile.
  last_response_.reset();
}

void ShardNode::on_message(const net::Message& message) {
  switch (static_cast<crowd::MessageType>(message.type)) {
    case crowd::MessageType::kReportBatch:
      handle_report_batch(message);
      return;
    case crowd::MessageType::kShardRequest:
      handle_request(message);
      return;
    case crowd::MessageType::kShutdown:
      shutdown_requested_ = true;
      return;
    default:
      return;  // not addressed to the shard protocol
  }
}

void ShardNode::handle_report_batch(const net::Message& message) {
  std::optional<crowd::ReportBatchReader> batch;
  try {
    batch.emplace(message.payload);
  } catch (const DecodeError&) {
    ingestor_.reject();  // no readable header: one upload's worth
    return;
  }
  const crowd::MessageType kind = num_labels_ >= 2
                                      ? crowd::MessageType::kLabelReport
                                      : crowd::MessageType::kReport;
  // Round closed (or never set up), a late straggler from another round, or
  // uploads of the other kind: every item is rejected.
  if (!round_open_ || batch->round() != round_ || batch->type() != kind) {
    ingestor_.reject(batch->count());
    return;
  }
  for (std::size_t i = 0; i < batch->count(); ++i) {
    std::span<const std::uint8_t> item;
    try {
      item = batch->next();
    } catch (const DecodeError&) {
      // The framing is lost: this item and every later one are unreadable.
      ingestor_.reject(batch->count() - i);
      return;
    }
    // Route on the item's leading user-id varint; the ingestor decodes.
    std::optional<std::size_t> row;
    try {
      row = index_.row_of(Decoder(item).read_varint());
    } catch (const DecodeError&) {
      // An unreadable id routes nowhere: row stays empty.
    }
    if (row.has_value()) {
      ingestor_.ingest(*row, item);
    } else {
      ingestor_.reject();  // unreadable id, or not in this roster slice
    }
  }
  // Bytes past the last item: something that was not a counted item.
  if (batch->remaining() > 0) ingestor_.reject();
}

void ShardNode::handle_request(const net::Message& message) {
  crowd::StatsEnvelope env;
  try {
    env = crowd::StatsEnvelope::decode(message.payload);
  } catch (const DecodeError&) {
    ++malformed_messages_;
    return;
  }
  if (last_op_id_.has_value() && env.op_id <= *last_op_id_) {
    if (env.op_id != *last_op_id_ || !last_response_.has_value()) {
      // Op ids are globally monotonic per coordinator, so anything below the
      // watermark is a delayed duplicate of an older op or an abandoned
      // pre-re-plan request that jitter delivered after newer ops executed.
      // Executing it would replay a state mutation out of order (a late
      // kFinalizeIngest resetting weights after kSetWeights, a stale kSetup
      // re-imposing an abandoned plan); the coordinator stopped waiting for
      // it long ago, so drop and count.
      ++stale_requests_;
      return;
    }
    // Exactly-once replay: the op already executed but the coordinator did
    // not see the response (lost, or a resend raced it). Re-executing would
    // be wrong for non-idempotent ops (kFinalizeIngest), so replay the bytes.
    env.body = *last_response_;
  } else {
    try {
      env.body = execute(static_cast<ShardOp>(env.op), env.body);
    } catch (const DecodeError&) {
      // Malformed body: count and stay silent. The coordinator's
      // resend/timeout machinery owns recovery; a corrupt message must never
      // kill the shard.
      ++malformed_messages_;
      return;
    } catch (const std::invalid_argument&) {
      // A step the backend refuses (a wrong size, or state this shard does
      // not have): malformed the same way.
      ++malformed_messages_;
      return;
    }
    last_op_id_ = env.op_id;
    last_response_ = env.body;
  }
  // The reply keeps the request's op id and op and carries the result.
  network_->send(crowd::make_message(
      id_, message.source, crowd::MessageType::kShardResponse, env.encode()));
}

std::vector<std::uint8_t> ShardNode::execute(
    ShardOp op, std::span<const std::uint8_t> body) {
  switch (op) {
    case ShardOp::kSetup: {
      const SetupBody setup = SetupBody::decode(body);
      if (setup.num_users == 0 || setup.num_objects == 0 ||
          setup.block_size == 0 || setup.num_shards == 0 ||
          setup.shard_index >= setup.num_shards) {
        throw DecodeError("SetupBody: invalid plan");
      }
      const data::ShardPlan plan = data::ShardPlan::create(
          static_cast<std::size_t>(setup.num_users),
          static_cast<std::size_t>(setup.num_shards),
          static_cast<std::size_t>(setup.block_size));
      const std::size_t slice_users =
          plan.shard_num_users(static_cast<std::size_t>(setup.shard_index));
      if (plan.num_shards != setup.num_shards ||
          setup.slice_size() != slice_users) {
        throw DecodeError("SetupBody: roster slice does not match plan");
      }
      if (setup.num_labels == 1 ||
          setup.num_labels > truth::kMaxBridgedLabels) {
        throw DecodeError("SetupBody: invalid label alphabet");
      }
      crowd::ParticipantIndex index;
      try {
        if (setup.participants.empty()) {
          index.build_range(setup.range_base, slice_users);
        } else {
          index.build(setup.participants);
        }
      } catch (const std::invalid_argument&) {
        throw DecodeError(
            "SetupBody: participant id repeated, or range past the last id");
      }
      crowd::LabelIngestPolicy labels;
      labels.num_labels = static_cast<std::size_t>(setup.num_labels);
      // Unchanged if it throws (more objects than the claim store's 32-bit
      // ids hold), so a refused kSetup leaves the open round as it was.
      ingestor_.begin_round(slice_users,
                            static_cast<std::size_t>(setup.num_objects),
                            setup.round, labels);
      index_ = std::move(index);
      round_ = setup.round;
      round_open_ = true;
      num_objects_ = static_cast<std::size_t>(setup.num_objects);
      block_size_ = static_cast<std::size_t>(setup.block_size);
      num_labels_ = labels.num_labels;
      backend_.reset();
      view_.reset();
      matrix_.reset();
      return {};
    }
    case ShardOp::kFinalizeIngest: {
      // Idempotent: a degraded close retries the finalize phase over the
      // surviving shards under fresh op ids after abandoning the first
      // attempt, so a shard that already finalized must re-serve the summary
      // from its finalized matrix — re-running ingestor_.finalize() would
      // move the ingested rows out and destroy the round's data. Each close
      // attempt starts from blank registers.
      backend_.reset();
      if (!matrix_.has_value()) {
        if (!round_open_) throw DecodeError("shard: no open round");
        round_open_ = false;
        view_.reset();
        matrix_ = ingestor_.finalize();
        view_.emplace(data::ShardedMatrix::single(*matrix_, block_size_));
      }
      // The slice's shape alone picks the side: a pool for many blocks,
      // serial folds for a few.
      ThreadPool* pool = nullptr;
      if (view_->plan().num_blocks() >= kPoolMinBlocks) {
        if (pool_ == nullptr) pool_ = std::make_unique<ThreadPool>(0);
        pool = pool_.get();
      }
      backend_.emplace(*view_, pool);
      IngestSummaryBody summary;
      summary.stats = ingestor_.stats();
      summary.object_counts.resize(num_objects_);
      for (std::size_t n = 0; n < num_objects_; ++n) {
        summary.object_counts[n] = matrix_->object_observation_count(n);
      }
      return summary.encode();
    }
    case ShardOp::kGetTelemetry:
      return encode_fields(Telemetry{stale_requests_, malformed_messages_});
    case ShardOp::kBatch: {
      // Sub-ops execute strictly in order; decode already refused lifecycle
      // ops, nesting and any op but kGetTelemetry after a kCollectWeights,
      // and every op that can run before an abort is idempotent, so a
      // mid-batch abort (reported as one malformed message, watermark not
      // advanced) is safe for the coordinator to resend.
      const BatchBody req = BatchBody::decode(body);
      BatchReplyBody out;
      out.bodies.reserve(req.items.size());
      for (const BatchItem& item : req.items) {
        out.bodies.push_back(execute(item.op, item.body));
      }
      return out.encode();
    }
    default: {
      // Every statistics op is one row of the op table, run on this shard's
      // backend: the body carries its arguments (and a chained fold's carried
      // state), and the backend checks sizes and preparation.
      std::optional<std::vector<std::uint8_t>> reply =
          run_op(op, body, backend_.has_value() ? &*backend_ : nullptr);
      if (!reply.has_value()) throw DecodeError("shard: unknown op");
      return std::move(*reply);
    }
  }
}

bool serve_shard(net::Transport& transport, const ShardNode& node,
                 const ShardServiceConfig& config) {
  DPTD_REQUIRE(config.poll_interval_seconds > 0.0,
               "serve_shard: poll interval must be positive");
  double last_activity = transport.now();
  while (!node.shutdown_requested()) {
    const std::size_t delivered =
        transport.poll(transport.now() + config.poll_interval_seconds);
    const double now = transport.now();
    if (delivered > 0) last_activity = now;
    if (config.idle_timeout_seconds > 0.0 && delivered == 0 &&
        now - last_activity >= config.idle_timeout_seconds) {
      transport.run_until_idle();
      return false;
    }
  }
  // Flush responses already queued (the reply to the op that preceded the
  // shutdown may still be in the write queue).
  transport.run_until_idle();
  return true;
}

}  // namespace dptd::dist
