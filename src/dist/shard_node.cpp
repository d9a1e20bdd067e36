#include "dist/shard_node.h"

#include "categorical/voting.h"
#include "common/check.h"
#include "truth/categorical.h"
#include "truth/catd.h"
#include "truth/crh.h"
#include "truth/gtm.h"
#include "truth/sharded_stats.h"

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
  user_base_ = 0;
  index_.build({});
  builder_.reset();
  ingest_stats_ = {};
  view_.reset();
  matrix_.reset();
  weights_.clear();
  losses_.clear();
  quality_.clear();
  chi2_.clear();
  disagreement_.clear();
  crh_ = {};
  gtm_ = {};
  catd_ = {};
  vote_ = {};
  label_view_.reset();
  // last_op_id_ is deliberately NOT reset: the exactly-once watermark is the
  // dedup floor a real replica persists across restarts, and it is what keeps
  // delayed duplicates of pre-crash ops from re-executing after a rejoin.
  // The cached response bytes ARE volatile.
  last_response_.reset();
}

void ShardNode::on_message(const net::Message& message) {
  switch (static_cast<crowd::MessageType>(message.type)) {
    case crowd::MessageType::kReport:
      handle_report(message);
      return;
    case crowd::MessageType::kLabelReport:
      handle_label_report(message);
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

void ShardNode::handle_report(const net::Message& message) {
  if (!round_open_ || !builder_.has_value()) {
    ++ingest_stats_.rejected_reports;  // round closed (or never set up)
    return;
  }
  if (num_labels_ >= 2) {
    ++ingest_stats_.rejected_reports;  // continuous upload, categorical round
    return;
  }
  crowd::Report report;
  try {
    report = crowd::Report::decode(message.payload);
  } catch (const DecodeError&) {
    ++ingest_stats_.rejected_reports;
    return;
  }
  if (report.round != round_) {
    ++ingest_stats_.rejected_reports;  // late straggler from another round
    return;
  }
  const std::optional<std::size_t> row = index_.row_of(report.user_id);
  if (!row.has_value()) {
    ++ingest_stats_.rejected_reports;  // not in this shard's roster slice
    return;
  }
  if (builder_->has_row(*row)) {
    ++ingest_stats_.duplicates_ignored;
    return;
  }
  if (crowd::ingest_report_claims(*builder_, *row, report, num_objects_)) {
    ++ingest_stats_.malformed_reports;
  }
  ++ingest_stats_.reports_received;
}

void ShardNode::handle_label_report(const net::Message& message) {
  if (!round_open_ || !builder_.has_value()) {
    ++ingest_stats_.rejected_reports;  // round closed (or never set up)
    return;
  }
  if (num_labels_ < 2) {
    ++ingest_stats_.rejected_reports;  // label upload, continuous round
    return;
  }
  crowd::LabelReport report;
  try {
    report = crowd::LabelReport::decode(message.payload);
  } catch (const DecodeError&) {
    ++ingest_stats_.rejected_reports;
    return;
  }
  if (report.round != round_) {
    ++ingest_stats_.rejected_reports;  // late straggler from another round
    return;
  }
  const std::optional<std::size_t> row = index_.row_of(report.user_id);
  if (!row.has_value()) {
    ++ingest_stats_.rejected_reports;  // not in this shard's roster slice
    return;
  }
  if (builder_->has_row(*row)) {
    ++ingest_stats_.duplicates_ignored;
    return;
  }
  // LDP stays on the device in the distributed deployment: the policy only
  // carries the alphabet for range validation, never a sampling probability.
  crowd::LabelIngestPolicy policy;
  policy.num_labels = num_labels_;
  const crowd::LabelIngestOutcome outcome = crowd::ingest_label_claims(
      *builder_, *row, user_base_ + *row, report, num_objects_, policy, round_);
  if (outcome.malformed) ++ingest_stats_.malformed_reports;
  ingest_stats_.invalid_labels += outcome.invalid_labels;
  ++ingest_stats_.reports_received;
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
    if (env.op_id == *last_op_id_ && last_response_.has_value()) {
      // Exactly-once replay: the op already executed but the coordinator did
      // not see the response (lost, or a resend raced it). Re-executing would
      // be wrong for non-idempotent ops (kFinalizeIngest), so replay the
      // bytes.
      crowd::StatsEnvelope reply;
      reply.op_id = env.op_id;
      reply.op = env.op;
      reply.body = *last_response_;
      network_->send(crowd::make_message(id_, message.source,
                                         crowd::MessageType::kShardResponse,
                                         reply.encode()));
      return;
    }
    // Op ids are globally monotonic per coordinator, so anything below the
    // watermark is a delayed duplicate of an older op or an abandoned
    // pre-re-plan request that jitter delivered after newer ops executed.
    // Executing it would replay a state mutation out of order (a late
    // kFinalizeIngest resetting weights after kSetWeights, a stale kSetup
    // re-imposing an abandoned plan); the coordinator stopped waiting for it
    // long ago, so drop and count.
    ++stale_requests_;
    return;
  }
  std::vector<std::uint8_t> body;
  try {
    body = execute(static_cast<ShardOp>(env.op), env.body);
  } catch (const DecodeError&) {
    // Malformed body (or an op that needs state this shard does not have):
    // count and stay silent. The coordinator's resend/timeout machinery owns
    // recovery; a corrupt message must never kill the shard.
    ++malformed_messages_;
    return;
  }
  last_op_id_ = env.op_id;
  last_response_ = body;
  crowd::StatsEnvelope reply;
  reply.op_id = env.op_id;
  reply.op = env.op;
  reply.body = std::move(body);
  network_->send(crowd::make_message(
      id_, message.source, crowd::MessageType::kShardResponse, reply.encode()));
}

const data::ShardedMatrix& ShardNode::view() const {
  if (!view_.has_value()) throw DecodeError("shard: no finalized matrix");
  return *view_;
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
      if (plan.num_shards != setup.num_shards ||
          setup.participants.size() !=
              plan.shard_num_users(
                  static_cast<std::size_t>(setup.shard_index))) {
        throw DecodeError("SetupBody: roster slice does not match plan");
      }
      if (setup.num_labels == 1 ||
          setup.num_labels > truth::kMaxBridgedLabels) {
        throw DecodeError("SetupBody: invalid label alphabet");
      }
      try {
        index_.build(setup.participants);  // unchanged if it throws
      } catch (const std::invalid_argument&) {
        throw DecodeError("SetupBody: participant id repeated");
      }
      round_ = setup.round;
      round_open_ = true;
      num_objects_ = static_cast<std::size_t>(setup.num_objects);
      block_size_ = static_cast<std::size_t>(setup.block_size);
      num_labels_ = static_cast<std::size_t>(setup.num_labels);
      user_base_ =
          plan.user_begin(static_cast<std::size_t>(setup.shard_index));
      const std::size_t local_users = setup.participants.size();
      if (builder_.has_value()) {
        builder_->reshape(local_users, num_objects_);
      } else {
        builder_.emplace(local_users, num_objects_);
      }
      ingest_stats_ = {};
      view_.reset();
      matrix_.reset();
      weights_.clear();
      losses_.clear();
      quality_.clear();
      chi2_.clear();
      disagreement_.clear();
      vote_ = {};
      label_view_.reset();
      return {};
    }
    case ShardOp::kFinalizeIngest: {
      // Idempotent: a degraded close retries the finalize phase over the
      // surviving shards under fresh op ids after abandoning the first
      // attempt, so a shard that already finalized must re-serve the summary
      // from its finalized matrix — re-running builder_->finalize() would
      // move the ingested rows out and destroy the round's data.
      if (!matrix_.has_value()) {
        if (!builder_.has_value()) throw DecodeError("shard: no open round");
        round_open_ = false;
        const std::size_t local_users = builder_->num_users();
        view_.reset();
        label_view_.reset();
        matrix_ = builder_->finalize();
        view_.emplace(data::ShardedMatrix::single(*matrix_, block_size_));
        weights_.assign(local_users, 1.0);
        losses_.assign(local_users, 0.0);
        quality_.assign(local_users, 1.0);
        chi2_.assign(local_users, 0.0);
        disagreement_.assign(local_users, 0.0);
      }
      IngestSummaryBody summary;
      summary.reports_received = ingest_stats_.reports_received;
      summary.duplicates_ignored = ingest_stats_.duplicates_ignored;
      summary.malformed_reports = ingest_stats_.malformed_reports;
      summary.rejected_reports = ingest_stats_.rejected_reports;
      summary.invalid_labels = ingest_stats_.invalid_labels;
      summary.object_counts.resize(num_objects_);
      for (std::size_t n = 0; n < num_objects_; ++n) {
        summary.object_counts[n] = matrix_->object_observation_count(n);
      }
      return summary.encode();
    }
    case ShardOp::kSetWeights: {
      const WeightsBody req = WeightsBody::decode(body);
      const std::size_t local_users = view().num_users();
      if (req.uniform) {
        weights_.assign(local_users, 1.0);
      } else {
        if (req.weights.size() != local_users) {
          throw DecodeError("WeightsBody: slice size mismatch");
        }
        weights_ = req.weights;
      }
      return {};
    }
    case ShardOp::kMoments: {
      std::vector<RunningStats> moments = decode_moments(body);
      if (moments.size() != num_objects_) {
        throw DecodeError("moments: size != num objects");
      }
      truth::fold_object_moments(view(), nullptr, moments);
      return encode_moments(moments);
    }
    case ShardOp::kGather: {
      const data::ShardedMatrix& v = view();
      GatherBody out;
      out.lengths.resize(num_objects_);
      matrix_->ensure_object_index();
      std::size_t total = 0;
      for (std::size_t n = 0; n < num_objects_; ++n) {
        out.lengths[n] = matrix_->object_entries(n).size();
        total += matrix_->object_entries(n).size();
      }
      out.values.reserve(total);
      for (std::size_t n = 0; n < num_objects_; ++n) {
        const auto col = matrix_->object_entries(n);
        out.values.insert(out.values.end(), col.values.begin(),
                          col.values.end());
      }
      (void)v;
      return out.encode();
    }
    case ShardOp::kAggregate: {
      AggregateBody req = AggregateBody::decode(body);
      if (req.stats.counts.size() != num_objects_) {
        throw DecodeError("AggregateBody: size != num objects");
      }
      truth::weighted_aggregate_fold(view(), weights_, req.stats, nullptr);
      return req.encode();
    }
    case ShardOp::kCollectWeights: {
      (void)view();  // weights are meaningless before finalize
      WeightsBody out;
      out.uniform = false;
      out.weights = weights_;
      return out.encode();
    }
    case ShardOp::kCrhPrepare: {
      CrhPrepareBody req = CrhPrepareBody::decode(body);
      if (req.stddevs.size() != num_objects_) {
        throw DecodeError("CrhPrepareBody: stddevs size != num objects");
      }
      crh_ = std::move(req);
      return {};
    }
    case ShardOp::kCrhLoss: {
      const CrhLossBody req = CrhLossBody::decode(body);
      if (req.truths.size() != num_objects_ ||
          crh_.stddevs.size() != num_objects_) {
        throw DecodeError("CrhLossBody: size mismatch or unprepared");
      }
      truth::crh_user_losses(view(), nullptr,
                             static_cast<truth::CrhLoss>(crh_.loss),
                             req.truths, crh_.stddevs, losses_);
      CrhTotalBody out;
      // Continue the global block-chained loss sum from the preceding
      // shards' running total; local blocks are the global blocks.
      out.total = truth::block_chain_sum(losses_, block_size_, req.total);
      return out.encode();
    }
    case ShardOp::kCrhWeights: {
      const CrhTotalBody req = CrhTotalBody::decode(body);
      (void)view();
      weights_ = truth::crh_weights_from_losses(losses_, req.total,
                                                crh_.min_loss_fraction);
      return {};
    }
    case ShardOp::kGtmPrepare: {
      GtmPrepareBody req = GtmPrepareBody::decode(body);
      if (req.shift.size() != num_objects_) {
        throw DecodeError("GtmPrepareBody: size != num objects");
      }
      gtm_ = std::move(req);
      return {};
    }
    case ShardOp::kGtmStep: {
      const GtmStepBody req = GtmStepBody::decode(body);
      if (req.truth_mean.size() != num_objects_ ||
          gtm_.shift.size() != num_objects_) {
        throw DecodeError("GtmStepBody: size mismatch or unprepared");
      }
      truth::GtmConfig config;
      config.quality_prior_alpha = gtm_.quality_prior_alpha;
      config.quality_prior_beta = gtm_.quality_prior_beta;
      config.min_variance = gtm_.min_variance;
      truth::gtm_m_step(view(), nullptr, config, gtm_.shift, gtm_.scale,
                        req.truth_mean, req.truth_var, quality_, weights_);
      return {};
    }
    case ShardOp::kGtmFold: {
      GtmFoldBody req = GtmFoldBody::decode(body);
      if (req.precision.size() != num_objects_ ||
          gtm_.shift.size() != num_objects_) {
        throw DecodeError("GtmFoldBody: size mismatch or unprepared");
      }
      truth::gtm_posterior_fold(view(), nullptr, gtm_.shift, gtm_.scale,
                                weights_, req.precision, req.weighted);
      return req.encode();
    }
    case ShardOp::kCatdPrepare: {
      catd_ = CatdPrepareBody::decode(body);
      if (catd_.significance <= 0.0 || catd_.significance >= 1.0) {
        throw DecodeError("CatdPrepareBody: significance out of range");
      }
      chi2_.assign(view().num_users(), 0.0);
      truth::catd_chi_squared(view(), nullptr, catd_.significance, chi2_);
      return {};
    }
    case ShardOp::kCatdWeights: {
      const TruthsBody req = TruthsBody::decode(body);
      if (req.truths.size() != num_objects_) {
        throw DecodeError("TruthsBody: size != num objects");
      }
      truth::catd_user_weights(view(), nullptr, chi2_, req.truths,
                               catd_.min_residual, weights_);
      return {};
    }
    case ShardOp::kVotePrepare: {
      const VotePrepareBody req = VotePrepareBody::decode(body);
      if (req.num_labels < 2 || req.num_labels > truth::kMaxBridgedLabels ||
          !(req.min_disagreement_fraction > 0.0) ||
          req.min_disagreement_fraction >= 1.0) {
        throw DecodeError("VotePrepareBody: invalid parameters");
      }
      const data::ShardedMatrix& v = view();
      vote_ = req;
      // Owned reinterpretation of the local sub-matrix: same sanitize-drop
      // rule as the in-process bridge, so both deployments see identical
      // label views.
      label_view_.emplace(truth::label_view(
          v, static_cast<std::size_t>(req.num_labels)));
      disagreement_.assign(v.num_users(), 0.0);
      return {};
    }
    case ShardOp::kVoteScores: {
      VoteScoresBody req = VoteScoresBody::decode(body);
      if (!label_view_.has_value() ||
          req.scores.size() !=
              num_objects_ * static_cast<std::size_t>(vote_.num_labels)) {
        throw DecodeError("VoteScoresBody: size mismatch or unprepared");
      }
      // Continue the global score chain: local blocks are the global blocks
      // (the shard base is block-aligned), so folding on top of the carried
      // table reproduces the in-process fold's bits.
      categorical::fold_label_scores(*label_view_, nullptr, weights_,
                                     req.scores);
      return req.encode();
    }
    case ShardOp::kVoteDisagree: {
      const VoteDisagreeBody req = VoteDisagreeBody::decode(body);
      if (!label_view_.has_value() || req.truths.size() != num_objects_) {
        throw DecodeError("VoteDisagreeBody: size mismatch or unprepared");
      }
      categorical::vote_disagreement(*label_view_, nullptr, req.truths,
                                     disagreement_);
      CrhTotalBody out;
      out.total = truth::block_chain_sum(disagreement_, block_size_, req.total);
      return out.encode();
    }
    case ShardOp::kVoteWeights: {
      const CrhTotalBody req = CrhTotalBody::decode(body);
      if (!label_view_.has_value() ||
          disagreement_.size() != weights_.size()) {
        throw DecodeError("kVoteWeights: shard not vote-prepared");
      }
      if (req.total <= 0.0) {
        // Unanimous agreement — the in-process driver short-circuits to
        // uniform weights; mirror it so collected weights match bitwise.
        weights_.assign(weights_.size(), 1.0);
      } else {
        categorical::vote_weights_from_disagreement(
            disagreement_, req.total, vote_.min_disagreement_fraction,
            weights_);
      }
      return {};
    }
    case ShardOp::kGetTelemetry: {
      TelemetryBody out;
      out.stale_requests = stale_requests_;
      out.malformed_messages = malformed_messages_;
      return out.encode();
    }
    case ShardOp::kBatch: {
      // Sub-ops execute strictly in order; decode already refused lifecycle
      // ops and nesting, and every remaining op is idempotent, so a mid-batch
      // DecodeError abort (reported as one malformed message, watermark not
      // advanced) is safe for the coordinator to resend.
      const BatchBody req = BatchBody::decode(body);
      BatchReplyBody out;
      out.bodies.reserve(req.items.size());
      for (const BatchItem& item : req.items) {
        out.bodies.push_back(execute(item.op, item.body));
      }
      return out.encode();
    }
  }
  throw DecodeError("shard: unknown op");
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
