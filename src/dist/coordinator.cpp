#include "dist/coordinator.h"

#include <algorithm>
#include <limits>

#include "categorical/voting.h"
#include "common/check.h"
#include "common/logging.h"
#include "common/statistics.h"
#include "truth/baselines.h"
#include "truth/sharded_stats.h"

namespace dptd::dist {

std::unique_ptr<truth::TruthDiscovery> make_method(const MethodSpec& spec) {
  switch (spec.kind) {
    case MethodSpec::Kind::kCrh:
      return std::make_unique<truth::Crh>(spec.crh);
    case MethodSpec::Kind::kGtm:
      return std::make_unique<truth::Gtm>(spec.gtm);
    case MethodSpec::Kind::kCatd:
      return std::make_unique<truth::Catd>(spec.catd);
    case MethodSpec::Kind::kMean:
      return std::make_unique<truth::MeanAggregator>();
    case MethodSpec::Kind::kMedian:
      return std::make_unique<truth::MedianAggregator>();
    case MethodSpec::Kind::kMajority:
      return std::make_unique<truth::MajorityVote>(spec.majority);
    case MethodSpec::Kind::kVote:
      return std::make_unique<truth::WeightedVote>(spec.vote);
  }
  throw std::invalid_argument("MethodSpec: unknown kind");
}

crowd::RoundRecord to_round_record(const DistributedOutcome& outcome) {
  crowd::RoundRecord record;
  record.round = static_cast<std::size_t>(outcome.round);
  record.reports_expected = outcome.reports_routed;
  for (const crowd::ShardIngestStats& stats : outcome.shard_stats) {
    record.reports_received += stats.reports_received;
    record.reports_rejected += stats.rejected_reports;
    record.duplicates_ignored += stats.duplicates_ignored;
  }
  record.reports_rejected += outcome.reports_unroutable;
  record.iterations = outcome.result.iterations;
  record.converged = outcome.result.converged;
  record.warm_started = outcome.warm_started;
  record.degraded = outcome.degraded;
  record.excluded_shards = outcome.excluded_shards;
  record.reports_lost = outcome.reports_lost;
  record.mae_vs_truth = std::numeric_limits<double>::quiet_NaN();
  record.mae_vs_unperturbed = std::numeric_limits<double>::quiet_NaN();
  if (outcome.aggregated) record.truths = outcome.result.truths;
  record.network = outcome.network;
  return record;
}

Coordinator::Coordinator(CoordinatorConfig config, MethodSpec method,
                         net::Transport& network)
    : config_(config), method_(method), network_(&network) {
  DPTD_REQUIRE(config_.num_objects > 0,
               "Coordinator: num_objects must be positive");
  DPTD_REQUIRE(config_.block_size > 0,
               "Coordinator: block_size must be positive");
  DPTD_REQUIRE(!method_.categorical() ||
                   (method_.num_labels() >= 2 &&
                    method_.num_labels() <= truth::kMaxBridgedLabels),
               "Coordinator: categorical method needs an explicit label "
               "alphabet (2 <= num_labels <= kMaxBridgedLabels)");
  config_.rpc.validate();
  network_->attach(config_.id, *this);
}

Coordinator::~Coordinator() { network_->detach(config_.id); }

void Coordinator::add_shard(net::NodeId id) {
  DPTD_REQUIRE(std::find(roster_.begin(), roster_.end(), id) == roster_.end(),
               "Coordinator: shard already enrolled");
  roster_.push_back(id);
}

bool Coordinator::remove_shard(net::NodeId id) {
  const auto it = std::find(roster_.begin(), roster_.end(), id);
  if (it == roster_.end()) return false;
  roster_.erase(it);
  return true;
}

// ---------------------------------------------------------------------------
// RPC core

void Coordinator::on_message(const net::Message& message) {
  switch (static_cast<crowd::MessageType>(message.type)) {
    case crowd::MessageType::kReport:
    case crowd::MessageType::kLabelReport:
      route_report(message);
      return;
    case crowd::MessageType::kShardResponse:
      handle_response(message);
      return;
    default:
      return;
  }
}

void Coordinator::route_report(const net::Message& message) {
  if (!round_open_) {
    ++reports_unroutable_;
    return;
  }
  const std::optional<crowd::ReportHeader> header =
      crowd::Report::peek_header(message.payload);
  if (!header.has_value() || header->round != round_) {
    ++reports_unroutable_;
    return;
  }
  const std::optional<std::size_t> row = index_.row_of(header->user_id);
  if (!row.has_value()) {
    ++reports_unroutable_;
    return;
  }
  const std::size_t shard = plan_.shard_of_user(*row);
  // Forward under the ORIGINAL message type: continuous and categorical
  // uploads share the peekable header, and the owning shard enforces the
  // round's kind itself (wrong-kind uploads are rejected there, counted).
  const net::NodeId target = active_[shard];
  const std::size_t undeliverable_before = network_->undeliverable_to(target);
  network_->send(crowd::make_message(config_.id, target,
                                     static_cast<crowd::MessageType>(
                                         message.type),
                                     message.payload));
  ++reports_routed_;
  ++routed_by_shard_[shard];
  // Reports have no resend path: a synchronous transport drop here is real
  // loss, so make it observable instead of silent. (The simulator's
  // detached-in-flight drops are counted at delivery time and show up in
  // NodeCounters::messages_undeliverable.) The per-shard ledger is what
  // makes a degraded close's reports_lost exact.
  if (network_->undeliverable_to(target) > undeliverable_before) {
    ++reports_undeliverable_;
    ++undeliverable_by_shard_[shard];
  }
}

void Coordinator::handle_response(const net::Message& message) {
  crowd::StatsEnvelope env;
  try {
    env = crowd::StatsEnvelope::decode(message.payload);
  } catch (const DecodeError&) {
    // Truncated or corrupt response: count against the sender and move on —
    // the op stays outstanding and the resend machinery recovers.
    ++malformed_by_node_[message.source];
    return;
  }
  const auto it = outstanding_.find(env.op_id);
  if (it == outstanding_.end() || it->second.shard != message.source) {
    ++stale_responses_;  // duplicate after a resend, or an abandoned op
    return;
  }
  arrived_[env.op_id] = std::move(env.body);
  outstanding_.erase(it);
}

bool Coordinator::pump() {
  while (!outstanding_.empty()) {
    double next = std::numeric_limits<double>::infinity();
    for (const auto& [id, p] : outstanding_) next = std::min(next, p.deadline);
    // poll() may return early once something was delivered (the socket
    // transport does; the simulator runs straight to the deadline) — the
    // loop re-checks outstanding_ either way, so responses cut the wait
    // short instead of paying the full timeout.
    network_->poll(next);
    const double now = network_->now();
    // poll() returning early on an unrelated delivery (a routed report, a
    // loopback frame) must not trigger the resend scan: nothing can be due
    // before the nearest deadline, and rescanning every outstanding op on
    // every delivery would busy-loop the scan under report floods.
    if (now < next) continue;
    for (auto& [id, p] : outstanding_) {
      if (p.deadline > now) continue;
      if (p.resends >= config_.rpc.max_resends) {
        failed_shard_ = p.shard;
        outstanding_.clear();
        arrived_.clear();
        return false;
      }
      ++p.resends;
      ++round_resends_;
      ++total_resends_;
      p.deadline = now + config_.rpc.op_timeout_seconds;
      network_->send(crowd::make_message(config_.id, p.shard,
                                         crowd::MessageType::kShardRequest,
                                         p.payload));
    }
  }
  return true;
}

std::optional<std::vector<std::vector<std::uint8_t>>> Coordinator::call_all(
    ShardOp op, const std::vector<net::NodeId>& targets,
    const std::function<std::vector<std::uint8_t>(std::size_t)>& body_of) {
  std::vector<std::uint64_t> ids(targets.size());
  for (std::size_t i = 0; i < targets.size(); ++i) {
    crowd::StatsEnvelope env;
    env.op_id = ++next_op_id_;
    env.op = static_cast<std::uint8_t>(op);
    env.body = body_of(i);
    ids[i] = env.op_id;
    Pending pending;
    pending.shard = targets[i];
    pending.payload = env.encode();
    pending.deadline = network_->now() + config_.rpc.op_timeout_seconds;
    network_->send(crowd::make_message(config_.id, targets[i],
                                       crowd::MessageType::kShardRequest,
                                       pending.payload));
    outstanding_.emplace(env.op_id, std::move(pending));
  }
  if (!pump()) return std::nullopt;
  std::vector<std::vector<std::uint8_t>> out(targets.size());
  for (std::size_t i = 0; i < targets.size(); ++i) {
    out[i] = std::move(arrived_[ids[i]]);
    arrived_.erase(ids[i]);
  }
  return out;
}

std::optional<std::vector<std::uint8_t>> Coordinator::call(
    net::NodeId target, ShardOp op, std::vector<std::uint8_t> body) {
  auto replies = call_all(op, {target},
                          [&](std::size_t) { return std::move(body); });
  if (!replies.has_value()) return std::nullopt;
  return std::move((*replies)[0]);
}

bool Coordinator::broadcast(ShardOp op,
                            const std::vector<std::uint8_t>& body) {
  return call_all(op, live_nodes(), [&](std::size_t) { return body; })
      .has_value();
}

std::vector<net::NodeId> Coordinator::live_nodes() const {
  std::vector<net::NodeId> nodes;
  nodes.reserve(live_.size());
  for (std::size_t i : live_) nodes.push_back(active_[i]);
  return nodes;
}

std::size_t Coordinator::live_num_users() const {
  std::size_t users = 0;
  for (std::size_t i : live_) users += plan_.shard_num_users(i);
  return users;
}

namespace {

/// Decodes a shard response body; a DecodeError marks the shard byzantine
/// (counted + declared failed) instead of propagating.
template <typename T>
std::optional<T> decode_or_fail(
    net::NodeId shard, const std::vector<std::uint8_t>& bytes,
    std::unordered_map<net::NodeId, std::size_t>& malformed,
    std::optional<net::NodeId>& failed) {
  try {
    return T::decode(bytes);
  } catch (const DecodeError&) {
    ++malformed[shard];
    failed = shard;
    return std::nullopt;
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Statistics collectives

std::optional<std::vector<std::uint8_t>> Coordinator::chain_call(
    net::NodeId shard, std::size_t index, ShardOp op,
    std::vector<std::uint8_t> body, const BatchPrefixFn& prefix_of) {
  if (!prefix_of) return call(shard, op, std::move(body));
  Batch items = prefix_of(index);
  if (items.empty()) return call(shard, op, std::move(body));
  items.push_back(BatchItem{op, std::move(body)});
  BatchBody batch;
  batch.items = std::move(items);
  auto reply = call(shard, ShardOp::kBatch, batch.encode());
  if (!reply.has_value()) return std::nullopt;
  auto decoded = decode_or_fail<BatchReplyBody>(shard, *reply,
                                                malformed_by_node_,
                                                failed_shard_);
  if (!decoded.has_value() || decoded->bodies.size() != batch.items.size()) {
    failed_shard_ = shard;
    return std::nullopt;
  }
  return std::move(decoded->bodies.back());
}

std::vector<std::uint8_t> Coordinator::weights_slice_body(
    const std::vector<double>& global, std::size_t i) const {
  WeightsBody body;
  body.uniform = false;
  body.weights.assign(
      global.begin() + static_cast<std::ptrdiff_t>(plan_.user_begin(i)),
      global.begin() + static_cast<std::ptrdiff_t>(plan_.user_end(i)));
  return body.encode();
}

bool Coordinator::set_weights_uniform() {
  WeightsBody body;
  body.uniform = true;
  return broadcast(ShardOp::kSetWeights, body.encode());
}

bool Coordinator::set_weights_explicit(const std::vector<double>& global) {
  DPTD_REQUIRE(global.size() == plan_.num_users,
               "Coordinator: weight vector size != num users");
  return call_all(ShardOp::kSetWeights, live_nodes(),
                  [&](std::size_t j) {
                    return weights_slice_body(global, live_[j]);
                  })
      .has_value();
}

std::optional<truth::AggregateStats> Coordinator::aggregate_chain(
    const BatchPrefixFn& prefix_of) {
  // The chained fold: each shard continues the accumulator exactly where the
  // previous one stopped, reproducing the in-process ascending-shard fold.
  AggregateBody body;
  body.stats.reset(config_.num_objects);
  for (std::size_t i : live_) {
    const net::NodeId shard = active_[i];
    auto reply = chain_call(shard, i, ShardOp::kAggregate, body.encode(),
                            prefix_of);
    if (!reply.has_value()) return std::nullopt;
    auto next = decode_or_fail<AggregateBody>(shard, *reply,
                                              malformed_by_node_,
                                              failed_shard_);
    if (!next.has_value() ||
        next->stats.counts.size() != config_.num_objects) {
      failed_shard_ = shard;
      return std::nullopt;
    }
    body = std::move(*next);
  }
  return std::move(body.stats);
}

std::optional<std::vector<double>> Coordinator::aggregate_truths(
    const BatchPrefixFn& prefix_of) {
  auto stats = aggregate_chain(prefix_of);
  if (!stats.has_value()) return std::nullopt;
  return truth::truths_from_aggregate(*stats, nullptr);
}

std::optional<std::vector<RunningStats>> Coordinator::moments_chain() {
  std::vector<RunningStats> moments(config_.num_objects);
  for (net::NodeId shard : live_nodes()) {
    auto reply = call(shard, ShardOp::kMoments, encode_moments(moments));
    if (!reply.has_value()) return std::nullopt;
    try {
      moments = decode_moments(*reply);
    } catch (const DecodeError&) {
      ++malformed_by_node_[shard];
      failed_shard_ = shard;
      return std::nullopt;
    }
    if (moments.size() != config_.num_objects) {
      failed_shard_ = shard;
      return std::nullopt;
    }
  }
  return moments;
}

std::optional<std::vector<std::vector<double>>> Coordinator::gather_columns(
    const BatchPrefixFn& prefix_of) {
  // The gather has no carried state, so prefixed frames still go out in
  // parallel: each shard executes its prefix (shard-local mutations only)
  // before its own gather, which no other shard's reply depends on.
  std::optional<std::vector<std::vector<std::uint8_t>>> replies;
  const std::vector<net::NodeId> targets = live_nodes();
  if (prefix_of) {
    replies = call_all(ShardOp::kBatch, targets, [&](std::size_t j) {
      BatchBody batch;
      batch.items = prefix_of(live_[j]);
      batch.items.push_back(BatchItem{ShardOp::kGather, {}});
      return batch.encode();
    });
  } else {
    replies = call_all(ShardOp::kGather, targets,
                       [](std::size_t) { return std::vector<std::uint8_t>{}; });
  }
  if (!replies.has_value()) return std::nullopt;
  const std::size_t N = config_.num_objects;
  std::vector<std::vector<double>> columns(N);
  // Fragments concatenated in ascending shard order ARE the global columns
  // in user order (shard ranges are contiguous and ascending; excluded
  // shards just leave their users out).
  for (std::size_t j = 0; j < targets.size(); ++j) {
    std::vector<std::uint8_t> frag_bytes = std::move((*replies)[j]);
    if (prefix_of) {
      auto batched = decode_or_fail<BatchReplyBody>(
          targets[j], frag_bytes, malformed_by_node_, failed_shard_);
      if (!batched.has_value() || batched->bodies.empty()) {
        failed_shard_ = targets[j];
        return std::nullopt;
      }
      frag_bytes = std::move(batched->bodies.back());
    }
    auto frag = decode_or_fail<GatherBody>(targets[j], frag_bytes,
                                           malformed_by_node_, failed_shard_);
    if (!frag.has_value() || frag->lengths.size() != N) {
      failed_shard_ = targets[j];
      return std::nullopt;
    }
    std::size_t cursor = 0;
    for (std::size_t n = 0; n < N; ++n) {
      const std::size_t len = static_cast<std::size_t>(frag->lengths[n]);
      columns[n].insert(columns[n].end(), frag->values.begin() + cursor,
                        frag->values.begin() + cursor + len);
      cursor += len;
    }
  }
  return columns;
}

bool Coordinator::collect_telemetry() {
  // The batched collect_weights pipelines kGetTelemetry into its frames; if
  // that already covered every live shard this round, skip the extra RPC.
  const std::vector<net::NodeId> targets = live_nodes();
  const bool collected =
      !targets.empty() &&
      std::all_of(targets.begin(), targets.end(), [&](net::NodeId shard) {
        return telemetry_by_node_.contains(shard);
      });
  if (collected) return true;
  auto replies = call_all(ShardOp::kGetTelemetry, targets,
                          [](std::size_t) { return std::vector<std::uint8_t>{}; });
  if (!replies.has_value()) return false;
  for (std::size_t j = 0; j < targets.size(); ++j) {
    auto body = decode_or_fail<TelemetryBody>(targets[j], (*replies)[j],
                                              malformed_by_node_,
                                              failed_shard_);
    if (!body.has_value()) return false;
    telemetry_by_node_[targets[j]] = *body;
  }
  return true;
}

std::optional<std::vector<double>> Coordinator::vote_scores_chain(
    std::size_t num_labels, const BatchPrefixFn& prefix_of) {
  // Same shape as aggregate_chain: the score table threads through the
  // shards in ascending order, each continuing categorical::fold_label_scores
  // exactly where the previous shard stopped.
  VoteScoresBody body;
  body.scores.assign(config_.num_objects * num_labels, 0.0);
  for (std::size_t i : live_) {
    const net::NodeId shard = active_[i];
    auto reply = chain_call(shard, i, ShardOp::kVoteScores, body.encode(),
                            prefix_of);
    if (!reply.has_value()) return std::nullopt;
    auto next = decode_or_fail<VoteScoresBody>(shard, *reply,
                                               malformed_by_node_,
                                               failed_shard_);
    if (!next.has_value() ||
        next->scores.size() != config_.num_objects * num_labels) {
      failed_shard_ = shard;
      return std::nullopt;
    }
    body = std::move(*next);
  }
  return std::move(body.scores);
}

std::optional<std::vector<double>> Coordinator::collect_weights() {
  const std::vector<net::NodeId> targets = live_nodes();
  std::vector<std::vector<std::uint8_t>> slices;
  if (config_.batch_collectives) {
    // Pipeline the two independent round-close collectives in one frame per
    // shard: the telemetry rides along, so close_round's collect_telemetry
    // becomes a no-op. Both are reads — batching cannot change any bits.
    BatchBody batch;
    batch.items.push_back(BatchItem{ShardOp::kCollectWeights, {}});
    batch.items.push_back(BatchItem{ShardOp::kGetTelemetry, {}});
    const std::vector<std::uint8_t> encoded = batch.encode();
    auto replies = call_all(ShardOp::kBatch, targets,
                            [&](std::size_t) { return encoded; });
    if (!replies.has_value()) return std::nullopt;
    slices.resize(targets.size());
    for (std::size_t j = 0; j < targets.size(); ++j) {
      auto reply = decode_or_fail<BatchReplyBody>(
          targets[j], (*replies)[j], malformed_by_node_, failed_shard_);
      if (!reply.has_value() || reply->bodies.size() != 2) {
        failed_shard_ = targets[j];
        return std::nullopt;
      }
      auto telemetry = decode_or_fail<TelemetryBody>(
          targets[j], reply->bodies[1], malformed_by_node_, failed_shard_);
      if (!telemetry.has_value()) return std::nullopt;
      telemetry_by_node_[targets[j]] = *telemetry;
      slices[j] = std::move(reply->bodies[0]);
    }
  } else {
    auto replies = call_all(ShardOp::kCollectWeights, targets,
                            [](std::size_t) { return std::vector<std::uint8_t>{}; });
    if (!replies.has_value()) return std::nullopt;
    slices = std::move(*replies);
  }
  // Surviving users only, concatenated ascending — on a degraded round this
  // is exactly the weight vector of the in-process survivor reference.
  std::vector<double> weights;
  weights.reserve(live_num_users());
  for (std::size_t j = 0; j < targets.size(); ++j) {
    auto slice = decode_or_fail<WeightsBody>(targets[j], slices[j],
                                             malformed_by_node_,
                                             failed_shard_);
    if (!slice.has_value() ||
        slice->weights.size() != plan_.shard_num_users(live_[j])) {
      failed_shard_ = targets[j];
      return std::nullopt;
    }
    weights.insert(weights.end(), slice->weights.begin(),
                   slice->weights.end());
  }
  return weights;
}

// ---------------------------------------------------------------------------
// Round lifecycle

bool Coordinator::begin_round(std::uint64_t round,
                              std::vector<net::NodeId> participants) {
  DPTD_REQUIRE(!round_planned_, "Coordinator: a round is already open");
  DPTD_REQUIRE(!participants.empty(), "Coordinator: no participants");
  // Refuses a repeated id before any state changes or Setup goes out.
  crowd::ParticipantIndex index;
  index.build(participants);
  while (!roster_.empty()) {
    plan_ = data::ShardPlan::create(participants.size(), roster_.size(),
                                    config_.block_size);
    active_.assign(roster_.begin(),
                   roster_.begin() +
                       static_cast<std::ptrdiff_t>(plan_.num_shards));
    failed_shard_.reset();
    round_resends_ = 0;
    stats_at_begin_ = network_->stats();
    stale_at_begin_ = stale_responses_;
    undeliverable_at_begin_.clear();
    malformed_at_begin_.clear();
    telemetry_by_node_.clear();
    for (net::NodeId shard : active_) {
      undeliverable_at_begin_[shard] = network_->undeliverable_to(shard);
      const auto it = malformed_by_node_.find(shard);
      malformed_at_begin_[shard] =
          it == malformed_by_node_.end() ? 0 : it->second;
    }
    const bool ok =
        call_all(ShardOp::kSetup, active_,
                 [&](std::size_t i) {
                   SetupBody setup;
                   setup.round = round;
                   setup.num_users = participants.size();
                   setup.num_shards = plan_.num_shards;
                   setup.shard_index = i;
                   setup.num_objects = config_.num_objects;
                   setup.block_size = config_.block_size;
                   setup.num_labels = method_.num_labels();
                   setup.participants.assign(
                       participants.begin() +
                           static_cast<std::ptrdiff_t>(plan_.user_begin(i)),
                       participants.begin() +
                           static_cast<std::ptrdiff_t>(plan_.user_end(i)));
                   return setup.encode();
                 })
            .has_value();
    if (ok) {
      round_ = round;
      round_open_ = true;
      round_planned_ = true;
      participants_ = std::move(participants);
      index_ = std::move(index);
      reports_routed_ = 0;
      reports_unroutable_ = 0;
      reports_undeliverable_ = 0;
      live_.resize(plan_.num_shards);
      for (std::size_t i = 0; i < plan_.num_shards; ++i) live_[i] = i;
      routed_by_shard_.assign(plan_.num_shards, 0);
      undeliverable_by_shard_.assign(plan_.num_shards, 0);
      return true;
    }
    // A shard failed setup: drop it and re-plan over the survivors. The
    // surviving shards get a fresh (idempotent) Setup with the new split.
    if (failed_shard_.has_value()) remove_shard(*failed_shard_);
  }
  active_.clear();
  return false;
}

DistributedOutcome Coordinator::close_round() {
  DPTD_REQUIRE(round_planned_, "Coordinator: no open round");
  round_open_ = false;  // reports from here on are late: unroutable
  // Drain the forward pipeline before finalizing: a report routed before the
  // close is on time, but the kFinalizeIngest below could overtake it (on a
  // jittered simulator link; over sockets the per-connection FIFO already
  // orders them, the window only covers cross-connection skew). One
  // transport drain window delivers every in-flight forwarded report (only
  // a drop or connection failure can still lose one).
  network_->drain_for(network_->drain_window_seconds());
  DistributedOutcome out;
  out.round = round_;
  out.reports_routed = reports_routed_;

  const auto finish = [&]() {
    out.reports_routed = reports_routed_;
    out.reports_unroutable = reports_unroutable_;
    out.reports_undeliverable = reports_undeliverable_;
    out.resends = round_resends_;
    out.stale_responses = stale_responses_ - stale_at_begin_;
    const net::NetworkStats now = network_->stats();
    out.network.messages_sent =
        now.messages_sent - stats_at_begin_.messages_sent;
    out.network.messages_delivered =
        now.messages_delivered - stats_at_begin_.messages_delivered;
    out.network.messages_dropped =
        now.messages_dropped - stats_at_begin_.messages_dropped;
    out.network.messages_undeliverable =
        now.messages_undeliverable - stats_at_begin_.messages_undeliverable;
    out.network.bytes_sent = now.bytes_sent - stats_at_begin_.bytes_sent;
    out.network.bytes_delivered =
        now.bytes_delivered - stats_at_begin_.bytes_delivered;
    for (net::NodeId shard : active_) {
      NodeCounters counters;
      counters.node = shard;
      const auto tit = telemetry_by_node_.find(shard);
      if (tit != telemetry_by_node_.end()) {
        counters.stale_requests = tit->second.stale_requests;
        counters.malformed_messages = tit->second.malformed_messages;
      }
      const auto mit = malformed_by_node_.find(shard);
      counters.malformed_responses =
          (mit == malformed_by_node_.end() ? 0 : mit->second) -
          malformed_at_begin_[shard];
      counters.messages_undeliverable =
          network_->undeliverable_to(shard) - undeliverable_at_begin_[shard];
      out.node_counters.push_back(counters);
    }
    round_planned_ = false;
    active_.clear();
  };
  const auto abort_round = [&]() {
    out.completed = false;
    out.aggregated = false;
    out.failed_shard = failed_shard_;
    if (failed_shard_.has_value()) remove_shard(*failed_shard_);
    finish();
    return out;
  };

  // One close attempt over the current live set: finalize (idempotent on the
  // shards, so a retried attempt re-serves summaries without re-ingesting),
  // coverage, warm seed, method, telemetry.
  enum class Attempt { kAggregated, kUncovered, kFailed };
  const auto attempt = [&]() -> Attempt {
    out.shard_stats.clear();
    out.warm_started = false;
    auto summaries =
        call_all(ShardOp::kFinalizeIngest, live_nodes(),
                 [](std::size_t) { return std::vector<std::uint8_t>{}; });
    if (!summaries.has_value()) return Attempt::kFailed;
    std::vector<std::uint64_t> coverage(config_.num_objects, 0);
    for (std::size_t j = 0; j < live_.size(); ++j) {
      const net::NodeId node = active_[live_[j]];
      auto summary = decode_or_fail<IngestSummaryBody>(
          node, (*summaries)[j], malformed_by_node_, failed_shard_);
      if (!summary.has_value() ||
          summary->object_counts.size() != config_.num_objects) {
        failed_shard_ = node;
        return Attempt::kFailed;
      }
      crowd::ShardIngestStats stats;
      stats.reports_received =
          static_cast<std::size_t>(summary->reports_received);
      stats.duplicates_ignored =
          static_cast<std::size_t>(summary->duplicates_ignored);
      stats.malformed_reports =
          static_cast<std::size_t>(summary->malformed_reports);
      stats.rejected_reports =
          static_cast<std::size_t>(summary->rejected_reports);
      stats.invalid_labels = static_cast<std::size_t>(summary->invalid_labels);
      out.shard_stats.push_back(stats);
      for (std::size_t n = 0; n < coverage.size(); ++n) {
        coverage[n] += summary->object_counts[n];
      }
    }
    for (std::uint64_t c : coverage) {
      if (c == 0) {
        // Uncovered objects: skip aggregation gracefully, exactly like the
        // in-process servers. The warm state is left untouched.
        DPTD_LOG_WARN << "round " << round_
                      << ": uncovered objects, skipping aggregation";
        if (!collect_telemetry()) return Attempt::kFailed;
        return Attempt::kUncovered;
      }
    }

    // Warm seed, mirroring crowd::aggregate_and_publish bit for bit. The
    // seed stays global-sized; live shards slice it by plan index.
    truth::WarmStart seed;
    if (config_.warm_start && warm_.valid && method_.supports_warm_start()) {
      seed.truths = warm_.result.truths;
      seed.weights =
          crowd::remap_warm_weights(warm_, participants_, plan_.num_users);
      out.warm_started = true;
    }
    truth::validate_warm_start(plan_.num_users, config_.num_objects, seed);

    auto result = run_method(seed);
    if (!result.has_value()) return Attempt::kFailed;
    // Shard-side robustness counters, collected after the method so the
    // iterate-phase telemetry (mark_iterate_*) never includes these RPCs.
    if (!collect_telemetry()) return Attempt::kFailed;
    out.result = std::move(*result);
    return Attempt::kAggregated;
  };

  for (;;) {
    const Attempt a = attempt();
    if (a == Attempt::kFailed) {
      // Graceful degraded close: exclude the failed shard, account its
      // routed reports as lost (exactly: routed minus already-counted
      // undeliverable), and retry the close over the survivors. Each pass
      // shrinks the live set, so this terminates.
      if (!failed_shard_.has_value()) return abort_round();
      const net::NodeId dead = *failed_shard_;
      const auto it = std::find_if(
          live_.begin(), live_.end(),
          [&](std::size_t i) { return active_[i] == dead; });
      if (it == live_.end()) return abort_round();
      const std::size_t dead_index = *it;
      live_.erase(it);
      remove_shard(dead);
      failed_shard_.reset();
      if (live_.empty()) {
        // No survivors to close over: the whole round aborts.
        failed_shard_ = dead;
        return abort_round();
      }
      out.degraded = true;
      out.excluded_shards.push_back(dead);
      out.reports_lost +=
          routed_by_shard_[dead_index] - undeliverable_by_shard_[dead_index];
      DPTD_LOG_WARN << "round " << round_ << ": shard " << dead
                    << " excluded mid-round, closing degraded over "
                    << live_.size() << " survivors";
      continue;
    }
    out.completed = true;
    if (a == Attempt::kUncovered) {
      out.aggregated = false;
      finish();
      return out;
    }
    out.aggregated = true;
    out.iteration_messages = iteration_messages_;
    out.iteration_bytes = iteration_bytes_;
    if (!out.degraded) {
      warm_.result = out.result;
      warm_.participants = participants_;
      warm_.valid = true;
    }
    finish();
    return out;
  }
}

// ---------------------------------------------------------------------------
// Method drivers

void Coordinator::mark_iterate_begin() {
  stats_at_iterate_ = network_->stats();
  iteration_messages_ = 0;
  iteration_bytes_ = 0;
}

void Coordinator::mark_iterate_end() {
  const net::NetworkStats now = network_->stats();
  iteration_messages_ = now.messages_sent - stats_at_iterate_.messages_sent;
  iteration_bytes_ = now.bytes_sent - stats_at_iterate_.bytes_sent;
}

std::optional<truth::Result> Coordinator::run_method(
    const truth::WarmStart& seed) {
  switch (method_.kind) {
    case MethodSpec::Kind::kCrh:
      return run_crh(seed);
    case MethodSpec::Kind::kGtm:
      return run_gtm(seed);
    case MethodSpec::Kind::kCatd:
      return run_catd(seed);
    case MethodSpec::Kind::kMean:
      return run_mean();
    case MethodSpec::Kind::kMedian:
      return run_median();
    case MethodSpec::Kind::kMajority:
      return run_majority();
    case MethodSpec::Kind::kVote:
      return run_vote(seed);
  }
  return std::nullopt;
}

std::optional<truth::Result> Coordinator::run_crh(
    const truth::WarmStart& seed) {
  const truth::CrhConfig& c = method_.crh;
  const std::size_t N = config_.num_objects;

  std::vector<double> stddevs(N, 1.0);
  if (c.loss == truth::CrhLoss::kNormalizedSquared) {
    auto moments = moments_chain();
    if (!moments.has_value()) return std::nullopt;
    stddevs = truth::crh_stddevs_from_moments(*moments);
  }
  CrhPrepareBody prep;
  prep.loss = static_cast<std::uint8_t>(c.loss);
  prep.min_loss_fraction = c.min_loss_fraction;
  prep.stddevs = stddevs;
  const bool batched = config_.batch_collectives;
  const std::vector<std::uint8_t> prep_bytes = prep.encode();

  truth::Result result;
  if (seed.weights.empty() && !seed.truths.empty()) {
    // Warm truths skip the initial aggregation: there is no following
    // collective to fold the prepare into, so broadcast it plain.
    if (!broadcast(ShardOp::kCrhPrepare, prep_bytes)) return std::nullopt;
    result.truths = seed.truths;
  } else {
    // Batched: [prepare, weights, aggregate-hop] in one frame per shard —
    // both folded ops only touch registers this shard's own fold consumes.
    WeightsBody uniform;
    uniform.uniform = true;
    BatchPrefixFn prefix;
    if (batched) {
      prefix = [&](std::size_t i) {
        Batch items;
        items.push_back(BatchItem{ShardOp::kCrhPrepare, prep_bytes});
        items.push_back(BatchItem{ShardOp::kSetWeights,
                                  seed.weights.empty()
                                      ? uniform.encode()
                                      : weights_slice_body(seed.weights, i)});
        return items;
      };
    } else {
      if (!broadcast(ShardOp::kCrhPrepare, prep_bytes)) return std::nullopt;
      const bool ok = seed.weights.empty() ? set_weights_uniform()
                                           : set_weights_explicit(seed.weights);
      if (!ok) return std::nullopt;
    }
    auto truths = aggregate_truths(prefix);
    if (!truths.has_value()) return std::nullopt;
    result.truths = std::move(*truths);
  }

  mark_iterate_begin();
  for (std::size_t it = 1; it <= c.convergence.max_iterations; ++it) {
    // Loss chain: the running total threads through the shards, continuing
    // the canonical block-chained sum across the fleet.
    double total = 0.0;
    for (net::NodeId shard : live_nodes()) {
      CrhLossBody req;
      req.truths = result.truths;
      req.total = total;
      auto reply = call(shard, ShardOp::kCrhLoss, req.encode());
      if (!reply.has_value()) return std::nullopt;
      auto resp = decode_or_fail<CrhTotalBody>(shard, *reply,
                                               malformed_by_node_,
                                               failed_shard_);
      if (!resp.has_value()) return std::nullopt;
      total = resp->total;
    }
    CrhTotalBody tot;
    tot.total = total;
    // Batched: the weight update rides each shard's aggregate hop instead of
    // its own broadcast round-trip (6 -> 4 msgs/shard/iteration).
    BatchPrefixFn weights_prefix;
    if (batched) {
      const std::vector<std::uint8_t> tot_bytes = tot.encode();
      weights_prefix = [tot_bytes](std::size_t) {
        return Batch{BatchItem{ShardOp::kCrhWeights, tot_bytes}};
      };
    } else {
      if (!broadcast(ShardOp::kCrhWeights, tot.encode())) return std::nullopt;
    }

    auto next = aggregate_truths(weights_prefix);
    if (!next.has_value()) return std::nullopt;
    const double change = truth::truth_change(result.truths, *next);
    result.truths = std::move(*next);
    result.iterations = it;
    if (change < c.convergence.tolerance) {
      result.converged = true;
      break;
    }
  }
  mark_iterate_end();

  auto weights = collect_weights();
  if (!weights.has_value()) return std::nullopt;
  result.weights = std::move(*weights);
  return result;
}

std::optional<truth::Result> Coordinator::run_gtm(
    const truth::WarmStart& seed) {
  const truth::GtmConfig& g = method_.gtm;
  const std::size_t N = config_.num_objects;

  std::vector<double> shift(N, 0.0);
  std::vector<double> scale(N, 1.0);
  if (g.standardize) {
    auto moments = moments_chain();
    if (!moments.has_value()) return std::nullopt;
    truth::gtm_standardization(*moments, shift, scale);
  }
  GtmPrepareBody prep;
  prep.quality_prior_alpha = g.quality_prior_alpha;
  prep.quality_prior_beta = g.quality_prior_beta;
  prep.min_variance = g.min_variance;
  prep.shift = shift;
  prep.scale = scale;
  const bool batched = config_.batch_collectives;
  const std::vector<std::uint8_t> prep_bytes = prep.encode();

  const double prior_precision = 1.0 / g.truth_prior_variance;
  const double prior_weighted = g.truth_prior_mean / g.truth_prior_variance;

  std::vector<double> truth_mean(N, 0.0);
  std::vector<double> truth_var(N, 0.0);
  const auto posterior_chain = [&](const BatchPrefixFn& prefix_of) -> bool {
    GtmFoldBody body;
    body.precision.assign(N, prior_precision);
    body.weighted.assign(N, prior_weighted);
    for (std::size_t i = 0; i < active_.size(); ++i) {
      const net::NodeId shard = active_[i];
      auto reply = chain_call(shard, i, ShardOp::kGtmFold, body.encode(),
                              prefix_of);
      if (!reply.has_value()) return false;
      auto next = decode_or_fail<GtmFoldBody>(shard, *reply,
                                              malformed_by_node_,
                                              failed_shard_);
      if (!next.has_value() || next->precision.size() != N) {
        failed_shard_ = shard;
        return false;
      }
      body = std::move(*next);
    }
    truth::gtm_posterior_from_stats(body.precision, body.weighted, truth_mean,
                                    truth_var, nullptr);
    return true;
  };

  if (!seed.weights.empty()) {
    // GTM's weights ARE per-user precisions: seed the E-step with them.
    // Batched: prepare + the weight slice ride each shard's fold hop.
    BatchPrefixFn prefix;
    if (batched) {
      prefix = [&](std::size_t i) {
        Batch items;
        items.push_back(BatchItem{ShardOp::kGtmPrepare, prep_bytes});
        items.push_back(BatchItem{ShardOp::kSetWeights,
                                  weights_slice_body(seed.weights, i)});
        return items;
      };
    } else {
      if (!broadcast(ShardOp::kGtmPrepare, prep_bytes)) return std::nullopt;
      if (!set_weights_explicit(seed.weights)) return std::nullopt;
    }
    if (!posterior_chain(prefix)) return std::nullopt;
  } else if (!seed.truths.empty()) {
    if (!broadcast(ShardOp::kGtmPrepare, prep_bytes)) return std::nullopt;
    for (std::size_t n = 0; n < N; ++n) {
      truth_mean[n] = (seed.truths[n] - shift[n]) / scale[n];
    }
  } else {
    BatchPrefixFn prefix;
    if (batched) {
      prefix = [&](std::size_t) {
        return Batch{BatchItem{ShardOp::kGtmPrepare, prep_bytes}};
      };
    } else {
      if (!broadcast(ShardOp::kGtmPrepare, prep_bytes)) return std::nullopt;
    }
    auto columns = gather_columns(prefix);
    if (!columns.has_value()) return std::nullopt;
    for (std::size_t n = 0; n < N; ++n) {
      truth_mean[n] =
          truth::gtm_standardized_median((*columns)[n], shift[n], scale[n]);
    }
  }

  std::vector<double> prev_truths = truth_mean;
  truth::Result result;
  mark_iterate_begin();
  for (std::size_t it = 1; it <= g.convergence.max_iterations; ++it) {
    GtmStepBody step;
    step.truth_mean = truth_mean;
    step.truth_var = truth_var;
    // Batched: the M-step broadcast rides each shard's fold hop instead of
    // its own round-trip (4 -> 2 msgs/shard/iteration).
    BatchPrefixFn step_prefix;
    if (batched) {
      const std::vector<std::uint8_t> step_bytes = step.encode();
      step_prefix = [step_bytes](std::size_t) {
        return Batch{BatchItem{ShardOp::kGtmStep, step_bytes}};
      };
    } else {
      if (!broadcast(ShardOp::kGtmStep, step.encode())) return std::nullopt;
    }
    if (!posterior_chain(step_prefix)) return std::nullopt;

    result.iterations = it;
    const double change = truth::truth_change(prev_truths, truth_mean);
    prev_truths = truth_mean;
    if (change < g.convergence.tolerance) {
      result.converged = true;
      break;
    }
  }
  mark_iterate_end();

  result.truths.resize(N);
  for (std::size_t n = 0; n < N; ++n) {
    result.truths[n] = truth_mean[n] * scale[n] + shift[n];
  }
  auto weights = collect_weights();
  if (!weights.has_value()) return std::nullopt;
  result.weights = std::move(*weights);
  return result;
}

std::optional<truth::Result> Coordinator::run_catd(
    const truth::WarmStart& seed) {
  const truth::CatdConfig& c = method_.catd;
  const std::size_t N = config_.num_objects;

  CatdPrepareBody prep;
  prep.significance = c.significance;
  prep.min_residual = c.min_residual;
  const bool batched = config_.batch_collectives;
  const std::vector<std::uint8_t> prep_bytes = prep.encode();

  truth::Result result;
  if (!seed.weights.empty()) {
    BatchPrefixFn prefix;
    if (batched) {
      prefix = [&](std::size_t i) {
        Batch items;
        items.push_back(BatchItem{ShardOp::kCatdPrepare, prep_bytes});
        items.push_back(BatchItem{ShardOp::kSetWeights,
                                  weights_slice_body(seed.weights, i)});
        return items;
      };
    } else {
      if (!broadcast(ShardOp::kCatdPrepare, prep_bytes)) return std::nullopt;
      if (!set_weights_explicit(seed.weights)) return std::nullopt;
    }
    auto truths = aggregate_truths(prefix);
    if (!truths.has_value()) return std::nullopt;
    result.truths = std::move(*truths);
  } else if (!seed.truths.empty()) {
    if (!broadcast(ShardOp::kCatdPrepare, prep_bytes)) return std::nullopt;
    result.truths = seed.truths;
  } else {
    BatchPrefixFn prefix;
    if (batched) {
      prefix = [&](std::size_t) {
        return Batch{BatchItem{ShardOp::kCatdPrepare, prep_bytes}};
      };
    } else {
      if (!broadcast(ShardOp::kCatdPrepare, prep_bytes)) return std::nullopt;
    }
    auto columns = gather_columns(prefix);
    if (!columns.has_value()) return std::nullopt;
    result.truths.resize(N);
    for (std::size_t n = 0; n < N; ++n) {
      DPTD_REQUIRE(!(*columns)[n].empty(),
                   "Coordinator: object with no claims");
      result.truths[n] = median((*columns)[n]);
    }
  }

  mark_iterate_begin();
  for (std::size_t it = 1; it <= c.convergence.max_iterations; ++it) {
    TruthsBody req;
    req.truths = result.truths;
    // Batched: the weight update rides each shard's aggregate hop
    // (4 -> 2 msgs/shard/iteration).
    BatchPrefixFn weights_prefix;
    if (batched) {
      const std::vector<std::uint8_t> req_bytes = req.encode();
      weights_prefix = [req_bytes](std::size_t) {
        return Batch{BatchItem{ShardOp::kCatdWeights, req_bytes}};
      };
    } else {
      if (!broadcast(ShardOp::kCatdWeights, req.encode())) return std::nullopt;
    }

    auto next = aggregate_truths(weights_prefix);
    if (!next.has_value()) return std::nullopt;
    const double change = truth::truth_change(result.truths, *next);
    result.truths = std::move(*next);
    result.iterations = it;
    if (change < c.convergence.tolerance) {
      result.converged = true;
      break;
    }
  }
  mark_iterate_end();

  auto weights = collect_weights();
  if (!weights.has_value()) return std::nullopt;
  result.weights = std::move(*weights);
  return result;
}

std::optional<truth::Result> Coordinator::run_mean() {
  truth::Result result;
  mark_iterate_begin();
  BatchPrefixFn prefix;
  if (config_.batch_collectives) {
    WeightsBody uniform;
    uniform.uniform = true;
    const std::vector<std::uint8_t> uniform_bytes = uniform.encode();
    prefix = [uniform_bytes](std::size_t) {
      return Batch{BatchItem{ShardOp::kSetWeights, uniform_bytes}};
    };
  } else {
    if (!set_weights_uniform()) return std::nullopt;
  }
  auto truths = aggregate_truths(prefix);
  if (!truths.has_value()) return std::nullopt;
  mark_iterate_end();
  result.truths = std::move(*truths);
  result.weights.assign(live_num_users(), 1.0);
  result.iterations = 1;
  result.converged = true;
  return result;
}

std::optional<truth::Result> Coordinator::run_median() {
  truth::Result result;
  mark_iterate_begin();
  auto columns = gather_columns();
  if (!columns.has_value()) return std::nullopt;
  mark_iterate_end();
  result.truths.resize(config_.num_objects);
  for (std::size_t n = 0; n < config_.num_objects; ++n) {
    DPTD_REQUIRE(!(*columns)[n].empty(),
                 "Coordinator: object with no claims");
    result.truths[n] = median((*columns)[n]);
  }
  result.weights.assign(live_num_users(), 1.0);
  result.iterations = 1;
  result.converged = true;
  return result;
}

std::optional<truth::Result> Coordinator::run_majority() {
  const std::size_t L = method_.majority.num_labels;
  VotePrepareBody prep;
  prep.num_labels = L;
  prep.min_disagreement_fraction =
      categorical::WeightedVotingConfig{}.min_disagreement_fraction;
  const bool batched = config_.batch_collectives;
  BatchPrefixFn prefix;
  if (batched) {
    WeightsBody uniform;
    uniform.uniform = true;
    const std::vector<std::uint8_t> prep_bytes = prep.encode();
    const std::vector<std::uint8_t> uniform_bytes = uniform.encode();
    prefix = [prep_bytes, uniform_bytes](std::size_t) {
      return Batch{BatchItem{ShardOp::kVotePrepare, prep_bytes},
                   BatchItem{ShardOp::kSetWeights, uniform_bytes}};
    };
  } else {
    if (!broadcast(ShardOp::kVotePrepare, prep.encode())) return std::nullopt;
  }

  truth::Result result;
  mark_iterate_begin();
  if (!batched && !set_weights_uniform()) return std::nullopt;
  auto scores = vote_scores_chain(L, prefix);
  if (!scores.has_value()) return std::nullopt;
  mark_iterate_end();
  const std::vector<categorical::Label> truths =
      categorical::truths_from_scores(*scores, config_.num_objects, L);
  result.truths.resize(truths.size());
  for (std::size_t n = 0; n < truths.size(); ++n) {
    result.truths[n] = static_cast<double>(truths[n]);
  }
  result.weights.assign(live_num_users(), 1.0);
  result.iterations = 1;
  result.converged = true;
  return result;
}

std::optional<truth::Result> Coordinator::run_vote(
    const truth::WarmStart& seed) {
  // The exact categorical::weighted_vote control flow over the wire — same
  // seed precedence, same unanimity short-circuit, same stop rule — so a
  // K-node round is bitwise identical to the in-process run_sharded at any K.
  const truth::WeightedVoteConfig& c = method_.vote;
  const categorical::WeightedVotingConfig& v = c.voting;
  const std::size_t L = c.num_labels;
  const std::size_t N = config_.num_objects;

  VotePrepareBody prep;
  prep.num_labels = L;
  prep.min_disagreement_fraction = v.min_disagreement_fraction;
  const bool batched = config_.batch_collectives;
  const std::vector<std::uint8_t> prep_bytes = prep.encode();

  std::vector<categorical::Label> truths;
  if (!seed.truths.empty()) {
    // Prior truths skip the initial aggregation entirely; prior weights are
    // irrelevant on this path (the first iteration overwrites them before
    // any fold reads them), exactly like the in-process driver. There is no
    // following chain to fold the prepare into, so broadcast it plain.
    if (!broadcast(ShardOp::kVotePrepare, prep_bytes)) return std::nullopt;
    truths = truth::labels_from_doubles(seed.truths, L);
  } else {
    WeightsBody uniform;
    uniform.uniform = true;
    BatchPrefixFn prefix;
    if (batched) {
      prefix = [&](std::size_t i) {
        Batch items;
        items.push_back(BatchItem{ShardOp::kVotePrepare, prep_bytes});
        items.push_back(BatchItem{ShardOp::kSetWeights,
                                  seed.weights.empty()
                                      ? uniform.encode()
                                      : weights_slice_body(seed.weights, i)});
        return items;
      };
    } else {
      if (!broadcast(ShardOp::kVotePrepare, prep_bytes)) return std::nullopt;
      const bool ok = seed.weights.empty() ? set_weights_uniform()
                                           : set_weights_explicit(seed.weights);
      if (!ok) return std::nullopt;
    }
    auto scores = vote_scores_chain(L, prefix);
    if (!scores.has_value()) return std::nullopt;
    truths = categorical::truths_from_scores(*scores, N, L);
  }

  truth::Result result;
  mark_iterate_begin();
  for (std::size_t it = 1; it <= v.max_iterations; ++it) {
    // Disagreement chain: the running total threads through the shards,
    // continuing the canonical block-chained sum across the fleet.
    double total = 0.0;
    for (net::NodeId shard : live_nodes()) {
      VoteDisagreeBody req;
      req.truths = truths;
      req.total = total;
      auto reply = call(shard, ShardOp::kVoteDisagree, req.encode());
      if (!reply.has_value()) return std::nullopt;
      auto resp = decode_or_fail<CrhTotalBody>(shard, *reply,
                                               malformed_by_node_,
                                               failed_shard_);
      if (!resp.has_value()) return std::nullopt;
      total = resp->total;
    }
    // Broadcast even a non-positive total: the shards then land on uniform
    // weights, matching the in-process unanimity short-circuit bit for bit.
    // (Unanimity ends the iteration, so there is no chain to fold the weight
    // update into — the decision is known before the frame shape is chosen,
    // never speculated.)
    CrhTotalBody tot;
    tot.total = total;
    if (total <= 0.0) {
      if (!broadcast(ShardOp::kVoteWeights, tot.encode())) return std::nullopt;
      result.iterations = it;
      result.converged = true;
      break;
    }
    // Batched: the weight update rides each shard's score-chain hop
    // (6 -> 4 msgs/shard/iteration).
    BatchPrefixFn weights_prefix;
    if (batched) {
      const std::vector<std::uint8_t> tot_bytes = tot.encode();
      weights_prefix = [tot_bytes](std::size_t) {
        return Batch{BatchItem{ShardOp::kVoteWeights, tot_bytes}};
      };
    } else {
      if (!broadcast(ShardOp::kVoteWeights, tot.encode())) return std::nullopt;
    }

    auto scores = vote_scores_chain(L, weights_prefix);
    if (!scores.has_value()) return std::nullopt;
    std::vector<categorical::Label> next =
        categorical::truths_from_scores(*scores, N, L);
    const bool unchanged = next == truths;
    truths = std::move(next);
    result.iterations = it;
    if (unchanged) {
      result.converged = true;
      break;
    }
  }
  mark_iterate_end();

  result.truths.resize(N);
  for (std::size_t n = 0; n < N; ++n) {
    result.truths[n] = static_cast<double>(truths[n]);
  }
  auto weights = collect_weights();
  if (!weights.has_value()) return std::nullopt;
  result.weights = std::move(*weights);
  return result;
}

}  // namespace dptd::dist
