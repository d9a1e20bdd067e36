#include "dist/coordinator.h"

#include <algorithm>
#include <iterator>
#include <limits>
#include <span>
#include <tuple>
#include <type_traits>
#include <utility>

#include "common/check.h"
#include "common/logging.h"
#include "truth/baselines.h"
#include "truth/fold_backend.h"

namespace dptd::dist {
namespace {

/// A shard exhausted its resends or sent a reply the coordinator cannot use.
/// The close attempt (or begin_round) talking to it catches this and
/// excludes the shard.
struct ShardFailure {
  net::NodeId shard = 0;
};

/// A shard's staged uploads leave once they reach this many bytes: the
/// socket transport writes a connection's queue out at the same mark, so a
/// full batch goes straight to the wire.
constexpr std::size_t kBatchFlushBytes = std::size_t{64} << 10;

}  // namespace

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
    : config_(config),
      spec_(method),
      method_(make_method(method)),
      network_(&network) {
  DPTD_REQUIRE(config_.num_objects > 0,
               "Coordinator: num_objects must be positive");
  DPTD_REQUIRE(config_.block_size > 0,
               "Coordinator: block_size must be positive");
  DPTD_REQUIRE(!spec_.categorical() ||
                   (spec_.num_labels() >= 2 &&
                    spec_.num_labels() <= truth::kMaxBridgedLabels),
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
  // Batch under the ORIGINAL message type: continuous and categorical
  // uploads share the peekable header, and the owning shard enforces the
  // round's kind itself (wrong-kind uploads are rejected there, counted). A
  // batch holds one type, so a change of type sends the batch so far first.
  const auto type = static_cast<crowd::MessageType>(message.type);
  Staged& staged = staged_[shard];
  if (!staged.batch.empty() && staged.type != type) flush_batch(shard);
  staged.type = type;
  staged.batch.add(message.payload, *header);
  ++reports_routed_;
  ++routed_by_shard_[shard];
  if (staged.batch.bytes() >= kBatchFlushBytes) flush_batch(shard);
  if (!flush_scheduled_) {
    flush_scheduled_ = true;
    network_->schedule(0.0, [this, alive = std::weak_ptr<const bool>(alive_)] {
      if (alive.expired()) return;
      flush_scheduled_ = false;
      flush_batches();
    });
  }
}

void Coordinator::flush_batch(std::size_t shard) {
  Staged& staged = staged_[shard];
  if (staged.batch.empty()) return;
  const std::size_t reports = staged.batch.count();
  const net::NodeId target = active_[shard];
  const std::size_t undeliverable_before = network_->undeliverable_to(target);
  network_->send(crowd::make_message(config_.id, target,
                                     crowd::MessageType::kReportBatch,
                                     staged.batch.take(round_, staged.type)));
  // Reports have no resend path: a synchronous transport drop here is real
  // loss of every report in the batch, so make it observable instead of
  // silent. (The simulator's detached-in-flight drops are counted at
  // delivery time and show up in NodeCounters::messages_undeliverable.) The
  // per-shard ledger is what makes a degraded close's reports_lost exact.
  if (network_->undeliverable_to(target) > undeliverable_before) {
    reports_undeliverable_ += reports;
    undeliverable_by_shard_[shard] += reports;
  }
}

void Coordinator::flush_batches() {
  for (std::size_t i = 0; i < staged_.size(); ++i) flush_batch(i);
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

void Coordinator::pump() {
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
        const net::NodeId shard = p.shard;
        outstanding_.clear();
        arrived_.clear();
        throw ShardFailure{shard};
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
}

std::vector<std::vector<std::uint8_t>> Coordinator::call_all(
    const std::vector<net::NodeId>& targets,
    const std::function<BatchItem(std::size_t)>& request_of) {
  std::vector<std::uint64_t> ids(targets.size());
  for (std::size_t j = 0; j < targets.size(); ++j) {
    BatchItem request = request_of(j);
    crowd::StatsEnvelope env;
    env.op_id = ++next_op_id_;
    env.op = static_cast<std::uint8_t>(request.op);
    env.body = std::move(request.body);
    ids[j] = env.op_id;
    Pending pending;
    pending.shard = targets[j];
    pending.payload = env.encode();
    pending.deadline = network_->now() + config_.rpc.op_timeout_seconds;
    network_->send(crowd::make_message(config_.id, targets[j],
                                       crowd::MessageType::kShardRequest,
                                       pending.payload));
    outstanding_.emplace(env.op_id, std::move(pending));
  }
  pump();
  std::vector<std::vector<std::uint8_t>> out(targets.size());
  for (std::size_t j = 0; j < targets.size(); ++j) {
    out[j] = std::move(arrived_[ids[j]]);
    arrived_.erase(ids[j]);
  }
  return out;
}

std::size_t Coordinator::live_num_users() const {
  std::size_t users = 0;
  for (std::size_t i : live_) users += plan_.shard_num_users(i);
  return users;
}

// ---------------------------------------------------------------------------
// RemoteBackend

namespace {

/// A call argument as its row field: a span is copied into a vector.
template <typename T, std::size_t N>
std::vector<std::remove_const_t<T>> field(std::span<T, N> xs) {
  return {xs.begin(), xs.end()};
}
template <typename X>
X field(X x) {
  return x;
}

/// The request of `Op`'s row, its fields built from the call's arguments.
template <ShardOp Op, typename... Xs>
BatchItem request(Xs&&... xs) {
  return {Op, encode_fields(ArgsOf<Op>{field(std::forward<Xs>(xs))...})};
}

/// The last N fields of `fields`, as references.
template <std::size_t N, typename Tuple>
auto trailing(Tuple& fields) {
  constexpr std::size_t first = std::tuple_size_v<Tuple> - N;
  return [&]<std::size_t... I>(std::index_sequence<I...>) {
    return std::tie(std::get<first + I>(fields)...);
  }(std::make_index_sequence<N>());
}

}  // namespace

/// The fold backend over the live shards of one close attempt. Each call is
/// one row of the op table (stats_wire.h). Every chained fold threads its
/// accumulator through the live shards in ascending plan order; gather and
/// collect go to all of them in parallel.
///
/// The one deferral rule: a register write is queued per live shard and
/// rides as a kBatch prefix on the next frame that shard receives (a chain
/// hop, a gather, the final collect or telemetry), executed first within one
/// op id. It only mutates registers that same shard's own later ops read,
/// so the deferral cannot change a bit. Writes still queued when a loop
/// enters its iterations go out on their own first, so the iteration
/// counters measure the loop alone. Queued writes die with the attempt.
class RemoteBackend final : public truth::FoldBackend {
 public:
  explicit RemoteBackend(Coordinator& coordinator)
      : c_(coordinator), queued_(coordinator.plan_.num_shards) {}

  std::size_t num_users() const override { return c_.live_num_users(); }
  std::size_t num_objects() const override { return c_.config_.num_objects; }

  /// Weights are indexed by the round's planned users (an excluded shard's
  /// slice is skipped); empty sends the one-byte uniform slice.
  void set_weights(std::span<const double> weights) override {
    DPTD_REQUIRE(weights.empty() || weights.size() == c_.plan_.num_users,
                 "RemoteBackend: weights size != planned users");
    for (std::size_t i : c_.live_) {
      WeightsBody slice{weights.empty(), {}};
      if (!slice.uniform) {
        slice.weights.assign(weights.begin() + c_.plan_.user_begin(i),
                             weights.begin() + c_.plan_.user_end(i));
      }
      queued_[i].push_back(request<ShardOp::kSetWeights>(std::move(slice)));
    }
  }
  void crh_prepare(truth::CrhLoss loss, double min_loss_fraction,
                   std::span<const double> stddevs) override {
    write(request<ShardOp::kCrhPrepare>(loss, min_loss_fraction, stddevs));
  }
  void crh_weights(double total) override {
    write(request<ShardOp::kCrhWeights>(total));
  }
  void gtm_prepare(const truth::GtmConfig& config,
                   std::span<const double> shift,
                   std::span<const double> scale) override {
    write(request<ShardOp::kGtmPrepare>(
        config.quality_prior_alpha, config.quality_prior_beta,
        config.min_variance, shift, scale));
  }
  void gtm_step(std::span<const double> truth_mean,
                std::span<const double> truth_var) override {
    write(request<ShardOp::kGtmStep>(truth_mean, truth_var));
  }
  void catd_prepare(double significance, double min_residual) override {
    write(request<ShardOp::kCatdPrepare>(significance, min_residual));
  }
  void catd_weights(std::span<const double> truths) override {
    write(request<ShardOp::kCatdWeights>(truths));
  }
  void vote_prepare(std::size_t num_labels,
                    double min_disagreement_fraction) override {
    write(request<ShardOp::kVotePrepare>(num_labels,
                                         min_disagreement_fraction));
  }
  void vote_weights(double total) override {
    write(request<ShardOp::kVoteWeights>(total));
  }

  void moments(std::span<RunningStats> acc) override {
    const auto [state] = chain<ShardOp::kMoments>(acc);
    std::copy(state.begin(), state.end(), acc.begin());
  }
  void aggregate(truth::AggregateStats& acc) override {
    acc = std::get<0>(chain<ShardOp::kAggregate>(std::move(acc)));
  }
  double crh_loss(std::span<const double> truths, double total) override {
    return std::get<1>(chain<ShardOp::kCrhLoss>(truths, total));
  }
  void gtm_posterior(std::span<double> precision,
                     std::span<double> weighted) override {
    const auto [p, w] = chain<ShardOp::kGtmFold>(precision, weighted);
    std::copy(p.begin(), p.end(), precision.begin());
    std::copy(w.begin(), w.end(), weighted.begin());
  }
  void vote_scores(std::span<double> scores) override {
    const auto [state] = chain<ShardOp::kVoteScores>(scores);
    std::copy(state.begin(), state.end(), scores.begin());
  }
  double vote_disagreement(std::span<const categorical::Label> truths,
                           double total) override {
    return std::get<1>(chain<ShardOp::kVoteDisagree>(truths, total));
  }

  truth::GatheredColumns gather() override {
    const auto replies = send(c_.live_, {request<ShardOp::kGather>()});
    std::vector<truth::GatheredColumns> fragments;
    std::size_t values = 0;
    for (std::size_t j = 0; j < replies.size(); ++j) {
      auto [fragment] = parse(
          c_.live_[j], replies[j][0], &decode_fields<ReplyOf<ShardOp::kGather>>,
          [&](const auto& reply) {
            return std::get<0>(reply).num_objects() == num_objects();
          });
      values += fragment.values.size();
      fragments.push_back(std::move(fragment));
    }
    // Fragments concatenated in ascending shard order ARE the global columns
    // in user order (shard ranges are contiguous and ascending; excluded
    // shards just leave their users out).
    truth::GatheredColumns columns;
    columns.values.reserve(values);
    columns.offsets.push_back(0);
    for (std::size_t n = 0; n < num_objects(); ++n) {
      for (const truth::GatheredColumns& fragment : fragments) {
        const std::span<const double> column = fragment.column(n);
        columns.values.insert(columns.values.end(), column.begin(),
                              column.end());
      }
      columns.offsets.push_back(columns.values.size());
    }
    return columns;
  }

  /// Surviving users only, concatenated ascending — on a degraded round
  /// exactly the weight vector of the in-process survivor reference. The
  /// shard telemetry rides the same frames.
  std::vector<double> collect_weights() override {
    const auto replies = send(c_.live_, {request<ShardOp::kCollectWeights>(),
                                         {ShardOp::kGetTelemetry, {}}});
    std::vector<double> weights;
    weights.reserve(num_users());
    for (std::size_t j = 0; j < replies.size(); ++j) {
      const std::size_t i = c_.live_[j];
      const auto [slice] = parse(
          i, replies[j][0], &decode_fields<ReplyOf<ShardOp::kCollectWeights>>,
          [&](const auto& reply) {
            return std::get<0>(reply).weights.size() ==
                   c_.plan_.shard_num_users(i);
          });
      weights.insert(weights.end(), slice.weights.begin(), slice.weights.end());
      store_telemetry(i, replies[j][1]);
    }
    return weights;
  }

  void begin_iterations() override {
    std::vector<std::size_t> queued;
    for (std::size_t i : c_.live_) {
      if (!queued_[i].empty()) queued.push_back(i);
    }
    if (!queued.empty()) send(queued, {});
    at_begin_ = c_.network_->stats();
  }
  void end_iterations() override {
    const net::NetworkStats& now = c_.network_->stats();
    iteration_messages_ = now.messages_sent - at_begin_.messages_sent;
    iteration_bytes_ = now.bytes_sent - at_begin_.bytes_sent;
  }

  /// kFinalizeIngest on every live shard: their ingest summaries.
  std::vector<IngestSummaryBody> finalize() {
    const auto replies = send(c_.live_, {{ShardOp::kFinalizeIngest, {}}});
    std::vector<IngestSummaryBody> summaries;
    for (std::size_t j = 0; j < replies.size(); ++j) {
      summaries.push_back(parse(c_.live_[j], replies[j][0],
                                &IngestSummaryBody::decode,
                                [&](const IngestSummaryBody& summary) {
                                  return summary.object_counts.size() ==
                                         num_objects();
                                }));
    }
    return summaries;
  }

  /// Shard-side robustness counters of every live shard, unless the final
  /// collect already brought them.
  void collect_telemetry() {
    if (std::all_of(c_.live_.begin(), c_.live_.end(), [&](std::size_t i) {
          return c_.telemetry_by_node_.contains(c_.active_[i]);
        })) {
      return;
    }
    const auto replies = send(c_.live_, {{ShardOp::kGetTelemetry, {}}});
    for (std::size_t j = 0; j < replies.size(); ++j) {
      store_telemetry(c_.live_[j], replies[j][0]);
    }
  }

  std::size_t iteration_messages() const { return iteration_messages_; }
  std::size_t iteration_bytes() const { return iteration_bytes_; }

 private:
  using Bodies = std::vector<std::vector<std::uint8_t>>;

  void write(const BatchItem& item) {
    for (std::size_t i : c_.live_) queued_[i].push_back(item);
  }

  /// Sends each of `shards` (plan indices) one frame: its queued writes,
  /// then `tail`. A lone item travels plain, anything more as one kBatch.
  /// Returns each shard's reply bodies for `tail`. This is the one place a
  /// batched reply is unpacked: it must carry exactly one body per item.
  std::vector<Bodies> send(const std::vector<std::size_t>& shards,
                           const std::vector<BatchItem>& tail) {
    std::vector<net::NodeId> nodes;
    for (std::size_t i : shards) nodes.push_back(c_.active_[i]);
    std::vector<std::size_t> items(shards.size());
    Bodies replies = c_.call_all(nodes, [&](std::size_t j) {
      std::vector<BatchItem> frame = std::move(queued_[shards[j]]);
      queued_[shards[j]].clear();
      frame.insert(frame.end(), tail.begin(), tail.end());
      items[j] = frame.size();
      if (frame.size() == 1) return std::move(frame[0]);
      BatchBody batch;
      batch.items = std::move(frame);
      return BatchItem{ShardOp::kBatch, batch.encode()};
    });
    std::vector<Bodies> out(shards.size());
    for (std::size_t j = 0; j < shards.size(); ++j) {
      Bodies bodies;
      if (items[j] == 1) {
        bodies.push_back(std::move(replies[j]));
      } else {
        bodies = parse(shards[j], replies[j], &BatchReplyBody::decode,
                       [&](const BatchReplyBody& reply) {
                         return reply.bodies.size() == items[j];
                       })
                     .bodies;
      }
      out[j].assign(std::make_move_iterator(bodies.end() - tail.size()),
                    std::make_move_iterator(bodies.end()));
    }
    return out;
  }

  /// A chained fold through the live shards in plan order. Each hop sends
  /// the row's fields; its reply replaces the trailing fields it carries and
  /// must bring each back at the length it was sent.
  template <ShardOp Op, typename... Xs>
  ArgsOf<Op> chain(Xs&&... xs) {
    ArgsOf<Op> fields{field(std::forward<Xs>(xs))...};
    auto carried = trailing<std::tuple_size_v<ReplyOf<Op>>>(fields);
    for (std::size_t i : c_.live_) {
      std::vector<std::uint8_t> reply = std::move(
          send({i}, {{Op, encode_fields(fields)}})[0][0]);
      carried = parse(i, reply, &decode_fields<ReplyOf<Op>>,
                      [&](const ReplyOf<Op>& next) {
                        return lengths(next) == lengths(carried);
                      });
    }
    return fields;
  }

  void store_telemetry(std::size_t i, const std::vector<std::uint8_t>& bytes) {
    c_.telemetry_by_node_[c_.active_[i]] =
        parse(i, bytes, &decode_fields<Telemetry>,
              [](const Telemetry&) { return true; });
  }

  /// Decodes shard i's reply; an undecodable one, or one `valid` refuses,
  /// counts as malformed and fails the shard.
  template <typename Decode, typename Valid>
  auto parse(std::size_t i, std::span<const std::uint8_t> bytes,
             Decode decode, Valid valid) -> decltype(decode(bytes)) {
    try {
      auto reply = decode(bytes);
      if (valid(reply)) return reply;
    } catch (const DecodeError&) {
    }
    const net::NodeId node = c_.active_[i];
    ++c_.malformed_by_node_[node];
    throw ShardFailure{node};
  }

  Coordinator& c_;
  std::vector<std::vector<BatchItem>> queued_;  ///< per plan index
  net::NetworkStats at_begin_;
  std::size_t iteration_messages_ = 0;
  std::size_t iteration_bytes_ = 0;
};

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
    try {
      call_all(active_, [&](std::size_t i) {
        SetupBody setup;
        setup.round = round;
        setup.num_users = participants.size();
        setup.num_shards = plan_.num_shards;
        setup.shard_index = i;
        setup.num_objects = config_.num_objects;
        setup.block_size = config_.block_size;
        setup.num_labels = spec_.num_labels();
        setup.participants.assign(
            participants.begin() +
                static_cast<std::ptrdiff_t>(plan_.user_begin(i)),
            participants.begin() +
                static_cast<std::ptrdiff_t>(plan_.user_end(i)));
        return BatchItem{ShardOp::kSetup, setup.encode()};
      });
    } catch (const ShardFailure& failure) {
      // A shard failed setup: drop it and re-plan over the survivors. The
      // surviving shards get a fresh (idempotent) Setup with the new split.
      remove_shard(failure.shard);
      continue;
    }
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
    staged_.assign(plan_.num_shards, {});
    return true;
  }
  active_.clear();
  return false;
}

DistributedOutcome Coordinator::close_round() {
  DPTD_REQUIRE(round_planned_, "Coordinator: no open round");
  round_open_ = false;  // reports from here on are late: unroutable
  flush_batches();
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
    out.network = network_->stats().since(stats_at_begin_);
    for (net::NodeId shard : active_) {
      NodeCounters counters;
      counters.node = shard;
      const auto tit = telemetry_by_node_.find(shard);
      if (tit != telemetry_by_node_.end()) {
        std::tie(counters.stale_requests, counters.malformed_messages) =
            tit->second;
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
  const auto abort_round = [&](net::NodeId dead) {
    out.completed = false;
    out.aggregated = false;
    out.failed_shard = dead;
    remove_shard(dead);
    finish();
    return out;
  };

  // One close attempt over the current live set: finalize (idempotent on the
  // shards, so a retried attempt re-serves summaries without re-ingesting),
  // coverage, warm seed, the method's loop, telemetry. A shard failure
  // anywhere in it throws ShardFailure, caught below.
  enum class Attempt { kAggregated, kUncovered };
  const auto attempt = [&]() -> Attempt {
    out.shard_stats.clear();
    out.warm_started = false;
    RemoteBackend backend(*this);
    std::vector<std::uint64_t> coverage(config_.num_objects, 0);
    for (const IngestSummaryBody& summary : backend.finalize()) {
      out.shard_stats.push_back(summary.stats);
      for (std::size_t n = 0; n < coverage.size(); ++n) {
        coverage[n] += summary.object_counts[n];
      }
    }
    if (std::find(coverage.begin(), coverage.end(), 0u) != coverage.end()) {
      // Uncovered objects: skip aggregation gracefully, exactly like the
      // in-process server. The warm state is left untouched.
      DPTD_LOG_WARN << "round " << round_
                    << ": uncovered objects, skipping aggregation";
      backend.collect_telemetry();
      return Attempt::kUncovered;
    }

    // The in-process server's warm seed. It stays global-sized; live shards
    // slice it by plan index.
    const truth::WarmStart seed =
        warm_.seed(config_.warm_start, *method_, participants_);
    out.warm_started = !seed.empty();
    truth::validate_warm_start(plan_.num_users, config_.num_objects, seed);

    truth::Result result = method_->run_folds(backend, seed);
    // After the loop, so the iteration counters never include these RPCs.
    backend.collect_telemetry();
    out.result = std::move(result);
    out.iteration_messages = backend.iteration_messages();
    out.iteration_bytes = backend.iteration_bytes();
    return Attempt::kAggregated;
  };

  for (;;) {
    Attempt a{};
    try {
      a = attempt();
    } catch (const ShardFailure& failure) {
      // Graceful degraded close: exclude the failed shard, account its
      // routed reports as lost (exactly: routed minus already-counted
      // undeliverable), and retry the close over the survivors. Each pass
      // shrinks the live set, so this terminates.
      const net::NodeId dead = failure.shard;
      const auto it = std::find_if(
          live_.begin(), live_.end(),
          [&](std::size_t i) { return active_[i] == dead; });
      if (it == live_.end()) return abort_round(dead);
      const std::size_t dead_index = *it;
      live_.erase(it);
      // No survivors to close over: the whole round aborts.
      if (live_.empty()) return abort_round(dead);
      remove_shard(dead);
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
    out.aggregated = a == Attempt::kAggregated;
    if (out.aggregated && !out.degraded) {
      warm_.record(out.result, participants_);
    }
    finish();
    return out;
  }
}


}  // namespace dptd::dist
