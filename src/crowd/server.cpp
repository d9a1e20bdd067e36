#include "crowd/server.h"

#include <cmath>

#include "categorical/randomized_response.h"
#include "common/check.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/serialize.h"
#include "common/stopwatch.h"

namespace dptd::crowd {

bool ingest_report_claims(data::ObservationMatrixBuilder& builder,
                          std::size_t local_user, const Report& report,
                          std::size_t num_objects) {
  const std::size_t count =
      std::min(report.objects.size(), report.values.size());
  bool clean = count == report.objects.size() && count == report.values.size();
  for (std::size_t i = 0; clean && i < count; ++i) {
    clean = report.objects[i] < num_objects && std::isfinite(report.values[i]);
  }
  if (clean) {
    builder.add_row(local_user, report.objects, report.values);
    return false;
  }
  std::vector<std::uint64_t> objects;
  std::vector<double> values;
  objects.reserve(count);
  values.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    if (report.objects[i] >= num_objects) continue;
    if (!std::isfinite(report.values[i])) continue;
    objects.push_back(report.objects[i]);
    values.push_back(report.values[i]);
  }
  builder.add_row(local_user, objects, values);
  return true;
}

LabelIngestOutcome ingest_label_claims(data::ObservationMatrixBuilder& builder,
                                       std::size_t local_user,
                                       std::size_t global_user,
                                       const LabelReport& report,
                                       std::size_t num_objects,
                                       const LabelIngestPolicy& policy,
                                       std::uint64_t round) {
  LabelIngestOutcome outcome;
  const std::size_t count =
      std::min(report.objects.size(), report.labels.size());
  outcome.malformed =
      count != report.objects.size() || count != report.labels.size();
  std::vector<std::uint64_t> objects;
  std::vector<double> values;
  objects.reserve(count);
  values.reserve(count);
  // One lazily-created stream per report, keyed by (round, global user): the
  // draws consumed are a function of the report alone, never of which thread
  // or shard ingests it, so every ingestion mode lands identical bits.
  std::optional<Rng> rng;
  const bool sample = policy.rr_keep_probability < 1.0;
  for (std::size_t i = 0; i < count; ++i) {
    if (report.objects[i] >= num_objects) {
      outcome.malformed = true;
      continue;
    }
    if (report.labels[i] >= policy.num_labels) {
      ++outcome.invalid_labels;
      continue;
    }
    categorical::Label label = report.labels[i];
    if (sample) {
      if (!rng) rng.emplace(derive_seed(policy.rr_seed, round, global_user));
      label = categorical::krr_perturb(label, policy.rr_keep_probability,
                                       policy.num_labels, *rng);
    }
    objects.push_back(report.objects[i]);
    values.push_back(static_cast<double>(label));
  }
  builder.add_row(local_user, objects, values);
  return outcome;
}

void ParticipantIndex::build(const std::vector<net::NodeId>& participants) {
  ParticipantIndex built;
  built.size_ = participants.size();
  for (std::size_t i = 0; i < participants.size(); ++i) {
    if (participants[i] != static_cast<net::NodeId>(i)) {
      built.identity_ = false;
      break;
    }
  }
  if (!built.identity_) {
    built.rows_.reserve(participants.size());
    for (std::size_t i = 0; i < participants.size(); ++i) {
      DPTD_REQUIRE(built.rows_.emplace(participants[i], i).second,
                   "ParticipantIndex: participant id repeated in the roster");
    }
  }
  *this = std::move(built);
}

std::optional<std::size_t> ParticipantIndex::row_of(net::NodeId user) const {
  if (identity_) {
    if (static_cast<std::size_t>(user) >= size_) return std::nullopt;
    return static_cast<std::size_t>(user);
  }
  const auto it = rows_.find(user);
  if (it == rows_.end()) return std::nullopt;
  return it->second;
}

std::vector<double> remap_warm_weights(
    const WarmState& warm, const std::vector<net::NodeId>& participants,
    std::size_t num_users) {
  const std::vector<double>& prev = warm.result.weights;
  if (prev.empty() || num_users != participants.size()) return {};
  if (warm.participants == participants) {
    // Unchanged roster: the fast path, bitwise identical to seeding with the
    // previous round's weights directly.
    return prev.size() == num_users ? prev : std::vector<double>{};
  }
  if (prev.size() != warm.participants.size()) return {};
  // Roster changed: carry each surviving user's weight through its stable
  // node id. Users new to the roster (or returning after a gap the state no
  // longer covers) start from the *surviving* fleet's mean weight — neutral
  // on the converged scale, unlike the cold 1.0, and unbiased by whatever
  // cohort just departed.
  std::unordered_map<net::NodeId, double> by_user;
  by_user.reserve(prev.size());
  for (std::size_t i = 0; i < prev.size(); ++i) {
    by_user.emplace(warm.participants[i], prev[i]);
  }
  std::vector<double> weights(num_users, 0.0);
  std::vector<char> survived(num_users, 0);
  double survivor_sum = 0.0;
  std::size_t survivors = 0;
  for (std::size_t i = 0; i < participants.size(); ++i) {
    const auto it = by_user.find(participants[i]);
    if (it != by_user.end()) {
      weights[i] = it->second;
      survived[i] = 1;
      survivor_sum += it->second;
      ++survivors;
    }
  }
  // A fully replaced fleet has no per-user signal to carry over.
  if (survivors == 0) return {};
  const double fill = survivor_sum / static_cast<double>(survivors);
  for (std::size_t i = 0; i < num_users; ++i) {
    if (!survived[i]) weights[i] = fill;
  }
  return weights;
}

bool aggregate_and_publish(const ServerConfig& config,
                           truth::TruthDiscovery& method,
                           net::Transport& network,
                           std::uint64_t round,
                           const std::vector<net::NodeId>& participants,
                           const data::ShardedMatrix& matrix, WarmState& warm,
                           RoundOutcome& outcome) {
  // Objects nobody reported on cannot be aggregated; require coverage across
  // the union of shards and skip aggregation gracefully when violated.
  for (std::size_t n = 0; n < config.num_objects; ++n) {
    if (matrix.object_observation_count(n) == 0) {
      DPTD_LOG_WARN << "round " << round
                    << ": uncovered objects, skipping aggregation";
      return false;
    }
  }

  Stopwatch timer;
  truth::WarmStart seed;
  if (config.warm_start && warm.valid && method.supports_warm_start()) {
    seed.truths = warm.result.truths;
    seed.weights = remap_warm_weights(warm, participants, matrix.num_users());
    outcome.warm_started = true;
  }
  outcome.result = method.run_sharded(matrix, seed);
  outcome.aggregation_seconds = timer.elapsed_seconds();
  warm.result = outcome.result;
  warm.participants = participants;
  warm.valid = true;

  ResultPublish publish;
  publish.round = round;
  publish.truths = outcome.result.truths;
  fan_out(network, config.id, participants, MessageType::kResultPublish,
          publish.encode());
  return true;
}

CrowdServer::CrowdServer(ServerConfig config,
                         std::unique_ptr<truth::TruthDiscovery> method,
                         net::Transport& network)
    : config_(config), method_(std::move(method)), network_(&network) {
  DPTD_REQUIRE(method_ != nullptr, "CrowdServer: null truth-discovery method");
  DPTD_REQUIRE(config_.lambda2 > 0.0, "CrowdServer: lambda2 must be positive");
  DPTD_REQUIRE(config_.collection_window_seconds > 0.0,
               "CrowdServer: collection window must be positive");
  DPTD_REQUIRE(config_.num_objects > 0,
               "CrowdServer: num_objects must be positive");
  DPTD_REQUIRE(config_.stats_block_size > 0,
               "CrowdServer: stats_block_size must be positive");
  if (config_.labels.enabled()) {
    DPTD_REQUIRE(
        config_.labels.rr_keep_probability <= 1.0 &&
            config_.labels.rr_keep_probability >
                1.0 / static_cast<double>(config_.labels.num_labels),
        "CrowdServer: rr_keep_probability must be in (1/num_labels, 1]");
  }
  network_->attach(config_.id, *this);
}

void CrowdServer::start_round(std::uint64_t round,
                              const std::vector<net::NodeId>& user_ids) {
  DPTD_REQUIRE(!round_open_, "CrowdServer: a round is already open");
  DPTD_REQUIRE(!user_ids.empty(), "CrowdServer: no participants");
  index_.build(user_ids);  // refuses a repeated id before any state changes
  current_round_ = round;
  round_open_ = true;
  participants_ = user_ids;
  builder_.emplace(participants_.size(), config_.num_objects);
  rejected_ = 0;
  duplicates_ = 0;
  malformed_ = 0;
  invalid_labels_ = 0;

  TaskAnnounce task;
  task.round = round;
  task.lambda2 = config_.lambda2;
  task.num_objects = config_.num_objects;
  fan_out(*network_, config_.id, user_ids, MessageType::kTaskAnnounce,
          task.encode());

  network_->schedule(config_.collection_window_seconds,
                                 [this] { finish_round(); });
}

void CrowdServer::on_message(const net::Message& message) {
  const MessageType type = static_cast<MessageType>(message.type);
  if (type != MessageType::kReport && type != MessageType::kLabelReport) {
    return;
  }
  if (!round_open_) return;  // straggler after deadline
  // A categorical round ingests kLabelReport only; a continuous round
  // kReport only. The wrong kind is a protocol violation — drop and count,
  // exactly like a byzantine user id.
  if (type == MessageType::kReport) {
    if (config_.labels.enabled()) {
      DPTD_LOG_WARN << "round " << current_round_
                    << ": continuous report in a categorical round, dropped";
      ++rejected_;
      return;
    }
    Report report;
    try {
      report = Report::decode(message.payload);
    } catch (const DecodeError& error) {
      DPTD_LOG_WARN << "round " << current_round_
                    << ": dropping undecodable report (" << error.what()
                    << ")";
      ++rejected_;
      return;
    }
    if (report.round != current_round_) return;
    ingest_report(report);
  } else {
    if (!config_.labels.enabled()) {
      DPTD_LOG_WARN << "round " << current_round_
                    << ": label report in a continuous round, dropped";
      ++rejected_;
      return;
    }
    LabelReport report;
    try {
      report = LabelReport::decode(message.payload);
    } catch (const DecodeError& error) {
      DPTD_LOG_WARN << "round " << current_round_
                    << ": dropping undecodable label report (" << error.what()
                    << ")";
      ++rejected_;
      return;
    }
    if (report.round != current_round_) return;
    ingest_label_report(report);
  }
  if (builder_->rows_ingested() == participants_.size()) {
    // Every *distinct* participant answered; no need to wait out the window
    // (duplicate re-sends never inflate this count). The deadline event
    // still fires but becomes a no-op because round_open_ is false.
    finish_round();
  }
}

void CrowdServer::ingest_report(const Report& report) {
  // A byzantine user id must not kill the server: drop the report, count it,
  // and keep collecting (consistent with the out-of-range-object handling).
  const std::optional<std::size_t> row = index_.row_of(report.user_id);
  if (!row) {
    DPTD_LOG_WARN << "round " << current_round_
                  << ": dropping report from unknown user id "
                  << report.user_id;
    ++rejected_;
    return;
  }
  const std::size_t user = *row;
  if (builder_->has_row(user)) {
    ++duplicates_;
    return;
  }

  if (ingest_report_claims(*builder_, user, report, config_.num_objects)) {
    DPTD_LOG_WARN << "round " << current_round_ << ": user " << user
                  << " sent malformed claims, ingested the valid subset";
    ++malformed_;
  }
}

void CrowdServer::ingest_label_report(const LabelReport& report) {
  const std::optional<std::size_t> row = index_.row_of(report.user_id);
  if (!row) {
    DPTD_LOG_WARN << "round " << current_round_
                  << ": dropping label report from unknown user id "
                  << report.user_id;
    ++rejected_;
    return;
  }
  const std::size_t user = *row;
  if (builder_->has_row(user)) {
    ++duplicates_;
    return;
  }

  // The matrix row doubles as the global user index for the sampling stream;
  // sharded paths derive the same value as shard base + local row.
  const LabelIngestOutcome outcome = ingest_label_claims(
      *builder_, user, user, report, config_.num_objects, config_.labels,
      current_round_);
  if (outcome.malformed) {
    DPTD_LOG_WARN << "round " << current_round_ << ": user " << user
                  << " sent malformed label claims, ingested the valid subset";
    ++malformed_;
  }
  invalid_labels_ += outcome.invalid_labels;
}

void CrowdServer::finish_round() {
  if (!round_open_) return;
  round_open_ = false;

  RoundOutcome outcome;
  outcome.round = current_round_;
  outcome.reports_expected = participants_.size();
  outcome.reports_received = builder_->rows_ingested();
  outcome.reports_rejected = rejected_;
  outcome.duplicates_ignored = duplicates_;
  outcome.shard_stats = {ShardIngestStats{builder_->rows_ingested(),
                                          duplicates_, malformed_, 0,
                                          invalid_labels_}};

  if (builder_->rows_ingested() == 0) {
    DPTD_LOG_WARN << "round " << current_round_ << ": no reports received";
    outcomes_.push_back(std::move(outcome));
    return;
  }

  // The matrix was assembled incrementally as reports arrived; the deadline
  // only moves the accumulated rows into the dual-indexed form. The
  // single-shard view runs the same sufficient-statistics engine
  // ShardedServer reduces across K shards: at equal stats_block_size the two
  // servers publish bitwise-identical truths.
  const data::ObservationMatrix obs = builder_->finalize();
  aggregate_and_publish(config_, *method_, *network_, current_round_,
                        participants_,
                        data::ShardedMatrix::single(obs,
                                                    config_.stats_block_size),
                        warm_, outcome);
  outcomes_.push_back(std::move(outcome));
}

}  // namespace dptd::crowd
