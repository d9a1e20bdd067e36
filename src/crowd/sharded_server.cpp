#include "crowd/sharded_server.h"

#include "common/check.h"
#include "common/logging.h"
#include "common/stopwatch.h"

namespace dptd::crowd {

ShardedServer::ShardedServer(ServerConfig config,
                             std::unique_ptr<truth::TruthDiscovery> method,
                             net::Transport& network)
    : config_(config),
      method_(std::move(method)),
      network_(&network),
      pipeline_(IngestPipelineConfig{.num_workers = config.ingest_threads}) {
  DPTD_REQUIRE(method_ != nullptr, "ShardedServer: null truth-discovery method");
  DPTD_REQUIRE(config_.lambda2 > 0.0, "ShardedServer: lambda2 must be positive");
  DPTD_REQUIRE(config_.collection_window_seconds > 0.0,
               "ShardedServer: collection window must be positive");
  DPTD_REQUIRE(config_.num_objects > 0,
               "ShardedServer: num_objects must be positive");
  DPTD_REQUIRE(config_.num_shards > 0,
               "ShardedServer: num_shards must be positive");
  DPTD_REQUIRE(config_.stats_block_size > 0,
               "ShardedServer: stats_block_size must be positive");
  if (config_.labels.enabled()) {
    DPTD_REQUIRE(
        config_.labels.rr_keep_probability <= 1.0 &&
            config_.labels.rr_keep_probability >
                1.0 / static_cast<double>(config_.labels.num_labels),
        "ShardedServer: rr_keep_probability must be in (1/num_labels, 1]");
  }
  network_->attach(config_.id, *this);
}

void ShardedServer::set_num_shards(std::size_t num_shards) {
  DPTD_REQUIRE(num_shards > 0, "ShardedServer: num_shards must be positive");
  DPTD_REQUIRE(!round_open_,
               "ShardedServer: cannot resize shards mid-round");
  config_.num_shards = num_shards;
}

void ShardedServer::start_round(std::uint64_t round,
                                const std::vector<net::NodeId>& user_ids) {
  DPTD_REQUIRE(!round_open_, "ShardedServer: a round is already open");
  DPTD_REQUIRE(!user_ids.empty(), "ShardedServer: no participants");
  index_.build(user_ids);  // refuses a repeated id before any state changes
  current_round_ = round;
  round_open_ = true;
  participants_ = user_ids;
  plan_ = data::ShardPlan::create(participants_.size(), config_.num_shards,
                                  config_.stats_block_size);
  pipeline_.begin_round(plan_, config_.num_objects, round, config_.labels);
  submitted_rows_.assign(participants_.size(), 0);
  producer_distinct_ = 0;
  unroutable_rejected_ = 0;

  TaskAnnounce task;
  task.round = round;
  task.lambda2 = config_.lambda2;
  task.num_objects = config_.num_objects;
  fan_out(*network_, config_.id, user_ids, MessageType::kTaskAnnounce,
          task.encode());

  network_->schedule(config_.collection_window_seconds,
                                 [this] { finish_round(); });
}

void ShardedServer::on_message(const net::Message& message) {
  const MessageType type = static_cast<MessageType>(message.type);
  if (type != MessageType::kReport && type != MessageType::kLabelReport) {
    return;
  }
  if (!round_open_) return;  // straggler after deadline
  // Wrong-kind uploads (continuous report in a categorical round or vice
  // versa) are protocol violations, dropped here: a routed upload is always
  // of the round's kind, which is the kind its shard's ingestor decodes.
  const bool is_label = type == MessageType::kLabelReport;
  if (is_label != config_.labels.enabled()) {
    DPTD_LOG_WARN << "round " << current_round_ << ": dropping "
                  << (is_label ? "label" : "continuous")
                  << " report in a "
                  << (config_.labels.enabled() ? "categorical" : "continuous")
                  << " round";
    ++unroutable_rejected_;
    return;
  }

  // Route on the header: one O(1) peek resolves round + user (LabelReport
  // shares Report's leading varints, so the same peek covers both kinds);
  // the full decode happens on the owning shard.
  const std::optional<ReportHeader> header =
      Report::peek_header(message.payload);
  if (!header) {
    DPTD_LOG_WARN << "round " << current_round_
                  << ": dropping report with undecodable header";
    ++unroutable_rejected_;
    return;
  }
  if (header->round != current_round_) return;
  const std::optional<std::size_t> row = index_.row_of(header->user_id);
  if (!row) {
    DPTD_LOG_WARN << "round " << current_round_
                  << ": dropping report from unknown user id "
                  << header->user_id;
    ++unroutable_rejected_;
    return;
  }

  pipeline_.submit(*row, message.payload);
  // Early close: only a row's FIRST submission can complete the roster
  // (re-sends are guaranteed duplicates on the owning shard), so the exact
  // check — a drain barrier, then the ingestors' distinct count — runs at
  // most once per round, on the message that covers the last missing user.
  // Duplicate floods never re-trigger the barrier. If a first upload's body
  // fails to decode on its shard, the distinct count stays short and the
  // round waits for its deadline at every worker count (a valid re-send of
  // such a report still ingests; it just cannot re-arm the early close).
  if (!submitted_rows_[*row]) {
    submitted_rows_[*row] = 1;
    if (++producer_distinct_ == participants_.size()) {
      pipeline_.drain();
      if (pipeline_.distinct_reporters() == participants_.size()) {
        finish_round();
      }
    }
  }
}

void ShardedServer::finish_round() {
  if (!round_open_) return;
  round_open_ = false;

  // Round close: drain every queue behind the barrier so the ingestors'
  // builders and statistics are final, then merge. Each shard's sub-matrix
  // was assembled incrementally as reports arrived; the close only
  // finalizes the K builders.
  std::vector<data::ObservationMatrix> shards = pipeline_.finalize_shards();
  RoundOutcome& outcome = outcomes_.emplace_back();
  outcome.round = current_round_;
  outcome.reports_expected = participants_.size();
  outcome.reports_rejected = unroutable_rejected_;
  outcome.shard_stats = pipeline_.shard_stats();
  for (const ShardIngestStats& shard : outcome.shard_stats) {
    outcome.reports_received += shard.reports_received;
    outcome.duplicates_ignored += shard.duplicates_ignored;
    outcome.reports_rejected += shard.rejected_reports;
  }

  if (outcome.reports_received == 0) {
    DPTD_LOG_WARN << "round " << current_round_ << ": no reports received";
    return;
  }
  // Hand the sharded view to the coordinator's reduction. Objects nobody
  // reported on cannot be aggregated; require coverage across the union of
  // shards and skip aggregation gracefully when violated.
  const data::ShardedMatrix matrix = data::ShardedMatrix::from_shards(
      plan_, std::move(shards), config_.num_objects);
  for (std::size_t n = 0; n < config_.num_objects; ++n) {
    if (matrix.object_observation_count(n) == 0) {
      DPTD_LOG_WARN << "round " << current_round_
                    << ": uncovered objects, skipping aggregation";
      return;
    }
  }

  Stopwatch timer;
  const truth::WarmStart seed =
      warm_.seed(config_.warm_start, *method_, participants_);
  outcome.warm_started = !seed.empty();
  outcome.result = method_->run_sharded(matrix, seed);
  outcome.aggregation_seconds = timer.elapsed_seconds();
  warm_.record(outcome.result, participants_);

  ResultPublish publish;
  publish.round = current_round_;
  publish.truths = outcome.result.truths;
  fan_out(*network_, config_.id, participants_, MessageType::kResultPublish,
          publish.encode());
}

}  // namespace dptd::crowd
