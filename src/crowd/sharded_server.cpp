#include "crowd/sharded_server.h"

#include "common/check.h"
#include "common/logging.h"

namespace dptd::crowd {

ShardedServer::ShardedServer(ServerConfig config,
                             std::unique_ptr<truth::TruthDiscovery> method,
                             net::Transport& network)
    : config_(config), method_(std::move(method)), network_(&network) {
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
  if (config_.ingest_threads > 0) {
    if (!pipeline_) {
      IngestPipelineConfig pipeline_config;
      pipeline_config.num_workers = config_.ingest_threads;
      pipeline_.emplace(pipeline_config);
    }
    pipeline_->begin_round(plan_, config_.num_objects, round, config_.labels);
    submitted_rows_.assign(participants_.size(), 0);
    producer_distinct_ = 0;
  } else {
    ingestors_.resize(plan_.num_shards);
    for (std::size_t i = 0; i < plan_.num_shards; ++i) {
      ingestors_[i].begin_round(plan_.shard_num_users(i), plan_.user_begin(i),
                                config_.num_objects, round, config_.labels);
    }
  }
  distinct_reporters_ = 0;
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

  if (pipeline_) {
    pipeline_->submit(*row, message.payload);
    // Early close: only a row's FIRST submission can complete the roster
    // (re-sends are guaranteed duplicates on the owning shard), so the exact
    // check — a drain barrier, then the workers' distinct count — runs at
    // most once per round, on the message that covers the last missing user.
    // Duplicate floods never re-trigger the barrier. If a report's body
    // later fails to decode on its worker, the distinct count stays short
    // and the round simply waits for the deadline (a valid re-send of such
    // a report still ingests; it just cannot re-arm the early close).
    if (!submitted_rows_[*row]) {
      submitted_rows_[*row] = 1;
      if (++producer_distinct_ == participants_.size()) {
        pipeline_->drain();
        if (pipeline_->distinct_reporters() == participants_.size()) {
          finish_round();
        }
      }
    }
    return;
  }

  // Consistent routing: the same user always lands on the same shard, so a
  // duplicate re-send is detected by that shard's own dedup state.
  const std::size_t shard = plan_.shard_of_user(*row);
  const std::span<const std::uint8_t> fields =
      std::span<const std::uint8_t>(message.payload)
          .subspan(header->round_bytes);
  if (ingestors_[shard].ingest(*row - plan_.user_begin(shard), fields) &&
      ++distinct_reporters_ == participants_.size()) {
    // Every *distinct* participant answered across all shards; no need to
    // wait out the window (duplicate re-sends never inflate this count). The
    // deadline event still fires but becomes a no-op.
    finish_round();
  }
}

void ShardedServer::finish_round() {
  if (!round_open_) return;
  round_open_ = false;

  // Round close: in pipelined mode, drain every queue behind the barrier so
  // worker-local builders and statistics are final, then merge. Each shard's
  // sub-matrix was assembled incrementally as reports arrived either way;
  // the close only finalizes the K builders.
  std::vector<data::ObservationMatrix> shards;
  std::vector<ShardIngestStats> stats;
  if (pipeline_) {
    shards = pipeline_->finalize_shards();  // drains first
    stats = pipeline_->shard_stats();
  } else {
    shards.reserve(ingestors_.size());
    for (ShardIngestor& ingestor : ingestors_) {
      shards.push_back(ingestor.finalize());
      stats.push_back(ingestor.stats());
    }
  }

  RoundOutcome outcome;
  outcome.round = current_round_;
  outcome.reports_expected = participants_.size();
  outcome.reports_rejected = unroutable_rejected_;
  outcome.shard_stats = std::move(stats);
  for (const ShardIngestStats& shard : outcome.shard_stats) {
    outcome.reports_received += shard.reports_received;
    outcome.duplicates_ignored += shard.duplicates_ignored;
    outcome.reports_rejected += shard.rejected_reports;
  }

  if (outcome.reports_received == 0) {
    DPTD_LOG_WARN << "round " << current_round_ << ": no reports received";
    outcomes_.push_back(std::move(outcome));
    return;
  }

  // Hand the sharded view to the coordinator's reduction.
  const data::ShardedMatrix matrix = data::ShardedMatrix::from_shards(
      plan_, std::move(shards), config_.num_objects);
  aggregate_and_publish(config_, *method_, *network_, current_round_,
                        participants_, matrix, warm_, outcome);
  outcomes_.push_back(std::move(outcome));
}

}  // namespace dptd::crowd
