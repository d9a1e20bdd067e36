#include "crowd/ingest_pipeline.h"

#include "common/check.h"

namespace dptd::crowd {

IngestPipeline::IngestPipeline(IngestPipelineConfig config) : config_(config) {
  DPTD_REQUIRE(config_.queue_capacity > 0,
               "IngestPipeline: queue_capacity must be positive");
  DPTD_REQUIRE(config_.max_batch > 0,
               "IngestPipeline: max_batch must be positive");
  batch_size_ = config_.max_batch < config_.queue_capacity
                    ? config_.max_batch
                    : config_.queue_capacity;
}

IngestPipeline::~IngestPipeline() { stop_workers(); }

void IngestPipeline::begin_round(const data::ShardPlan& plan,
                                 std::size_t num_objects, std::uint64_t round,
                                 const LabelIngestPolicy& labels) {
  DPTD_REQUIRE(num_objects > 0, "IngestPipeline: num_objects must be positive");
  for (const auto& worker : workers_) {
    DPTD_REQUIRE(worker->staged.records.empty() &&
                     worker->processed.load(std::memory_order_seq_cst) ==
                         worker->pushed,
                 "IngestPipeline: begin_round before the previous round was "
                 "drained");
  }
  const std::size_t num_shards = plan.num_shards;
  const std::size_t num_workers =
      config_.num_workers < num_shards ? config_.num_workers : num_shards;

  // Workers survive rounds when the topology is stable; a shard- or
  // worker-count change tears them down and rebuilds. All shard/counter
  // state below is written while every worker is quiescent (blocked on an
  // empty queue: the check above saw every handed-over report processed);
  // the queue mutex on the first hand-off of the new round publishes it to
  // the worker.
  if (workers_.size() != num_workers || ingestors_.size() != num_shards) {
    stop_workers();
    ingestors_.clear();
    for (std::size_t s = 0; s < num_shards; ++s) {
      ingestors_.push_back(std::make_unique<ShardIngestor>());
    }
    workers_.clear();
    workers_.reserve(num_workers);
    for (std::size_t w = 0; w < num_workers; ++w) {
      workers_.push_back(
          std::make_unique<Worker>(config_.queue_capacity / batch_size_));
    }
  }

  plan_ = plan;
  worker_of_shard_.resize(num_shards);
  for (std::size_t w = 0; w < num_workers; ++w) {
    Worker& worker = *workers_[w];
    worker.shard_begin = w * num_shards / num_workers;
    worker.shard_end = (w + 1) * num_shards / num_workers;
    for (std::size_t s = worker.shard_begin; s < worker.shard_end; ++s) {
      worker_of_shard_[s] = w;
    }
    worker.pushed = 0;
    worker.processed.store(0, std::memory_order_relaxed);
    worker.distinct.store(0, std::memory_order_relaxed);
  }
  caller_distinct_ = 0;
  for (std::size_t s = 0; s < num_shards; ++s) {
    ingestors_[s]->begin_round(plan_.shard_num_users(s), plan_.user_begin(s),
                               num_objects, round, labels);
  }
  for (std::size_t w = 0; w < num_workers; ++w) {
    if (!workers_[w]->thread.joinable()) {
      workers_[w]->thread =
          std::thread([this, w] { worker_loop(*workers_[w]); });
    }
  }
}

void IngestPipeline::submit(std::size_t row,
                            std::span<const std::uint8_t> payload,
                            bool /*is_label*/) {
  stage(row, payload, /*copy=*/true);
}

void IngestPipeline::submit_view(std::size_t row,
                                 std::span<const std::uint8_t> payload,
                                 bool /*is_label*/) {
  stage(row, payload, /*copy=*/false);
}

void IngestPipeline::stage(std::size_t row,
                           std::span<const std::uint8_t> payload, bool copy) {
  Record record;
  record.shard = plan_.shard_of_user(row);
  record.local_user = row - plan_.user_begin(record.shard);
  if (workers_.empty()) {  // ingest now, from the caller's bytes
    if (ingest_record(record, payload)) ++caller_distinct_;
    return;
  }
  record.size = payload.size();
  Worker& worker = *workers_[worker_of_shard_[record.shard]];
  Batch& batch = worker.staged;
  if (copy) {
    record.offset = batch.arena.size();
    batch.arena.insert(batch.arena.end(), payload.begin(), payload.end());
  } else {
    record.external = payload.data();
  }
  batch.records.push_back(record);
  if (batch.records.size() == batch_size_) hand_off(worker);
}

void IngestPipeline::hand_off(Worker& worker) {
  const std::size_t reports = worker.staged.records.size();
  if (reports == 0) return;
  const std::size_t arena_bytes = worker.staged.arena.size();
  // push() blocks on backpressure; it can refuse only when the queue was
  // closed (shutdown racing a submit — a caller bug). Failing loudly here
  // keeps pushed == processed reachable, so drain() can never hang on a
  // silently dropped batch.
  DPTD_CHECK(worker.queue.push(std::move(worker.staged)),
             "IngestPipeline: submit after shutdown");
  worker.pushed += reports;
  // The next batch likely needs as many bytes as this one did.
  worker.staged = Batch{};
  worker.staged.records.reserve(batch_size_);
  worker.staged.arena.reserve(arena_bytes);
}

void IngestPipeline::drain() {
  for (const auto& worker : workers_) hand_off(*worker);
  // seq_cst choreography against the worker's post-batch sequence
  // (processed.store; draining_.load): if the worker's final store is not
  // yet visible to the predicate below, the worker's subsequent draining_
  // load is ordered after our store here and must see true, so it takes the
  // mutex and notifies — no lost wakeup.
  draining_.store(true, std::memory_order_seq_cst);
  {
    std::unique_lock<std::mutex> lock(drain_mu_);
    drain_cv_.wait(lock, [&] {
      for (const auto& worker : workers_) {
        if (worker->processed.load(std::memory_order_seq_cst) !=
            worker->pushed) {
          return false;
        }
      }
      return true;
    });
  }
  draining_.store(false, std::memory_order_seq_cst);
}

std::size_t IngestPipeline::distinct_reporters() const {
  std::size_t total = caller_distinct_;
  for (const auto& worker : workers_) {
    total += worker->distinct.load(std::memory_order_relaxed);
  }
  return total;
}

std::vector<ShardIngestStats> IngestPipeline::shard_stats() const {
  std::vector<ShardIngestStats> stats;
  stats.reserve(ingestors_.size());
  for (const auto& ingestor : ingestors_) stats.push_back(ingestor->stats());
  return stats;
}

std::vector<data::ObservationMatrix> IngestPipeline::finalize_shards() {
  drain();
  std::vector<data::ObservationMatrix> matrices;
  matrices.reserve(ingestors_.size());
  for (const auto& ingestor : ingestors_) {
    matrices.push_back(ingestor->finalize());
  }
  return matrices;
}

void IngestPipeline::worker_loop(Worker& worker) {
  std::vector<Batch> popped;
  while (true) {
    popped.clear();
    if (worker.queue.wait_pop_batch(popped, 1) == 0) {
      return;  // closed and empty: shutdown
    }
    const Batch& batch = popped.front();
    for (const Record& record : batch.records) {
      const std::span<const std::uint8_t> payload =
          record.external != nullptr
              ? std::span<const std::uint8_t>(record.external, record.size)
              : std::span<const std::uint8_t>(batch.arena)
                    .subspan(record.offset, record.size);
      if (ingest_record(record, payload)) {
        // Uncontended mirror for the coordinator's early-close poll; its own
        // cache line, written only by this worker.
        worker.distinct.store(
            worker.distinct.load(std::memory_order_relaxed) + 1,
            std::memory_order_relaxed);
      }
    }
    worker.processed.store(
        worker.processed.load(std::memory_order_relaxed) +
            batch.records.size(),
        std::memory_order_seq_cst);
    if (draining_.load(std::memory_order_seq_cst)) {
      // Lock-then-notify so the coordinator is either not yet waiting (and
      // will observe the updated counter in its predicate) or is woken here.
      std::lock_guard<std::mutex> lock(drain_mu_);
      drain_cv_.notify_all();
    }
  }
}

bool IngestPipeline::ingest_record(const Record& record,
                                   std::span<const std::uint8_t> payload) {
  ShardIngestor& ingestor = *ingestors_[record.shard];
  // The producer routed on this header, so it reads; the ingestor takes the
  // fields after the round varint.
  const std::optional<ReportHeader> header = Report::peek_header(payload);
  if (!header) {
    ingestor.reject();
    return false;
  }
  return ingestor.ingest(record.local_user,
                         payload.subspan(header->round_bytes));
}

void IngestPipeline::stop_workers() {
  for (auto& worker : workers_) worker->queue.close();
  for (auto& worker : workers_) {
    if (worker->thread.joinable()) worker->thread.join();
  }
}

}  // namespace dptd::crowd
