// Report ingestion behind one producer: the caller (the network thread)
// only *routes* — an O(1) header peek resolves the owning shard — and the
// expensive half of ingestion (full decode, claim sanitization, dedup, row
// append) runs through the ShardIngestors of the shards. With zero workers
// that step runs inside submit()/submit_view(), on the caller's thread and
// from the caller's bytes: no thread, no queue, no copy. With W >= 1 worker
// threads it runs on the worker that owns the report's shard.
//
// Topology: K shards (data::ShardPlan) are split contiguously across
// W = min(ingest workers, K) worker threads. Each worker has ONE queue fed
// by the single producer and exclusively owns the ingestors of its shard
// range, so the hot path needs no locks around ingestion state and no shared
// atomics: each shard's ingestion statistics are plain counters of its own
// ingestor (on its own cache lines), read after the drain barrier at round
// close.
//
// Batched hand-off: the producer stages each worker's reports in one batch —
// a byte arena holding the payloads submit() copies, plus one fixed-size
// record per report (submit_view() records point at the caller's bytes
// instead). Once a batch holds max_batch reports it is handed over under one
// queue lock, and the worker takes one batch per lock acquisition; drain()
// hands over partial batches first. So the per-report cost on the network
// thread is a record and a memcpy, not an allocation and a lock.
//
// Determinism by construction: a batch keeps its reports in submission
// order, each queue is FIFO from a single producer, and a shard's reports
// all travel through the one queue of its owning worker, so per-shard
// ingestion order — and therefore dedup outcomes and the finalized
// sub-matrix — is the submission order, exactly as at zero workers, for
// every worker count and batch size.
//
// Backpressure: queues are bounded in reports; when one fills, the producer
// blocks on the hand-off until the worker catches up, so a slow shard
// throttles intake instead of growing memory without bound.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "common/mpsc_queue.h"
#include "crowd/server.h"
#include "data/sharding.h"

namespace dptd::crowd {

struct IngestPipelineConfig {
  /// Worker threads, clamped to the round's shard count. 0 starts none:
  /// submit() and submit_view() ingest on the caller's thread.
  std::size_t num_workers = 1;
  /// The backpressure bound, counted in reports: a worker's queue holds at
  /// most this many handed-over reports (whole batches, at least one), and a
  /// hand-off to a full queue blocks the producer.
  std::size_t queue_capacity = 4096;
  /// Reports per hand-off, capped at queue_capacity: the producer hands a
  /// worker its staged batch under one queue lock once it holds this many,
  /// and the worker dequeues one batch per lock acquisition.
  std::size_t max_batch = 128;
};

class IngestPipeline {
 public:
  explicit IngestPipeline(IngestPipelineConfig config);
  ~IngestPipeline();

  IngestPipeline(const IngestPipeline&) = delete;
  IngestPipeline& operator=(const IngestPipeline&) = delete;

  /// Arms the pipeline for a round: one ShardIngestor per shard of `plan`,
  /// counters zeroed, workers started (re-used across rounds when the
  /// shard/worker topology is unchanged — the builder storage is recycled).
  /// The previous round, if any, must have been drained (finalize_shards or
  /// drain); this is the caller's round-close barrier, and begin_round
  /// throws std::invalid_argument, changing nothing, while any report of the
  /// previous round is still staged or being ingested. Every report decodes
  /// against `round`; the label policy selects the upload kind, and label
  /// range checks run wherever the report's shard ingests (its worker, or
  /// the caller at zero workers).
  void begin_round(const data::ShardPlan& plan, std::size_t num_objects,
                   std::uint64_t round = 0,
                   const LabelIngestPolicy& labels = {});

  /// Producer side (one thread): the encoded report `payload` for the matrix
  /// row `row` (the caller has already peeked the header and resolved row +
  /// round, and verified the message kind matches the round's label policy;
  /// `is_label` is unused). With zero workers it is ingested before submit
  /// returns. Otherwise it is staged in the owning worker's batch, its bytes
  /// copied into the batch arena, so the caller's buffer is free once submit
  /// returns; the batch is handed over when full, blocking while the
  /// worker's queue is full.
  void submit(std::size_t row, std::span<const std::uint8_t> payload,
              bool is_label = false);
  /// Zero-copy variant: with workers, stages a view of `payload`, which must
  /// outlive the next drain() (e.g. a pre-encoded benchmark corpus).
  void submit_view(std::size_t row, std::span<const std::uint8_t> payload,
                   bool is_label = false);

  /// Hands over every partial batch, then blocks until every submitted
  /// report has been fully ingested (the round close barrier; nothing to
  /// wait for at zero workers). After drain() returns, counters and builders
  /// are exact and safe to read from the calling thread.
  void drain();

  /// Distinct users ingested so far, summed across workers. Monotone and
  /// cheap (one relaxed load per worker); exact only after drain() — reports
  /// still staged in a partial batch are not counted before it — or at zero
  /// workers.
  std::size_t distinct_reporters() const;

  /// Per-shard accounting for the round. Call only after drain().
  std::vector<ShardIngestStats> shard_stats() const;

  /// Drains, finalizes the per-shard builders into sub-matrices (resetting
  /// them), and returns them in shard order — ready for
  /// data::ShardedMatrix::from_shards.
  std::vector<data::ObservationMatrix> finalize_shards();

  const data::ShardPlan& plan() const { return plan_; }
  std::size_t num_workers() const { return workers_.size(); }
  std::size_t num_shards() const { return ingestors_.size(); }

 private:
  /// One staged report: `size` encoded bytes at `external` (submit_view) or,
  /// when that is null, at `offset` in the batch arena (submit copied them;
  /// an offset stays valid while the arena grows).
  struct Record {
    std::size_t shard = 0;
    std::size_t local_user = 0;
    const std::uint8_t* external = nullptr;
    std::size_t offset = 0;
    std::size_t size = 0;
  };

  /// The unit of hand-off: up to batch_size_ records, in submission order,
  /// and the arena holding the bytes submit() copied.
  struct Batch {
    std::vector<std::uint8_t> arena;
    std::vector<Record> records;
  };

  /// One worker thread: a bounded queue of batches, its thread, the batch
  /// the producer is filling for it, and the padded counter mirrors the
  /// coordinator polls (sole writer: the worker itself).
  struct Worker {
    explicit Worker(std::size_t queue_slots) : queue(queue_slots) {}

    BoundedMpscQueue<Batch> queue;
    std::thread thread;
    std::size_t shard_begin = 0;
    std::size_t shard_end = 0;
    Batch staged;            ///< producer-thread-local: not yet handed over
    std::size_t pushed = 0;  ///< producer-thread-local: reports handed over
    alignas(64) std::atomic<std::size_t> processed{0};
    alignas(64) std::atomic<std::size_t> distinct{0};
  };

  /// Routes `row` to its shard. At zero workers ingests it at once;
  /// otherwise appends its record (and, when `copy`, its bytes) to the
  /// owning worker's staged batch and hands a full batch over.
  void stage(std::size_t row, std::span<const std::uint8_t> payload,
             bool copy);
  /// Pushes the worker's staged batch, if any, onto its queue (blocking while
  /// the queue is full) and starts an empty one.
  void hand_off(Worker& worker);
  void worker_loop(Worker& worker);
  /// The per-report step, on a worker or at zero workers on the caller's
  /// thread: peeks the header, then hands the fields to the record's shard
  /// ingestor. Returns true for a new distinct reporter.
  bool ingest_record(const Record& record,
                     std::span<const std::uint8_t> payload);
  void stop_workers();

  IngestPipelineConfig config_;
  /// Reports per hand-off: min(max_batch, queue_capacity).
  std::size_t batch_size_ = 0;
  data::ShardPlan plan_;
  /// One per shard, each on its own allocation: written only by the owning
  /// worker while the round is open, read by the coordinator after drain().
  std::vector<std::unique_ptr<ShardIngestor>> ingestors_;
  std::vector<std::size_t> worker_of_shard_;
  std::vector<std::unique_ptr<Worker>> workers_;
  /// Distinct reporters ingested on the caller's thread (zero workers).
  std::size_t caller_distinct_ = 0;

  /// Drain rendezvous: the coordinator arms `draining_`, workers notify
  /// after each batch while it is set. seq_cst on both sides closes the
  /// lost-wakeup window (see drain()).
  std::atomic<bool> draining_{false};
  std::mutex drain_mu_;
  std::condition_variable drain_cv_;
};

}  // namespace dptd::crowd
