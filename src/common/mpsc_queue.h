// Bounded multi-producer queue feeding one consumer thread: a fixed-capacity
// ring buffer guarded by a mutex, with a *blocking* push (backpressure: a
// producer stalls while the ring is full instead of growing memory without
// bound) and batch dequeue so the consumer amortizes one lock acquisition
// over many items. This is the hand-off primitive of the parallel ingestion
// pipeline (crowd::IngestPipeline), where an item is a whole batch of routed
// reports: the network thread pushes one batch per lock acquisition and one
// worker per queue pops them, so the pipeline's lock, wake-up and capacity
// accounting are per batch, not per report.
//
// FIFO is global: items pop in exactly the order pushes acquired the lock.
// With a single producer thread — the pipeline's configuration — that is the
// producer's program order, which is what makes pipelined ingestion bitwise
// identical to serial ingestion.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <utility>
#include <vector>

#include "common/check.h"

namespace dptd {

template <typename T>
class BoundedMpscQueue {
 public:
  /// `capacity` is the exact number of in-flight items tolerated before
  /// push() blocks. Must be positive.
  explicit BoundedMpscQueue(std::size_t capacity)
      : capacity_(capacity), ring_(capacity) {
    DPTD_REQUIRE(capacity > 0, "BoundedMpscQueue: capacity must be positive");
  }

  BoundedMpscQueue(const BoundedMpscQueue&) = delete;
  BoundedMpscQueue& operator=(const BoundedMpscQueue&) = delete;

  std::size_t capacity() const { return capacity_; }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return tail_ - head_;
  }

  /// Enqueues without blocking; returns false when the ring is full or the
  /// queue is closed.
  bool try_push(T&& item) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (closed_ || tail_ - head_ == capacity_) return false;
      ring_[tail_ % capacity_] = std::move(item);
      ++tail_;
    }
    cv_not_empty_.notify_one();
    return true;
  }

  /// Enqueues, blocking while the ring is full (the pipeline's backpressure).
  /// Returns false only if the queue was closed (shutdown) before space
  /// opened up; the item is dropped in that case.
  bool push(T&& item) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_not_full_.wait(lock,
                        [&] { return closed_ || tail_ - head_ < capacity_; });
      if (closed_) return false;
      ring_[tail_ % capacity_] = std::move(item);
      ++tail_;
    }
    cv_not_empty_.notify_one();
    return true;
  }

  /// Moves up to `max` items into `out` (appended) without blocking.
  /// Returns the number popped.
  std::size_t pop_batch(std::vector<T>& out, std::size_t max) {
    std::size_t popped = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      popped = take_locked(out, max);
    }
    if (popped > 0) cv_not_full_.notify_all();
    return popped;
  }

  /// Blocks until at least one item is available or the queue is closed,
  /// then moves up to `max` items into `out` (appended). Returns 0 only on
  /// [closed and empty] — the consumer's exit signal.
  std::size_t wait_pop_batch(std::vector<T>& out, std::size_t max) {
    std::size_t popped = 0;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_not_empty_.wait(lock, [&] { return closed_ || tail_ != head_; });
      popped = take_locked(out, max);
    }
    if (popped > 0) cv_not_full_.notify_all();
    return popped;
  }

  /// Rejects further pushes and wakes every blocked producer and consumer.
  /// Items already enqueued remain poppable; wait_pop_batch returns 0 once
  /// they are gone.
  void close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    cv_not_empty_.notify_all();
    cv_not_full_.notify_all();
  }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return closed_;
  }

 private:
  std::size_t take_locked(std::vector<T>& out, std::size_t max) {
    const std::size_t available = tail_ - head_;
    const std::size_t n = available < max ? available : max;
    for (std::size_t i = 0; i < n; ++i) {
      out.push_back(std::move(ring_[head_ % capacity_]));
      ++head_;
    }
    return n;
  }

  const std::size_t capacity_;
  std::vector<T> ring_;
  mutable std::mutex mu_;
  std::condition_variable cv_not_empty_;
  std::condition_variable cv_not_full_;
  std::size_t head_ = 0;  ///< monotone pop counter
  std::size_t tail_ = 0;  ///< monotone push counter
  bool closed_ = false;
};

}  // namespace dptd
