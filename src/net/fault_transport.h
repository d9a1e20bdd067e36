// Deterministic fault injection as a Transport decorator.
//
// FaultInjectionTransport wraps any Transport (the simulator or a
// SocketTransport) and injects faults drawn from a seeded schedule at
// send() time: per-link drop/delay/duplicate/reorder probabilities, payload
// corruption (bit flips and truncation), one-way or bidirectional
// partitions, and timed crash windows that take a node dark in both
// directions. Every decision comes from one Rng seeded by
// FaultSchedule::seed, consumed in send order, so a failure interleaving is
// reproducible from the single seed — the chaos suites print that seed in
// every assertion and re-run any red schedule with DPTD_CHAOS_SEED.
//
// Accounting contract: every injected loss (drop, partition, crash) is
// counted in this layer's messages_undeliverable and its per-destination
// undeliverable_to() map — NOT in messages_dropped — so callers that detect
// loss synchronously at send time (the dist Coordinator observes the
// undeliverable_to delta around each report batch) see injected report loss
// exactly like a real routing failure, and the report-conservation
// invariant closes without the protocol knowing the fault layer exists.
// Corruption and truncation mutate the payload but let the message through.
// They write through Payload::mutable_bytes(), which first gives a shared
// (fan-out) payload its own copy, so a fault on one link never reaches the
// other recipients of that buffer or the sender. Delays/reorders defer the
// inner send via schedule(); duplicates forward twice, a shared payload
// shared by both copies. With an all-zero schedule the decorator is pure
// pass-through (one virtual hop; the bench's FaultPassthrough row prices it).
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "net/transport.h"

namespace dptd::net {

/// Per-message fault probabilities for one link class (or one explicit
/// (source, destination) link). All probabilities in [0, 1].
struct LinkFaults {
  double drop_probability = 0.0;
  double duplicate_probability = 0.0;
  /// With delay_probability, defer the inner send by uniform
  /// [delay_min_seconds, delay_max_seconds).
  double delay_probability = 0.0;
  double delay_min_seconds = 0.0;
  double delay_max_seconds = 0.0;
  /// With reorder_probability, defer this message by uniform
  /// (0, reorder_max_seconds) so later sends genuinely overtake it. Drawn
  /// only when the delay roll misses.
  double reorder_probability = 0.0;
  double reorder_max_seconds = 0.0;
  /// With corrupt_probability, flip one random payload bit. The dptd wire
  /// protocol carries no checksums, so a flipped bit may decode as valid
  /// garbage — use truncate for faults that are guaranteed detectable.
  double corrupt_probability = 0.0;
  /// With truncate_probability, cut the payload at a random offset. Every
  /// stats_wire decoder consumes exactly its encoded bytes, so truncation
  /// always surfaces as a counted DecodeError and a resend recovers it.
  double truncate_probability = 0.0;

  bool any() const;
  void validate() const;
};

/// Drops traffic from `from` to `to` (and the reverse when bidirectional)
/// while begin <= now() < end.
struct PartitionWindow {
  NodeId from = 0;
  NodeId to = 0;
  double begin_seconds = 0.0;
  double end_seconds = std::numeric_limits<double>::infinity();
  bool bidirectional = true;
};

/// Takes `node` dark in both directions while begin <= now() < end. An
/// infinite end models a permanent crash (the degraded-close scenario).
struct CrashWindow {
  NodeId node = 0;
  double begin_seconds = 0.0;
  double end_seconds = std::numeric_limits<double>::infinity();
};

/// A complete, seed-reproducible fault schedule. Messages whose type is in
/// `report_types` use the `reports` fault class, everything else uses `rpc`;
/// an exact (source, destination) entry in `links` overrides either. The
/// class split exists because report frames have no resend path (loss must
/// be accounted, not retried) while RPC frames ride the exactly-once
/// timeout/resend machinery — chaos schedules stress them differently.
struct FaultSchedule {
  std::uint64_t seed = 1;
  LinkFaults rpc;
  LinkFaults reports;
  /// Message types classified into the `reports` class (the chaos suites
  /// pass crowd kReport/kLabelReport and kReportBatch, the coordinator ->
  /// shard carrier of routed reports). Faults are drawn per message, so a
  /// dropped batch loses every report in it. Kept as raw u32s so net/ stays
  /// decoupled from crowd/.
  std::vector<std::uint32_t> report_types;
  /// Exact per-link overrides, keyed (source, destination).
  std::map<std::pair<NodeId, NodeId>, LinkFaults> links;
  std::vector<PartitionWindow> partitions;
  std::vector<CrashWindow> crashes;

  void validate() const;
};

/// What the fault layer actually did — the chaos suites use these to assert
/// a schedule really exercised the fault classes it configured, and the
/// permanent-failure tests to cross-check exact loss accounting.
struct FaultStats {
  std::size_t drops = 0;
  std::size_t partition_losses = 0;
  std::size_t crash_losses = 0;
  std::size_t delays = 0;
  std::size_t reorders = 0;
  std::size_t duplicates = 0;
  std::size_t corruptions = 0;
  std::size_t truncations = 0;

  /// Messages the schedule prevented from ever reaching the inner transport.
  std::size_t total_losses() const {
    return drops + partition_losses + crash_losses;
  }
};

class FaultInjectionTransport : public Transport {
 public:
  /// Decorates `inner`; the inner transport must outlive this object.
  FaultInjectionTransport(Transport& inner, FaultSchedule schedule);

  void attach(NodeId id, Node& node) override;
  void detach(NodeId id) override;
  bool attached(NodeId id) const override;
  void send(Message message) override;
  double now() const override;
  std::size_t poll(double deadline) override;
  std::size_t run_until_idle() override;
  void schedule(double delay, std::function<void()> fn) override;
  const NetworkStats& stats() const override;
  std::size_t undeliverable_to(NodeId destination) const override;
  /// Inner window widened by the schedule's maximum injected delay so a
  /// drain still flushes delayed/reordered in-flight messages.
  double drain_window_seconds() const override;

  const FaultStats& fault_stats() const { return injected_; }
  const FaultSchedule& fault_schedule() const { return schedule_; }
  Transport& inner() { return inner_; }

 private:
  const LinkFaults& faults_for(const Message& message) const;
  /// True when a crash or partition window covers this message at time `t`.
  bool severed(const Message& message, double t, bool* crash) const;
  void count_loss(const Message& message);
  /// Hands the (possibly mutated) message to the inner transport, deferred
  /// by `extra_delay` seconds when positive.
  void forward(Message message, double extra_delay);

  Transport& inner_;
  FaultSchedule schedule_;
  Rng rng_;
  double max_extra_delay_ = 0.0;
  FaultStats injected_;
  /// Decorator-side counters folded over the inner stats in stats().
  std::size_t sent_ = 0;
  std::size_t bytes_sent_ = 0;
  std::size_t undeliverable_ = 0;
  std::map<NodeId, std::size_t> undeliverable_by_dest_;
  mutable NetworkStats merged_;
};

}  // namespace dptd::net
