// The pluggable messaging seam of the distributed deployment: an abstract
// Transport over the Message/Node surface, with an explicit progress
// contract so callers (the dist/ coordinator, the crowd server) drive any
// implementation the same way:
//
//   - send() enqueues a message toward its destination; it never blocks and
//     never delivers inline. A sent message may wait in the sender until its
//     next poll()/run_until_idle() (the socket transport coalesces writes),
//     so a caller that stops driving the transport after sending — a
//     shutdown path — calls run_until_idle() first.
//   - poll(deadline) makes progress until `deadline` (in the transport's own
//     clock, see now()); it MAY return early as soon as at least one message
//     has been delivered to a locally attached node, and returns the number
//     delivered. The discrete-event simulator satisfies this trivially with
//     Simulator::run_until (virtual time jumps to the deadline when the
//     queue drains); a socket event loop satisfies it with poll(2).
//   - run_until_idle() delivers everything currently deliverable without
//     advancing past external waits (simulator: drain the event queue;
//     sockets: zero-timeout poll passes while progress is being made).
//   - schedule() posts a timer callback on the transport's clock — the hook
//     the crowd server uses for round deadlines.
//
// A message's payload (net::Payload) is read-only bytes in one of two forms.
// A point-to-point message owns its bytes: the vector its sender encoded,
// moved in. A fan-out shares one immutable buffer among all its messages
// (Payload::shared), so copying such a message — into a transport queue, a
// duplicate, a recording test node — costs a reference count, not a copy.
// Transports count every message at its full payload size whichever form it
// takes. The one writer, mutable_bytes(), first gives a shared payload its
// own copy, so a write never reaches another holder of the buffer.
//
// Timeout/resend policy (RpcPolicy) lives here too: it is a property of how
// a caller drives RPCs over a transport, shared by every protocol layer.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

namespace dptd::net {

using NodeId = std::uint64_t;

/// The bytes a Message carries: owned by this payload, or one buffer shared
/// read-only with every copy of a fan-out. A contiguous range of const bytes,
/// so it converts implicitly to std::span<const std::uint8_t>.
class Payload {
 public:
  using const_iterator = const std::uint8_t*;

  Payload() = default;
  /// Owned bytes: takes the vector, no copy.
  Payload(std::vector<std::uint8_t> bytes) noexcept
      : owned_(std::move(bytes)) {}
  /// Bytes shared by every copy of the returned payload, for a fan-out: one
  /// allocation here, a reference count per copy after.
  static Payload shared(std::vector<std::uint8_t> bytes);

  const std::uint8_t* data() const { return bytes().data(); }
  std::size_t size() const { return bytes().size(); }
  bool empty() const { return bytes().empty(); }
  const_iterator begin() const { return data(); }
  const_iterator end() const { return data() + size(); }
  const std::uint8_t& operator[](std::size_t i) const { return bytes()[i]; }
  /// The bytes as a vector, by reference: no copy.
  operator const std::vector<std::uint8_t>&() const { return bytes(); }

  /// The only writer. A shared payload first takes its own copy of the
  /// bytes, so the write never reaches the other holders of the buffer.
  std::vector<std::uint8_t>& mutable_bytes();

  friend bool operator==(const Payload& payload,
                         std::span<const std::uint8_t> bytes);

 private:
  const std::vector<std::uint8_t>& bytes() const {
    return shared_ ? *shared_ : owned_;
  }

  std::vector<std::uint8_t> owned_;
  std::shared_ptr<const std::vector<std::uint8_t>> shared_;
};

/// A wire message: opaque payload plus routing metadata.
struct Message {
  NodeId source = 0;
  NodeId destination = 0;
  std::uint32_t type = 0;
  Payload payload;
};

/// Anything attached to a transport: receives delivered messages.
class Node {
 public:
  virtual ~Node() = default;
  virtual void on_message(const Message& message) = 0;
};

/// Traffic accounting, identical semantics on every transport: byte counters
/// cover payload bytes only (framing overhead is an implementation detail),
/// so per-round byte telemetry is comparable across the simulator and the
/// socket transport.
struct NetworkStats {
  std::size_t messages_sent = 0;
  std::size_t messages_delivered = 0;
  /// Lost on the link (the probabilistic LatencyModel drop). Distinct from
  /// routing failures so loss telemetry stays trustworthy for protocols that
  /// react to it (the dist/ coordinator's straggler detection).
  std::size_t messages_dropped = 0;
  /// Destination unknown at send time, detached by delivery time, or — on a
  /// socket transport — unreachable/disconnected when its queued frames were
  /// discarded.
  std::size_t messages_undeliverable = 0;
  std::size_t bytes_sent = 0;
  /// Payload bytes of messages actually handed to an attached node. With
  /// zero drops and no routing failures, bytes_delivered == bytes_sent on
  /// the simulator; on a socket transport each endpoint counts its own
  /// sides (bytes_sent = what it sent, bytes_delivered = what it received).
  std::size_t bytes_delivered = 0;

  /// The traffic counted since `before`, an earlier snapshot.
  NetworkStats since(const NetworkStats& before) const {
    return {.messages_sent = messages_sent - before.messages_sent,
            .messages_delivered = messages_delivered - before.messages_delivered,
            .messages_dropped = messages_dropped - before.messages_dropped,
            .messages_undeliverable = messages_undeliverable - before.messages_undeliverable,
            .bytes_sent = bytes_sent - before.bytes_sent,
            .bytes_delivered = bytes_delivered - before.bytes_delivered};
  }
};

/// Timeout-and-resend policy for request/response RPCs driven over a
/// Transport (dist::Coordinator today). Factored out of the coordinator's
/// config so every layer — config structs, tests, docs — shares one
/// definition of the two knobs.
struct RpcPolicy {
  /// RPC timeout before a resend. Must exceed one transport round trip or
  /// every op pays a pointless duplicate.
  double op_timeout_seconds = 0.25;
  /// Resends per op before the target is declared failed.
  std::size_t max_resends = 5;

  void validate() const;
};

class Transport {
 public:
  virtual ~Transport() = default;

  /// Registers a node under `id`; the node must outlive the transport's
  /// in-flight traffic toward it (or detach first).
  virtual void attach(NodeId id, Node& node) = 0;
  virtual void detach(NodeId id) = 0;
  virtual bool attached(NodeId id) const = 0;

  /// Enqueues `message` toward its destination. Never delivers inline; the
  /// caller observes delivery through poll()/run_until_idle(). The message
  /// may not leave this process until the next poll()/run_until_idle().
  virtual void send(Message message) = 0;

  /// The transport's clock, in seconds. Virtual time on the simulator,
  /// monotonic wall time on a socket transport. Only differences are
  /// meaningful.
  virtual double now() const = 0;

  /// Makes progress until now() >= deadline, returning the number of
  /// messages delivered to locally attached nodes. MAY return early once at
  /// least one message has been delivered — callers waiting on a specific
  /// event must re-check their condition and call again.
  virtual std::size_t poll(double deadline) = 0;

  /// Delivers everything currently deliverable (no waiting on external
  /// events); returns the number delivered.
  virtual std::size_t run_until_idle() = 0;

  /// Runs `fn` once at now() + delay. Fires from inside poll()/
  /// run_until_idle(), never concurrently with other callbacks.
  virtual void schedule(double delay, std::function<void()> fn) = 0;

  virtual const NetworkStats& stats() const = 0;

  /// Sends toward `destination` that were counted undeliverable, for
  /// per-peer failure attribution (dist round telemetry).
  virtual std::size_t undeliverable_to(NodeId destination) const = 0;

  /// Worst-case interval after which every message already sent to a
  /// reachable destination has been delivered (absent drops/failures):
  /// base + jitter on the simulator, a small configured settle window on a
  /// socket transport. Protocol code uses it to drain in-flight traffic
  /// before a phase change (Coordinator::close_round).
  virtual double drain_window_seconds() const = 0;

  /// Convenience: polls until now() has advanced by `seconds` (the
  /// early-return contract of poll() makes a single call insufficient).
  /// Returns the number of messages delivered.
  std::size_t drain_for(double seconds);
};

}  // namespace dptd::net
