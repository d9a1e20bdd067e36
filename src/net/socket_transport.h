// Socket-backed net::Transport: the same Message/Node surface as the
// simulator Network, carried over real TCP or Unix-domain stream sockets so
// the distributed protocol (dist::Coordinator / dist::ShardNode) can span
// processes and hosts.
//
// Framing: each Message travels as one length-prefixed frame
//
//   [u32 LE body length][varint source][varint destination][u32 type][payload]
//
// where the payload runs to the end of the body (the prefix delimits it).
// The event loop handles partial reads (frames are reassembled across recv
// boundaries; one poll pass reads at most four 64 KiB chunks per connection
// before it parses and delivers, so a reader facing a faster writer never
// buffers more than that ahead of its own progress — level-triggered
// poll(2) resumes the read on the next pass) and coalesced writes: send()
// appends the frame to its connection's write queue, and the queue goes out
// as sendmsg gather writes (up to IOV_MAX frames per call) once its
// unwritten bytes reach 64 KiB, once it holds more than
// backoff_queue_max_frames frames, or on the next poll()/run_until_idle()
// pass, which polls every non-empty queue for POLLOUT. A short write keeps a
// byte offset into the queue's front frame.
// The frame bound means a dying connection never holds more unwritten frames
// than its park queue can take back (0 keeps every send write-through). A
// body that fails to decode is counted in malformed_frames() and skipped —
// the length prefix keeps the stream in sync, so one corrupt frame never
// poisons the connection; only an insane length prefix (> max_frame_bytes)
// forces a close.
//
// Routing: a destination is resolved in order against (1) locally attached
// nodes (delivered through the poll loop, never inline), (2) the configured
// peer table (outbound connections, established lazily with per-peer
// exponential reconnect backoff), (3) the source-route table — every inbound
// frame records "node S is reachable over this connection", so replies flow
// back over the connection the request arrived on and a shard process needs
// zero peer configuration. Anything else is undeliverable.
//
// Failure model mapping (vs the simulator's LatencyModel): a dead peer shows
// up as connect() refusal or a write/EOF error. Frames sent while a
// configured peer's link is down — the connect was refused just now, or the
// link is inside its reconnect-backoff window — and frames still queued on a
// dying outbound connection, are NOT dropped: they park on the peer link
// (bounded by backoff_queue_max_frames; overflow is counted undeliverable)
// and flush in order when the connection reopens — poll() wakes itself at
// the next retry time, so no new send is needed to trigger the reconnect.
// This matters for one-way traffic with no resend path (routed reports): a
// shard restarting mid-ingest must not silently lose the frames routed
// during its down window. RPCs additionally ride the coordinator's
// timeout-and-resend loop, so stragglers and restarts cost resends, never
// correctness.
//
// Single-threaded by design: all progress happens inside poll() /
// run_until_idle() on the calling thread, mirroring the simulator.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <span>
#include <memory>
#include <queue>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/transport.h"

namespace dptd::net {

/// "unix:/path/to.sock" or "tcp:127.0.0.1:9000" (numeric IPv4 only — this is
/// a deployment seam, not a resolver).
struct SocketEndpoint {
  enum class Kind { kUnix, kTcp };
  Kind kind = Kind::kUnix;
  std::string path;           ///< kUnix
  std::string host;           ///< kTcp, dotted quad
  std::uint16_t port = 0;     ///< kTcp

  static SocketEndpoint parse(const std::string& spec);
  std::string to_string() const;
};

struct SocketTransportConfig {
  /// Endpoint to accept inbound connections on; empty = client-only (the
  /// coordinator process in a star topology needs no listener when every
  /// shard is in its peer table). "tcp:host:0" binds an ephemeral port —
  /// read it back with listen_endpoint().
  std::string listen;
  /// Outbound routes: destination node id -> endpoint spec. Connections are
  /// opened lazily on first send and re-opened after failures with backoff.
  std::unordered_map<NodeId, std::string> peers;
  double reconnect_backoff_seconds = 0.05;       ///< initial, doubles per failure
  double reconnect_backoff_max_seconds = 1.0;
  /// Frames sent toward a configured peer whose link is down (connect
  /// refused or inside the reconnect-backoff window), plus unwritten frames
  /// of a dying outbound connection, queue on the peer link and flush on
  /// reconnect, up to this many; overflow is counted undeliverable. 0
  /// disables queueing (every down-link send drops — pre-fix behaviour).
  /// send() also writes a live connection's queue out once it holds more
  /// frames than this, so unless the kernel buffer is full, the frames a
  /// dying connection still holds fit back here.
  std::size_t backoff_queue_max_frames = 1024;
  /// Frame bodies above this are treated as a framing attack: the connection
  /// is closed (no resync is possible once the prefix is untrusted).
  std::size_t max_frame_bytes = std::size_t{64} << 20;
  /// Settle window reported through Transport::drain_window_seconds(): how
  /// long close-of-phase drains wait for in-flight loopback/LAN traffic.
  double drain_window_seconds = 0.05;

  void validate() const;
};

class SocketTransport final : public Transport {
 public:
  explicit SocketTransport(SocketTransportConfig config);
  ~SocketTransport() override;

  SocketTransport(const SocketTransport&) = delete;
  SocketTransport& operator=(const SocketTransport&) = delete;

  void attach(NodeId id, Node& node) override;
  void detach(NodeId id) override;
  bool attached(NodeId id) const override;

  void send(Message message) override;

  /// Monotonic wall-clock seconds since construction.
  double now() const override;
  /// One or more poll(2) passes until `deadline`; returns as soon as at
  /// least one message was delivered to an attached node.
  std::size_t poll(double deadline) override;
  /// Zero-timeout passes while reads or writes make progress.
  std::size_t run_until_idle() override;
  void schedule(double delay, std::function<void()> fn) override;

  const NetworkStats& stats() const override { return stats_; }
  std::size_t undeliverable_to(NodeId destination) const override;
  double drain_window_seconds() const override {
    return config_.drain_window_seconds;
  }

  /// Frame bodies that failed to decode (plus partial frames cut off by a
  /// peer close) — the socket layer's byzantine counter, mirroring the
  /// shard/coordinator malformed-envelope counters one level up.
  std::size_t malformed_frames() const { return malformed_frames_; }

  /// The bound listen endpoint ("tcp:ip:port" with the real port, or the
  /// unix path); empty when client-only.
  const std::string& listen_endpoint() const { return listen_endpoint_; }

  /// Encodes/decodes one frame BODY (without the u32 length prefix);
  /// exposed for the framing fuzz tests.
  static std::vector<std::uint8_t> encode_frame_body(const Message& message);
  static Message decode_frame_body(std::span<const std::uint8_t> body);

 private:
  struct OutFrame {
    std::vector<std::uint8_t> bytes;  ///< length prefix + body
    NodeId destination = 0;           ///< for undeliverable attribution
  };
  struct Connection {
    int fd = -1;
    bool inbound = false;
    bool connecting = false;               ///< TCP connect in flight
    NodeId peer = 0;                       ///< outbound: peer node id
    std::vector<std::uint8_t> rbuf;        ///< partial-frame reassembly
    std::deque<OutFrame> wqueue;
    std::size_t woff = 0;                  ///< bytes of wqueue.front() written
    std::size_t wbytes = 0;                ///< unwritten bytes in wqueue
  };
  struct Timer {
    double when = 0.0;
    std::uint64_t seq = 0;  ///< FIFO among equal times
    std::function<void()> fn;
  };
  struct TimerLater {
    bool operator()(const Timer& a, const Timer& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };
  struct PeerLink {
    int fd = -1;            ///< live outbound connection, -1 when down
    double next_attempt = 0.0;
    double backoff = 0.0;   ///< current wait after the next failure
    /// Frames parked while the link is down (backoff window or dying
    /// connection); empty whenever fd >= 0 — opening a connection moves
    /// them into its write queue ahead of the triggering frame.
    std::deque<OutFrame> pending;
  };

  void open_listener();
  /// One event-loop pass with the given poll(2) timeout; returns messages
  /// delivered. Sets made_io_progress_ when any read/write/accept happened.
  std::size_t poll_pass(int timeout_ms);
  void fire_due_timers();
  std::size_t drain_inbox();
  void accept_ready();
  /// Returns the fd to carry a frame to `destination`, opening an outbound
  /// connection if the peer table has a route and the backoff allows;
  /// -1 when unroutable right now. When the -1 is only the reconnect-backoff
  /// window (the peer may well be back already), *backoff_wait is set so the
  /// caller queues the frame on the link instead of dropping it.
  int route_fd(NodeId destination, bool* backoff_wait = nullptr);
  /// Reopens peer links whose backoff window expired while frames are parked
  /// on them, flushing the parked frames (a send is not needed to retry).
  void retry_backoff_links();
  /// Length-prefixed wire form of one message (checked against
  /// max_frame_bytes).
  OutFrame make_frame(const Message& message);
  /// Writes the queue front-first with sendmsg gather calls until it is
  /// empty or the kernel buffer is full; a write error closes `conn`.
  void try_flush(Connection& conn);
  /// Reads up to four 64 KiB chunks (read_capped_ when it stops at that
  /// cap), then delivers every complete frame; EOF or an error closes conn.
  std::size_t read_ready(Connection& conn);
  std::size_t parse_frames(Connection& conn);
  /// Hands `message` to its attached node (true) or counts it
  /// undeliverable (false).
  bool deliver(Message message);
  void close_connection(int fd);
  void count_undeliverable(NodeId destination);

  SocketTransportConfig config_;
  std::chrono::steady_clock::time_point epoch_;

  int listen_fd_ = -1;
  std::string listen_endpoint_;
  std::string listen_unix_path_;  ///< unlinked on destruction

  std::unordered_map<NodeId, Node*> nodes_;
  std::unordered_map<int, std::unique_ptr<Connection>> connections_;
  std::unordered_map<NodeId, PeerLink> links_;
  std::unordered_map<NodeId, int> source_routes_;
  std::deque<Message> inbox_;  ///< loopback sends to locally attached nodes

  std::priority_queue<Timer, std::vector<Timer>, TimerLater> timers_;
  std::uint64_t next_timer_seq_ = 0;

  NetworkStats stats_;
  std::unordered_map<NodeId, std::size_t> undeliverable_by_dest_;
  std::size_t malformed_frames_ = 0;
  bool made_io_progress_ = false;
  /// A read pass stopped at its cap this pass (run_until_idle keeps going).
  bool read_capped_ = false;
};

}  // namespace dptd::net
