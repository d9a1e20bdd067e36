#include "net/socket_transport.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstring>

#include "common/check.h"
#include "common/serialize.h"

namespace dptd::net {

namespace {

constexpr std::size_t kFramePrefixBytes = 4;
constexpr int kMaxPollTimeoutMs = 60'000;
/// send() writes a connection's queue out once this many bytes are unwritten.
constexpr std::size_t kFlushBytes = std::size_t{64} << 10;
/// Frames per sendmsg gather call.
constexpr std::size_t kMaxGatherFrames = IOV_MAX;
/// recv() calls of kReadChunkBytes per connection per poll pass. A reader
/// facing a faster writer parses and delivers what it has instead of
/// draining the socket into an ever larger buffer first; level-triggered
/// poll(2) resumes the read on the next pass.
constexpr std::size_t kReadChunkBytes = std::size_t{64} << 10;
constexpr std::size_t kMaxReadsPerPass = 4;

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  DPTD_CHECK(flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0,
             "SocketTransport: fcntl(O_NONBLOCK) failed");
  ::fcntl(fd, F_SETFD, FD_CLOEXEC);
}

std::uint32_t read_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

void write_le32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
  p[2] = static_cast<std::uint8_t>(v >> 16);
  p[3] = static_cast<std::uint8_t>(v >> 24);
}

}  // namespace

// ---------------------------------------------------------------------------
// Endpoints and config

SocketEndpoint SocketEndpoint::parse(const std::string& spec) {
  SocketEndpoint ep;
  if (spec.rfind("unix:", 0) == 0) {
    ep.kind = Kind::kUnix;
    ep.path = spec.substr(5);
    DPTD_REQUIRE(!ep.path.empty(), "SocketEndpoint: empty unix path");
    DPTD_REQUIRE(ep.path.size() < sizeof(sockaddr_un{}.sun_path),
                 "SocketEndpoint: unix path too long");
    return ep;
  }
  if (spec.rfind("tcp:", 0) == 0) {
    ep.kind = Kind::kTcp;
    const std::string rest = spec.substr(4);
    const std::size_t colon = rest.rfind(':');
    DPTD_REQUIRE(colon != std::string::npos && colon > 0,
                 "SocketEndpoint: expected tcp:host:port");
    ep.host = rest.substr(0, colon);
    const std::string port = rest.substr(colon + 1);
    char* end = nullptr;
    const long value = std::strtol(port.c_str(), &end, 10);
    DPTD_REQUIRE(end && *end == '\0' && value >= 0 && value <= 65535,
                 "SocketEndpoint: invalid port");
    ep.port = static_cast<std::uint16_t>(value);
    in_addr probe{};
    DPTD_REQUIRE(::inet_pton(AF_INET, ep.host.c_str(), &probe) == 1,
                 "SocketEndpoint: host must be a numeric IPv4 address");
    return ep;
  }
  throw std::invalid_argument("SocketEndpoint: expected unix:<path> or tcp:<host>:<port>, got '" +
                              spec + "'");
}

std::string SocketEndpoint::to_string() const {
  if (kind == Kind::kUnix) return "unix:" + path;
  return "tcp:" + host + ":" + std::to_string(port);
}

void SocketTransportConfig::validate() const {
  DPTD_REQUIRE(reconnect_backoff_seconds > 0.0,
               "SocketTransportConfig: backoff must be positive");
  DPTD_REQUIRE(reconnect_backoff_max_seconds >= reconnect_backoff_seconds,
               "SocketTransportConfig: backoff max below initial");
  DPTD_REQUIRE(max_frame_bytes > 0,
               "SocketTransportConfig: max_frame_bytes must be positive");
  DPTD_REQUIRE(drain_window_seconds >= 0.0,
               "SocketTransportConfig: negative drain window");
  if (!listen.empty()) (void)SocketEndpoint::parse(listen);
  for (const auto& [id, spec] : peers) (void)SocketEndpoint::parse(spec);
}

// ---------------------------------------------------------------------------
// Framing

namespace {

/// The frame body's routing header, [varint source][varint destination]
/// [u32 type]; the payload follows it.
std::vector<std::uint8_t> encode_frame_header(const Message& message) {
  Encoder enc;
  enc.write_varint(message.source);
  enc.write_varint(message.destination);
  enc.write_u32(message.type);
  return enc.take();
}

}  // namespace

std::vector<std::uint8_t> SocketTransport::encode_frame_body(
    const Message& message) {
  std::vector<std::uint8_t> body = encode_frame_header(message);
  body.insert(body.end(), message.payload.begin(), message.payload.end());
  return body;
}

Message SocketTransport::decode_frame_body(
    std::span<const std::uint8_t> body) {
  Decoder dec(body);
  Message message;
  message.source = dec.read_varint();
  message.destination = dec.read_varint();
  message.type = dec.read_u32();
  // The payload is everything after the header: the frame's length prefix is
  // the delimiter, so no inner length field to cross-validate.
  const std::span<const std::uint8_t> payload = dec.read_span(dec.remaining());
  message.payload = std::vector<std::uint8_t>(payload.begin(), payload.end());
  return message;
}

// ---------------------------------------------------------------------------
// Lifecycle

SocketTransport::SocketTransport(SocketTransportConfig config)
    : config_(std::move(config)), epoch_(std::chrono::steady_clock::now()) {
  config_.validate();
  if (!config_.listen.empty()) open_listener();
}

SocketTransport::~SocketTransport() {
  for (auto& [fd, conn] : connections_) ::close(fd);
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (!listen_unix_path_.empty()) ::unlink(listen_unix_path_.c_str());
}

void SocketTransport::open_listener() {
  const SocketEndpoint ep = SocketEndpoint::parse(config_.listen);
  if (ep.kind == SocketEndpoint::Kind::kUnix) {
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    DPTD_CHECK(listen_fd_ >= 0, "SocketTransport: socket(AF_UNIX) failed");
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, ep.path.c_str(), sizeof(addr.sun_path) - 1);
    // A previous instance of this endpoint (e.g. a killed shard process)
    // leaves the path behind; rebinding is the restart story.
    ::unlink(ep.path.c_str());
    DPTD_REQUIRE(::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                        sizeof(addr)) == 0,
                 "SocketTransport: bind(" + ep.path + ") failed");
    listen_unix_path_ = ep.path;
    listen_endpoint_ = ep.to_string();
  } else {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    DPTD_CHECK(listen_fd_ >= 0, "SocketTransport: socket(AF_INET) failed");
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(ep.port);
    ::inet_pton(AF_INET, ep.host.c_str(), &addr.sin_addr);
    DPTD_REQUIRE(::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                        sizeof(addr)) == 0,
                 "SocketTransport: bind(" + ep.to_string() + ") failed");
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
    SocketEndpoint actual = ep;
    actual.port = ntohs(bound.sin_port);
    listen_endpoint_ = actual.to_string();
  }
  DPTD_CHECK(::listen(listen_fd_, 64) == 0, "SocketTransport: listen failed");
  set_nonblocking(listen_fd_);
}

double SocketTransport::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

// ---------------------------------------------------------------------------
// Node registry

void SocketTransport::attach(NodeId id, Node& node) {
  DPTD_REQUIRE(!nodes_.count(id), "SocketTransport::attach: id already attached");
  nodes_[id] = &node;
}

void SocketTransport::detach(NodeId id) { nodes_.erase(id); }

bool SocketTransport::attached(NodeId id) const {
  return nodes_.count(id) != 0;
}

std::size_t SocketTransport::undeliverable_to(NodeId destination) const {
  const auto it = undeliverable_by_dest_.find(destination);
  return it == undeliverable_by_dest_.end() ? 0 : it->second;
}

void SocketTransport::count_undeliverable(NodeId destination) {
  ++stats_.messages_undeliverable;
  ++undeliverable_by_dest_[destination];
}

// ---------------------------------------------------------------------------
// Sending and routing

SocketTransport::OutFrame SocketTransport::make_frame(const Message& message) {
  const std::vector<std::uint8_t> header = encode_frame_header(message);
  const std::size_t body = header.size() + message.payload.size();
  DPTD_REQUIRE(body <= config_.max_frame_bytes,
               "SocketTransport: frame exceeds max_frame_bytes");
  // Prefix, header and payload go straight into the frame buffer, so the
  // payload is copied once.
  OutFrame frame;
  frame.destination = message.destination;
  frame.bytes.reserve(kFramePrefixBytes + body);
  frame.bytes.resize(kFramePrefixBytes);
  write_le32(frame.bytes.data(), static_cast<std::uint32_t>(body));
  frame.bytes.insert(frame.bytes.end(), header.begin(), header.end());
  frame.bytes.insert(frame.bytes.end(), message.payload.begin(),
                     message.payload.end());
  return frame;
}

void SocketTransport::send(Message message) {
  const bool loopback = nodes_.count(message.destination) != 0;
  // Frame before counting: an oversize message throws without being counted
  // as sent.
  OutFrame frame = loopback ? OutFrame{} : make_frame(message);
  ++stats_.messages_sent;
  stats_.bytes_sent += message.payload.size();

  if (loopback) {
    // Loopback: same-process destination. Queued, not delivered inline, to
    // honor the Transport contract (and match the simulator's semantics of
    // send() never re-entering node callbacks).
    inbox_.push_back(std::move(message));
    return;
  }
  bool backoff_wait = false;
  const int fd = route_fd(message.destination, &backoff_wait);
  if (fd < 0) {
    if (backoff_wait) {
      // The peer's link is down — connect refused just now, or inside the
      // reconnect-backoff window — but the peer is configured and may be
      // back any moment. Dropping here would silently lose one-way traffic
      // (routed reports have no resend path), so park the frame on the link;
      // it flushes in order on reconnect. Only overflow drops.
      PeerLink& link = links_[message.destination];
      if (link.pending.size() < config_.backoff_queue_max_frames) {
        link.pending.push_back(std::move(frame));
        return;
      }
    }
    count_undeliverable(message.destination);
    return;
  }
  Connection& conn = *connections_.at(fd);
  conn.wbytes += frame.bytes.size();
  conn.wqueue.push_back(std::move(frame));
  // Coalesce: most frames wait for the next poll pass and go out in one
  // gather write. Flush now once the queue fills a gather write, or once it
  // holds more frames than a dying connection could re-park on its link.
  if (conn.wbytes >= kFlushBytes ||
      conn.wqueue.size() > config_.backoff_queue_max_frames) {
    try_flush(conn);
  }
}

int SocketTransport::route_fd(NodeId destination, bool* backoff_wait) {
  const auto pit = config_.peers.find(destination);
  if (pit != config_.peers.end()) {
    PeerLink& link = links_[destination];
    if (link.fd >= 0) return link.fd;
    if (link.backoff == 0.0) link.backoff = config_.reconnect_backoff_seconds;
    if (now() < link.next_attempt) {
      if (backoff_wait != nullptr) *backoff_wait = true;
      return -1;
    }

    const SocketEndpoint ep = SocketEndpoint::parse(pit->second);
    int fd = -1;
    bool connecting = false;
    if (ep.kind == SocketEndpoint::Kind::kUnix) {
      fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
      if (fd >= 0) {
        set_nonblocking(fd);
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        std::strncpy(addr.sun_path, ep.path.c_str(),
                     sizeof(addr.sun_path) - 1);
        if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
            0) {
          if (errno == EINPROGRESS || errno == EAGAIN) {
            connecting = true;
          } else {
            ::close(fd);
            fd = -1;
          }
        }
      }
    } else {
      fd = ::socket(AF_INET, SOCK_STREAM, 0);
      if (fd >= 0) {
        set_nonblocking(fd);
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(ep.port);
        ::inet_pton(AF_INET, ep.host.c_str(), &addr.sin_addr);
        if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
            0) {
          if (errno == EINPROGRESS) {
            connecting = true;
          } else {
            ::close(fd);
            fd = -1;
          }
        }
      }
    }
    if (fd < 0) {
      // Immediate refusal (dead peer): arm the backoff so a resend storm
      // does not busy-connect. The peer is configured and may come back any
      // moment, so this is a park-don't-drop situation exactly like the
      // window itself — signal backoff_wait so send() queues the frame.
      link.next_attempt = now() + link.backoff;
      link.backoff = std::min(link.backoff * 2.0,
                              config_.reconnect_backoff_max_seconds);
      if (backoff_wait != nullptr) *backoff_wait = true;
      return -1;
    }
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    conn->inbound = false;
    conn->connecting = connecting;
    conn->peer = destination;
    // Frames parked during the down window go out first, in send order,
    // ahead of whatever frame triggered this connect.
    for (OutFrame& frame : link.pending) {
      conn->wbytes += frame.bytes.size();
      conn->wqueue.push_back(std::move(frame));
    }
    link.pending.clear();
    connections_[fd] = std::move(conn);
    link.fd = fd;
    return fd;
  }
  const auto sit = source_routes_.find(destination);
  if (sit != source_routes_.end() && connections_.count(sit->second)) {
    return sit->second;
  }
  return -1;
}

void SocketTransport::try_flush(Connection& conn) {
  if (conn.connecting) return;
  std::array<iovec, kMaxGatherFrames> iov;
  while (!conn.wqueue.empty()) {
    // Gather the queue's head; the first frame resumes at the write offset.
    std::size_t count = 0;
    std::size_t offered = 0;
    for (auto it = conn.wqueue.begin();
         it != conn.wqueue.end() && count < iov.size(); ++it, ++count) {
      const std::size_t skip = count == 0 ? conn.woff : 0;
      iov[count].iov_base = it->bytes.data() + skip;
      iov[count].iov_len = it->bytes.size() - skip;
      offered += iov[count].iov_len;
    }
    msghdr msg{};
    msg.msg_iov = iov.data();
    msg.msg_iovlen = count;
    const ssize_t n = ::sendmsg(conn.fd, &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;  // buffer full
      close_connection(conn.fd);
      return;
    }
    made_io_progress_ = true;
    // Retire every fully written frame. A short write can end inside any
    // frame of the gather; the offset then points into that frame.
    std::size_t written = static_cast<std::size_t>(n);
    conn.wbytes -= written;
    while (written > 0) {
      const std::size_t left = conn.wqueue.front().bytes.size() - conn.woff;
      if (written < left) {
        conn.woff += written;
        break;
      }
      written -= left;
      conn.wqueue.pop_front();
      conn.woff = 0;
    }
    if (static_cast<std::size_t>(n) < offered) return;  // short write
  }
}

void SocketTransport::close_connection(int fd) {
  const auto it = connections_.find(fd);
  if (it == connections_.end()) return;
  Connection& conn = *it->second;
  if (conn.inbound) {
    // Source-routed replies queued toward a dying inbound connection die
    // with it (there is no endpoint to reconnect to): counted undeliverable,
    // and the peer's resend re-memoizes the reply.
    for (const OutFrame& frame : conn.wqueue) {
      count_undeliverable(frame.destination);
    }
  } else {
    // Outbound: unwritten frames survive the connection. They re-park on the
    // peer link (bounded; overflow counted undeliverable) and flush on
    // reconnect. The partially written front frame restarts from byte 0 —
    // a new connection is a fresh byte stream, and the receiver counted the
    // truncated copy malformed when the old stream died, so no duplicate.
    PeerLink& link = links_[conn.peer];
    for (OutFrame& frame : conn.wqueue) {
      if (link.pending.size() < config_.backoff_queue_max_frames) {
        link.pending.push_back(std::move(frame));
      } else {
        count_undeliverable(frame.destination);
      }
    }
  }
  if (!conn.rbuf.empty()) ++malformed_frames_;  // peer died mid-frame
  for (auto rit = source_routes_.begin(); rit != source_routes_.end();) {
    if (rit->second == fd) {
      rit = source_routes_.erase(rit);
    } else {
      ++rit;
    }
  }
  if (!conn.inbound) {
    PeerLink& link = links_[conn.peer];
    link.fd = -1;
    link.next_attempt = now() + link.backoff;
    link.backoff =
        std::min(std::max(link.backoff, config_.reconnect_backoff_seconds) * 2.0,
                 config_.reconnect_backoff_max_seconds);
  }
  ::close(fd);
  connections_.erase(it);
}

void SocketTransport::retry_backoff_links() {
  // Collect first: route_fd mutates links_ while opening connections.
  std::vector<NodeId> due;
  for (const auto& [peer, link] : links_) {
    if (link.fd < 0 && !link.pending.empty() && now() >= link.next_attempt) {
      due.push_back(peer);
    }
  }
  for (NodeId peer : due) {
    const int fd = route_fd(peer);  // success moves pending into the wqueue
    if (fd >= 0) try_flush(*connections_.at(fd));
  }
}

// ---------------------------------------------------------------------------
// Receiving

std::size_t SocketTransport::read_ready(Connection& conn) {
  const int fd = conn.fd;
  std::uint8_t buf[kReadChunkBytes];
  for (std::size_t reads = 0;; ++reads) {
    if (reads == kMaxReadsPerPass) {
      read_capped_ = true;  // the socket may hold more: the next pass reads it
      break;
    }
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n > 0) {
      made_io_progress_ = true;
      conn.rbuf.insert(conn.rbuf.end(), buf, buf + n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    // EOF or hard error: deliver what is complete, then tear down. Note
    // parse_frames may already have closed the connection (poisoned prefix),
    // in which case the extra close is a no-op.
    const std::size_t delivered = parse_frames(conn);
    close_connection(fd);
    return delivered;
  }
  return parse_frames(conn);
}

std::size_t SocketTransport::parse_frames(Connection& conn) {
  // Extract every complete frame first, then deliver: on_message handlers
  // send() replies, which can close connections — including, transitively,
  // this one — so no Connection state may be touched after delivery starts.
  std::vector<Message> ready;
  std::size_t consumed = 0;
  bool poisoned = false;
  while (conn.rbuf.size() - consumed >= kFramePrefixBytes) {
    const std::uint32_t len = read_le32(conn.rbuf.data() + consumed);
    if (len > config_.max_frame_bytes) {
      // The prefix itself is untrusted garbage; resync is impossible.
      ++malformed_frames_;
      poisoned = true;
      break;
    }
    if (conn.rbuf.size() - consumed < kFramePrefixBytes + len) break;
    const std::span<const std::uint8_t> body(
        conn.rbuf.data() + consumed + kFramePrefixBytes, len);
    try {
      Message message = decode_frame_body(body);
      // Source routing: the sender is reachable over this connection
      // (last-seen wins), which is how responses find their way back
      // without any peer configuration on the accepting side.
      source_routes_[message.source] = conn.fd;
      ready.push_back(std::move(message));
    } catch (const DecodeError&) {
      // Bad body behind a sane prefix: skip exactly this frame; the stream
      // stays in sync.
      ++malformed_frames_;
    }
    consumed += kFramePrefixBytes + len;
  }
  if (consumed > 0) {
    conn.rbuf.erase(conn.rbuf.begin(),
                    conn.rbuf.begin() + static_cast<std::ptrdiff_t>(consumed));
  }
  const int fd = conn.fd;
  if (poisoned) {
    conn.rbuf.clear();  // already counted malformed once
    close_connection(fd);
  }
  std::size_t delivered = 0;
  for (Message& message : ready) {
    if (deliver(std::move(message))) ++delivered;
  }
  return delivered;
}

bool SocketTransport::deliver(Message message) {
  const auto it = nodes_.find(message.destination);
  if (it == nodes_.end()) {
    count_undeliverable(message.destination);
    return false;
  }
  ++stats_.messages_delivered;
  stats_.bytes_delivered += message.payload.size();
  it->second->on_message(message);
  return true;
}

std::size_t SocketTransport::drain_inbox() {
  std::size_t delivered = 0;
  while (!inbox_.empty()) {
    Message message = std::move(inbox_.front());
    inbox_.pop_front();
    if (deliver(std::move(message))) ++delivered;
  }
  return delivered;
}

void SocketTransport::accept_ready() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return;  // EAGAIN or transient error: next pass retries
    made_io_progress_ = true;
    set_nonblocking(fd);
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    conn->inbound = true;
    connections_[fd] = std::move(conn);
  }
}

// ---------------------------------------------------------------------------
// Progress

void SocketTransport::schedule(double delay, std::function<void()> fn) {
  DPTD_REQUIRE(delay >= 0.0, "SocketTransport::schedule: negative delay");
  timers_.push(Timer{now() + delay, next_timer_seq_++, std::move(fn)});
}

void SocketTransport::fire_due_timers() {
  while (!timers_.empty() && timers_.top().when <= now()) {
    // Copy out before pop: fn may schedule new timers.
    auto fn = timers_.top().fn;
    timers_.pop();
    fn();
  }
}

std::size_t SocketTransport::poll_pass(int timeout_ms) {
  std::vector<pollfd> fds;
  std::vector<int> conn_fds;
  if (listen_fd_ >= 0) {
    fds.push_back(pollfd{listen_fd_, POLLIN, 0});
  }
  for (const auto& [fd, conn] : connections_) {
    short events = POLLIN;
    if (conn->connecting || !conn->wqueue.empty()) events |= POLLOUT;
    fds.push_back(pollfd{fd, events, 0});
    conn_fds.push_back(fd);
  }
  const int n = ::poll(fds.empty() ? nullptr : fds.data(),
                       static_cast<nfds_t>(fds.size()), timeout_ms);
  if (n <= 0) return 0;

  std::size_t delivered = 0;
  std::size_t idx = 0;
  if (listen_fd_ >= 0) {
    if (fds[idx].revents & POLLIN) accept_ready();
    ++idx;
  }
  for (std::size_t i = 0; i < conn_fds.size(); ++i) {
    const int fd = conn_fds[i];
    const short revents = fds[idx + i].revents;
    if (revents == 0) continue;
    const auto it = connections_.find(fd);
    if (it == connections_.end()) continue;  // closed by an earlier handler
    Connection& conn = *it->second;
    if (revents & POLLOUT) {
      if (conn.connecting) {
        int err = 0;
        socklen_t len = sizeof(err);
        ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len);
        if (err != 0) {
          close_connection(fd);
          continue;
        }
        conn.connecting = false;
        links_[conn.peer].backoff = config_.reconnect_backoff_seconds;
      }
      try_flush(conn);
      if (!connections_.count(fd)) continue;  // flush error closed it
    }
    if (revents & POLLIN) {
      delivered += read_ready(conn);
      if (!connections_.count(fd)) continue;
    }
    if ((revents & (POLLERR | POLLHUP)) && !(revents & POLLIN)) {
      close_connection(fd);
    }
  }
  return delivered;
}

std::size_t SocketTransport::poll(double deadline) {
  std::size_t delivered = 0;
  for (;;) {
    fire_due_timers();
    retry_backoff_links();
    delivered += drain_inbox();
    if (delivered > 0) return delivered;

    const double current = now();
    double wait = deadline - current;
    if (!timers_.empty()) {
      wait = std::min(wait, timers_.top().when - current);
    }
    // A link holding parked frames must wake the poll at its retry time:
    // reconnect-and-flush cannot depend on a new send or a timer showing up.
    for (const auto& [peer, link] : links_) {
      if (link.fd < 0 && !link.pending.empty()) {
        wait = std::min(wait, link.next_attempt - current);
      }
    }
    int timeout_ms = 0;
    if (wait > 0.0) {
      timeout_ms = static_cast<int>(std::min<double>(
          std::ceil(wait * 1000.0), kMaxPollTimeoutMs));
      if (timeout_ms < 1) timeout_ms = 1;
    }
    delivered += poll_pass(timeout_ms);
    delivered += drain_inbox();
    if (delivered > 0) {
      fire_due_timers();
      return delivered;
    }
    if (now() >= deadline) {
      fire_due_timers();
      return delivered;
    }
  }
}

std::size_t SocketTransport::run_until_idle() {
  std::size_t total = 0;
  for (;;) {
    fire_due_timers();
    retry_backoff_links();  // no wait here: parked links retry when due
    made_io_progress_ = false;
    read_capped_ = false;
    std::size_t delivered = drain_inbox();
    delivered += poll_pass(0);
    delivered += drain_inbox();
    total += delivered;
    bool pending_writes = false;
    for (const auto& [fd, conn] : connections_) {
      if (!conn->wqueue.empty() && !conn->connecting) {
        pending_writes = true;
        break;
      }
    }
    // A capped read left bytes that are already here: deliverable, not an
    // external wait.
    if (delivered == 0 && !read_capped_ &&
        !(pending_writes && made_io_progress_)) {
      break;
    }
  }
  return total;
}

}  // namespace dptd::net
