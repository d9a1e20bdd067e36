// SocketTransport: framing, routing, reconnect, and stats over real UDS/TCP
// sockets — plus the framing fuzz sweeps (truncation and garbage at every
// byte offset) that mirror the envelope fuzz tests one protocol layer up.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "crowd/protocol.h"
#include "dist/shard_node.h"
#include "dist/stats_wire.h"
#include "net/fault_transport.h"
#include "net/socket_transport.h"

namespace dptd::net {
namespace {

/// Short-lived scratch dir for UDS paths (sun_path is ~108 bytes, so /tmp).
struct TempDir {
  std::string path;
  TempDir() {
    char tmpl[] = "/tmp/dptd_sock_XXXXXX";
    path = mkdtemp(tmpl);
  }
  ~TempDir() { std::filesystem::remove_all(path); }
  std::string sock(const std::string& name) const { return path + "/" + name; }
};

struct CollectNode final : Node {
  std::vector<Message> received;
  void on_message(const Message& message) override {
    received.push_back(message);
  }
};

/// Real-time pump: zero-timeout poll passes over every transport until the
/// predicate holds or the wall-clock budget runs out.
template <typename Pred>
bool pump_until(std::vector<SocketTransport*> transports, Pred pred,
                double timeout_seconds = 5.0) {
  const auto start = std::chrono::steady_clock::now();
  while (true) {
    for (SocketTransport* t : transports) t->poll(t->now());
    if (pred()) return true;
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    if (elapsed > timeout_seconds) return pred();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

Message make_msg(NodeId source, NodeId destination, std::uint32_t type,
                 std::vector<std::uint8_t> payload) {
  Message m;
  m.source = source;
  m.destination = destination;
  m.type = type;
  m.payload = std::move(payload);
  return m;
}

TEST(SocketEndpointTest, ParsesUnixAndTcpSpecs) {
  const SocketEndpoint u = SocketEndpoint::parse("unix:/tmp/x.sock");
  EXPECT_EQ(u.kind, SocketEndpoint::Kind::kUnix);
  EXPECT_EQ(u.path, "/tmp/x.sock");
  EXPECT_EQ(u.to_string(), "unix:/tmp/x.sock");

  const SocketEndpoint t = SocketEndpoint::parse("tcp:127.0.0.1:9000");
  EXPECT_EQ(t.kind, SocketEndpoint::Kind::kTcp);
  EXPECT_EQ(t.host, "127.0.0.1");
  EXPECT_EQ(t.port, 9000);
  EXPECT_EQ(t.to_string(), "tcp:127.0.0.1:9000");

  EXPECT_THROW(SocketEndpoint::parse("bogus"), std::invalid_argument);
  EXPECT_THROW(SocketEndpoint::parse("tcp:localhost:1"),
               std::invalid_argument);
  EXPECT_THROW(SocketEndpoint::parse("tcp:127.0.0.1:notaport"),
               std::invalid_argument);
  EXPECT_THROW(SocketEndpoint::parse("unix:"), std::invalid_argument);
}

TEST(SocketFrameTest, BodyCodecRoundTripsEveryField) {
  const Message original =
      make_msg(123456789, 9'000'000, 42, {0x00, 0xFF, 0x10, 0x20});
  const std::vector<std::uint8_t> body =
      SocketTransport::encode_frame_body(original);
  const Message decoded = SocketTransport::decode_frame_body(body);
  EXPECT_EQ(decoded.source, original.source);
  EXPECT_EQ(decoded.destination, original.destination);
  EXPECT_EQ(decoded.type, original.type);
  EXPECT_EQ(decoded.payload, original.payload);
}

TEST(SocketTransportTest, UdsRoundTripWithSourceRoutedReply) {
  TempDir dir;
  SocketTransportConfig server_cfg;
  server_cfg.listen = "unix:" + dir.sock("b");
  SocketTransport server(server_cfg);
  CollectNode b;
  server.attach(2, b);

  SocketTransportConfig client_cfg;
  client_cfg.peers[2] = server_cfg.listen;
  SocketTransport client(client_cfg);
  CollectNode a;
  client.attach(1, a);

  client.send(make_msg(1, 2, 7, {1, 2, 3}));
  ASSERT_TRUE(pump_until({&client, &server},
                         [&] { return b.received.size() == 1; }));
  EXPECT_EQ(b.received[0].source, 1u);
  EXPECT_EQ(b.received[0].type, 7u);
  EXPECT_EQ(b.received[0].payload, (std::vector<std::uint8_t>{1, 2, 3}));

  // The reply needs zero peer configuration: the server learned node 1's
  // route from the inbound frame (source-route table).
  server.send(make_msg(2, 1, 8, {9}));
  ASSERT_TRUE(pump_until({&client, &server},
                         [&] { return a.received.size() == 1; }));
  EXPECT_EQ(a.received[0].source, 2u);
  EXPECT_EQ(a.received[0].payload, (std::vector<std::uint8_t>{9}));
}

TEST(SocketTransportTest, TcpRoundTripOnEphemeralPort) {
  SocketTransportConfig server_cfg;
  server_cfg.listen = "tcp:127.0.0.1:0";
  SocketTransport server(server_cfg);
  ASSERT_NE(server.listen_endpoint(), "tcp:127.0.0.1:0");  // real port bound
  CollectNode b;
  server.attach(20, b);

  SocketTransportConfig client_cfg;
  client_cfg.peers[20] = server.listen_endpoint();
  SocketTransport client(client_cfg);
  CollectNode a;
  client.attach(10, a);

  client.send(make_msg(10, 20, 3, {0xAB, 0xCD}));
  ASSERT_TRUE(pump_until({&client, &server},
                         [&] { return b.received.size() == 1; }));
  EXPECT_EQ(b.received[0].payload, (std::vector<std::uint8_t>{0xAB, 0xCD}));

  server.send(make_msg(20, 10, 4, {}));
  ASSERT_TRUE(pump_until({&client, &server},
                         [&] { return a.received.size() == 1; }));
}

TEST(SocketTransportTest, LoopbackDeliversThroughPollNeverInline) {
  SocketTransport transport({});
  CollectNode a, b;
  transport.attach(1, a);
  transport.attach(2, b);

  transport.send(make_msg(1, 2, 5, {42}));
  EXPECT_TRUE(b.received.empty());  // queued, not delivered inline

  EXPECT_EQ(transport.poll(transport.now()), 1u);
  ASSERT_EQ(b.received.size(), 1u);
  EXPECT_EQ(b.received[0].payload, (std::vector<std::uint8_t>{42}));
  EXPECT_EQ(transport.stats().messages_delivered, 1u);
  EXPECT_EQ(transport.stats().bytes_delivered, 1u);
}

TEST(SocketTransportTest, LargePayloadSurvivesPartialReadsAndShortWrites) {
  TempDir dir;
  SocketTransportConfig server_cfg;
  server_cfg.listen = "unix:" + dir.sock("big");
  SocketTransport server(server_cfg);
  CollectNode sink;
  server.attach(2, sink);

  SocketTransportConfig client_cfg;
  client_cfg.peers[2] = server_cfg.listen;
  SocketTransport client(client_cfg);

  std::vector<std::uint8_t> payload(1 << 20);  // 1 MiB >> socket buffers
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 2654435761u >> 24);
  }
  client.send(make_msg(1, 2, 9, payload));
  ASSERT_TRUE(pump_until({&client, &server},
                         [&] { return sink.received.size() == 1; }, 10.0));
  EXPECT_EQ(sink.received[0].payload, payload);
  EXPECT_EQ(client.stats().bytes_sent, payload.size());
  EXPECT_EQ(server.stats().bytes_delivered, payload.size());
}

TEST(SocketTransportTest, ByteAccountingMatchesAcrossEndpoints) {
  TempDir dir;
  SocketTransportConfig server_cfg;
  server_cfg.listen = "unix:" + dir.sock("acct");
  SocketTransport server(server_cfg);
  CollectNode sink;
  server.attach(2, sink);

  SocketTransportConfig client_cfg;
  client_cfg.peers[2] = server_cfg.listen;
  SocketTransport client(client_cfg);

  std::size_t expected_bytes = 0;
  for (std::uint8_t n = 1; n <= 10; ++n) {
    client.send(make_msg(1, 2, n, std::vector<std::uint8_t>(n, n)));
    expected_bytes += n;
  }
  ASSERT_TRUE(pump_until({&client, &server},
                         [&] { return sink.received.size() == 10; }));
  // Payload-bytes-only accounting on both sides, symmetric end to end —
  // the satellite the simulator's bytes_delivered mirror also satisfies.
  EXPECT_EQ(client.stats().messages_sent, 10u);
  EXPECT_EQ(client.stats().bytes_sent, expected_bytes);
  EXPECT_EQ(server.stats().messages_delivered, 10u);
  EXPECT_EQ(server.stats().bytes_delivered, expected_bytes);
  EXPECT_EQ(server.malformed_frames(), 0u);
}

void expect_same_stats(const NetworkStats& a, const NetworkStats& b) {
  EXPECT_EQ(a.messages_sent, b.messages_sent);
  EXPECT_EQ(a.messages_delivered, b.messages_delivered);
  EXPECT_EQ(a.messages_dropped, b.messages_dropped);
  EXPECT_EQ(a.messages_undeliverable, b.messages_undeliverable);
  EXPECT_EQ(a.bytes_sent, b.bytes_sent);
  EXPECT_EQ(a.bytes_delivered, b.bytes_delivered);
}

TEST(SocketTransportTest, OversizeFrameIsRefusedBeforeItIsCounted) {
  TempDir dir;
  SocketTransportConfig server_cfg;
  server_cfg.listen = "unix:" + dir.sock("cap");
  SocketTransport server(server_cfg);
  CollectNode sink;
  server.attach(2, sink);

  SocketTransportConfig client_cfg;
  client_cfg.peers[2] = server_cfg.listen;
  client_cfg.max_frame_bytes = 64;
  SocketTransport client(client_cfg);

  client.send(make_msg(1, 2, 1, {1}));
  ASSERT_TRUE(pump_until({&client, &server},
                         [&] { return sink.received.size() == 1; }));

  // A body over max_frame_bytes is a caller error: refused before it is
  // framed, queued or counted.
  const NetworkStats before = client.stats();
  EXPECT_THROW(
      client.send(make_msg(1, 2, 2, std::vector<std::uint8_t>(100, 0xEE))),
      std::invalid_argument);
  expect_same_stats(client.stats(), before);

  // The connection is untouched: the next valid frame still delivers.
  client.send(make_msg(1, 2, 3, {3}));
  ASSERT_TRUE(pump_until({&client, &server},
                         [&] { return sink.received.size() == 2; }));
  EXPECT_EQ(sink.received[1].type, 3u);
  EXPECT_EQ(sink.received[1].payload, (std::vector<std::uint8_t>{3}));
  EXPECT_EQ(client.stats().messages_sent, 2u);
  EXPECT_EQ(client.stats().bytes_sent, 2u);
  EXPECT_EQ(client.stats().messages_undeliverable, 0u);
  EXPECT_EQ(server.malformed_frames(), 0u);
}

TEST(SocketTransportTest, CoalescedFramesSurviveShortGatherWrites) {
  TempDir dir;
  SocketTransportConfig server_cfg;
  server_cfg.listen = "unix:" + dir.sock("gather");
  SocketTransport server(server_cfg);
  CollectNode sink;
  server.attach(2, sink);

  SocketTransportConfig client_cfg;
  client_cfg.peers[2] = server_cfg.listen;
  SocketTransport client(client_cfg);

  // Mostly tiny frames, every 7th a few KB, every 97th ~70 KB: the queue
  // crosses the 64 KiB flush mark, then the kernel buffer fills against the
  // unpolled receiver and thousands of frames pile up, so later gathers are
  // capped at IOV_MAX and short writes end inside frames of a batch.
  constexpr std::size_t kFrames = 4000;
  auto payload_for = [](std::size_t i) {
    std::size_t size = 1 + (i * 17) % 61;
    if (i % 7 == 0) size = 1 + (i * 31) % 4096;
    if (i % 97 == 0) size = 70'000 - i % 13;
    std::vector<std::uint8_t> payload(size);
    for (std::size_t b = 0; b < size; ++b) {
      payload[b] = static_cast<std::uint8_t>((i * 131 + b * 7) >> 1);
    }
    return payload;
  };
  std::size_t total_bytes = 0;
  for (std::size_t i = 0; i < kFrames; ++i) {
    std::vector<std::uint8_t> payload = payload_for(i);
    total_bytes += payload.size();
    client.send(make_msg(1, 2, static_cast<std::uint32_t>(i),
                         std::move(payload)));
  }

  ASSERT_TRUE(pump_until({&client, &server},
                         [&] { return sink.received.size() >= kFrames; },
                         20.0));
  ASSERT_EQ(sink.received.size(), kFrames);
  for (std::size_t i = 0; i < kFrames; ++i) {
    ASSERT_EQ(sink.received[i].type, i) << "frame " << i << " out of order";
    EXPECT_EQ(sink.received[i].source, 1u);
    EXPECT_EQ(sink.received[i].destination, 2u);
    ASSERT_EQ(sink.received[i].payload, payload_for(i)) << "frame " << i;
  }
  EXPECT_EQ(server.malformed_frames(), 0u);
  EXPECT_EQ(client.malformed_frames(), 0u);
  EXPECT_EQ(client.stats().messages_sent, kFrames);
  EXPECT_EQ(client.stats().bytes_sent, total_bytes);
  EXPECT_EQ(server.stats().messages_delivered, kFrames);
  EXPECT_EQ(server.stats().bytes_delivered, total_bytes);
  EXPECT_EQ(client.stats().messages_undeliverable, 0u);
  EXPECT_EQ(server.stats().messages_undeliverable, 0u);
  EXPECT_EQ(client.undeliverable_to(2), 0u);
}

TEST(SocketTransportTest, ForkedWriterStreamArrivesIntactAndInOrder) {
  // A writer process that never waits for its reader: it queues several MiB
  // of frames at once and writes them as fast as the socket takes them,
  // while the reader parses and delivers between bounded read passes. Every
  // frame must arrive whole and in send order. The reader acknowledges the
  // last frame so the writer knows its queue went out before it exits.
  TempDir dir;
  SocketTransportConfig server_cfg;
  server_cfg.listen = "unix:" + dir.sock("stream");
  SocketTransport server(server_cfg);
  CollectNode sink;
  server.attach(2, sink);

  constexpr std::size_t kFrames = 3000;  // about 6 MiB of payload
  auto payload_for = [](std::size_t i) {
    std::vector<std::uint8_t> payload(500 + (i * 37) % 3000);
    for (std::size_t b = 0; b < payload.size(); ++b) {
      payload[b] = static_cast<std::uint8_t>((i * 131 + b * 7) >> 2);
    }
    return payload;
  };

  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    int status = 1;
    {
      SocketTransportConfig client_cfg;
      client_cfg.peers[2] = server_cfg.listen;
      SocketTransport client(client_cfg);
      CollectNode ack;
      client.attach(1, ack);
      for (std::size_t i = 0; i < kFrames; ++i) {
        client.send(
            make_msg(1, 2, static_cast<std::uint32_t>(i), payload_for(i)));
      }
      const double deadline = client.now() + 30.0;
      while (ack.received.empty() && client.now() < deadline) {
        client.poll(client.now() + 0.01);
      }
      status = ack.received.empty() ? 1 : 0;
    }
    _exit(status);
  }

  const bool all = pump_until(
      {&server}, [&] { return sink.received.size() >= kFrames; }, 30.0);
  if (all) server.send(make_msg(2, 1, 0, {1}));  // source-routed back
  int status = 0;
  while (waitpid(pid, &status, WNOHANG) == 0) {
    server.poll(server.now() + 0.01);
  }
  ASSERT_TRUE(all) << sink.received.size() << " of " << kFrames;
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  ASSERT_EQ(sink.received.size(), kFrames);
  for (std::size_t i = 0; i < kFrames; ++i) {
    ASSERT_EQ(sink.received[i].type, i) << "frame " << i << " out of order";
    ASSERT_EQ(sink.received[i].payload, payload_for(i)) << "frame " << i;
  }
  EXPECT_EQ(server.malformed_frames(), 0u);
}

TEST(SocketTransportTest, UnroutableDestinationCountsUndeliverable) {
  SocketTransport transport({});
  transport.send(make_msg(1, 77, 0, {1}));
  EXPECT_EQ(transport.stats().messages_undeliverable, 1u);
  EXPECT_EQ(transport.undeliverable_to(77), 1u);
  EXPECT_EQ(transport.undeliverable_to(78), 0u);
}

TEST(SocketTransportTest, ReconnectsWithBackoffAfterPeerComesUp) {
  TempDir dir;
  const std::string spec = "unix:" + dir.sock("late");

  SocketTransportConfig client_cfg;
  client_cfg.peers[2] = spec;
  client_cfg.reconnect_backoff_seconds = 0.01;
  client_cfg.reconnect_backoff_max_seconds = 0.05;
  SocketTransport client(client_cfg);

  // Peer not up yet: connect fails, the link arms its backoff, and the frame
  // parks on the link (a configured peer may be back any moment).
  client.send(make_msg(1, 2, 1, {1}));
  EXPECT_EQ(client.undeliverable_to(2), 0u);

  SocketTransportConfig server_cfg;
  server_cfg.listen = spec;
  SocketTransport server(server_cfg);
  CollectNode sink;
  server.attach(2, sink);

  // Sends inside the backoff window queue on the peer link (not dropped);
  // after expiry the lazy connect succeeds and the parked frames flush in
  // order ahead of new traffic — the exact cadence the coordinator's
  // timeout-and-resend loop leans on.
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  client.send(make_msg(1, 2, 1, {2}));
  ASSERT_TRUE(pump_until({&client, &server},
                         [&] { return sink.received.size() == 2; }));
  EXPECT_EQ(sink.received[0].payload, (std::vector<std::uint8_t>{1}));
  EXPECT_EQ(sink.received[1].payload, (std::vector<std::uint8_t>{2}));
  EXPECT_EQ(client.undeliverable_to(2), 0u);
}

TEST(SocketTransportTest, BackoffWindowFramesQueueAndFlushOnReconnect) {
  TempDir dir;
  const std::string spec = "unix:" + dir.sock("park");

  SocketTransportConfig client_cfg;
  client_cfg.peers[2] = spec;
  client_cfg.reconnect_backoff_seconds = 0.02;
  client_cfg.reconnect_backoff_max_seconds = 0.05;
  SocketTransport client(client_cfg);

  // First send: connect refused outright — the probe frame parks and the
  // backoff is armed.
  client.send(make_msg(1, 2, 1, {0}));
  EXPECT_EQ(client.undeliverable_to(2), 0u);

  // Sends inside the backoff window park on the link instead of dropping —
  // these are the routed reports with no resend path.
  for (std::uint8_t i = 1; i <= 5; ++i) {
    client.send(make_msg(1, 2, 1, {i}));
  }
  EXPECT_EQ(client.undeliverable_to(2), 0u);  // nothing dropped

  // Peer comes up mid-window. No further send happens: poll() itself must
  // wake at the retry time, reconnect, and flush the queue in order.
  SocketTransportConfig server_cfg;
  server_cfg.listen = spec;
  SocketTransport server(server_cfg);
  CollectNode sink;
  server.attach(2, sink);

  ASSERT_TRUE(pump_until({&client, &server},
                         [&] { return sink.received.size() == 6; }));
  for (std::uint8_t i = 0; i <= 5; ++i) {
    EXPECT_EQ(sink.received[i].payload, std::vector<std::uint8_t>{i});
  }
  EXPECT_EQ(client.undeliverable_to(2), 0u);  // zero loss end to end
}

TEST(SocketTransportTest, BackoffQueueOverflowCountsUndeliverable) {
  TempDir dir;
  SocketTransportConfig client_cfg;
  client_cfg.peers[2] = "unix:" + dir.sock("cap");
  client_cfg.reconnect_backoff_seconds = 5.0;  // stay in the window
  client_cfg.reconnect_backoff_max_seconds = 10.0;
  client_cfg.backoff_queue_max_frames = 3;
  SocketTransport client(client_cfg);

  client.send(make_msg(1, 2, 1, {0}));  // connect refusal: parks (1 of 3)
  EXPECT_EQ(client.undeliverable_to(2), 0u);
  for (std::uint8_t i = 1; i <= 5; ++i) {
    client.send(make_msg(1, 2, 1, {i}));  // 2 more park, then 3 overflow
  }
  EXPECT_EQ(client.undeliverable_to(2), 3u);

  // 0 disables queueing entirely: every backoff-window send drops (the
  // pre-fix behaviour, kept reachable as the regression-test control).
  SocketTransportConfig drop_cfg;
  drop_cfg.peers[2] = "unix:" + dir.sock("cap");
  drop_cfg.reconnect_backoff_seconds = 5.0;
  drop_cfg.reconnect_backoff_max_seconds = 10.0;
  drop_cfg.backoff_queue_max_frames = 0;
  SocketTransport dropper(drop_cfg);
  dropper.send(make_msg(1, 2, 1, {0}));
  dropper.send(make_msg(1, 2, 1, {1}));
  EXPECT_EQ(dropper.undeliverable_to(2), 2u);
}

TEST(SocketTransportTest, BackoffQueueOverflowCountsEachFrameExactlyOnce) {
  // The overflow ledger must be write-once per frame: frames rejected at the
  // cap are counted undeliverable at send time and NEVER touched again, and
  // the parked survivors flush on reconnect without re-walking the counter.
  TempDir dir;
  const std::string spec = "unix:" + dir.sock("once");
  SocketTransportConfig client_cfg;
  client_cfg.peers[2] = spec;
  client_cfg.reconnect_backoff_seconds = 0.02;
  client_cfg.reconnect_backoff_max_seconds = 0.05;
  client_cfg.backoff_queue_max_frames = 3;
  SocketTransport client(client_cfg);

  for (std::uint8_t i = 0; i < 8; ++i) {
    client.send(make_msg(1, 2, 1, {i}));  // 3 park, 5 overflow
  }
  EXPECT_EQ(client.undeliverable_to(2), 5u);
  EXPECT_EQ(client.stats().messages_undeliverable, 5u);

  // Peer comes up: the 3 parked frames flush in order; the 5 overflow
  // frames stay exactly where the ledger put them — counted once, not
  // re-dropped, not resurrected.
  SocketTransportConfig server_cfg;
  server_cfg.listen = spec;
  SocketTransport server(server_cfg);
  CollectNode sink;
  server.attach(2, sink);
  ASSERT_TRUE(pump_until({&client, &server},
                         [&] { return sink.received.size() == 3; }));
  for (std::uint8_t i = 0; i < 3; ++i) {
    EXPECT_EQ(sink.received[i].payload, std::vector<std::uint8_t>{i});
  }
  EXPECT_EQ(client.undeliverable_to(2), 5u);
  EXPECT_EQ(client.stats().messages_undeliverable, 5u);
  EXPECT_EQ(client.stats().messages_sent, 8u);

  // And the ledger keeps counting fresh losses from one: a healthy link
  // delivers without disturbing the historical count.
  client.send(make_msg(1, 2, 1, {9}));
  ASSERT_TRUE(pump_until({&client, &server},
                         [&] { return sink.received.size() == 4; }));
  EXPECT_EQ(client.undeliverable_to(2), 5u);
}

TEST(SocketTransportTest, DyingConnectionRequeuesUnflushedFrames) {
  TempDir dir;
  const std::string spec = "unix:" + dir.sock("die");

  auto server_cfg = SocketTransportConfig{};
  server_cfg.listen = spec;
  auto server = std::make_unique<SocketTransport>(server_cfg);
  CollectNode first_sink;
  server->attach(2, first_sink);

  SocketTransportConfig client_cfg;
  client_cfg.peers[2] = spec;
  client_cfg.reconnect_backoff_seconds = 0.01;
  client_cfg.reconnect_backoff_max_seconds = 0.05;
  SocketTransport client(client_cfg);

  client.send(make_msg(1, 2, 1, {1}));
  ASSERT_TRUE(pump_until({&client, server.get()},
                         [&] { return first_sink.received.size() == 1; }));

  // Kill the server. The client's next writes hit EPIPE/ECONNRESET: the
  // unflushed frames must re-park on the link, not drop.
  server.reset();
  for (int spin = 0; spin < 200; ++spin) {
    client.send(make_msg(1, 2, 1, {9}));
    client.poll(client.now());
    if (client.undeliverable_to(2) > 0 || spin == 199) break;
  }
  const std::size_t dropped = client.undeliverable_to(2);

  // Server returns on the same path: everything parked must flush. Total
  // delivered across both server lifetimes + dropped == total sent.
  auto revived = std::make_unique<SocketTransport>(server_cfg);
  CollectNode second_sink;
  revived->attach(2, second_sink);
  client.send(make_msg(1, 2, 1, {7}));
  ASSERT_TRUE(pump_until({&client, revived.get()},
                         [&] {
                           return !second_sink.received.empty() &&
                                  second_sink.received.back().payload ==
                                      std::vector<std::uint8_t>{7};
                         }));
  // Nothing silently vanished: every send is accounted as delivered (first
  // or second lifetime, including any truncated copy the dying server read)
  // or counted undeliverable.
  EXPECT_GT(second_sink.received.size(), 0u);
  EXPECT_EQ(dropped, client.undeliverable_to(2));  // revival dropped nothing
}

TEST(SocketTransportTest, TimersFireInOrderThroughPoll) {
  SocketTransport transport({});
  std::vector<int> fired;
  transport.schedule(0.002, [&] { fired.push_back(2); });
  transport.schedule(0.001, [&] { fired.push_back(1); });
  transport.schedule(0.001, [&] { fired.push_back(3); });  // FIFO at equal t

  const double deadline = transport.now() + 1.0;
  while (fired.size() < 3 && transport.now() < deadline) {
    transport.poll(transport.now() + 0.01);
  }
  EXPECT_EQ(fired, (std::vector<int>{1, 3, 2}));
}

TEST(SocketTransportTest, DetachedNodeCountsUndeliverableOnDelivery) {
  SocketTransport transport({});
  CollectNode a;
  transport.attach(1, a);
  transport.send(make_msg(1, 1, 0, {5}));
  transport.detach(1);
  transport.poll(transport.now());
  EXPECT_TRUE(a.received.empty());
  EXPECT_EQ(transport.stats().messages_undeliverable, 1u);
  EXPECT_EQ(transport.undeliverable_to(1), 1u);
}

// ---------------------------------------------------------------------------
// Framing fuzz: a raw client speaks bytes at the listener, and the transport
// must never crash, never desync, and keep serving valid frames after.
// ---------------------------------------------------------------------------

/// Blocking raw UDS client for injecting hand-crafted byte streams.
struct RawClient {
  int fd = -1;
  explicit RawClient(const std::string& path) {
    fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      ::close(fd);
      fd = -1;
    }
  }
  ~RawClient() {
    if (fd >= 0) ::close(fd);
  }
  void write_all(const std::uint8_t* data, std::size_t len) const {
    std::size_t off = 0;
    while (off < len) {
      const ssize_t n = ::write(fd, data + off, len - off);
      ASSERT_GT(n, 0);
      off += static_cast<std::size_t>(n);
    }
  }
};

std::vector<std::uint8_t> full_frame(const Message& message) {
  const std::vector<std::uint8_t> body =
      SocketTransport::encode_frame_body(message);
  std::vector<std::uint8_t> frame;
  frame.reserve(4 + body.size());
  const auto len = static_cast<std::uint32_t>(body.size());
  for (int shift = 0; shift < 32; shift += 8) {
    frame.push_back(static_cast<std::uint8_t>(len >> shift));
  }
  frame.insert(frame.end(), body.begin(), body.end());
  return frame;
}

TEST(SocketFramingFuzzTest, TruncationAtEveryByteOffsetNeverCrashes) {
  TempDir dir;
  SocketTransportConfig cfg;
  cfg.listen = "unix:" + dir.sock("trunc");
  SocketTransport server(cfg);
  CollectNode sink;
  server.attach(2, sink);

  const std::vector<std::uint8_t> frame =
      full_frame(make_msg(1, 2, 11, {0xDE, 0xAD, 0xBE, 0xEF}));

  for (std::size_t cut = 0; cut < frame.size(); ++cut) {
    RawClient client(dir.sock("trunc"));
    ASSERT_GE(client.fd, 0) << "cut=" << cut;
    client.write_all(frame.data(), cut);
    // Closing mid-frame: the leftover partial frame must be counted
    // malformed (when any bytes arrived) and never delivered.
    ::shutdown(client.fd, SHUT_WR);
    const std::size_t malformed_before = server.malformed_frames();
    ASSERT_TRUE(pump_until({&server}, [&] {
      return server.malformed_frames() > malformed_before || cut == 0;
    })) << "cut=" << cut;
    EXPECT_TRUE(sink.received.empty()) << "cut=" << cut;
  }

  // The transport is still healthy: one honest frame delivers.
  RawClient client(dir.sock("trunc"));
  ASSERT_GE(client.fd, 0);
  client.write_all(frame.data(), frame.size());
  ASSERT_TRUE(pump_until({&server}, [&] { return sink.received.size() == 1; }));
  EXPECT_EQ(sink.received[0].payload,
            (std::vector<std::uint8_t>{0xDE, 0xAD, 0xBE, 0xEF}));
}

TEST(SocketFramingFuzzTest, GarbageAtEveryBodyByteKeepsStreamInSync) {
  TempDir dir;
  SocketTransportConfig cfg;
  cfg.listen = "unix:" + dir.sock("garble");
  SocketTransport server(cfg);
  CollectNode sink;
  server.attach(2, sink);

  const Message honest = make_msg(1, 2, 11, {0x10, 0x20, 0x30});
  const std::vector<std::uint8_t> frame = full_frame(honest);
  const std::size_t body_size = frame.size() - 4;

  // One connection carries every corrupted frame followed by one honest
  // frame: the length prefix must keep the stream in sync, so each honest
  // chaser is delivered no matter what the corrupted body decoded to.
  RawClient client(dir.sock("garble"));
  ASSERT_GE(client.fd, 0);
  for (std::size_t i = 0; i < body_size; ++i) {
    std::vector<std::uint8_t> corrupted = frame;
    corrupted[4 + i] ^= 0xFF;
    client.write_all(corrupted.data(), corrupted.size());
    client.write_all(frame.data(), frame.size());
    const std::size_t want = i + 1;
    ASSERT_TRUE(pump_until({&server}, [&] {
      std::size_t honest_seen = 0;
      for (const Message& m : sink.received) {
        if (m.payload == honest.payload && m.source == 1 && m.type == 11) {
          ++honest_seen;
        }
      }
      return honest_seen >= want;
    })) << "corrupt offset " << i;
  }

  // Deliberately undecodable bodies (truncated varint, missing fields, short
  // type word) behind honest length prefixes: each is counted malformed and
  // skipped, and the honest chaser behind it still delivers.
  const std::vector<std::vector<std::uint8_t>> poison_bodies = {
      {0x80},              // varint with continuation bit but no next byte
      {0x01},              // source only, destination missing
      {0x01, 0x02, 0x00},  // type word cut short
  };
  std::size_t honest_base = 0;
  for (const Message& m : sink.received) {
    if (m.payload == honest.payload && m.source == 1 && m.type == 11) {
      ++honest_base;
    }
  }
  for (std::size_t p = 0; p < poison_bodies.size(); ++p) {
    const std::vector<std::uint8_t>& body = poison_bodies[p];
    std::vector<std::uint8_t> bad;
    const auto len = static_cast<std::uint32_t>(body.size());
    for (int shift = 0; shift < 32; shift += 8) {
      bad.push_back(static_cast<std::uint8_t>(len >> shift));
    }
    bad.insert(bad.end(), body.begin(), body.end());
    client.write_all(bad.data(), bad.size());
    client.write_all(frame.data(), frame.size());
    const std::size_t want = honest_base + p + 1;
    ASSERT_TRUE(pump_until({&server}, [&] {
      std::size_t honest_seen = 0;
      for (const Message& m : sink.received) {
        if (m.payload == honest.payload && m.source == 1 && m.type == 11) {
          ++honest_seen;
        }
      }
      return honest_seen >= want;
    })) << "poison body " << p;
  }
  EXPECT_EQ(server.malformed_frames(), poison_bodies.size());
}

TEST(SocketFramingFuzzTest, InsaneLengthPrefixClosesConnection) {
  TempDir dir;
  SocketTransportConfig cfg;
  cfg.listen = "unix:" + dir.sock("huge");
  cfg.max_frame_bytes = 1024;
  SocketTransport server(cfg);
  CollectNode sink;
  server.attach(2, sink);

  RawClient client(dir.sock("huge"));
  ASSERT_GE(client.fd, 0);
  const std::uint8_t poisoned[4] = {0xFF, 0xFF, 0xFF, 0x7F};
  client.write_all(poisoned, 4);
  ASSERT_TRUE(
      pump_until({&server}, [&] { return server.malformed_frames() > 0; }));
  // The server hung up on us: our next write eventually fails or the
  // connection count shows the close; either way no delivery happened.
  EXPECT_TRUE(sink.received.empty());
}

// ---------------------------------------------------------------------------
// Corruption over real sockets: rotten payloads behind honest length
// prefixes must be counted at the right layer (framing vs shard protocol)
// without desyncing the byte stream or moving the shard's exactly-once
// watermark.
// ---------------------------------------------------------------------------

std::vector<std::uint8_t> telemetry_request(std::uint64_t op_id) {
  crowd::StatsEnvelope env;
  env.op_id = op_id;
  env.op = static_cast<std::uint8_t>(dist::ShardOp::kGetTelemetry);
  return env.encode();
}

constexpr std::uint32_t kShardRequestType =
    static_cast<std::uint32_t>(crowd::MessageType::kShardRequest);

TEST(SocketShardHardeningTest, CorruptFramesAndStaleOpsNeverMoveTheWatermark) {
  TempDir dir;
  SocketTransportConfig cfg;
  cfg.listen = "unix:" + dir.sock("shard");
  SocketTransport server(cfg);
  dist::ShardNode node(2, server);

  RawClient client(dir.sock("shard"));
  ASSERT_GE(client.fd, 0);

  // A valid telemetry op establishes the watermark at 5.
  const std::vector<std::uint8_t> op5 =
      full_frame(make_msg(1, 2, kShardRequestType, telemetry_request(5)));
  client.write_all(op5.data(), op5.size());
  ASSERT_TRUE(pump_until({&server}, [&] { return node.op_watermark() == 5u; }));

  // (a) Undecodable frame body behind an honest length prefix: counted at
  // the framing layer; the shard protocol never sees it.
  const std::uint8_t poison[5] = {0x01, 0x00, 0x00, 0x00, 0x80};
  client.write_all(poison, sizeof(poison));
  ASSERT_TRUE(
      pump_until({&server}, [&] { return server.malformed_frames() == 1; }));

  // (b) Honest frame whose shard-request payload is a rotten envelope: the
  // framing layer routes it cleanly, the shard counts it malformed and does
  // not execute.
  const std::vector<std::uint8_t> garbage =
      full_frame(make_msg(1, 2, kShardRequestType, {0xFF}));
  client.write_all(garbage.data(), garbage.size());
  ASSERT_TRUE(
      pump_until({&server}, [&] { return node.malformed_messages() == 1; }));
  EXPECT_EQ(server.malformed_frames(), 1u);

  // (c) A delayed duplicate below the watermark: counted stale, not
  // re-executed.
  const std::vector<std::uint8_t> stale =
      full_frame(make_msg(1, 2, kShardRequestType, telemetry_request(3)));
  client.write_all(stale.data(), stale.size());
  ASSERT_TRUE(
      pump_until({&server}, [&] { return node.stale_requests() == 1; }));

  // Nothing above moved the watermark, and the stream never desynced: the
  // next valid op on the same connection executes normally.
  EXPECT_EQ(node.op_watermark(), 5u);
  const std::vector<std::uint8_t> op6 =
      full_frame(make_msg(1, 2, kShardRequestType, telemetry_request(6)));
  client.write_all(op6.data(), op6.size());
  ASSERT_TRUE(pump_until({&server}, [&] { return node.op_watermark() == 6u; }));
  EXPECT_EQ(node.malformed_messages(), 1u);
  EXPECT_EQ(node.stale_requests(), 1u);
}

TEST(SocketShardHardeningTest, InjectedTruncationIsCountedWithoutDesyncing) {
  // FaultInjectionTransport truncates the *payload* before the framing
  // layer writes its honest length prefix — the frame itself stays valid, so
  // the corruption must surface as a shard-level DecodeError (counted, no
  // execution, no reply), never as a framing error or a stream desync.
  TempDir dir;
  const std::string spec = "unix:" + dir.sock("fault");
  SocketTransportConfig server_cfg;
  server_cfg.listen = spec;
  SocketTransport server(server_cfg);
  dist::ShardNode node(2, server);

  SocketTransportConfig client_cfg;
  client_cfg.peers[2] = spec;
  SocketTransport client(client_cfg);
  CollectNode replies;
  client.attach(1, replies);

  FaultSchedule schedule;
  schedule.seed = 7;
  schedule.rpc.truncate_probability = 1.0;
  FaultInjectionTransport faulty(client, schedule);

  faulty.send(make_msg(1, 2, kShardRequestType, telemetry_request(5)));
  ASSERT_TRUE(pump_until({&client, &server},
                         [&] { return node.malformed_messages() == 1; }));
  EXPECT_EQ(faulty.fault_stats().truncations, 1u);
  EXPECT_EQ(server.malformed_frames(), 0u);  // honest prefix, rotten payload
  EXPECT_EQ(client.malformed_frames(), 0u);
  EXPECT_FALSE(node.op_watermark().has_value());
  EXPECT_TRUE(replies.received.empty());

  // The same op sent past the decorator executes and replies source-routed:
  // the truncated frame left both byte streams perfectly in sync.
  client.send(make_msg(1, 2, kShardRequestType, telemetry_request(6)));
  ASSERT_TRUE(pump_until({&client, &server},
                         [&] { return replies.received.size() == 1; }));
  EXPECT_EQ(node.op_watermark(), 6u);
  EXPECT_EQ(replies.received[0].type,
            static_cast<std::uint32_t>(crowd::MessageType::kShardResponse));
  EXPECT_EQ(node.malformed_messages(), 1u);
}

}  // namespace
}  // namespace dptd::net
