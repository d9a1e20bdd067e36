// Shared machinery of the end-to-end round benchmark: clocks and process
// accounting, result digests, the in-memory span tracer, the bench-side
// transport seam, forked shard fleets, and the pre-encoded report streams
// every workload replays.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "crowd/protocol.h"
#include "net/transport.h"
#include "truth/interface.h"

namespace dptd::bench {

inline constexpr net::NodeId kServerId = 9'000'000;
inline constexpr net::NodeId kShardBase = 8'000'000;
/// Every workload runs K = 3 shards: with the single producer thread that
/// keeps the busy threads (or processes) at nproc = 4.
inline constexpr std::size_t kNumShards = 3;
/// Reports handed over between two transport progress calls.
inline constexpr std::size_t kPumpEvery = 4'096;

// ---------------------------------------------------------------------------
// Clocks, statistics, process accounting.

/// Seconds on the monotonic clock since process start.
double wall_s();
/// CPU seconds of this process, all threads.
double cpu_s();
/// utime + stime of another process, from /proc/<pid>/stat.
double proc_cpu_s(pid_t pid);
/// VmHWM of a process (0 = this one), from /proc/<pid>/status, in MB.
double proc_peak_rss_mb(pid_t pid);
/// VmRSS of this process, in MB.
double rss_mb();

double median(std::vector<double> values);
/// Linear-interpolated quantile, q in [0, 1].
double quantile(std::vector<double> values, double q);
double mean(const std::vector<double>& values);

// ---------------------------------------------------------------------------
// Digests: FNV-1a over the raw IEEE-754 bits of every truth, then every
// weight. Any bit that differs changes the digest (barring a 64-bit
// collision).

std::uint64_t bit_digest(std::span<const double> values,
                         std::uint64_t hash = 14695981039346656037ull);
std::uint64_t result_digest(const truth::Result& result);
std::string hex(std::uint64_t value);

// ---------------------------------------------------------------------------
// Tracing: spans recorded in memory around the calls the driver makes into a
// layer, written as Chrome trace-event JSON at exit. Disabled spans cost one
// branch.

class Tracer {
 public:
  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }
  /// Starts a new trace round: every span opened until the next call shares
  /// this id.
  std::uint64_t next_round() { return ++round_; }

  /// Opens a span nested under the innermost open one; returns its id (0
  /// when disabled).
  std::size_t open(const char* name);
  /// Closes span `id` (must be the innermost open one), attaching counts.
  void close(std::size_t id,
             std::initializer_list<std::pair<const char*, double>> counts = {});
  /// Records an already finished span under the innermost open one; `lane`
  /// separates concurrent spans (one lane per shard).
  void add(const char* name, double start_s, double end_s, std::size_t lane,
           std::initializer_list<std::pair<const char*, double>> counts = {});

  void write(const std::string& path) const;

 private:
  struct Span {
    const char* name = "";
    double start_s = 0.0;
    double end_s = 0.0;
    std::size_t id = 0;
    std::size_t parent = 0;
    std::uint64_t round = 0;
    std::size_t lane = 0;
  };
  struct Count {
    std::size_t span = 0;
    const char* key = "";
    double value = 0.0;
  };

  bool enabled_ = false;
  std::uint64_t round_ = 0;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;  ///< indices into spans_
  std::vector<Count> counts_;
};

Tracer& tracer();

/// RAII span on the global tracer.
class Scope {
 public:
  explicit Scope(const char* name) : id_(tracer().open(name)) {}
  ~Scope() { tracer().close(id_, {}); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  std::size_t id_;
};

// ---------------------------------------------------------------------------
// The bench-side transport seam. Wraps the transport the server (or
// coordinator) runs on:
//  - Messages to a device id (below `num_devices`) are consumed at send:
//    counted sent and delivered, never queued. A queued million-user
//    ResultPublish fan-out would hold a 8 KB payload copy per device.
//  - Shard RPCs are tapped: request send and response arrival times give the
//    per-RPC spans and the moment the last kFinalizeIngest reply arrived
//    (every routed report ingested and finalized).
class BenchTransport final : public net::Transport {
 public:
  BenchTransport(net::Transport& inner, std::size_t num_devices);
  ~BenchTransport() override;

  void attach(net::NodeId id, net::Node& node) override;
  void detach(net::NodeId id) override;
  bool attached(net::NodeId id) const override;
  void send(net::Message message) override;
  double now() const override { return inner_->now(); }
  std::size_t poll(double deadline) override { return inner_->poll(deadline); }
  std::size_t run_until_idle() override { return inner_->run_until_idle(); }
  void schedule(double delay, std::function<void()> fn) override {
    inner_->schedule(delay, std::move(fn));
  }
  const net::NetworkStats& stats() const override;
  std::size_t undeliverable_to(net::NodeId destination) const override {
    return inner_->undeliverable_to(destination);
  }
  double drain_window_seconds() const override {
    return inner_->drain_window_seconds();
  }

  /// Wall time (wall_s) the last kFinalizeIngest response arrived.
  double last_finalize_reply_s() const { return last_finalize_reply_s_; }
  /// kShardRequest frames sent, resends included.
  std::size_t rpc_requests() const { return rpc_requests_; }

 private:
  class Tap;
  void on_response(const net::Message& message);

  net::Transport* inner_;
  std::size_t num_devices_;
  std::unordered_map<net::NodeId, std::unique_ptr<Tap>> taps_;
  net::NetworkStats edge_;
  mutable net::NetworkStats combined_;
  struct InFlight {
    double sent_s = 0.0;
    std::uint8_t op = 0;
    net::NodeId shard = 0;
  };
  std::unordered_map<std::uint64_t, InFlight> in_flight_;
  double last_finalize_reply_s_ = 0.0;
  std::size_t rpc_requests_ = 0;
};

// ---------------------------------------------------------------------------
// K shard processes serving over Unix-domain sockets under `dir` (a path
// relative to the working directory keeps sun_path short). Each process is
// this executable re-run in shard mode, so its memory is its own. The
// destructor stops and reaps every process.

class ShardFleet {
 public:
  ShardFleet(std::size_t num_shards, const std::string& dir);
  ~ShardFleet();
  ShardFleet(const ShardFleet&) = delete;
  ShardFleet& operator=(const ShardFleet&) = delete;

  const std::unordered_map<net::NodeId, std::string>& peers() const {
    return peers_;
  }
  const std::vector<net::NodeId>& ids() const { return ids_; }
  double cpu_s() const;
  double peak_rss_mb() const;
  /// Orderly exit: kShutdown to every shard over `transport`, then reap.
  void shutdown(net::Transport& transport);

 private:
  void reap(bool kill_first);

  std::string dir_;
  std::vector<pid_t> pids_;
  std::vector<net::NodeId> ids_;
  std::unordered_map<net::NodeId, std::string> peers_;
};

/// Shard-mode entry point (argv carries --shard-listen/--shard-id/--parent).
int run_shard_process(const std::string& listen, net::NodeId id, pid_t parent);

// ---------------------------------------------------------------------------
// A round's reports: the claims (for reference matrices and kernels) plus
// their wire form in send order.

struct Stream {
  bool labels = false;  ///< kLabelReport uploads (label ids in `values`)
  std::size_t num_objects = 0;
  std::size_t num_labels = 0;
  std::size_t block_size = 0;
  std::size_t threads = 1;         ///< truth-discovery pool (0 = every core)
  std::size_t ingest_threads = 0;  ///< ShardedServer ingest workers
  std::uint64_t seed = 0;
  std::uint64_t round = 1;         ///< the round encoded in `bytes`
  std::vector<net::NodeId> participants;  ///< roster, row order
  std::vector<std::size_t> claim_begin;   ///< per row, size rows + 1
  std::vector<std::uint64_t> objects;
  std::vector<double> values;             ///< perturbed readings / label ids
  std::vector<double> ground_truth;       ///< per object
  /// Encoded reports in send order; duplicates re-send a row's bytes.
  std::vector<std::uint8_t> bytes;
  std::vector<std::size_t> offsets;       ///< size reports + 1
  std::vector<std::size_t> send_rows;     ///< row of each report

  std::size_t rows() const { return participants.size(); }
  std::size_t reports() const { return send_rows.size(); }
  std::size_t claims() const { return objects.size(); }
  std::span<const std::uint64_t> row_objects(std::size_t row) const {
    return {objects.data() + claim_begin[row],
            claim_begin[row + 1] - claim_begin[row]};
  }
  std::span<const double> row_values(std::size_t row) const {
    return {values.data() + claim_begin[row],
            claim_begin[row + 1] - claim_begin[row]};
  }
  std::span<const std::uint8_t> payload(std::size_t i) const {
    return {bytes.data() + offsets[i], offsets[i + 1] - offsets[i]};
  }
  crowd::MessageType type() const {
    return labels ? crowd::MessageType::kLabelReport
                  : crowd::MessageType::kReport;
  }
  /// The wire form of row `row`'s upload at `round`, carrying `values` (its
  /// claims' readings or label ids).
  std::vector<std::uint8_t> encode(std::size_t row,
                                   std::span<const double> values) const;
  net::Message message(std::size_t i) const;
  /// Re-encodes the round field of every report in place (the leading
  /// varint; rounds stay below 128 so its width never changes).
  void set_round(std::uint64_t round);
};

/// The sharded reference matrix of a stream, built straight from its claims
/// (first report per row wins, like every server's dedup).
data::ShardedMatrix reference_matrix(const Stream& stream);
/// The in-process twin of the stream's round method.
std::unique_ptr<truth::TruthDiscovery> make_round_method(const Stream& stream);

// ---------------------------------------------------------------------------
// Named results.

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class MetricSet {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  /// Sets `name` only if nothing has set it yet.
  void fallback(const std::string& name, double value, const std::string& unit);
  const std::vector<Metric>& items() const { return items_; }
  const Metric* find(const std::string& name) const;

 private:
  std::vector<Metric> items_;
};

}  // namespace dptd::bench
