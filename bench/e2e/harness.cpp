#include "harness.h"

#include <signal.h>
#include <spawn.h>
#include <sys/prctl.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "common/check.h"
#include "common/json_writer.h"
#include "common/serialize.h"
#include "data/builder.h"
#include "dist/shard_node.h"
#include "dist/stats_wire.h"
#include "net/socket_transport.h"
#include "truth/categorical.h"
#include "truth/crh.h"

extern char** environ;

namespace dptd::bench {

namespace {

const std::chrono::steady_clock::time_point kEpoch =
    std::chrono::steady_clock::now();

}  // namespace

double wall_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       kEpoch)
      .count();
}

double cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double proc_cpu_s(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string line;
  if (!std::getline(in, line)) return 0.0;
  // Fields after the parenthesised command name start at field 3 (state);
  // utime and stime are fields 14 and 15.
  const std::size_t close = line.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream fields(line.substr(close + 1));
  std::string field;
  double ticks = 0.0;
  for (int index = 3; index <= 15 && fields >> field; ++index) {
    if (index >= 14) ticks += std::stod(field);
  }
  return ticks / static_cast<double>(sysconf(_SC_CLK_TCK));
}

namespace {

/// A "Vm...:  <n> kB" field of /proc/<pid>/status, in MB.
double status_mb(pid_t pid, const std::string& field) {
  std::ifstream in(pid == 0 ? std::string("/proc/self/status")
                            : "/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(field, 0) == 0) {
      return std::stod(line.substr(field.size())) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

}  // namespace

double proc_peak_rss_mb(pid_t pid) { return status_mb(pid, "VmHWM:"); }

double rss_mb() { return status_mb(0, "VmRSS:"); }

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

std::uint64_t bit_digest(std::span<const double> values, std::uint64_t hash) {
  for (const double value : values) {
    std::uint64_t bits = std::bit_cast<std::uint64_t>(value);
    for (int i = 0; i < 8; ++i) {
      hash ^= bits & 0xFF;
      hash *= 1099511628211ull;
      bits >>= 8;
    }
  }
  return hash;
}

std::uint64_t result_digest(const truth::Result& result) {
  return bit_digest(result.weights, bit_digest(result.truths));
}

std::string hex(std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

// ---------------------------------------------------------------------------
// Tracer

Tracer& tracer() {
  static Tracer instance;
  return instance;
}

std::size_t Tracer::open(const char* name) {
  if (!enabled_) return 0;
  Span span;
  span.name = name;
  span.start_s = wall_s();
  span.id = spans_.size() + 1;
  span.parent = open_.empty() ? 0 : spans_[open_.back()].id;
  span.round = round_;
  spans_.push_back(span);
  open_.push_back(spans_.size() - 1);
  return span.id;
}

void Tracer::close(
    std::size_t id,
    std::initializer_list<std::pair<const char*, double>> counts) {
  if (id == 0) return;
  spans_[id - 1].end_s = wall_s();
  if (!open_.empty() && open_.back() == id - 1) open_.pop_back();
  for (const auto& [key, value] : counts) counts_.push_back({id, key, value});
}

void Tracer::add(const char* name, double start_s, double end_s,
                 std::size_t lane,
                 std::initializer_list<std::pair<const char*, double>> counts) {
  if (!enabled_) return;
  Span span;
  span.name = name;
  span.start_s = start_s;
  span.end_s = end_s;
  span.id = spans_.size() + 1;
  span.parent = open_.empty() ? 0 : spans_[open_.back()].id;
  span.round = round_;
  span.lane = lane;
  spans_.push_back(span);
  for (const auto& [key, value] : counts) {
    counts_.push_back({span.id, key, value});
  }
}

void Tracer::write(const std::string& path) const {
  std::vector<std::vector<const Count*>> by_span(spans_.size() + 1);
  for (const Count& count : counts_) by_span[count.span].push_back(&count);

  std::ofstream out(path);
  DPTD_CHECK(out.good(), "cannot write trace file " + path);
  JsonWriter json(out);
  json.begin_object().key("displayTimeUnit").value("ms");
  json.key("traceEvents").begin_array();
  for (const Span& span : spans_) {
    const double end = std::max(span.end_s, span.start_s);
    json.begin_object();
    json.key("name").value(span.name);
    json.key("cat").value("dptd");
    json.key("ph").value("X");
    json.key("ts").value(span.start_s * 1e6);
    json.key("dur").value((end - span.start_s) * 1e6);
    json.key("pid").value(std::size_t{1});
    json.key("tid").value(span.lane + 1);
    json.key("args").begin_object();
    json.key("span").value(span.id);
    json.key("parent").value(span.parent);
    json.key("round").value(static_cast<std::size_t>(span.round));
    for (const Count* count : by_span[span.id]) {
      json.key(count->key).value(count->value);
    }
    json.end_object();
    json.end_object();
  }
  json.end_array().end_object();
  out << '\n';
}

// ---------------------------------------------------------------------------
// BenchTransport

namespace {

const char* rpc_span_name(std::uint8_t op) {
  switch (static_cast<dist::ShardOp>(op)) {
    case dist::ShardOp::kSetup: return "dist.rpc.setup";
    case dist::ShardOp::kFinalizeIngest: return "dist.rpc.finalize_ingest";
    case dist::ShardOp::kSetWeights: return "dist.rpc.set_weights";
    case dist::ShardOp::kMoments: return "dist.rpc.moments";
    case dist::ShardOp::kGather: return "dist.rpc.gather";
    case dist::ShardOp::kAggregate: return "dist.rpc.aggregate";
    case dist::ShardOp::kCollectWeights: return "dist.rpc.collect_weights";
    case dist::ShardOp::kCrhPrepare: return "dist.rpc.crh_prepare";
    case dist::ShardOp::kCrhLoss: return "dist.rpc.crh_loss";
    case dist::ShardOp::kCrhWeights: return "dist.rpc.crh_weights";
    case dist::ShardOp::kVotePrepare: return "dist.rpc.vote_prepare";
    case dist::ShardOp::kVoteScores: return "dist.rpc.vote_scores";
    case dist::ShardOp::kVoteDisagree: return "dist.rpc.vote_disagree";
    case dist::ShardOp::kVoteWeights: return "dist.rpc.vote_weights";
    case dist::ShardOp::kGetTelemetry: return "dist.rpc.telemetry";
    case dist::ShardOp::kBatch: return "dist.rpc.batch";
    default: return "dist.rpc.other";
  }
}

/// (op_id, op) of an encoded StatsEnvelope, without copying its body.
bool peek_envelope(const net::Message& message, std::uint64_t& op_id,
                   std::uint8_t& op) {
  try {
    Decoder dec(message.payload);
    op_id = dec.read_varint();
    op = dec.read_u8();
    return true;
  } catch (const DecodeError&) {
    return false;
  }
}

}  // namespace

class BenchTransport::Tap final : public net::Node {
 public:
  Tap(BenchTransport& owner, net::Node& node) : owner_(&owner), node_(&node) {}
  void on_message(const net::Message& message) override {
    if (message.type ==
        static_cast<std::uint32_t>(crowd::MessageType::kShardResponse)) {
      owner_->on_response(message);
    }
    node_->on_message(message);
  }

 private:
  BenchTransport* owner_;
  net::Node* node_;
};

BenchTransport::BenchTransport(net::Transport& inner, std::size_t num_devices)
    : inner_(&inner), num_devices_(num_devices) {}

BenchTransport::~BenchTransport() {
  for (const auto& [id, tap] : taps_) inner_->detach(id);
}

void BenchTransport::attach(net::NodeId id, net::Node& node) {
  auto tap = std::make_unique<Tap>(*this, node);
  inner_->attach(id, *tap);
  taps_[id] = std::move(tap);
}

void BenchTransport::detach(net::NodeId id) {
  inner_->detach(id);
  taps_.erase(id);
}

bool BenchTransport::attached(net::NodeId id) const {
  return inner_->attached(id);
}

void BenchTransport::send(net::Message message) {
  if (message.destination < num_devices_) {
    ++edge_.messages_sent;
    ++edge_.messages_delivered;
    edge_.bytes_sent += message.payload.size();
    edge_.bytes_delivered += message.payload.size();
    return;
  }
  if (message.type ==
      static_cast<std::uint32_t>(crowd::MessageType::kShardRequest)) {
    ++rpc_requests_;
    std::uint64_t op_id = 0;
    std::uint8_t op = 0;
    if (tracer().enabled() && peek_envelope(message, op_id, op)) {
      in_flight_[op_id] = InFlight{wall_s(), op, message.destination};
    }
  }
  inner_->send(std::move(message));
}

void BenchTransport::on_response(const net::Message& message) {
  std::uint64_t op_id = 0;
  std::uint8_t op = 0;
  if (!peek_envelope(message, op_id, op)) return;
  const double now = wall_s();
  if (op == static_cast<std::uint8_t>(dist::ShardOp::kFinalizeIngest)) {
    last_finalize_reply_s_ = now;
  }
  const auto it = in_flight_.find(op_id);
  if (it == in_flight_.end()) return;
  tracer().add(rpc_span_name(it->second.op), it->second.sent_s, now,
               1 + (it->second.shard - kShardBase) % 16,
               {{"reply_bytes", static_cast<double>(message.payload.size())}});
  in_flight_.erase(it);
}

const net::NetworkStats& BenchTransport::stats() const {
  combined_ = inner_->stats();
  combined_.messages_sent += edge_.messages_sent;
  combined_.messages_delivered += edge_.messages_delivered;
  combined_.bytes_sent += edge_.bytes_sent;
  combined_.bytes_delivered += edge_.bytes_delivered;
  return combined_;
}

// ---------------------------------------------------------------------------
// ShardFleet

namespace {

std::string ready_marker(const std::string& socket_path) {
  return socket_path + ".ready";
}

bool exists(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0;
}

}  // namespace

ShardFleet::ShardFleet(std::size_t num_shards, const std::string& dir)
    : dir_(dir) {
  std::filesystem::create_directories(dir_);
  const std::string parent = std::to_string(getpid());
  try {
    for (std::size_t i = 0; i < num_shards; ++i) {
      const net::NodeId id = kShardBase + i;
      const std::string path = dir_ + "/s" + std::to_string(i) + ".sock";
      std::filesystem::remove(path);
      std::filesystem::remove(ready_marker(path));
      std::string arg_listen = "--shard-listen=unix:" + path;
      std::string arg_id = "--shard-id=" + std::to_string(id);
      std::string arg_parent = "--parent=" + parent;
      char* argv[] = {const_cast<char*>("dptd_bench_e2e"), arg_listen.data(),
                      arg_id.data(), arg_parent.data(), nullptr};
      pid_t pid = 0;
      const int rc = posix_spawn(&pid, "/proc/self/exe", nullptr, nullptr,
                                 argv, environ);
      DPTD_CHECK(rc == 0, "ShardFleet: posix_spawn failed");
      pids_.push_back(pid);
      ids_.push_back(id);
      peers_[id] = "unix:" + path;
    }
    // A shard writes its marker once its listener is up, so the first
    // connect never races the bind.
    const double deadline = wall_s() + 20.0;
    for (std::size_t i = 0; i < num_shards; ++i) {
      const std::string path = dir_ + "/s" + std::to_string(i) + ".sock";
      while (!exists(ready_marker(path))) {
        DPTD_CHECK(wall_s() < deadline, "ShardFleet: shard did not start");
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    }
  } catch (...) {
    reap(/*kill_first=*/true);
    throw;
  }
}

ShardFleet::~ShardFleet() {
  reap(/*kill_first=*/true);
  std::error_code ignored;
  std::filesystem::remove_all(dir_, ignored);
}

double ShardFleet::cpu_s() const {
  double total = 0.0;
  for (pid_t pid : pids_) total += proc_cpu_s(pid);
  return total;
}

double ShardFleet::peak_rss_mb() const {
  double total = 0.0;
  for (pid_t pid : pids_) total += proc_peak_rss_mb(pid);
  return total;
}

void ShardFleet::shutdown(net::Transport& transport) {
  for (net::NodeId id : ids_) {
    transport.send(crowd::make_message(kServerId, id,
                                       crowd::MessageType::kShutdown, {}));
  }
  transport.run_until_idle();
  transport.drain_for(transport.drain_window_seconds());
  reap(/*kill_first=*/false);
}

void ShardFleet::reap(bool kill_first) {
  const double deadline = wall_s() + (kill_first ? 0.0 : 10.0);
  for (pid_t pid : pids_) {
    int status = 0;
    while (waitpid(pid, &status, WNOHANG) == 0) {
      if (wall_s() >= deadline) {
        kill(pid, SIGKILL);
        waitpid(pid, &status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
  pids_.clear();
}

int run_shard_process(const std::string& listen, net::NodeId id,
                      pid_t parent) {
  // Die with the driver: a crashed benchmark must not leave shards behind.
  prctl(PR_SET_PDEATHSIG, SIGKILL);
  if (getppid() != parent) return 1;
  net::SocketTransportConfig config;
  config.listen = listen;
  net::SocketTransport transport(config);
  dist::ShardNode node(id, transport);
  { std::ofstream(ready_marker(listen.substr(5))) << "ready\n"; }
  dist::ShardServiceConfig service;
  service.idle_timeout_seconds = 300.0;
  dist::serve_shard(transport, node, service);
  return 0;
}

// ---------------------------------------------------------------------------
// Streams

std::vector<std::uint8_t> Stream::encode(
    std::size_t row, std::span<const double> values) const {
  const auto row_objects_of = row_objects(row);
  if (labels) {
    crowd::LabelReport report;
    report.round = round;
    report.user_id = participants[row];
    report.objects.assign(row_objects_of.begin(), row_objects_of.end());
    for (const double value : values) {
      report.labels.push_back(static_cast<std::uint32_t>(value));
    }
    return report.encode();
  }
  crowd::Report report;
  report.round = round;
  report.user_id = participants[row];
  report.objects.assign(row_objects_of.begin(), row_objects_of.end());
  report.values.assign(values.begin(), values.end());
  return report.encode();
}

net::Message Stream::message(std::size_t i) const {
  const std::span<const std::uint8_t> bytes_of = payload(i);
  return crowd::make_message(participants[send_rows[i]], kServerId, type(),
                             {bytes_of.begin(), bytes_of.end()});
}

void Stream::set_round(std::uint64_t round) {
  DPTD_REQUIRE(round > 0 && round < 128,
               "Stream::set_round: round must fit one varint byte");
  for (std::size_t i = 0; i < reports(); ++i) {
    DPTD_REQUIRE(bytes[offsets[i]] < 128,
                 "Stream::set_round: encoded round is wider than one byte");
    bytes[offsets[i]] = static_cast<std::uint8_t>(round);
  }
  this->round = round;
}

data::ShardedMatrix reference_matrix(const Stream& stream) {
  const data::ShardPlan plan =
      data::ShardPlan::create(stream.rows(), kNumShards, stream.block_size);
  std::vector<data::ObservationMatrixBuilder> builders;
  builders.reserve(plan.num_shards);
  for (std::size_t i = 0; i < plan.num_shards; ++i) {
    builders.emplace_back(plan.shard_num_users(i), stream.num_objects);
  }
  for (const std::size_t row : stream.send_rows) {
    const std::size_t shard = plan.shard_of_user(row);
    const std::size_t local = row - plan.user_begin(shard);
    if (builders[shard].has_row(local)) continue;
    builders[shard].add_row(local, stream.row_objects(row),
                            stream.row_values(row));
  }
  std::vector<data::ObservationMatrix> shards;
  shards.reserve(builders.size());
  for (auto& builder : builders) shards.push_back(builder.finalize());
  return data::ShardedMatrix::from_shards(plan, std::move(shards),
                                          stream.num_objects);
}

std::unique_ptr<truth::TruthDiscovery> make_round_method(const Stream& stream) {
  if (stream.labels) {
    truth::WeightedVoteConfig config;
    config.num_labels = stream.num_labels;
    config.num_threads = stream.threads;
    return std::make_unique<truth::WeightedVote>(config);
  }
  truth::CrhConfig config;
  config.convergence.tolerance = 1e-6;
  config.convergence.max_iterations = 30;
  config.num_threads = stream.threads;
  return std::make_unique<truth::Crh>(config);
}

// ---------------------------------------------------------------------------
// MetricSet

void MetricSet::set(const std::string& name, double value,
                    const std::string& unit) {
  for (Metric& metric : items_) {
    if (metric.name == name) {
      metric.value = value;
      metric.unit = unit;
      return;
    }
  }
  items_.push_back({name, value, unit});
}

void MetricSet::fallback(const std::string& name, double value,
                         const std::string& unit) {
  if (find(name) == nullptr) items_.push_back({name, value, unit});
}

const Metric* MetricSet::find(const std::string& name) const {
  for (const Metric& metric : items_) {
    if (metric.name == name) return &metric;
  }
  return nullptr;
}

}  // namespace dptd::bench
