#include "rounds.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <numeric>
#include <span>

#include "common/distributions.h"
#include "core/mechanism.h"
#include "crowd/label_client.h"

namespace dptd::bench {

namespace {

net::NetworkStats delta(const net::NetworkStats& now,
                        const net::NetworkStats& before) {
  net::NetworkStats d;
  d.messages_sent = now.messages_sent - before.messages_sent;
  d.messages_delivered = now.messages_delivered - before.messages_delivered;
  d.messages_dropped = now.messages_dropped - before.messages_dropped;
  d.messages_undeliverable =
      now.messages_undeliverable - before.messages_undeliverable;
  d.bytes_sent = now.bytes_sent - before.bytes_sent;
  d.bytes_delivered = now.bytes_delivered - before.bytes_delivered;
  return d;
}

crowd::ServerConfig server_config(const Stream& stream, bool warm_start) {
  crowd::ServerConfig config;
  config.id = kServerId;
  config.num_objects = stream.num_objects;
  config.warm_start = warm_start;
  config.num_shards = kNumShards;
  config.stats_block_size = stream.block_size;
  config.ingest_threads = stream.ingest_threads;
  if (stream.labels) config.labels.num_labels = stream.num_labels;
  return config;
}

}  // namespace

truth::Result TimedMethod::run_sharded(const data::ShardedMatrix& shards,
                                       const truth::WarmStart& warm) const {
  begin_s_ = wall_s();
  const std::size_t span = tracer().open("truth.run_sharded");
  truth::Result result = inner_->run_sharded(shards, warm);
  tracer().close(span,
                 {{"iterations", static_cast<double>(result.iterations)},
                  {"claims", static_cast<double>(shards.observation_count())}});
  return result;
}

// ---------------------------------------------------------------------------
// ServerStack

ServerStack::ServerStack(const Stream& stream, bool warm_start)
    : network_(sim_, net::LatencyModel{0.0, 0.0, 0.0}, 1),
      edge_(network_, kShardBase),
      method_(new TimedMethod(make_round_method(stream))),
      server_(server_config(stream, warm_start),
              std::unique_ptr<truth::TruthDiscovery>(method_), edge_) {}

RoundSample ServerStack::run_round(const Stream& stream) {
  RoundSample s;
  const net::NetworkStats stats_before = edge_.stats();
  const std::size_t outcomes_before = server_.outcomes().size();
  const double cpu_before = cpu_s();
  const std::size_t round_span = tracer().open("round");

  const double t_open = wall_s();
  {
    Scope scope("crowd.start_round");
    server_.start_round(stream.round, stream.participants);
  }
  const double t_first = wall_s();
  s.open_s = t_first - t_open;
  // Zero latency: every report is due at the current virtual time, so
  // polling up to now() delivers exactly what was handed over. Virtual time
  // never reaches the collection deadline; the round closes early once the
  // last distinct participant's report is ingested.
  double t_last = t_first;
  const std::size_t n = stream.reports();
  for (std::size_t begin = 0; begin < n; begin += kPumpEvery) {
    const std::size_t end = std::min(n, begin + kPumpEvery);
    {
      Scope scope("net.send_reports");
      for (std::size_t i = begin; i < end; ++i) edge_.send(stream.message(i));
    }
    if (end == n) t_last = wall_s();
    const std::size_t span = tracer().open("net.poll");
    const std::size_t delivered = edge_.poll(edge_.now());
    tracer().close(span, {{"delivered", static_cast<double>(delivered)}});
  }
  const double t_end = wall_s();
  s.cpu_s = cpu_s() - cpu_before;
  s.traffic = delta(edge_.stats(), stats_before);
  s.reports = n;
  s.round_s = t_end - t_open;
  s.close_s = t_end - t_last;
  s.ingest_s = method_->last_begin_s() - t_first;

  if (server_.outcomes().size() != outcomes_before + 1) {
    s.problem = "server did not close the round";
  } else {
    const crowd::RoundOutcome& outcome = server_.outcomes().back();
    s.accepted = outcome.reports_received;
    s.iterations = outcome.result.iterations;
    s.result = outcome.result;
    if (outcome.round != stream.round) {
      s.problem = "server closed the wrong round";
    } else if (outcome.result.truths.size() != stream.num_objects) {
      s.problem = "round was not aggregated";
    } else if (outcome.reports_received != stream.rows() ||
               outcome.reports_rejected != 0) {
      s.problem = "reports lost or rejected";
    } else if (method_->last_begin_s() < t_first) {
      s.problem = "truth discovery did not run";
    }
  }
  tracer().close(round_span,
                 {{"reports", static_cast<double>(n)},
                  {"bytes_sent", static_cast<double>(s.traffic.bytes_sent)}});
  return s;
}

// ---------------------------------------------------------------------------
// DistStack

dist::MethodSpec round_method_spec(const Stream& stream) {
  dist::MethodSpec spec;
  if (stream.labels) {
    spec.kind = dist::MethodSpec::Kind::kVote;
    spec.vote.num_labels = stream.num_labels;
  } else {
    spec.kind = dist::MethodSpec::Kind::kCrh;
    spec.crh.convergence.tolerance = 1e-6;
    spec.crh.convergence.max_iterations = 30;
  }
  return spec;
}

void record_dist_layers(const std::vector<RoundSample>& samples,
                        MetricSet& metrics, bool fallback) {
  const auto put = [&](const std::string& name, double value,
                       const std::string& unit) {
    if (fallback) {
      metrics.fallback(name, value, unit);
    } else {
      metrics.set(name, value, unit);
    }
  };
  std::vector<double> open, close_call, route;
  std::size_t messages = 0, bytes = 0, iterations = 0, resends = 0,
              requests = 0, stale = 0, malformed = 0;
  for (const RoundSample& s : samples) {
    open.push_back(s.open_s);
    close_call.push_back(s.close_call_s);
    if (s.route_s > 0.0) {
      route.push_back(s.route_s * 1e9 / static_cast<double>(s.reports));
    }
    messages += s.iteration_messages;
    bytes += s.iteration_bytes;
    iterations += s.iterations;
    resends += s.resends;
    requests += s.rpc_requests;
    stale += s.stale_responses;
    malformed += s.malformed_frames;
  }
  const double iters = static_cast<double>(std::max<std::size_t>(1, iterations));
  put("dist.begin_round_ms", median(open) * 1e3, "ms");
  put("dist.close_round_s", median(close_call), "s");
  put("dist.messages_per_iteration", static_cast<double>(messages) / iters,
      "msgs");
  put("dist.bytes_per_iteration", static_cast<double>(bytes) / iters, "B");
  put("dist.resend_share",
      static_cast<double>(resends) /
          static_cast<double>(std::max<std::size_t>(1, requests)),
      "share");
  put("dist.stale_responses", static_cast<double>(stale), "count");
  if (!route.empty()) put("dist.route_ns_per_report", median(route), "ns");
  if (!samples.empty() && samples.front().sockets) {
    put("net.malformed_frames", static_cast<double>(malformed), "count");
  }
}

DistStack::DistStack(const Stream& stream, bool warm_start, double latency_s,
                     const std::string& socket_dir) {
  net::Transport* inner = nullptr;
  std::vector<net::NodeId> ids;
  if (socket_dir.empty()) {
    sim_ = std::make_unique<net::Simulator>();
    network_ = std::make_unique<net::Network>(
        *sim_, net::LatencyModel{latency_s, 0.0, 0.0}, 1);
    for (std::size_t i = 0; i < kNumShards; ++i) {
      ids.push_back(kShardBase + i);
      shards_.push_back(
          std::make_unique<dist::ShardNode>(kShardBase + i, *network_));
    }
    inner = network_.get();
  } else {
    fleet_ = std::make_unique<ShardFleet>(kNumShards, socket_dir);
    net::SocketTransportConfig config;
    config.peers = fleet_->peers();
    socket_ = std::make_unique<net::SocketTransport>(config);
    ids = fleet_->ids();
    inner = socket_.get();
  }
  bench_ = std::make_unique<BenchTransport>(*inner, kShardBase);
  dist::CoordinatorConfig config;
  config.id = kServerId;
  config.num_objects = stream.num_objects;
  config.block_size = stream.block_size;
  config.warm_start = warm_start;
  coordinator_ = std::make_unique<dist::Coordinator>(
      config, round_method_spec(stream), *bench_);
  for (net::NodeId id : ids) coordinator_->add_shard(id);
}

DistStack::~DistStack() {
  coordinator_.reset();
  if (fleet_ != nullptr) {
    try {
      fleet_->shutdown(*socket_);
    } catch (...) {
      // The fleet's destructor kills and reaps whatever did not exit.
    }
  }
}

double DistStack::peak_rss_mb() const {
  return fleet_ != nullptr ? fleet_->peak_rss_mb() : 0.0;
}

RoundSample DistStack::run_round(const Stream& stream, bool via_network) {
  RoundSample s;
  s.dist = true;
  s.sockets = fleet_ != nullptr;
  const net::NetworkStats stats_before = bench_->stats();
  const std::size_t rpc_before = bench_->rpc_requests();
  const std::size_t malformed_before =
      socket_ != nullptr ? socket_->malformed_frames() : 0;
  const double cpu_before =
      cpu_s() + (fleet_ != nullptr ? fleet_->cpu_s() : 0.0);
  const std::size_t round_span = tracer().open("round");

  const double t_open = wall_s();
  bool opened = false;
  {
    Scope scope("dist.begin_round");
    opened = coordinator_->begin_round(stream.round, stream.participants);
  }
  const double t_first = wall_s();
  s.open_s = t_first - t_open;
  double t_last = t_first;
  const std::size_t n = stream.reports();
  for (std::size_t begin = 0; opened && begin < n; begin += kPumpEvery) {
    const std::size_t end = std::min(n, begin + kPumpEvery);
    if (via_network) {
      Scope scope("net.send_reports");
      for (std::size_t i = begin; i < end; ++i) bench_->send(stream.message(i));
    } else {
      Scope scope("dist.route_reports");
      const double t = wall_s();
      for (std::size_t i = begin; i < end; ++i) {
        coordinator_->on_message(stream.message(i));
      }
      s.route_s += wall_s() - t;
    }
    if (end == n) t_last = wall_s();
    const std::size_t span = tracer().open("net.run_until_idle");
    const std::size_t delivered = bench_->run_until_idle();
    tracer().close(span, {{"delivered", static_cast<double>(delivered)}});
  }
  dist::DistributedOutcome outcome;
  if (opened) {
    const std::size_t span = tracer().open("dist.close_round");
    const double t_close = wall_s();
    outcome = coordinator_->close_round();
    s.close_call_s = wall_s() - t_close;
    tracer().close(span, {{"iterations",
                           static_cast<double>(outcome.result.iterations)},
                          {"resends", static_cast<double>(outcome.resends)}});
  }
  const double t_end = wall_s();
  s.cpu_s = cpu_s() + (fleet_ != nullptr ? fleet_->cpu_s() : 0.0) - cpu_before;
  s.traffic = delta(bench_->stats(), stats_before);
  s.reports = n;
  s.round_s = t_end - t_open;
  s.close_s = t_end - t_last;
  s.ingest_s = bench_->last_finalize_reply_s() - t_first;
  s.rpc_requests = bench_->rpc_requests() - rpc_before;
  s.malformed_frames =
      (socket_ != nullptr ? socket_->malformed_frames() : 0) - malformed_before;
  s.iterations = outcome.result.iterations;
  s.iteration_messages = outcome.iteration_messages;
  s.iteration_bytes = outcome.iteration_bytes;
  s.resends = outcome.resends;
  s.stale_responses = outcome.stale_responses;
  for (const crowd::ShardIngestStats& shard : outcome.shard_stats) {
    s.accepted += shard.reports_received;
  }
  s.result = outcome.result;

  if (!opened) {
    s.problem = "begin_round failed";
  } else if (!outcome.completed || !outcome.aggregated) {
    s.problem = "round did not complete";
  } else if (outcome.degraded || outcome.reports_lost != 0 ||
             outcome.reports_undeliverable != 0 ||
             outcome.reports_unroutable != 0) {
    s.problem = "round degraded or lost reports";
  } else if (s.accepted != stream.rows()) {
    s.problem = "shards ingested the wrong number of reports";
  } else if (bench_->last_finalize_reply_s() < t_first) {
    s.problem = "no finalize reply observed";
  }
  tracer().close(round_span,
                 {{"reports", static_cast<double>(n)},
                  {"bytes_sent", static_cast<double>(s.traffic.bytes_sent)}});
  return s;
}

// ---------------------------------------------------------------------------
// Stream generators

namespace {

constexpr std::uint64_t kTruthStream = 0x7472757468ULL;   // "truth"
constexpr std::uint64_t kUserStream = 0x75736572ULL;      // "user"
constexpr std::uint64_t kQualityStream = 0x7175616cULL;   // "qual"
constexpr std::uint64_t kClientStream = 0x636c6e74ULL;    // "clnt"
constexpr std::uint64_t kCampaignStream = 0x63616d70ULL;  // "camp"
constexpr std::size_t kClaimsPerUser = 6;

/// A strided object walk: every object gets near-equal coverage and a stride
/// coprime with the object count never repeats an object inside a report.
void object_walk(Rng& rng, std::size_t num_objects, std::uint64_t* out) {
  const std::size_t start = uniform_index(rng, num_objects);
  std::size_t stride = 1 + uniform_index(rng, std::min<std::size_t>(
                                                  97, num_objects - 1));
  while (std::gcd(stride, num_objects) != 1) ++stride;
  for (std::size_t j = 0; j < kClaimsPerUser; ++j) {
    out[j] = (start + j * stride) % num_objects;
  }
}

constexpr std::size_t kLabels = 8;
constexpr double kKeepProbability = 0.6;

core::UserSampledGaussianMechanism client_mechanism(std::uint64_t seed) {
  return core::UserSampledGaussianMechanism(
      {.lambda2 = 1.0, .seed = derive_seed(seed, kClientStream)});
}

/// One device's upload: perturbs `values` (its claims) in place, client-side
/// k-RR on a label stream and Algorithm 2 otherwise, then encodes the report.
/// `client_seed` keys the per-(round, user) randomness.
std::vector<std::uint8_t> device_upload(
    const Stream& stream, std::size_t row, std::span<double> values,
    const core::UserSampledGaussianMechanism& mechanism,
    std::uint64_t client_seed) {
  const net::NodeId user = stream.participants[row];
  if (stream.labels) {
    std::array<categorical::Label, kClaimsPerUser> raw{};
    for (std::size_t j = 0; j < values.size(); ++j) {
      raw[j] = static_cast<categorical::Label>(values[j]);
    }
    const crowd::LabelReport report = crowd::make_label_report(
        stream.round, user, stream.row_objects(row),
        std::span<const categorical::Label>(raw.data(), values.size()),
        stream.num_labels, kKeepProbability, client_seed);
    for (std::size_t j = 0; j < values.size(); ++j) {
      values[j] = static_cast<double>(report.labels[j]);
    }
    return report.encode();
  }
  Rng rng(derive_seed(client_seed, user));
  for (double& value : values) {
    value = mechanism.perturb_value(user, value, rng);
  }
  return stream.encode(row, values);
}

/// Every row's device upload, in row order: perturbs the stream's claims in
/// place and fills `bytes` and `offsets`. Only the devices' own work is
/// timed, a chunk at a time; copying the uploads into the stream is not.
void upload_all(Stream& stream, std::uint64_t client_seed,
                ClientTiming& timing) {
  const core::UserSampledGaussianMechanism mechanism =
      client_mechanism(stream.seed);
  const std::size_t rows = stream.rows();
  std::vector<std::vector<std::uint8_t>> uploads(
      std::min<std::size_t>(rows, kPumpEvery));
  stream.bytes.clear();
  stream.offsets.assign(1, 0);
  for (std::size_t begin = 0; begin < rows; begin += uploads.size()) {
    const std::size_t end = std::min(rows, begin + uploads.size());
    const double t = wall_s();
    for (std::size_t row = begin; row < end; ++row) {
      const std::size_t claims = stream.claim_begin[row];
      uploads[row - begin] = device_upload(
          stream, row,
          {&stream.values[claims], stream.claim_begin[row + 1] - claims},
          mechanism, client_seed);
    }
    timing.seconds += wall_s() - t;
    for (std::size_t row = begin; row < end; ++row) {
      const std::vector<std::uint8_t>& upload = uploads[row - begin];
      stream.bytes.insert(stream.bytes.end(), upload.begin(), upload.end());
      stream.offsets.push_back(stream.bytes.size());
    }
  }
  timing.reports += rows;
}

}  // namespace

Stream million_user_stream(std::uint64_t seed, bool labels,
                           ClientTiming& timing) {
  constexpr std::size_t kUsers = 1'000'000;
  constexpr std::size_t kObjects = 1'000;

  Stream stream;
  stream.labels = labels;
  stream.num_objects = kObjects;
  stream.num_labels = labels ? kLabels : 0;
  stream.block_size = 4'096;
  stream.threads = 0;
  stream.ingest_threads = kNumShards;
  stream.seed = seed;
  stream.participants.resize(kUsers);
  std::iota(stream.participants.begin(), stream.participants.end(), 0);

  Rng truth_rng(derive_seed(seed, kTruthStream));
  stream.ground_truth.resize(kObjects);
  for (double& truth : stream.ground_truth) {
    truth = labels ? static_cast<double>(uniform_index(truth_rng, kLabels))
                   : uniform(truth_rng, 0.0, 50.0);
  }

  // What each device holds before privacy: its objects and readings (or
  // labels after its own error rate).
  stream.objects.resize(kUsers * kClaimsPerUser);
  stream.values.resize(kUsers * kClaimsPerUser);
  stream.claim_begin.resize(kUsers + 1);
  for (std::size_t u = 0; u < kUsers; ++u) {
    stream.claim_begin[u] = u * kClaimsPerUser;
    Rng rng(derive_seed(seed, kUserStream, u));
    std::uint64_t* objects = &stream.objects[u * kClaimsPerUser];
    double* values = &stream.values[u * kClaimsPerUser];
    object_walk(rng, kObjects, objects);
    if (labels) {
      const double error_rate = uniform(rng, 0.0, 0.3);
      for (std::size_t j = 0; j < kClaimsPerUser; ++j) {
        auto label = static_cast<std::uint64_t>(stream.ground_truth[objects[j]]);
        if (bernoulli(rng, error_rate)) {
          label = (label + 1 + uniform_index(rng, kLabels - 1)) % kLabels;
        }
        values[j] = static_cast<double>(label);
      }
    } else {
      const double sigma = std::sqrt(exponential(rng, 1.0));
      for (std::size_t j = 0; j < kClaimsPerUser; ++j) {
        values[j] = stream.ground_truth[objects[j]] + normal(rng, 0.0, sigma);
      }
    }
  }
  stream.claim_begin[kUsers] = kUsers * kClaimsPerUser;

  stream.bytes.reserve(kUsers * (labels ? 32 : 72));
  upload_all(stream, derive_seed(seed, kClientStream), timing);
  stream.send_rows.resize(kUsers);
  std::iota(stream.send_rows.begin(), stream.send_rows.end(), 0);
  return stream;
}

Campaign::Campaign(std::uint64_t seed)
    : seed_(seed), rng_(derive_seed(seed, kCampaignStream)) {
  constexpr std::size_t kUsers = 2'000;
  constexpr std::size_t kObjects = 100;
  roster_.resize(kUsers);
  std::iota(roster_.begin(), roster_.end(), 0);
  next_id_ = kUsers;
  truths_.resize(kObjects);
  for (double& truth : truths_) truth = uniform(rng_, 0.0, 50.0);
}

Stream Campaign::next_round(ClientTiming& timing) {
  constexpr double kChurn = 0.05;
  constexpr double kDuplicates = 0.01;
  constexpr double kDrift = 0.05;
  ++round_;
  const std::size_t users = roster_.size();
  const std::size_t num_objects = truths_.size();

  if (round_ > 1) {
    // Churn: a fresh cohort replaces 5% of the roster (new stable ids).
    std::vector<std::size_t> slots(users);
    std::iota(slots.begin(), slots.end(), 0);
    const auto leaving = static_cast<std::size_t>(kChurn * users);
    for (std::size_t i = 0; i < leaving; ++i) {
      std::swap(slots[i], slots[i + uniform_index(rng_, users - i)]);
      roster_[slots[i]] = next_id_++;
    }
    for (double& truth : truths_) truth += normal(rng_, 0.0, kDrift);
  }

  Stream stream;
  stream.num_objects = num_objects;
  stream.block_size = 256;
  stream.threads = 1;
  stream.ingest_threads = 0;
  stream.seed = seed_;
  stream.round = round_;
  stream.participants = roster_;
  stream.ground_truth = truths_;
  stream.objects.resize(users * kClaimsPerUser);
  stream.values.resize(users * kClaimsPerUser);
  stream.claim_begin.resize(users + 1);
  for (std::size_t row = 0; row < users; ++row) {
    const net::NodeId user = roster_[row];
    stream.claim_begin[row] = row * kClaimsPerUser;
    Rng rng(derive_seed(seed_, kUserStream, user, round_));
    Rng quality(derive_seed(seed_, kQualityStream, user));
    const double sigma = std::sqrt(exponential(quality, 1.0));
    std::uint64_t* objects = &stream.objects[row * kClaimsPerUser];
    object_walk(rng, num_objects, objects);
    for (std::size_t j = 0; j < kClaimsPerUser; ++j) {
      stream.values[row * kClaimsPerUser + j] =
          truths_[objects[j]] + normal(rng, 0.0, sigma);
    }
  }
  stream.claim_begin[users] = users * kClaimsPerUser;

  stream.bytes.reserve(users * 72);
  upload_all(stream, derive_seed(seed_, kClientStream, round_), timing);
  const std::vector<std::size_t> row_offset = std::move(stream.offsets);

  // Send order: every row once, plus 1% duplicate re-sends of the identical
  // bytes, each landing somewhere after its original.
  std::vector<std::pair<double, std::size_t>> order;
  order.reserve(users + users / 50);
  for (std::size_t row = 0; row < users; ++row) {
    order.emplace_back(static_cast<double>(row), row);
  }
  const auto duplicates = static_cast<std::size_t>(kDuplicates * users);
  for (std::size_t d = 0; d < duplicates; ++d) {
    const std::size_t row = uniform_index(rng_, users);
    order.emplace_back(uniform(rng_, static_cast<double>(row) + 0.5,
                               static_cast<double>(users)),
                       row);
  }
  std::stable_sort(order.begin(), order.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  stream.offsets.assign(1, 0);
  std::vector<std::uint8_t> bytes;
  bytes.reserve(stream.bytes.size() + duplicates * 72);
  for (const auto& [key, row] : order) {
    bytes.insert(bytes.end(), stream.bytes.begin() + row_offset[row],
                 stream.bytes.begin() + row_offset[row + 1]);
    stream.offsets.push_back(bytes.size());
    stream.send_rows.push_back(row);
  }
  stream.bytes = std::move(bytes);
  return stream;
}

double truth_error(const Stream& stream, const std::vector<double>& truths) {
  if (truths.size() != stream.ground_truth.size() || truths.empty()) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  double total = 0.0;
  for (std::size_t n = 0; n < truths.size(); ++n) {
    const double error = std::abs(truths[n] - stream.ground_truth[n]);
    total += stream.labels ? (error > 0.0 ? 1.0 : 0.0) : error;
  }
  return total / static_cast<double>(truths.size());
}

}  // namespace dptd::bench
