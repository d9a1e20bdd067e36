// Per-layer costs of one stream (traced runs only).
//
// Kernels: each layer's public hot-path call alone, on the stream's own
// claims and reports (repeated until about a million items went through, so
// small campaign rounds still time well).
//
// Ladder: the same stream, cold, through every layer in order —
//   kernels -> run_sharded -> pipeline -> server round -> sim dist round ->
//   uds dist round
// — so the gap between two adjacent rows is the cost of the layer the upper
// row adds. Every row that publishes a result must reproduce the in-process
// reference bit for bit.
#include <algorithm>
#include <filesystem>
#include <thread>

#include "categorical/voting.h"
#include "common/mpsc_queue.h"
#include "core/mechanism.h"
#include "crowd/ingest_pipeline.h"
#include "crowd/label_client.h"
#include "data/builder.h"
#include "dist/stats_wire.h"
#include "driver.h"
#include "rounds.h"
#include "truth/categorical.h"
#include "truth/crh.h"

namespace dptd::bench {

namespace {

/// Kernel results land here so the optimizer cannot drop the timed work.
volatile double g_sink = 0.0;

/// Counts what a transport delivers to it.
class CountingNode final : public net::Node {
 public:
  void on_message(const net::Message&) override { ++count; }
  std::size_t count = 0;
};

double ns_per(double seconds, std::size_t items) {
  return items == 0 ? 0.0 : seconds * 1e9 / static_cast<double>(items);
}

/// The label each claim carries through the k-RR kernel: the claim itself on
/// a label stream, a deterministic stand-in on a continuous one.
std::vector<categorical::Label> claim_labels(const Stream& stream,
                                             std::size_t num_labels) {
  std::vector<categorical::Label> labels(stream.claims());
  for (std::size_t c = 0; c < labels.size(); ++c) {
    labels[c] = static_cast<categorical::Label>(
        stream.labels ? static_cast<std::size_t>(stream.values[c])
                      : stream.objects[c] % num_labels);
  }
  return labels;
}

struct Shared {
  std::size_t reps = 1;
  data::ShardPlan plan;
  std::optional<data::ShardedMatrix> matrix;
  truth::Result cold;  ///< in-process cold result on `matrix`
  std::uint64_t digest = 0;
  double sink = 0.0;  ///< keeps kernel results observable
};

void client_kernels(const Stream& stream, Shared& shared, MetricSet& m) {
  const std::size_t reps = shared.reps;
  {
    Scope scope("kernel.core.perturb");
    const core::UserSampledGaussianMechanism mechanism(
        {.lambda2 = 1.0, .seed = stream.seed});
    const double t = wall_s();
    for (std::size_t rep = 0; rep < reps; ++rep) {
      for (std::size_t row = 0; row < stream.rows(); ++row) {
        Rng rng(derive_seed(stream.seed, rep, row));
        for (double value : stream.row_values(row)) {
          shared.sink += mechanism.perturb_value(row, value, rng);
        }
      }
    }
    m.set("core.perturb_ns_per_claim",
          ns_per(wall_s() - t, reps * stream.claims()), "ns");
  }
  {
    constexpr std::size_t kLabels = 8;
    const std::vector<categorical::Label> labels =
        claim_labels(stream, kLabels);
    Scope scope("kernel.categorical.krr");
    const double t = wall_s();
    for (std::size_t rep = 0; rep < reps; ++rep) {
      for (std::size_t row = 0; row < stream.rows(); ++row) {
        const std::size_t begin = stream.claim_begin[row];
        const crowd::LabelReport report = crowd::make_label_report(
            stream.round, stream.participants[row], stream.row_objects(row),
            std::span<const categorical::Label>(labels).subspan(
                begin, stream.claim_begin[row + 1] - begin),
            kLabels, 0.6, stream.seed + rep);
        shared.sink += report.labels.empty() ? 0.0 : report.labels[0];
      }
    }
    m.set("categorical.krr_ns_per_claim",
          ns_per(wall_s() - t, reps * stream.claims()), "ns");
  }
  {
    Scope scope("kernel.crowd.encode");
    const double t = wall_s();
    for (std::size_t rep = 0; rep < reps; ++rep) {
      for (std::size_t row = 0; row < stream.rows(); ++row) {
        shared.sink += static_cast<double>(
            stream.encode(row, stream.row_values(row)).size());
      }
    }
    m.set("crowd.encode_ns_per_report",
          ns_per(wall_s() - t, reps * stream.rows()), "ns");
  }
}

void ingest_kernels(const Stream& stream, Shared& shared, MetricSet& m) {
  const std::size_t reps = shared.reps;
  const std::size_t n = stream.reports();
  {
    Scope scope("kernel.crowd.peek");
    const double t = wall_s();
    for (std::size_t rep = 0; rep < reps; ++rep) {
      for (std::size_t i = 0; i < n; ++i) {
        const auto header = crowd::Report::peek_header(stream.payload(i));
        shared.sink += header ? static_cast<double>(header->user_id) : 0.0;
      }
    }
    m.set("crowd.peek_ns_per_report", ns_per(wall_s() - t, reps * n), "ns");
  }
  {
    Scope scope("kernel.crowd.decode");
    const double t = wall_s();
    for (std::size_t rep = 0; rep < reps; ++rep) {
      for (std::size_t i = 0; i < n; ++i) {
        if (stream.labels) {
          const auto report = crowd::LabelReport::decode(stream.payload(i));
          shared.sink += static_cast<double>(report.labels.size());
        } else {
          const auto report = crowd::Report::decode(stream.payload(i));
          shared.sink += report.values.empty() ? 0.0 : report.values[0];
        }
      }
    }
    m.set("crowd.decode_ns_per_report", ns_per(wall_s() - t, reps * n), "ns");
  }
  {
    // One producer, one consumer: the ingest pipeline's hand-off primitive.
    Scope scope("kernel.common.queue");
    const std::size_t items = reps * n;
    BoundedMpscQueue<std::size_t> queue(4'096);
    std::size_t consumed = 0;
    const double t = wall_s();
    std::thread consumer([&] {
      std::vector<std::size_t> batch;
      batch.reserve(128);
      while (queue.wait_pop_batch(batch, 128) > 0) {
        consumed += batch.size();
        batch.clear();
      }
    });
    for (std::size_t i = 0; i < items; ++i) queue.push(std::size_t{i});
    queue.close();
    consumer.join();
    m.set("common.queue_ns_per_item", ns_per(wall_s() - t, items), "ns");
    shared.sink += static_cast<double>(consumed);
  }
  {
    double append_s = 0.0;
    double finalize_s = 0.0;
    for (std::size_t rep = 0; rep < reps; ++rep) {
      std::vector<data::ObservationMatrixBuilder> builders;
      for (std::size_t i = 0; i < shared.plan.num_shards; ++i) {
        builders.emplace_back(shared.plan.shard_num_users(i),
                              stream.num_objects);
      }
      double t = wall_s();
      {
        Scope scope("kernel.data.append");
        for (const std::size_t row : stream.send_rows) {
          const std::size_t shard = shared.plan.shard_of_user(row);
          const std::size_t local = row - shared.plan.user_begin(shard);
          if (builders[shard].has_row(local)) continue;
          builders[shard].add_row(local, stream.row_objects(row),
                                  stream.row_values(row));
        }
      }
      append_s += wall_s() - t;
      t = wall_s();
      std::vector<data::ObservationMatrix> shards;
      {
        Scope scope("kernel.data.finalize");
        for (auto& builder : builders) shards.push_back(builder.finalize());
      }
      finalize_s += wall_s() - t;
      if (rep + 1 == reps) {
        shared.matrix.emplace(data::ShardedMatrix::from_shards(
            shared.plan, std::move(shards), stream.num_objects));
      }
    }
    m.set("data.append_ns_per_row", ns_per(append_s, reps * stream.rows()),
          "ns");
    m.set("data.finalize_ms", finalize_s * 1e3 / static_cast<double>(reps),
          "ms");
  }
  {
    crowd::IngestPipelineConfig config;
    config.num_workers = kNumShards;
    crowd::IngestPipeline pipeline(config);
    crowd::LabelIngestPolicy policy;
    if (stream.labels) policy.num_labels = stream.num_labels;
    double total_s = 0.0;
    std::vector<double> drains;
    for (std::size_t rep = 0; rep < reps; ++rep) {
      pipeline.begin_round(shared.plan, stream.num_objects, stream.round,
                           policy);
      Scope scope("kernel.crowd.pipeline");
      const double t = wall_s();
      for (std::size_t i = 0; i < n; ++i) {
        pipeline.submit_view(stream.send_rows[i], stream.payload(i),
                             stream.labels);
      }
      const double t_submitted = wall_s();
      pipeline.drain();
      const double t_drained = wall_s();
      total_s += t_drained - t;
      drains.push_back(t_drained - t_submitted);
      shared.sink += static_cast<double>(pipeline.finalize_shards().size());
    }
    m.set("crowd.pipeline_reports_per_s",
          static_cast<double>(reps * n) / total_s, "reports/s");
    m.set("crowd.pipeline_drain_s", median(drains), "s");
  }
}

void truth_kernels(const Stream& stream, std::uint64_t reference_digest,
                   Shared& shared, MetricSet& m, RunReport& report) {
  const std::size_t reps = shared.reps;
  truth::RunPool pool(stream.threads);
  {
    // A round hands run_sharded a freshly finalized matrix, so every call
    // gets one (the first is the ingest kernels' own; its lazily built
    // column index is part of what the call pays).
    const auto method = make_round_method(stream);
    std::vector<double> times;
    for (std::size_t rep = 0; rep < std::min<std::size_t>(reps, 21); ++rep) {
      std::optional<data::ShardedMatrix> fresh;
      if (rep > 0) fresh.emplace(reference_matrix(stream));
      const data::ShardedMatrix& matrix = rep > 0 ? *fresh : *shared.matrix;
      Scope scope("kernel.truth.run_sharded");
      const double t = wall_s();
      shared.cold = method->run_sharded(matrix);
      times.push_back(wall_s() - t);
    }
    shared.digest = result_digest(shared.cold);
    if (reference_digest != 0 && shared.digest != reference_digest) {
      report.failures.push_back(
          "layers: run_sharded over the ingested matrix differs from the "
          "reference");
    }
    m.set("truth.run_sharded_s", median(times), "s");
  }
  // The iteration kernels alone, on the already indexed matrix; one
  // untimed call first.
  const data::ShardedMatrix& matrix = *shared.matrix;
  const std::size_t claims = matrix.observation_count();
  {
    const std::vector<double> weights(stream.rows(), 1.0);
    truth::AggregateStats acc;
    Scope scope("kernel.truth.fold");
    double t = 0.0;
    for (std::size_t rep = 0; rep <= reps; ++rep) {
      if (rep == 1) t = wall_s();
      acc.reset(stream.num_objects);
      truth::weighted_aggregate_fold(matrix, weights, acc, pool.get());
    }
    m.set("truth.fold_ns_per_claim", ns_per(wall_s() - t, reps * claims),
          "ns");
    shared.sink += acc.weight_sum[0];
  }
  {
    const std::vector<double> stddevs(stream.num_objects, 1.0);
    std::vector<double> losses(stream.rows(), 0.0);
    Scope scope("kernel.truth.crh_loss");
    double t = 0.0;
    for (std::size_t rep = 0; rep <= reps; ++rep) {
      if (rep == 1) t = wall_s();
      truth::crh_user_losses(matrix, pool.get(),
                             truth::CrhLoss::kNormalizedSquared,
                             shared.cold.truths, stddevs, losses);
    }
    m.set("truth.crh_loss_ns_per_claim", ns_per(wall_s() - t, reps * claims),
          "ns");
    shared.sink += losses.empty() ? 0.0 : losses[0];
  }
}

void transport_kernels(const Stream& stream, const std::string& socket_dir,
                       Shared& shared, MetricSet& m, RunReport& report) {
  const std::size_t n = stream.reports();
  {
    net::Simulator sim;
    net::Network network(sim, net::LatencyModel{0.0, 0.0, 0.0}, 1);
    CountingNode sink;
    network.attach(kServerId, sink);
    Scope scope("kernel.net.sim_message");
    const double t = wall_s();
    for (std::size_t rep = 0; rep < shared.reps; ++rep) {
      for (std::size_t i = 0; i < n; ++i) {
        network.send(stream.message(i));
        if ((i + 1) % kPumpEvery == 0) network.run_until_idle();
      }
      network.run_until_idle();
    }
    m.set("net.sim_ns_per_message", ns_per(wall_s() - t, shared.reps * n),
          "ns");
    if (sink.count != shared.reps * n) {
      report.failures.push_back("layers: simulator lost messages");
    }
  }
  {
    // Framing between two SocketTransports over one UDS connection, pumped
    // from this thread.
    std::filesystem::create_directories(socket_dir);
    const std::string endpoint = "unix:" + socket_dir + "/frames.sock";
    net::SocketTransportConfig rx_config;
    rx_config.listen = endpoint;
    net::SocketTransport rx(rx_config);
    CountingNode sink;
    rx.attach(kServerId, sink);
    net::SocketTransportConfig tx_config;
    tx_config.peers[kServerId] = endpoint;
    net::SocketTransport tx(tx_config);
    const std::size_t frames = std::min<std::size_t>(shared.reps * n, 1'000'000);
    Scope scope("kernel.net.uds_frame");
    const double t = wall_s();
    const double deadline = t + 60.0;
    for (std::size_t begin = 0; begin < frames; begin += kPumpEvery) {
      const std::size_t end = std::min(frames, begin + kPumpEvery);
      for (std::size_t i = begin; i < end; ++i) tx.send(stream.message(i % n));
      while (sink.count < end && wall_s() < deadline) {
        tx.run_until_idle();
        rx.run_until_idle();
      }
    }
    m.set("net.uds_ns_per_frame", ns_per(wall_s() - t, frames), "ns");
    if (sink.count != frames) {
      report.failures.push_back("layers: UDS frames were not all delivered");
    }
    m.fallback("net.malformed_frames",
               static_cast<double>(rx.malformed_frames()), "count");
  }
  {
    // A StatsEnvelope carrying one shard's WeightsBody at a million users
    // over three shards: encode, decode, and decode the body.
    dist::WeightsBody body;
    body.weights.assign(333'333, 0.0);
    for (std::size_t i = 0; i < body.weights.size(); ++i) {
      body.weights[i] = 1.0 + static_cast<double>(i % 97) * 0.01;
    }
    Scope scope("kernel.dist.envelope_codec");
    std::size_t total_bytes = 0;
    const double t = wall_s();
    for (std::uint64_t op_id = 1; op_id <= 8; ++op_id) {
      crowd::StatsEnvelope envelope;
      envelope.op_id = op_id;
      envelope.op = static_cast<std::uint8_t>(dist::ShardOp::kCollectWeights);
      envelope.body = body.encode();
      const std::vector<std::uint8_t> bytes = envelope.encode();
      const crowd::StatsEnvelope decoded = crowd::StatsEnvelope::decode(bytes);
      const dist::WeightsBody weights = dist::WeightsBody::decode(decoded.body);
      shared.sink += weights.weights.back();
      total_bytes += bytes.size();
    }
    m.set("dist.envelope_codec_ns_per_byte",
          ns_per(wall_s() - t, total_bytes), "ns/B");
  }
}

/// Runs `round` (1 + reps times on small streams: the first warms the
/// stack), gates each published result against the shared cold digest, and
/// returns the median round time.
template <typename Round>
double ladder_row(const char* name, Shared& shared, RunReport& report,
                  bool small, const Round& round) {
  tracer().next_round();
  Scope scope(name);
  std::vector<double> times;
  const std::size_t runs = small ? 22 : 1;
  for (std::size_t i = 0; i < runs; ++i) {
    const RoundSample s = round();
    if (!s.problem.empty()) {
      report.failures.push_back(std::string(name) + ": " + s.problem);
    } else if (result_digest(s.result) != shared.digest) {
      report.failures.push_back(std::string(name) +
                                ": result differs from run_sharded");
    }
    if (!small || i > 0) times.push_back(s.round_s);
  }
  return median(times);
}

void ladder(Stream& stream, const std::string& socket_dir, Shared& shared,
            MetricSet& m, RunReport& report) {
  const bool small = stream.reports() < 100'000;
  const data::ShardedMatrix& matrix = *shared.matrix;
  const std::size_t iterations = shared.cold.iterations;
  truth::RunPool pool(stream.threads);

  {
    // The round's kernel calls alone: the first aggregation plus one
    // weight pass and one aggregation per iteration.
    tracer().next_round();
    Scope scope("ladder.kernels");
    std::vector<double> times;
    const std::vector<double> weights(stream.rows(), 1.0);
    if (stream.labels) {
      const categorical::ShardedLabelMatrix labels =
          truth::label_view(matrix, stream.num_labels);
      std::vector<double> scores(stream.num_objects * stream.num_labels);
      std::vector<double> disagreement(stream.rows());
      for (std::size_t rep = 0; rep < (small ? 21u : 1u); ++rep) {
        const double t = wall_s();
        for (std::size_t it = 0; it <= iterations; ++it) {
          std::fill(scores.begin(), scores.end(), 0.0);
          categorical::fold_label_scores(labels, pool.get(), weights, scores);
          if (it == iterations) break;
          const auto truths = categorical::truths_from_scores(
              scores, stream.num_objects, stream.num_labels);
          categorical::vote_disagreement(labels, pool.get(), truths,
                                         disagreement);
        }
        times.push_back(wall_s() - t);
      }
    } else {
      truth::AggregateStats acc;
      std::vector<double> losses(stream.rows());
      const std::vector<double> stddevs(stream.num_objects, 1.0);
      for (std::size_t rep = 0; rep < (small ? 21u : 1u); ++rep) {
        const double t = wall_s();
        for (std::size_t it = 0; it <= iterations; ++it) {
          acc.reset(stream.num_objects);
          truth::weighted_aggregate_fold(matrix, weights, acc, pool.get());
          if (it == iterations) break;
          truth::crh_user_losses(matrix, pool.get(),
                                 truth::CrhLoss::kNormalizedSquared,
                                 shared.cold.truths, stddevs, losses);
        }
        times.push_back(wall_s() - t);
      }
    }
    m.set("ladder.kernels_s", median(times), "s");
  }
  m.set("ladder.run_sharded_s", m.find("truth.run_sharded_s")->value, "s");

  {
    crowd::IngestPipelineConfig config;
    config.num_workers = kNumShards;
    crowd::IngestPipeline pipeline(config);
    crowd::LabelIngestPolicy policy;
    if (stream.labels) policy.num_labels = stream.num_labels;
    const auto method = make_round_method(stream);
    m.set("ladder.pipeline_s",
          ladder_row("ladder.pipeline", shared, report, small, [&] {
            RoundSample s;
            const double t = wall_s();
            pipeline.begin_round(shared.plan, stream.num_objects,
                                 stream.round, policy);
            for (std::size_t i = 0; i < stream.reports(); ++i) {
              pipeline.submit_view(stream.send_rows[i], stream.payload(i),
                                   stream.labels);
            }
            const data::ShardedMatrix ingested =
                data::ShardedMatrix::from_shards(shared.plan,
                                                 pipeline.finalize_shards(),
                                                 stream.num_objects);
            s.result = method->run_sharded(ingested);
            s.round_s = wall_s() - t;
            return s;
          }),
          "s");
  }
  {
    ServerStack stack(stream, /*warm_start=*/false);
    m.set("ladder.server_round_s",
          ladder_row("ladder.server_round", shared, report, small,
                     [&] { return stack.run_round(stream); }),
          "s");
  }
  {
    DistStack stack(stream, /*warm_start=*/false, 0.0, "");
    std::vector<RoundSample> samples;
    m.set("ladder.sim_dist_round_s",
          ladder_row("ladder.sim_dist_round", shared, report, small, [&] {
            samples.push_back(stack.run_round(stream, /*via_network=*/false));
            return samples.back();
          }),
          "s");
    // The dist layer's own numbers, for workloads whose rounds bypass it.
    record_dist_layers(samples, m, /*fallback=*/true);
  }
  {
    DistStack stack(stream, /*warm_start=*/false, 0.0,
                    socket_dir + "/ladder");
    m.set("ladder.uds_dist_round_s",
          ladder_row("ladder.uds_dist_round", shared, report, small,
                     [&] { return stack.run_round(stream, false); }),
          "s");
  }
}

}  // namespace

void run_layer_suite(Stream& stream, std::uint64_t reference_digest,
                     const std::string& socket_dir, RunReport& report) {
  tracer().set_enabled(true);
  Shared shared;
  shared.reps = std::max<std::size_t>(1, 1'000'000 / stream.reports());
  shared.plan =
      data::ShardPlan::create(stream.rows(), kNumShards, stream.block_size);
  MetricSet& m = report.layers;
  {
    tracer().next_round();
    Scope scope("layers.kernels");
    client_kernels(stream, shared, m);
    ingest_kernels(stream, shared, m);
    truth_kernels(stream, reference_digest, shared, m, report);
    transport_kernels(stream, socket_dir, shared, m, report);
  }
  ladder(stream, socket_dir, shared, m, report);
  g_sink = shared.sink;
  tracer().set_enabled(false);
}

}  // namespace dptd::bench
