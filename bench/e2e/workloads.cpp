// The four workloads. Each builds its serving stack several times (set-up is
// measured as the median), then runs a fixed number of measured rounds on the
// last one, gating every round's published result against an in-process
// reference over the same reports.
#include <algorithm>
#include <functional>
#include <optional>

#include "driver.h"
#include "rounds.h"

namespace dptd::bench {

namespace {

/// Serving stacks built (and warmed) per run; setup_s is their median. A
/// single build on a shared host swings by ±20%, so the median needs several.
constexpr std::size_t kSetups = 7;
/// Failure messages kept per run (the count is exact regardless).
constexpr std::size_t kMaxFailureMessages = 20;

struct Plan {
  /// Measured rounds: a constant per workload, so every commit is measured
  /// on the same work whatever the speed of the machine.
  std::size_t rounds = 1;
  /// Builds a fresh stack and runs its warm-up; returns the seconds spent
  /// in the system (construction plus warm-up rounds).
  std::function<double()> setup;
  /// Prepares (untimed) and runs one gated measured round.
  std::function<RoundSample(bool traced)> round;
  std::function<double()> peak_rss_mb;
  /// Label workload: RoundSample::truth_error is reported as
  /// label_error_rate, else as mae.
  bool labels = false;
};

void note_failure(RunReport& report, const std::string& message) {
  if (report.failures.size() < kMaxFailureMessages) {
    report.failures.push_back(message);
  }
}

/// Setups, then measured rounds. In a traced run every other round records
/// spans, so the trace overhead is measured in the same process.
void measure(const RunOptions& options, const Plan& plan,
             const ClientTiming& client, RunReport& report) {
  std::vector<double> setups;
  for (std::size_t k = 0; k < kSetups; ++k) setups.push_back(plan.setup());

  const bool trace = !options.trace_path.empty();
  std::vector<RoundSample> samples;
  std::vector<bool> traced;
  double rss_after_first = 0.0;
  for (std::size_t r = 0; r < plan.rounds; ++r) {
    const bool traced_round = trace && r % 2 == 1;
    tracer().set_enabled(traced_round);
    tracer().next_round();
    RoundSample s = plan.round(traced_round);
    tracer().set_enabled(false);
    ++report.attempted;
    if (!s.problem.empty()) {
      ++report.failed;
      note_failure(report, "round " + std::to_string(r) + ": " + s.problem);
    }
    s.result = {};
    samples.push_back(std::move(s));
    traced.push_back(traced_round);
    if (r == 0) rss_after_first = rss_mb();
  }
  const double peak_rss_mb = plan.peak_rss_mb();
  // What the driver process keeps per extra round (state servers retain).
  const double rss_growth_mb_per_round =
      plan.rounds > 1 ? (rss_mb() - rss_after_first) /
                            static_cast<double>(plan.rounds - 1)
                      : 0.0;

  // End-to-end metrics come from untraced rounds only.
  std::vector<double> round_s, close_s, ingest_rate, cpu, bytes, messages,
      errors, traced_round_s;
  std::size_t reports = 0, accepted = 0, sent = 0, lost = 0, iterations = 0,
              cold = 0;
  std::vector<double> iteration_counts;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const RoundSample& s = samples[i];
    if (traced[i]) {
      traced_round_s.push_back(s.round_s);
    } else {
      round_s.push_back(s.round_s);
      close_s.push_back(s.close_s);
      ingest_rate.push_back(static_cast<double>(s.reports) / s.ingest_s);
      cpu.push_back(s.cpu_s);
      bytes.push_back(static_cast<double>(s.traffic.bytes_sent));
      messages.push_back(static_cast<double>(s.traffic.messages_sent));
    }
    errors.push_back(s.truth_error);
    reports += s.reports;
    accepted += s.accepted;
    sent += s.traffic.messages_sent;
    lost += s.traffic.messages_dropped + s.traffic.messages_undeliverable;
    iteration_counts.push_back(static_cast<double>(s.iterations));
    if (s.cold_iterations > 0) {
      iterations += s.iterations;
      cold += s.cold_iterations;
    }
  }

  MetricSet& e = report.end_to_end;
  e.set("round_s", median(round_s), "s");
  e.set("close_s", median(close_s), "s");
  e.set("ingest_reports_per_s", median(ingest_rate), "reports/s");
  e.set("cpu_s_per_round", median(cpu), "s");
  e.set("bytes_per_round", mean(bytes), "B");
  e.set("messages_per_round", mean(messages), "msgs");
  e.set("peak_rss_mb", peak_rss_mb, "MB");
  e.set("setup_s", median(setups), "s");
  e.set("client_us_per_report", client.us_per_report(), "us");

  MetricSet& x = report.extras;
  x.set("rounds", static_cast<double>(samples.size()), "count");
  x.set("rss_growth_mb_per_round", rss_growth_mb_per_round, "MB");
  // The highest percentile with at least ten samples beyond it.
  if (round_s.size() >= 1'000) x.set("round_p99_s", quantile(round_s, 0.99), "s");
  x.set("failed_round_share",
        static_cast<double>(report.failed) /
            static_cast<double>(std::max<std::size_t>(1, report.attempted)),
        "share");

  MetricSet& l = report.layers;
  l.set("truth.iterations", median(iteration_counts), "count");
  if (cold > 0) {
    l.set("truth.warm_iteration_ratio",
          static_cast<double>(iterations) / static_cast<double>(cold),
          "ratio");
  }
  l.set("crowd.accepted_share",
        static_cast<double>(accepted) /
            static_cast<double>(std::max<std::size_t>(1, reports)),
        "share");
  l.set("net.delivered_share",
        1.0 - static_cast<double>(lost) /
                  static_cast<double>(std::max<std::size_t>(1, sent)),
        "share");
  if (!traced_round_s.empty() && !round_s.empty()) {
    l.set("bench.trace_overhead_share",
          median(traced_round_s) / median(round_s) - 1.0, "share");
  }
  if (samples.front().dist) record_dist_layers(samples, l, /*fallback=*/false);
  // Median error of the published truths against ground truth.
  if (plan.labels) {
    x.set("label_error_rate", median(errors), "share");
  } else {
    x.set("mae", median(errors), "value");
  }
}

void gate(RoundSample& s, std::uint64_t reference) {
  if (s.problem.empty() && result_digest(s.result) != reference) {
    s.problem = "published result differs from the in-process reference";
  }
}

/// crh_1m_inproc, crh_1m_uds, vote_1m_krr: one million-user stream replayed
/// every round (only the round field is re-encoded between rounds), gated
/// against one cold run_sharded over the same claims.
RunReport run_million(const RunOptions& options, bool labels, bool uds) {
  RunReport report;
  ClientTiming client;
  Stream stream = million_user_stream(options.seed, labels, client);
  truth::Result reference;
  {
    const auto method = make_round_method(stream);
    reference = method->run_sharded(reference_matrix(stream));
  }
  const std::uint64_t digest = result_digest(reference);
  report.reference_digest = hex(digest);
  // Rounds that pass the gate publish exactly the reference's truths.
  const double error = truth_error(stream, reference.truths);

  std::unique_ptr<ServerStack> server;
  std::unique_ptr<DistStack> dist;
  std::uint64_t round = 0;
  const auto run_one = [&]() {
    stream.set_round(++round);
    RoundSample s = uds ? dist->run_round(stream, /*via_network=*/false)
                        : server->run_round(stream);
    gate(s, digest);
    s.cold_iterations = reference.iterations;
    s.truth_error = error;
    return s;
  };

  Plan plan;
  plan.labels = labels;
  plan.rounds = uds ? 7 : 8;
  plan.setup = [&] {
    server.reset();
    dist.reset();
    round = 0;
    const double t = wall_s();
    if (uds) {
      dist = std::make_unique<DistStack>(stream, false, 0.0,
                                         options.socket_dir + "/fleet");
    } else {
      server = std::make_unique<ServerStack>(stream, false);
    }
    const double built = wall_s() - t;
    const RoundSample warm = run_one();
    if (!warm.problem.empty()) note_failure(report, "warm-up: " + warm.problem);
    return built + warm.round_s;
  };
  plan.round = [&](bool) { return run_one(); };
  plan.peak_rss_mb = [&] {
    return proc_peak_rss_mb(0) + (dist != nullptr ? dist->peak_rss_mb() : 0.0);
  };
  measure(options, plan, client, report);
  server.reset();
  dist.reset();

  if (!options.trace_path.empty()) {
    run_layer_suite(stream, digest, options.socket_dir, report);
  }
  return report;
}

/// crh_campaign_2k: warm-started rounds on the Coordinator + 3 in-process
/// ShardNodes over a simulator Network (1 ms links), each gated against an
/// in-process ShardedServer with the same warm configuration fed the same
/// report stream.
RunReport run_campaign(const RunOptions& options) {
  constexpr std::size_t kWarmupRounds = 50;
  constexpr double kLinkLatency = 0.001;
  RunReport report;
  ClientTiming client;
  std::unique_ptr<Campaign> campaign;
  std::unique_ptr<DistStack> dist;
  std::unique_ptr<ServerStack> reference;
  std::optional<Stream> ladder_stream;

  const auto run_one = [&](const Stream& stream, bool traced) {
    RoundSample s = dist->run_round(stream, /*via_network=*/true);
    tracer().set_enabled(false);
    const RoundSample ref = reference->run_round(stream);
    if (!ref.problem.empty()) {
      if (s.problem.empty()) s.problem = "reference: " + ref.problem;
    } else {
      gate(s, result_digest(ref.result));
    }
    if (traced) {
      const auto method = make_round_method(stream);
      s.cold_iterations =
          method->run_sharded(reference_matrix(stream)).iterations;
    }
    tracer().set_enabled(traced);
    s.truth_error = truth_error(stream, s.result.truths);
    return s;
  };

  // 2,000 rounds leave 20 samples beyond p99 (10 in a traced run, which
  // times every other round); 4,000 would not fit the benchmark's time cap.
  Plan plan;
  plan.rounds = 2'000;
  plan.setup = [&] {
    dist.reset();
    reference.reset();
    campaign = std::make_unique<Campaign>(options.seed);
    Stream first = campaign->next_round(client);
    double system_s = 0.0;
    const double t = wall_s();
    dist = std::make_unique<DistStack>(first, /*warm_start=*/true,
                                       kLinkLatency, "");
    system_s += wall_s() - t;
    reference = std::make_unique<ServerStack>(first, /*warm_start=*/true);
    for (std::size_t r = 0; r < kWarmupRounds; ++r) {
      const Stream stream = r == 0 ? std::move(first)
                                   : campaign->next_round(client);
      const RoundSample warm = run_one(stream, false);
      if (!warm.problem.empty()) {
        note_failure(report, "warm-up: " + warm.problem);
      }
      system_s += warm.round_s;
    }
    return system_s;
  };
  plan.round = [&](bool traced) {
    Stream stream = campaign->next_round(client);
    RoundSample s = run_one(stream, traced);
    if (!ladder_stream) ladder_stream = std::move(stream);
    return s;
  };
  plan.peak_rss_mb = [] { return proc_peak_rss_mb(0); };
  measure(options, plan, client, report);
  dist.reset();
  reference.reset();

  if (!options.trace_path.empty() && ladder_stream) {
    run_layer_suite(*ladder_stream, 0, options.socket_dir, report);
  }
  return report;
}

}  // namespace

RunReport run_workload(const RunOptions& options) {
  if (options.workload == "crh_1m_inproc") {
    return run_million(options, /*labels=*/false, /*uds=*/false);
  }
  if (options.workload == "crh_1m_uds") {
    return run_million(options, /*labels=*/false, /*uds=*/true);
  }
  if (options.workload == "vote_1m_krr") {
    return run_million(options, /*labels=*/true, /*uds=*/false);
  }
  if (options.workload == "crh_campaign_2k") return run_campaign(options);
  throw std::invalid_argument("unknown workload: " + options.workload);
}

}  // namespace dptd::bench
