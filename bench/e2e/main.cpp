// dptd_bench_e2e: the end-to-end round benchmark driver.
//
//   dptd_bench_e2e --workload=NAME --seed=N --out=PATH [--trace=PATH]
//                  [--sockets=DIR]
//
// Runs one workload (see bench/e2e/README.md) and writes its result as JSON
// to --out: the end-to-end metrics of an untraced run, or, with --trace, the
// per-layer metrics plus a Chrome trace-event file. The process is the only
// load generator: one producer thread, closed loop. Round counts are
// constants of each workload.
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <thread>

#include "common/check.h"
#include "common/cli.h"
#include "common/json_writer.h"
#include "driver.h"

namespace {

using namespace dptd;
using namespace dptd::bench;

void write_metrics(JsonWriter& json, const char* key, const MetricSet& set) {
  json.key(key).begin_object();
  for (const Metric& metric : set.items()) {
    json.key(metric.name).begin_object();
    json.key("value").value(metric.value);
    json.key("unit").value(metric.unit);
    json.end_object();
  }
  json.end_object();
}

void write_result(const std::string& path, const RunOptions& options,
                  const RunReport& report) {
  std::ofstream out(path);
  DPTD_CHECK(out.good(), "cannot write " + path);
  JsonWriter json(out);
  json.begin_object();
  json.key("workload").value(options.workload);
  json.key("seed").value(static_cast<std::size_t>(options.seed));
  json.key("traced").value(!options.trace_path.empty());
  json.key("trace").value(options.trace_path);
  json.key("nproc").value(
      static_cast<std::size_t>(std::thread::hardware_concurrency()));
  json.key("correct").value(report.correct());
  json.key("attempted").value(report.attempted);
  json.key("failed").value(report.failed);
  json.key("failures").begin_array();
  for (const std::string& failure : report.failures) json.value(failure);
  json.end_array();
  json.key("reference_digest").value(report.reference_digest);
  write_metrics(json, "end_to_end", report.end_to_end);
  write_metrics(json, "layers", report.layers);
  write_metrics(json, "extras", report.extras);
  json.end_object();
  out << '\n';
}

/// Shard mode: this executable re-run by ShardFleet as one shard process.
bool shard_mode(int argc, char** argv, int& status) {
  std::string listen;
  long long id = -1;
  long long parent = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--shard-listen=", 0) == 0) listen = arg.substr(15);
    if (arg.rfind("--shard-id=", 0) == 0) id = std::stoll(arg.substr(11));
    if (arg.rfind("--parent=", 0) == 0) parent = std::stoll(arg.substr(9));
  }
  if (listen.empty()) return false;
  status = run_shard_process(listen, static_cast<net::NodeId>(id),
                             static_cast<pid_t>(parent));
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    int status = 0;
    if (shard_mode(argc, argv, status)) return status;

    CliParser cli(
        "End-to-end round benchmark: one workload, closed loop, gated "
        "against an in-process reference.");
    cli.add_string("workload", "", "crh_1m_inproc | crh_1m_uds | "
                                   "crh_campaign_2k | vote_1m_krr");
    cli.add_int("seed", 1, "workload seed");
    cli.add_string("trace", "", "traced run: Chrome trace output path");
    cli.add_string("out", "", "result JSON path");
    cli.add_string("sockets", "build-bench/e2e/sockets",
                   "directory for shard sockets (keep the path short)");
    if (!cli.parse(argc, argv)) return 0;

    RunOptions options;
    options.workload = cli.get_string("workload");
    options.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
    options.trace_path = cli.get_string("trace");
    options.socket_dir = cli.get_string("sockets");
    const std::string out = cli.get_string("out");
    if (out.empty()) {
      std::fprintf(stderr, "--out is required\n");
      return 2;
    }

    const RunReport report = run_workload(options);
    if (!options.trace_path.empty()) tracer().write(options.trace_path);
    write_result(out, options, report);
    for (const std::string& failure : report.failures) {
      std::fprintf(stderr, "FAILED: %s\n", failure.c_str());
    }
    return 0;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
}
