// Entry points of the end-to-end benchmark driver: one workload per run, its
// end-to-end metrics untraced, or its per-layer metrics traced.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness.h"

namespace dptd::bench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  /// Non-empty: traced run, Chrome trace written here.
  std::string trace_path;
  /// Where shard sockets live (relative to the working directory).
  std::string socket_dir;
};

struct RunReport {
  std::size_t attempted = 0;  ///< measured rounds
  std::size_t failed = 0;     ///< measured rounds that failed a gate
  std::vector<std::string> failures;
  /// What a user sees, from untraced rounds. BENCHMARK.json bounds only
  /// those whose spread across seeds stays within the bound.
  MetricSet end_to_end;
  MetricSet layers;      ///< traced runs
  MetricSet extras;      ///< exact and descriptive values, both modes
  std::string reference_digest;

  bool correct() const { return failed == 0 && failures.empty(); }
};

/// Runs crh_1m_inproc, crh_1m_uds, crh_campaign_2k or vote_1m_krr; throws
/// std::invalid_argument for any other name.
RunReport run_workload(const RunOptions& options);

/// Traced runs: every layer's kernels alone on `stream`, then the ladder —
/// the same stream through each layer in order. `reference_digest` (0 =
/// none) is the cold in-process result the ladder rows must reproduce.
void run_layer_suite(Stream& stream, std::uint64_t reference_digest,
                     const std::string& socket_dir, RunReport& report);

}  // namespace dptd::bench
