// Factory for truth-discovery methods by name, used by examples/benches to
// switch methods from the command line.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "truth/interface.h"

namespace dptd::truth {

/// Builds "crh", "gtm", "catd", "mean" or "median" with the given
/// convergence criteria (ignored by single-pass baselines) and worker thread
/// count (1 = serial, 0 = hardware concurrency; every method is
/// bit-identical across thread counts). The iterative methods ("crh",
/// "gtm", "catd") honor TruthDiscovery::run_warm for multi-round warm
/// starts; the single-pass baselines ignore the seed. Throws
/// std::invalid_argument for unknown names. The categorical votes are not
/// registered: a vote needs its label alphabet, so build truth::MajorityVote
/// or truth::WeightedVote (truth/categorical.h) with the round's alphabet.
std::unique_ptr<TruthDiscovery> make_method(
    const std::string& name, const ConvergenceCriteria& convergence = {},
    std::size_t num_threads = 1);

/// Every name make_method accepts, in display order. Drivers that sweep
/// methods over real-valued datasets iterate this list.
std::vector<std::string> method_names();

/// True when `name` builds a method whose run_warm honors the seed
/// (supports_warm_start()); false for baselines. Throws for unknown names.
bool method_supports_warm_start(const std::string& name);

}  // namespace dptd::truth
