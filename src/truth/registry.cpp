#include "truth/registry.h"

#include "common/check.h"
#include "truth/baselines.h"
#include "truth/catd.h"
#include "truth/crh.h"
#include "truth/gtm.h"

namespace dptd::truth {

std::unique_ptr<TruthDiscovery> make_method(
    const std::string& name, const ConvergenceCriteria& convergence,
    std::size_t num_threads) {
  if (name == "crh") {
    CrhConfig config;
    config.convergence = convergence;
    config.num_threads = num_threads;
    return std::make_unique<Crh>(config);
  }
  if (name == "gtm") {
    GtmConfig config;
    config.convergence = convergence;
    config.num_threads = num_threads;
    return std::make_unique<Gtm>(config);
  }
  if (name == "catd") {
    CatdConfig config;
    config.convergence = convergence;
    config.num_threads = num_threads;
    return std::make_unique<Catd>(config);
  }
  if (name == "mean") return std::make_unique<MeanAggregator>(num_threads);
  if (name == "median") return std::make_unique<MedianAggregator>(num_threads);
  DPTD_REQUIRE(false, "unknown truth-discovery method: " + name);
  return nullptr;
}

std::vector<std::string> method_names() {
  return {"crh", "gtm", "catd", "mean", "median"};
}

bool method_supports_warm_start(const std::string& name) {
  return make_method(name)->supports_warm_start();
}

}  // namespace dptd::truth
