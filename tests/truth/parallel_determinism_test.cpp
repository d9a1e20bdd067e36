// Determinism guarantee of the parallel kernels: every registry method must
// produce bit-identical results for any thread-pool size, because each truth
// (and each weight) is accumulated in a fixed order (canonical user blocks in
// ascending order, or one user's row) regardless of how shards land on
// workers.
#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "data/synthetic.h"
#include "truth/interface.h"
#include "truth/registry.h"

namespace dptd::truth {
namespace {

data::Dataset seeded_sparse_dataset() {
  data::SyntheticConfig config;
  // Both dimensions sit above for_each_range's serial-fallback threshold
  // (512), so these runs genuinely shard users and objects across the pool.
  config.num_users = 600;
  config.num_objects = 520;
  config.missing_rate = 0.45;  // exercise ragged rows and columns
  config.seed = 2027;
  return data::generate_synthetic(config);
}

void expect_bitwise_equal(const Result& a, const Result& b,
                          const std::string& label) {
  ASSERT_EQ(a.truths.size(), b.truths.size()) << label;
  for (std::size_t n = 0; n < a.truths.size(); ++n) {
    // EXPECT_EQ on doubles is exact comparison — bit-identity, not closeness.
    EXPECT_EQ(a.truths[n], b.truths[n]) << label << " truth " << n;
  }
  ASSERT_EQ(a.weights.size(), b.weights.size()) << label;
  for (std::size_t s = 0; s < a.weights.size(); ++s) {
    EXPECT_EQ(a.weights[s], b.weights[s]) << label << " weight " << s;
  }
  EXPECT_EQ(a.iterations, b.iterations) << label;
  EXPECT_EQ(a.converged, b.converged) << label;
}

TEST(ParallelDeterminism, AllRegistryMethodsMatchSerialAtFourThreads) {
  const data::Dataset dataset = seeded_sparse_dataset();
  for (const std::string& name : method_names()) {
    const auto serial = make_method(name, {}, /*num_threads=*/1);
    const auto threaded = make_method(name, {}, /*num_threads=*/4);
    const Result a = serial->run(dataset.observations);
    const Result b = threaded->run(dataset.observations);
    expect_bitwise_equal(a, b, name);
  }
}

TEST(ParallelDeterminism, ThreadedRunsAreRepeatable) {
  // Two identical multi-threaded runs must agree with each other, too (no
  // run-to-run scheduling dependence).
  const data::Dataset dataset = seeded_sparse_dataset();
  const auto threaded = make_method("crh", {}, /*num_threads=*/4);
  const Result a = threaded->run(dataset.observations);
  const Result b = threaded->run(dataset.observations);
  expect_bitwise_equal(a, b, "crh repeat");
}

TEST(ParallelDeterminism, WeightedAggregateMatchesSerialUnderPool) {
  const data::Dataset dataset = seeded_sparse_dataset();
  std::vector<double> weights(dataset.num_users(), 0.0);
  for (std::size_t s = 0; s < weights.size(); ++s) {
    weights[s] = 0.25 + static_cast<double>(s % 7);
  }
  const std::vector<double> serial =
      weighted_aggregate(dataset.observations, weights);
  ThreadPool pool(4);
  const std::vector<double> threaded =
      weighted_aggregate(dataset.observations, weights, &pool);
  ASSERT_EQ(serial.size(), threaded.size());
  for (std::size_t n = 0; n < serial.size(); ++n) {
    EXPECT_EQ(serial[n], threaded[n]) << "object " << n;
  }
}

TEST(ParallelDeterminism, HardwareConcurrencyAliasAlsoMatches) {
  // num_threads = 0 means "all cores"; whatever that resolves to, results
  // must not move.
  const data::Dataset dataset = seeded_sparse_dataset();
  const auto serial = make_method("gtm", {}, /*num_threads=*/1);
  const auto automatic = make_method("gtm", {}, /*num_threads=*/0);
  expect_bitwise_equal(serial->run(dataset.observations),
                       automatic->run(dataset.observations), "gtm auto");
}

}  // namespace
}  // namespace dptd::truth
