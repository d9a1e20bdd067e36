// §5.3 scalability claims: truth-discovery running time is linear in the
// number of objects (and near-linear in users) at a fixed iteration budget,
// and the perturbation step itself is negligible next to aggregation.
#include <benchmark/benchmark.h>

#include "core/mechanism.h"
#include "data/synthetic.h"
#include "truth/catd.h"
#include "truth/crh.h"
#include "truth/gtm.h"
#include "truth/interface.h"

namespace {

/// Fixed sparsity for the scaling curves: crowd sensing matrices are sparse
/// (each user covers a fraction of the objects), and the sparse layout's
/// O(nnz) iteration cost only shows against a dense scan at < 100% coverage.
constexpr double kMissingRate = 0.75;

dptd::data::Dataset make(std::size_t users, std::size_t objects) {
  dptd::data::SyntheticConfig config;
  config.num_users = users;
  config.num_objects = objects;
  config.missing_rate = kMissingRate;
  config.seed = 97;
  return dptd::data::generate_synthetic(config);
}

/// Fixed iteration budget isolates per-iteration cost, which must scale
/// linearly in N (paper cites [19]).
dptd::truth::Crh fixed_iteration_crh(std::size_t num_threads = 1) {
  dptd::truth::CrhConfig config;
  config.convergence.max_iterations = 5;
  config.convergence.tolerance = 1e-300;  // never converges early
  config.num_threads = num_threads;
  return dptd::truth::Crh(config);
}

void BM_CrhObjectsScaling(benchmark::State& state) {
  const auto dataset = make(100, static_cast<std::size_t>(state.range(0)));
  const auto crh = fixed_iteration_crh();
  for (auto _ : state) {
    benchmark::DoNotOptimize(crh.run(dataset.observations));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_CrhObjectsScaling)
    ->RangeMultiplier(2)
    ->Range(1'000, 32'000)
    ->Complexity(benchmark::oN)
    ->Unit(benchmark::kMillisecond);

/// Same kernel across the ThreadPool; results are bit-identical to the
/// serial run, so this measures pure multi-core speedup (0 = all cores).
void BM_CrhObjectsScalingParallel(benchmark::State& state) {
  const auto dataset = make(100, 32'000);
  const auto crh =
      fixed_iteration_crh(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(crh.run(dataset.observations));
  }
}
BENCHMARK(BM_CrhObjectsScalingParallel)
    ->Arg(2)
    ->Arg(4)
    ->Arg(0)
    ->ArgName("threads")
    ->Unit(benchmark::kMillisecond);

void BM_CrhUsersScaling(benchmark::State& state) {
  const auto dataset = make(static_cast<std::size_t>(state.range(0)), 200);
  const auto crh = fixed_iteration_crh();
  for (auto _ : state) {
    benchmark::DoNotOptimize(crh.run(dataset.observations));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_CrhUsersScaling)
    ->RangeMultiplier(2)
    ->Range(125, 4'000)
    ->Complexity(benchmark::oN)
    ->Unit(benchmark::kMillisecond);

void BM_GtmObjectsScaling(benchmark::State& state) {
  const auto dataset = make(100, static_cast<std::size_t>(state.range(0)));
  dptd::truth::GtmConfig config;
  config.convergence.max_iterations = 5;
  config.convergence.tolerance = 1e-300;
  const dptd::truth::Gtm gtm(config);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gtm.run(dataset.observations));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_GtmObjectsScaling)
    ->RangeMultiplier(2)
    ->Range(1'000, 16'000)
    ->Complexity(benchmark::oN)
    ->Unit(benchmark::kMillisecond);

void BM_CatdObjectsScaling(benchmark::State& state) {
  const auto dataset = make(100, static_cast<std::size_t>(state.range(0)));
  dptd::truth::CatdConfig config;
  config.convergence.max_iterations = 5;
  config.convergence.tolerance = 1e-300;
  const dptd::truth::Catd catd(config);
  for (auto _ : state) {
    benchmark::DoNotOptimize(catd.run(dataset.observations));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_CatdObjectsScaling)
    ->RangeMultiplier(2)
    ->Range(1'000, 16'000)
    ->Complexity(benchmark::oN)
    ->Unit(benchmark::kMillisecond);

/// The shared Eq. (1) kernel on its own: one weighted aggregation pass (no
/// iteration loop, no weight update).
void BM_WeightedAggregate(benchmark::State& state) {
  const auto dataset = make(100, static_cast<std::size_t>(state.range(0)));
  const std::vector<double> weights(dataset.num_users(), 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        dptd::truth::weighted_aggregate(dataset.observations, weights));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_WeightedAggregate)
    ->RangeMultiplier(4)
    ->Range(2'000, 32'000)
    ->Complexity(benchmark::oN)
    ->Unit(benchmark::kMillisecond);

/// Perturbation cost per cell — must be tiny relative to an aggregation
/// iteration ("the time to add random noise is negligible", §5.3).
void BM_PerturbationOnly(benchmark::State& state) {
  const auto dataset = make(100, static_cast<std::size_t>(state.range(0)));
  const dptd::core::UserSampledGaussianMechanism mech(
      {.lambda2 = 1.0, .seed = 3});
  for (auto _ : state) {
    benchmark::DoNotOptimize(mech.perturb(dataset.observations));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_PerturbationOnly)
    ->RangeMultiplier(2)
    ->Range(1'000, 32'000)
    ->Complexity(benchmark::oN)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
