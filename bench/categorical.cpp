// Million-user capacity benchmark for the categorical (label-claim) stack —
// the categorical twin of bench/sharded.cpp.
//
// Suites:
//  - BM_MillionUserMajorityVote: a synthetic round of 1,000,000 label
//    reports streamed into K per-shard ObservationMatrixBuilders (label ids
//    as exact doubles, the store ShardedServer and ShardNode ingest into),
//    and closed with truth::MajorityVote::run_sharded. Results are bitwise
//    identical at every K, so rows differ only in time. The weighted twin of
//    this row is bench/e2e's vote_1m_krr workload.
//  - BM_RandomizedResponseVote: the LDP deployment at a smaller fleet —
//    user-sampled k-RR perturbation plus truth::WeightedVote — reporting
//    label accuracy against ground truth as counters (the
//    utility-under-privacy row the extension's accuracy story tracks).
//
// Thread-scaling caveats match bench/sharded.cpp: the voting folds use all
// cores, so cross-machine comparisons of the timed rows only make sense at
// equal core counts.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "categorical/label_matrix.h"
#include "categorical/randomized_response.h"
#include "categorical/synthetic.h"
#include "common/stopwatch.h"
#include "data/builder.h"
#include "data/sharding.h"
#include "truth/categorical.h"

namespace {

using dptd::categorical::Label;
using dptd::data::ObservationMatrix;
using dptd::data::ObservationMatrixBuilder;
using dptd::data::ShardedMatrix;
using dptd::data::ShardPlan;

constexpr std::size_t kMillionUsers = 1'000'000;
constexpr std::size_t kObjects = 1'000;
constexpr std::size_t kLabels = 8;
constexpr std::size_t kClaimsPerUser = 6;
/// Big blocks keep the canonical fold coarse at this scale; every run in
/// this file uses the same block size, so all K compare bitwise.
constexpr std::size_t kBlock = 4'096;

struct LabelRow {
  std::vector<std::uint64_t> objects;
  std::vector<double> labels;  ///< label ids as exact doubles
};

inline std::uint64_t xorshift(std::uint64_t& state) {
  state ^= state << 13;
  state ^= state >> 7;
  state ^= state << 17;
  return state;
}

/// One user's label report, generated procedurally (cheap xorshift noise
/// around a per-object true label) so data generation never dominates the
/// ingest timing. ~12% of claims flip to a wrong label, giving weighted
/// voting real disagreement to weigh.
LabelRow make_row(std::size_t user) {
  LabelRow row;
  row.objects.reserve(kClaimsPerUser);
  row.labels.reserve(kClaimsPerUser);
  std::uint64_t rng = 0x9e3779b97f4a7c15ull ^ (user * 0xbf58476d1ce4e5b9ull);
  const std::size_t start = xorshift(rng) % kObjects;
  const std::size_t stride = 1 + xorshift(rng) % 97;
  for (std::size_t j = 0; j < kClaimsPerUser; ++j) {
    const std::size_t object = (start + j * stride) % kObjects;
    Label label = static_cast<Label>(object % kLabels);
    if (xorshift(rng) % 100 < 12) {
      label = static_cast<Label>(
          (label + 1 + xorshift(rng) % (kLabels - 1)) % kLabels);
    }
    row.objects.push_back(object);
    row.labels.push_back(static_cast<double>(label));
  }
  return row;
}

/// Streams `users` synthetic label reports into K per-shard builders and
/// finalizes them into the sharded matrix. Returns the matrix and the
/// pure-ingest time.
ShardedMatrix ingest_round(std::size_t users, std::size_t num_shards,
                           double* ingest_seconds) {
  const ShardPlan plan = ShardPlan::create(users, num_shards, kBlock);
  std::vector<ObservationMatrixBuilder> builders;
  builders.reserve(plan.num_shards);
  for (std::size_t i = 0; i < plan.num_shards; ++i) {
    builders.emplace_back(plan.shard_num_users(i), kObjects);
  }

  dptd::Stopwatch timer;
  for (std::size_t user = 0; user < users; ++user) {
    const LabelRow row = make_row(user);
    const std::size_t shard = plan.shard_of_user(user);
    builders[shard].add_row(user - plan.user_begin(shard), row.objects,
                            row.labels);
  }
  std::vector<ObservationMatrix> shards;
  shards.reserve(builders.size());
  for (ObservationMatrixBuilder& builder : builders) {
    shards.push_back(builder.finalize());
  }
  *ingest_seconds = timer.elapsed_seconds();
  return ShardedMatrix::from_shards(plan, std::move(shards), kObjects);
}

/// Full capacity round at 1M users: label ingest + sharded plurality vote.
/// Arg 0 = shard count; all counts publish bitwise-identical truths.
void BM_MillionUserMajorityVote(benchmark::State& state) {
  const auto num_shards = static_cast<std::size_t>(state.range(0));
  const dptd::truth::MajorityVote vote(
      {.num_labels = kLabels, .num_threads = 0});  // all cores
  double ingest_seconds = 0.0;
  double aggregate_seconds = 0.0;
  std::size_t rounds = 0;
  std::size_t iterations = 0;
  for (auto _ : state) {
    double ingest = 0.0;
    const ShardedMatrix matrix =
        ingest_round(kMillionUsers, num_shards, &ingest);
    dptd::Stopwatch agg;
    const dptd::truth::Result result = vote.run_sharded(matrix);
    aggregate_seconds += agg.elapsed_seconds();
    benchmark::DoNotOptimize(result.truths.data());
    ingest_seconds += ingest;
    ++rounds;
    iterations += result.iterations;
  }
  const auto per_round = [&](double total) {
    return rounds > 0 ? total / static_cast<double>(rounds) : 0.0;
  };
  state.counters["ingest_rows_per_sec"] = benchmark::Counter(
      ingest_seconds > 0.0
          ? static_cast<double>(rounds * kMillionUsers) / ingest_seconds
          : 0.0);
  state.counters["ingest_seconds"] =
      benchmark::Counter(per_round(ingest_seconds));
  state.counters["aggregate_seconds"] =
      benchmark::Counter(per_round(aggregate_seconds));
  state.counters["vote_iterations"] =
      benchmark::Counter(per_round(static_cast<double>(iterations)));
}

BENCHMARK(BM_MillionUserMajorityVote)
    ->Arg(1)
    ->Arg(8)
    ->ArgName("shards")
    ->Unit(benchmark::kSecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

/// The LDP utility row: a 150k-user fleet perturbing labels with
/// user-sampled k-RR (mean eps = 1/lambda_rr), closed with truth::WeightedVote.
/// Accuracy counters track the privacy-utility trade-off alongside the
/// timing; lower lambda_rr = weaker privacy = higher accuracy.
void BM_RandomizedResponseVote(benchmark::State& state) {
  const double lambda_rr = static_cast<double>(state.range(0)) / 100.0;
  dptd::categorical::CategoricalConfig config;
  config.num_users = 150'000;
  config.num_objects = 500;
  config.num_labels = kLabels;
  config.lambda_err = 5.0;
  config.missing_rate = 0.2;
  config.seed = 51;
  const dptd::categorical::LabelDataset dataset =
      dptd::categorical::generate_categorical(config);
  const dptd::categorical::UserSampledRandomizedResponse mech(
      {.lambda_rr = lambda_rr, .seed = 52});
  dptd::truth::WeightedVoteConfig vote_config;
  vote_config.num_labels = kLabels;
  vote_config.num_threads = 0;  // all cores
  const dptd::truth::WeightedVote vote(vote_config);
  double accuracy = 0.0;
  double flip_rate = 0.0;
  for (auto _ : state) {
    const dptd::categorical::RandomizedResponseOutcome outcome =
        mech.perturb(dataset.claims, dataset.num_labels);
    const dptd::truth::Result result =
        vote.run_sharded(ShardedMatrix::single(outcome.perturbed, kBlock));
    benchmark::DoNotOptimize(result.truths.data());
    accuracy = dptd::categorical::label_accuracy(
        dptd::truth::labels_from_doubles(result.truths, kLabels),
        dataset.ground_truth);
    flip_rate = static_cast<double>(outcome.report.flipped_cells) /
                static_cast<double>(outcome.report.total_cells);
  }
  state.counters["label_accuracy"] = benchmark::Counter(accuracy);
  state.counters["flip_rate"] = benchmark::Counter(flip_rate);
}
BENCHMARK(BM_RandomizedResponseVote)
    ->Arg(50)    // lambda_rr = 0.5: mean eps 2, mild flipping
    ->Arg(200)   // lambda_rr = 2.0: mean eps 0.5, heavy flipping
    ->ArgName("lambda_rr_x100")
    ->Unit(benchmark::kSecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
