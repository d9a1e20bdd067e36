#include "truth/interface.h"

#include <cmath>
#include <stdexcept>

#include "common/check.h"
#include "truth/sharded_stats.h"

namespace dptd::truth {

std::vector<double> Result::normalized_weights() const {
  double total = 0.0;
  for (double w : weights) total += w;
  if (total <= 0.0) {
    // No quality signal at all (every weight zero): the only distribution
    // that treats users consistently is the uniform one. Returning zeros
    // here would silently break "sums to 1" invariants downstream.
    return std::vector<double>(weights.size(),
                               weights.empty()
                                   ? 0.0
                                   : 1.0 / static_cast<double>(weights.size()));
  }
  std::vector<double> out(weights.size(), 0.0);
  for (std::size_t s = 0; s < weights.size(); ++s) out[s] = weights[s] / total;
  return out;
}

void validate_warm_start(std::size_t num_users, std::size_t num_objects,
                         const WarmStart& warm) {
  if (!warm.truths.empty()) {
    DPTD_REQUIRE(warm.truths.size() == num_objects,
                 "WarmStart: truths size != num objects");
    for (double t : warm.truths) {
      DPTD_REQUIRE(std::isfinite(t), "WarmStart: non-finite truth");
    }
  }
  if (!warm.weights.empty()) {
    DPTD_REQUIRE(warm.weights.size() == num_users,
                 "WarmStart: weights size != num users");
    for (double w : warm.weights) {
      DPTD_REQUIRE(std::isfinite(w) && w >= 0.0,
                   "WarmStart: weights must be finite and >= 0");
    }
  }
}

void validate_warm_start(const data::ObservationMatrix& observations,
                         const WarmStart& warm) {
  validate_warm_start(observations.num_users(), observations.num_objects(),
                      warm);
}

Result TruthDiscovery::run_folds(FoldBackend& backend,
                                 const WarmStart& warm) const {
  (void)backend;
  (void)warm;
  throw std::logic_error(name() + ": no fold loop");
}

void weighted_aggregate_fold(const data::ShardedMatrix& shards,
                             std::span<const double> weights,
                             AggregateStats& acc, ThreadPool* pool) {
  const std::size_t N = shards.num_objects();
  DPTD_REQUIRE(weights.size() == shards.num_users(),
               "weighted_aggregate: weight vector size != num users");
  DPTD_REQUIRE(acc.weighted_sum.size() == N && acc.weight_sum.size() == N &&
                   acc.plain_sum.size() == N && acc.counts.size() == N,
               "weighted_aggregate_fold: accumulator size != num objects");
  fold_object_stats<3>(
      shards, pool,
      [&](std::size_t user, std::size_t, double value,
          std::array<double, 3>& contrib) {
        contrib[0] = weights[user] * value;
        contrib[1] = weights[user];
        contrib[2] = value;
      },
      {acc.weighted_sum.data(), acc.weight_sum.data(), acc.plain_sum.data()},
      acc.counts.data());
}

std::vector<double> truths_from_aggregate(const AggregateStats& acc,
                                          ThreadPool* pool) {
  const std::size_t N = acc.counts.size();
  std::vector<double> truths(N, 0.0);
  for_each_range(pool, N, [&](std::size_t begin, std::size_t end) {
    for (std::size_t n = begin; n < end; ++n) {
      DPTD_REQUIRE(acc.counts[n] > 0,
                   "weighted_aggregate: object with no claims");
      if (acc.weight_sum[n] > 0.0) {
        truths[n] = acc.weighted_sum[n] / acc.weight_sum[n];
      } else {
        // Every claimant has zero weight; fall back to the unweighted mean so
        // the object still gets a defined estimate.
        truths[n] = acc.plain_sum[n] / static_cast<double>(acc.counts[n]);
      }
    }
  });
  return truths;
}

std::vector<double> weighted_aggregate(const data::ShardedMatrix& shards,
                                       const std::vector<double>& weights,
                                       ThreadPool* pool) {
  for (double w : weights) {
    DPTD_REQUIRE(std::isfinite(w) && w >= 0.0,
                 "weighted_aggregate: weights must be finite and >= 0");
  }
  AggregateStats acc;
  acc.reset(shards.num_objects());
  weighted_aggregate_fold(shards, weights, acc, pool);
  return truths_from_aggregate(acc, pool);
}

std::vector<double> weighted_aggregate(const data::ObservationMatrix& obs,
                                       const std::vector<double>& weights,
                                       ThreadPool* pool) {
  return weighted_aggregate(data::ShardedMatrix::single(obs), weights, pool);
}

double truth_change(const std::vector<double>& a,
                    const std::vector<double>& b) {
  DPTD_REQUIRE(a.size() == b.size() && !a.empty(),
               "truth_change: size mismatch or empty");
  double sum = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) sum += std::abs(a[i] - b[i]);
  return sum / static_cast<double>(a.size());
}

}  // namespace dptd::truth
