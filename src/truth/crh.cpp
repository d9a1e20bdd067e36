#include "truth/crh.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "truth/fold_backend.h"

namespace dptd::truth {
namespace {

/// Hands the backend the loss constants. The normalized loss divides by each
/// object's claim stddev — loop-invariant, so one block-chained moment fold
/// per run; count < 2 or zero spread keeps 1.0 (raw squared distance).
void prepare(FoldBackend& backend, const CrhConfig& config) {
  std::vector<double> stddevs(backend.num_objects(), 1.0);
  if (config.loss == CrhLoss::kNormalizedSquared) {
    std::vector<RunningStats> moments(backend.num_objects());
    backend.moments(moments);
    for (std::size_t n = 0; n < stddevs.size(); ++n) {
      if (moments[n].count() >= 2 && moments[n].stddev() > 0.0) {
        stddevs[n] = moments[n].stddev();
      }
    }
  }
  backend.crh_prepare(config.loss, config.min_loss_fraction, stddevs);
}

}  // namespace

void crh_user_losses(const data::ShardedMatrix& shards, ThreadPool* pool,
                     CrhLoss loss_kind, std::span<const double> truths,
                     std::span<const double> stddevs,
                     std::span<double> losses) {
  DPTD_REQUIRE(losses.size() == shards.num_users(),
               "crh_user_losses: losses size != num users");
  for_each_user_row(shards, pool, [&](std::size_t s, auto row) {
    double loss = 0.0;
    for (const auto& e : row) {
      const double diff = e.value - truths[e.object];
      switch (loss_kind) {
        case CrhLoss::kNormalizedSquared:
          loss += diff * diff / stddevs[e.object];
          break;
        case CrhLoss::kSquared:
          loss += diff * diff;
          break;
        case CrhLoss::kAbsolute:
          loss += std::abs(diff);
          break;
      }
    }
    losses[s] = loss;
  });
}

void crh_weights_from_losses(ThreadPool* pool, std::span<const double> losses,
                             double total, double min_loss_fraction,
                             std::span<double> weights) {
  DPTD_REQUIRE(weights.size() == losses.size(),
               "crh_weights_from_losses: weights size != losses size");
  if (total <= 0.0) {
    // All users agree exactly with the truths: equal (unit) weights.
    std::fill(weights.begin(), weights.end(), 1.0);
    return;
  }
  for_each_range(pool, losses.size(), [&](std::size_t begin, std::size_t end) {
    for (std::size_t s = begin; s < end; ++s) {
      const double fraction = std::max(losses[s] / total, min_loss_fraction);
      // Eq. (3): w_s = -log(loss_s / total); non-negative since fraction <= 1.
      weights[s] = -std::log(fraction);
    }
  });
}

Crh::Crh(CrhConfig config) : FoldMethod(config.num_threads), config_(config) {
  DPTD_REQUIRE(config_.convergence.tolerance > 0.0,
               "Crh: tolerance must be positive");
  DPTD_REQUIRE(config_.convergence.max_iterations > 0,
               "Crh: max_iterations must be positive");
  DPTD_REQUIRE(config_.min_loss_fraction > 0.0 &&
                   config_.min_loss_fraction < 1.0,
               "Crh: min_loss_fraction must be in (0,1)");
}

std::vector<double> Crh::estimate_weights(
    const data::ObservationMatrix& obs,
    const std::vector<double>& truths) const {
  DPTD_REQUIRE(truths.size() == obs.num_objects(),
               "Crh::estimate_weights: truths size != num objects");
  const data::ShardedMatrix shards = data::ShardedMatrix::single(obs);
  RunPool pool(config_.num_threads);
  LocalBackend backend(shards, pool.get());
  prepare(backend, config_);
  backend.crh_weights(backend.crh_loss(truths, 0.0));
  return backend.collect_weights();
}

Result Crh::run_folds(FoldBackend& backend, const WarmStart& warm) const {
  prepare(backend, config_);
  Result result;
  if (warm.weights.empty() && !warm.truths.empty()) {
    // Truths-only seed: enter the loop at the weight update.
    result.truths = warm.truths;
  } else {
    // Algorithm 1 line 1: uniform weights — or the previous round's
    // converged weights, which aggregate THIS round's claims far closer to
    // the new fixed point than stale truths would (user quality persists
    // across rounds; truths and noise do not).
    backend.set_weights(warm.weights);
    result.truths = aggregate_truths(backend);
  }

  backend.begin_iterations();
  for (std::size_t it = 1; it <= config_.convergence.max_iterations; ++it) {
    // The loss total is the only cross-user scalar: a block-chained sum,
    // identical however the users are sharded.
    backend.crh_weights(backend.crh_loss(result.truths, 0.0));
    std::vector<double> next = aggregate_truths(backend);
    const double change = truth_change(result.truths, next);
    result.truths = std::move(next);
    result.iterations = it;
    if (change < config_.convergence.tolerance) {
      result.converged = true;
      break;
    }
  }
  backend.end_iterations();
  result.weights = backend.collect_weights();
  return result;
}

}  // namespace dptd::truth
