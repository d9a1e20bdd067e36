#include "truth/catd.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/special_functions.h"
#include "common/statistics.h"
#include "truth/fold_backend.h"

namespace dptd::truth {

Catd::Catd(CatdConfig config)
    : FoldMethod(config.num_threads), config_(config) {
  DPTD_REQUIRE(config_.significance > 0.0 && config_.significance < 1.0,
               "Catd: significance must be in (0,1)");
  DPTD_REQUIRE(config_.convergence.max_iterations > 0,
               "Catd: max_iterations must be positive");
  DPTD_REQUIRE(config_.min_residual > 0.0,
               "Catd: min_residual must be positive");
}

void catd_chi_squared(const data::ShardedMatrix& shards, ThreadPool* pool,
                      double significance, std::span<double> chi2) {
  for_each_user_row(shards, pool, [&](std::size_t s, auto row) {
    if (!row.empty()) {
      // Lower-tail quantile at alpha/2 == upper-tail at 1 - alpha/2.
      chi2[s] = chi_squared_quantile(1.0 - significance / 2.0,
                                     static_cast<double>(row.size()));
    }
  });
}

void catd_user_weights(const data::ShardedMatrix& shards, ThreadPool* pool,
                       std::span<const double> chi2,
                       std::span<const double> truths, double min_residual,
                       std::span<double> weights) {
  for_each_user_row(shards, pool, [&](std::size_t s, auto row) {
    if (row.empty()) {
      weights[s] = 0.0;
      return;
    }
    double residual = 0.0;
    for (const auto& e : row) {
      const double d = e.value - truths[e.object];
      residual += d * d;
    }
    weights[s] = chi2[s] / std::max(residual, min_residual);
  });
}

Result Catd::run_folds(FoldBackend& backend, const WarmStart& warm) const {
  // Chi-squared quantiles depend only on each user's claim count: cached
  // once, shard-local (a user's row lives wholly on one shard).
  backend.catd_prepare(config_.significance, config_.min_residual);

  Result result;
  if (!warm.weights.empty()) {
    // Seeded start: the previous round's converged weights aggregate THIS
    // round's claims (user quality persists across rounds; truths and noise
    // do not).
    backend.set_weights(warm.weights);
    result.truths = aggregate_truths(backend);
  } else if (!warm.truths.empty()) {
    // Truths-only seed: stand in for the median initialization.
    result.truths = warm.truths;
  } else {
    // Initialize truths at per-object medians (the CATD paper's robust
    // start). Columns are gathered across shards in global user order, so
    // the copy each median sorts is the flat matrix's column.
    const GatheredColumns columns = backend.gather();
    result.truths.resize(backend.num_objects());
    for_each_range(backend.pool(), result.truths.size(),
                   [&](std::size_t begin, std::size_t end) {
                     for (std::size_t n = begin; n < end; ++n) {
                       const auto col = columns.column(n);
                       DPTD_REQUIRE(!col.empty(),
                                    "Catd::run: object with no claims");
                       result.truths[n] = median(col);
                     }
                   });
  }

  backend.begin_iterations();
  for (std::size_t it = 1; it <= config_.convergence.max_iterations; ++it) {
    // Weight update: w_s = chi2_s / sum of squared residuals, each user's
    // residual accumulated from its own row in object order.
    backend.catd_weights(result.truths);
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
