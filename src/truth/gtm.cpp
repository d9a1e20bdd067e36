#include "truth/gtm.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "truth/fold_backend.h"

namespace dptd::truth {
namespace {

/// Per-object standardization shift/scale from fully merged claim moments
/// (z = (x - shift) / scale); count < 2 or zero spread keeps scale at 1.0.
void standardization(std::span<const RunningStats> moments,
                     std::span<double> shift, std::span<double> scale) {
  for (std::size_t n = 0; n < moments.size(); ++n) {
    DPTD_REQUIRE(moments[n].count() > 0, "Gtm::run: object with no claims");
    shift[n] = moments[n].mean();
    scale[n] = 1.0;
    if (moments[n].count() >= 2) {
      const double sd = moments[n].stddev();
      if (sd > 0.0) scale[n] = sd;
    }
  }
}

/// Median of one object's standardized claims — the cold-start estimate.
double standardized_median(std::span<const double> column, double shift,
                           double scale) {
  DPTD_REQUIRE(!column.empty(), "Gtm::run: object with no claims");
  std::vector<double> values(column.begin(), column.end());
  for (double& v : values) v = (v - shift) / scale;
  return median(values);
}

/// Finalizes fully folded posterior statistics into truth_mean/truth_var.
void posterior_from_stats(std::span<const double> precision_acc,
                          std::span<const double> weighted_acc,
                          std::span<double> truth_mean,
                          std::span<double> truth_var, ThreadPool* pool) {
  for_each_range(pool, truth_mean.size(),
                 [&](std::size_t begin, std::size_t end) {
                   for (std::size_t n = begin; n < end; ++n) {
                     truth_mean[n] = weighted_acc[n] / precision_acc[n];
                     truth_var[n] = 1.0 / precision_acc[n];
                   }
                 });
}

}  // namespace

Gtm::Gtm(GtmConfig config) : FoldMethod(config.num_threads), config_(config) {
  DPTD_REQUIRE(config_.truth_prior_variance > 0.0,
               "Gtm: truth prior variance must be positive");
  DPTD_REQUIRE(config_.quality_prior_alpha > 0.0 &&
                   config_.quality_prior_beta > 0.0,
               "Gtm: inverse-Gamma prior parameters must be positive");
  DPTD_REQUIRE(config_.convergence.max_iterations > 0,
               "Gtm: max_iterations must be positive");
  DPTD_REQUIRE(config_.min_variance > 0.0,
               "Gtm: min_variance must be positive");
}

void gtm_m_step(const data::ShardedMatrix& shards, ThreadPool* pool,
                const GtmConfig& config, std::span<const double> shift,
                std::span<const double> scale,
                std::span<const double> truth_mean,
                std::span<const double> truth_var,
                std::span<double> precisions) {
  // M-step: MAP variance per user given current truth posteriors.
  //   sigma_s^2 = (beta + 0.5 sum_n [(z - m_n)^2 + v_n]) / (alpha + 1 + N_s/2)
  // Each user's residual comes from its own row — shard-local, no merge.
  for_each_user_row(shards, pool, [&](std::size_t s, auto row) {
    if (row.empty()) {
      const double variance = 1.0 / config.min_variance;  // prior-dominated
      precisions[s] = 1.0 / variance;
      return;
    }
    double resid = 0.0;
    for (const auto& e : row) {
      const double z = (e.value - shift[e.object]) / scale[e.object];
      const double d = z - truth_mean[e.object];
      resid += d * d + truth_var[e.object];
    }
    const double numerator = config.quality_prior_beta + 0.5 * resid;
    const double denominator = config.quality_prior_alpha + 1.0 +
                               0.5 * static_cast<double>(row.size());
    const double variance =
        std::max(numerator / denominator, config.min_variance);
    precisions[s] = 1.0 / variance;
  });
}

void gtm_posterior_fold(const data::ShardedMatrix& shards, ThreadPool* pool,
                        std::span<const double> shift,
                        std::span<const double> scale,
                        std::span<const double> precisions,
                        std::span<double> precision_acc,
                        std::span<double> weighted_acc) {
  fold_object_stats<2>(
      shards, pool,
      [&](std::size_t user, std::size_t n, double value,
          std::array<double, 2>& contrib) {
        const double p = precisions[user];
        contrib[0] = p;
        contrib[1] = p * ((value - shift[n]) / scale[n]);
      },
      {precision_acc.data(), weighted_acc.data()});
}

Result Gtm::run_folds(FoldBackend& backend, const WarmStart& warm) const {
  const std::size_t N = backend.num_objects();
  ThreadPool* pool = backend.pool();

  // Per-object standardization: z = (x - mean_n) / sd_n. Loop-invariant, so
  // computed once as a block-chained moment fold (shard-count independent).
  std::vector<double> shift(N, 0.0);
  std::vector<double> scale(N, 1.0);
  if (config_.standardize) {
    std::vector<RunningStats> moments(N);
    backend.moments(moments);
    standardization(moments, shift, scale);
  }
  backend.gtm_prepare(config_, shift, scale);

  // E-step as a sufficient-statistics fold: per-object precision and
  // precision-weighted sums start at the prior terms and accumulate
  // per-claim contributions in canonical block order.
  std::vector<double> precision(N);
  std::vector<double> weighted_sum(N);
  std::vector<double> truth_mean(N, 0.0);
  std::vector<double> truth_var(N, 0.0);
  const auto posterior_pass = [&] {
    std::fill(precision.begin(), precision.end(),
              1.0 / config_.truth_prior_variance);
    std::fill(weighted_sum.begin(), weighted_sum.end(),
              config_.truth_prior_mean / config_.truth_prior_variance);
    backend.gtm_posterior(precision, weighted_sum);
    posterior_from_stats(precision, weighted_sum, truth_mean, truth_var, pool);
  };

  // Initialize truths at the per-object median (robust start), in
  // standardized space — or from the warm-start seed.
  if (!warm.weights.empty()) {
    // Seeded E-step: GTM's weights ARE per-user precisions (1/sigma_s^2),
    // so one posterior pass with the previous round's precisions over THIS
    // round's claims gives the starting truth estimates.
    backend.set_weights(warm.weights);
    posterior_pass();
  } else if (!warm.truths.empty()) {
    for (std::size_t n = 0; n < N; ++n) {
      truth_mean[n] = (warm.truths[n] - shift[n]) / scale[n];
    }
  } else {
    const GatheredColumns columns = backend.gather();
    for_each_range(pool, N, [&](std::size_t begin, std::size_t end) {
      for (std::size_t n = begin; n < end; ++n) {
        truth_mean[n] =
            standardized_median(columns.column(n), shift[n], scale[n]);
      }
    });
  }

  std::vector<double> prev_truths = truth_mean;
  Result result;
  backend.begin_iterations();
  for (std::size_t it = 1; it <= config_.convergence.max_iterations; ++it) {
    // M-step (per-user qualities), then the E-step: Gaussian posterior of
    // each truth from the merged per-object precision statistics.
    backend.gtm_step(truth_mean, truth_var);
    posterior_pass();

    result.iterations = it;
    const double change = truth_change(prev_truths, truth_mean);
    prev_truths = truth_mean;
    if (change < config_.convergence.tolerance) {
      result.converged = true;
      break;
    }
  }
  backend.end_iterations();

  // De-standardize truths; the weights are the precisions.
  result.truths.resize(N);
  for (std::size_t n = 0; n < N; ++n) {
    result.truths[n] = truth_mean[n] * scale[n] + shift[n];
  }
  result.weights = backend.collect_weights();
  return result;
}

}  // namespace dptd::truth
