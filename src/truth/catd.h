// CATD — Confidence-Aware Truth Discovery (Li et al., VLDB 2015).
//
// Beyond-paper extension: a third continuous-data truth-discovery method used
// to demonstrate that the perturbation mechanism is method-agnostic (the
// ablation in eval/figures.h runs it beside CRH and GTM). CATD weights each
// user by the upper bound of the chi-squared confidence interval on their
// error variance, which makes it robust for long-tail users with few claims:
//
//   w_s = chi^2_{alpha/2, N_s} / sum_n (x_s_n - truth_n)^2
#pragma once

#include <span>

#include "truth/interface.h"

namespace dptd::truth {

struct CatdConfig {
  /// Significance level of the confidence interval (0.05 in the CATD paper).
  double significance = 0.05;
  ConvergenceCriteria convergence;
  /// Floor on a user's summed squared residual to avoid infinite weight.
  double min_residual = 1e-12;
  /// Worker threads for the per-user weight pass and per-object aggregation
  /// pass. 1 = serial (default), 0 = hardware concurrency. Bit-identical for
  /// every value.
  std::size_t num_threads = 1;
};

class Catd final : public FoldMethod {
 public:
  explicit Catd(CatdConfig config = {});

  /// Warm seeding: non-empty weights take precedence — they aggregate this
  /// round's claims into the starting truths; a truths-only seed replaces
  /// the per-object median initialization instead. An empty WarmStart
  /// reproduces run() exactly.
  Result run_folds(FoldBackend& backend, const WarmStart& warm) const override;
  bool supports_warm_start() const override { return true; }
  std::string name() const override { return "catd"; }

  const CatdConfig& config() const { return config_; }

 private:
  CatdConfig config_;
};

// The per-user kernels behind a fold backend's CATD steps.

/// Loop-invariant chi-squared quantiles per user (0 for empty rows), written
/// into `chi2` (indexed by the matrix's own user ids). Shard-local.
void catd_chi_squared(const data::ShardedMatrix& shards, ThreadPool* pool,
                      double significance, std::span<double> chi2);

/// Weight update w_s = chi2_s / max(sum of squared residuals, min_residual)
/// given current truths; empty rows get weight 0. Shard-local.
void catd_user_weights(const data::ShardedMatrix& shards, ThreadPool* pool,
                       std::span<const double> chi2,
                       std::span<const double> truths, double min_residual,
                       std::span<double> weights);

}  // namespace dptd::truth
