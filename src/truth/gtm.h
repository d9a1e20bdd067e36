// GTM — Gaussian Truth Model (Zhao & Han, QDB 2012), the second
// truth-discovery method evaluated in the paper (Fig. 5).
//
// Generative model:
//   truth_n     ~ N(mu0, sigma0^2)
//   quality     sigma_s^2 with inverse-Gamma(alpha, beta) prior
//   claim x_s_n ~ N(truth_n, sigma_s^2)
//
// EM: the E-step computes the Gaussian posterior of each truth given current
// qualities; the M-step is the MAP update of each user's variance.
// Claims are standardized per object before inference (as in the GTM paper)
// and truths are de-standardized on output.
#pragma once

#include <span>

#include "truth/interface.h"

namespace dptd::truth {

struct GtmConfig {
  double truth_prior_mean = 0.0;      ///< mu0 (in standardized space)
  double truth_prior_variance = 1.0;  ///< sigma0^2
  double quality_prior_alpha = 2.0;   ///< inverse-Gamma alpha
  double quality_prior_beta = 1.0;    ///< inverse-Gamma beta
  bool standardize = true;            ///< per-object z-scoring of claims
  ConvergenceCriteria convergence;
  /// Floor for user variances to keep precisions finite.
  double min_variance = 1e-9;
  /// Worker threads for the per-user M-step and per-object E-step. 1 = serial
  /// (default), 0 = hardware concurrency. Bit-identical for every value.
  std::size_t num_threads = 1;
};

class Gtm final : public FoldMethod {
 public:
  explicit Gtm(GtmConfig config = {});

  /// Warm seeding: non-empty weights (GTM's weights are per-user precisions)
  /// drive one posterior pass over this round's claims as the starting truth
  /// estimates; otherwise non-empty truths replace the per-object median
  /// initialization (standardized internally). An empty WarmStart reproduces
  /// run() exactly.
  Result run_folds(FoldBackend& backend, const WarmStart& warm) const override;
  bool supports_warm_start() const override { return true; }
  std::string name() const override { return "gtm"; }

  const GtmConfig& config() const { return config_; }

 private:
  GtmConfig config_;
};

// The per-user kernels behind a fold backend's GTM steps.

/// M-step: each user's precision, the inverse of its MAP variance (quality)
/// given current truth posteriors. `precisions` is indexed by the matrix's
/// own user ids. Shard-local.
void gtm_m_step(const data::ShardedMatrix& shards, ThreadPool* pool,
                const GtmConfig& config, std::span<const double> shift,
                std::span<const double> scale,
                std::span<const double> truth_mean,
                std::span<const double> truth_var,
                std::span<double> precisions);

/// E-step fold: ADDS each claim's precision and precision-weighted
/// standardized value into per-object accumulators in canonical block order.
/// The caller pre-fills the accumulators with the prior terms (or the chain
/// state of preceding shards). `precisions` is indexed by the matrix's own
/// user ids.
void gtm_posterior_fold(const data::ShardedMatrix& shards, ThreadPool* pool,
                        std::span<const double> shift,
                        std::span<const double> scale,
                        std::span<const double> precisions,
                        std::span<double> precision_acc,
                        std::span<double> weighted_acc);

}  // namespace dptd::truth
