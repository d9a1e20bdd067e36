// CRH — Conflict Resolution on Heterogeneous data (Li et al., SIGMOD 2014),
// the truth-discovery method the paper instantiates in Eq. (3).
//
// Iterates:
//   truths  <- weighted mean of claims               (paper Eq. 1)
//   w_s     <- -log( loss_s / sum_{s'} loss_{s'} )   (paper Eq. 3)
// where loss_s = sum_n d(x_s_n, truth_n) over the user's present claims.
#pragma once

#include <span>

#include "truth/interface.h"

namespace dptd::truth {

/// Distance function d(.) in the weight update (paper Eq. 2/3).
enum class CrhLoss {
  /// (x - t)^2 / stddev_n — CRH's continuous loss, scale-invariant across
  /// objects (stddev_n = std of the claims on object n). Default.
  kNormalizedSquared,
  kSquared,   ///< (x - t)^2
  kAbsolute,  ///< |x - t|
};

struct CrhConfig {
  CrhLoss loss = CrhLoss::kNormalizedSquared;
  ConvergenceCriteria convergence;
  /// Lower clamp on a user's share of total loss before the log, preventing
  /// infinite weight for a user whose claims coincide exactly with truths.
  double min_loss_fraction = 1e-12;
  /// Worker threads for the per-user weight pass and per-object aggregation
  /// pass. 1 = serial (default), 0 = hardware concurrency. Results are
  /// bit-identical for every value (fixed-order per-shard reduction).
  std::size_t num_threads = 1;
};

class Crh final : public FoldMethod {
 public:
  explicit Crh(CrhConfig config = {});

  /// Warm seeding: non-empty weights take precedence — the previous round's
  /// converged weights aggregate this round's claims as the loop's starting
  /// point (user quality persists across rounds; truths and noise do not).
  /// Truths-only seeds enter the loop at the weight update instead. An empty
  /// WarmStart reproduces run() exactly.
  Result run_folds(FoldBackend& backend, const WarmStart& warm) const override;
  bool supports_warm_start() const override { return true; }
  std::string name() const override { return "crh"; }

  const CrhConfig& config() const { return config_; }

  /// One weight-estimation step given current truths (exposed for tests and
  /// for the Fig. 7 weight-comparison experiment).
  std::vector<double> estimate_weights(const data::ObservationMatrix& obs,
                                       const std::vector<double>& truths) const;

 private:
  CrhConfig config_;
};

// The per-user kernels behind a fold backend's CRH steps.

/// Per-user losses sum_n d(x_s_n, truth_n) given current truths, written into
/// `losses` (indexed by the matrix's own user ids). Shard-local: each user's
/// row lives wholly on one shard, nothing to merge.
void crh_user_losses(const data::ShardedMatrix& shards, ThreadPool* pool,
                     CrhLoss loss, std::span<const double> truths,
                     std::span<const double> stddevs,
                     std::span<double> losses);

/// Eq. (3) weights from per-user losses and the (block-chained) global loss
/// total, written into `weights` (same size as `losses`):
/// w_s = -log(max(loss_s / total, min_loss_fraction)), or all-ones when
/// total <= 0. Slice-wise: a shard applies it to its own losses once the
/// total is known. Each weight reads only its own loss, so the bits are the
/// same for any `pool`, and `weights` may alias `losses` (a fold backend
/// turns its register of losses into weights in place).
void crh_weights_from_losses(ThreadPool* pool, std::span<const double> losses,
                             double total, double min_loss_fraction,
                             std::span<double> weights);

}  // namespace dptd::truth
