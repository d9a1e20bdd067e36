// The narrow interface every truth-discovery loop runs over. Each method's
// loop (paper Algorithm 1: weighted aggregation, then weight re-estimation)
// is written once, in truth/<method>.cpp or truth/categorical.cpp, against
// FoldBackend; LocalBackend runs it in process over a ShardedMatrix, and
// dist::RemoteBackend runs it over the coordinator's shard RPCs. Both
// execute the same kernels in the same canonical block order, so the bits
// agree for any shard count. Categorical claims are label-id readings in the
// same matrix, so the vote loops run over the same two backends.
//
// Three kinds of call:
//  - Register writes return nothing. They set the per-user state the next
//    fold or step reads: the weights, each method's prepared constants, the
//    weight updates and the GTM M-step. A remote backend may defer a write
//    to the next frame each shard receives.
//  - Chained folds ADD the users' contributions to a carried accumulator in
//    canonical block order (truth/sharded_stats.h), continuing exactly where
//    the caller's state stopped.
//  - gather() returns every object's claims in user order, and
//    collect_weights() hands the weight register over.
//
// The weight register is the one per-user register every method shares. A
// loss fold (crh_loss, vote_disagreement) leaves each user's loss in it, and
// the weight update that follows (crh_weights, vote_weights) turns the losses
// into weights in place: between the two, the register holds losses. After
// collect_weights() it holds nothing, and the next fold reads all ones, as on
// a fresh backend.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "categorical/label_matrix.h"
#include "common/statistics.h"
#include "common/thread_pool.h"
#include "data/sharding.h"
#include "truth/crh.h"
#include "truth/gtm.h"
#include "truth/interface.h"
#include "truth/sharded_stats.h"

namespace dptd::truth {

class FoldBackend {
 public:
  virtual ~FoldBackend() = default;

  /// Users collect_weights() returns, and objects every fold covers.
  virtual std::size_t num_users() const = 0;
  virtual std::size_t num_objects() const = 0;
  /// Pool for the object-space work between folds; null runs it serially.
  virtual ThreadPool* pool() const { return nullptr; }

  // Register writes.
  /// Weight register := `weights` (user-indexed), or all ones when empty.
  virtual void set_weights(std::span<const double> weights) = 0;
  virtual void crh_prepare(CrhLoss loss, double min_loss_fraction,
                           std::span<const double> stddevs) = 0;
  /// CRH Eq. (3): turns the losses the last crh_loss left in the weight
  /// register into weights, given their chained total. A second call with no
  /// crh_loss in between changes nothing, so a resent update applies once.
  virtual void crh_weights(double total) = 0;
  /// GTM priors (alpha, beta, min_variance) and standardization.
  virtual void gtm_prepare(const GtmConfig& config,
                           std::span<const double> shift,
                           std::span<const double> scale) = 0;
  /// GTM M-step: each user's precision (inverse MAP variance) as the weight.
  virtual void gtm_step(std::span<const double> truth_mean,
                        std::span<const double> truth_var) = 0;
  /// Caches each user's chi-squared quantile.
  virtual void catd_prepare(double significance, double min_residual) = 0;
  virtual void catd_weights(std::span<const double> truths) = 0;
  /// Reads the claims as labels in [0, num_labels) from here on: a claim
  /// that is no label id below num_labels (truth::is_label_value) is skipped.
  /// Refuses an alphabet outside [2, kMaxBridgedLabels]; after a refusal the
  /// vote steps stay refused until a prepare succeeds.
  virtual void vote_prepare(std::size_t num_labels,
                            double min_disagreement_fraction) = 0;
  /// Turns the counts the last vote_disagreement left in the weight register
  /// into weights, given their chained total; a total <= 0 (unanimity) sets
  /// every weight to one. Like crh_weights, a repeat with no
  /// vote_disagreement in between changes nothing.
  virtual void vote_weights(double total) = 0;

  // Chained folds.
  virtual void moments(std::span<RunningStats> acc) = 0;
  virtual void aggregate(AggregateStats& acc) = 0;
  /// Writes each user's loss against `truths` into the weight register, for
  /// crh_weights to turn into weights; returns `total` plus their
  /// block-chained sum.
  virtual double crh_loss(std::span<const double> truths, double total) = 0;
  /// GTM E-step statistics under the weight register's precisions.
  virtual void gtm_posterior(std::span<double> precision,
                             std::span<double> weighted) = 0;
  /// Weighted label histogram, row-major num_objects x num_labels.
  virtual void vote_scores(std::span<double> scores) = 0;
  /// Writes each user's disagreement count into the weight register, for
  /// vote_weights to turn into weights; returns `total` plus their
  /// block-chained sum.
  virtual double vote_disagreement(std::span<const categorical::Label> truths,
                                   double total) = 0;

  virtual GatheredColumns gather() = 0;
  /// Hands the weight register over (all ones when no weight was written)
  /// and leaves it empty: a second collect with no weight write in between
  /// returns all ones.
  virtual std::vector<double> collect_weights() = 0;

  /// Called where a loop enters and leaves its iterations.
  virtual void begin_iterations() {}
  virtual void end_iterations() {}
};

/// One weighted-aggregation pass (paper Eq. 1) folded over `backend`'s
/// weight register, finalized into truths.
std::vector<double> aggregate_truths(FoldBackend& backend);

/// The in-process backend: the pooled kernels over a borrowed matrix. It
/// owns two per-user registers, the weights and CATD's prepared chi-squared
/// quantiles, and allocates each one when a step first needs it; the loss
/// folds write into the weight register, and collect_weights moves it out
/// rather than copying it. The vote calls read label ids in place; the
/// matrix is never copied. A precondition failure (a wrong size, a step
/// before its prepare) throws std::invalid_argument and leaves the registers
/// as they were.
class LocalBackend final : public FoldBackend {
 public:
  LocalBackend(const data::ShardedMatrix& matrix, ThreadPool* pool);

  LocalBackend(const LocalBackend&) = delete;
  LocalBackend& operator=(const LocalBackend&) = delete;

  std::size_t num_users() const override { return matrix_.num_users(); }
  std::size_t num_objects() const override { return matrix_.num_objects(); }
  ThreadPool* pool() const override { return pool_; }

  void set_weights(std::span<const double> weights) override;
  void crh_prepare(CrhLoss loss, double min_loss_fraction,
                   std::span<const double> stddevs) override;
  void crh_weights(double total) override;
  void gtm_prepare(const GtmConfig& config, std::span<const double> shift,
                   std::span<const double> scale) override;
  void gtm_step(std::span<const double> truth_mean,
                std::span<const double> truth_var) override;
  void catd_prepare(double significance, double min_residual) override;
  void catd_weights(std::span<const double> truths) override;
  void vote_prepare(std::size_t num_labels,
                    double min_disagreement_fraction) override;
  void vote_weights(double total) override;

  void moments(std::span<RunningStats> acc) override;
  void aggregate(AggregateStats& acc) override;
  double crh_loss(std::span<const double> truths, double total) override;
  void gtm_posterior(std::span<double> precision,
                     std::span<double> weighted) override;
  void vote_scores(std::span<double> scores) override;
  double vote_disagreement(std::span<const categorical::Label> truths,
                           double total) override;

  GatheredColumns gather() override;
  std::vector<double> collect_weights() override;

 private:
  /// vote_prepare's alphabet; throws before a successful prepare.
  std::size_t vote_labels() const;
  /// `reg` sized to the users, filled with `fill` when first allocated.
  std::vector<double>& reg(std::vector<double>& reg, double fill = 0.0);

  const data::ShardedMatrix& matrix_;
  ThreadPool* pool_;

  // Per-user registers.
  std::vector<double> weights_;
  std::vector<double> chi2_;  // CATD
  /// weights_ holds a loss fold's losses that no weight update turned yet.
  bool losses_pending_ = false;

  // Prepared per-run constants, empty until the method's prepare.
  std::optional<CrhLoss> crh_loss_;
  double crh_min_fraction_ = 0.0;
  std::vector<double> stddevs_;
  std::optional<GtmConfig> gtm_;
  std::vector<double> shift_, scale_;
  double min_residual_ = 0.0;  ///< CATD; chi2_ marks it prepared
  std::size_t num_labels_ = 0;  ///< vote; 0 until a prepare succeeds
  double vote_min_fraction_ = 0.0;
};

}  // namespace dptd::truth
