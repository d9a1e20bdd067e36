#include "truth/fold_backend.h"

#include <utility>

#include "categorical/voting.h"
#include "common/check.h"
#include "truth/catd.h"
#include "truth/categorical.h"

namespace dptd::truth {

Result FoldMethod::run(const data::ObservationMatrix& observations) const {
  return run_sharded(data::ShardedMatrix::single(observations));
}

Result FoldMethod::run_warm(const data::ObservationMatrix& observations,
                            const WarmStart& warm) const {
  return run_sharded(data::ShardedMatrix::single(observations), warm);
}

Result FoldMethod::run_sharded(const data::ShardedMatrix& shards,
                               const WarmStart& warm) const {
  DPTD_REQUIRE(shards.num_users() > 0 && shards.num_objects() > 0,
               name() + ": empty observation matrix");
  const bool seeded = supports_warm_start();
  if (seeded) {
    validate_warm_start(shards.num_users(), shards.num_objects(), warm);
  }
  RunPool pool(num_threads_);
  LocalBackend backend(shards, pool.get());
  return run_folds(backend, seeded ? warm : WarmStart{});
}

std::vector<double> aggregate_truths(FoldBackend& backend) {
  AggregateStats acc;
  acc.reset(backend.num_objects());
  backend.aggregate(acc);
  return truths_from_aggregate(acc, backend.pool());
}

LocalBackend::LocalBackend(const data::ShardedMatrix& matrix, ThreadPool* pool)
    : matrix_(matrix), pool_(pool) {}

std::size_t LocalBackend::vote_labels() const {
  DPTD_REQUIRE(num_labels_ != 0, "LocalBackend: vote step before prepare");
  return num_labels_;
}

std::vector<double>& LocalBackend::reg(std::vector<double>& reg, double fill) {
  if (reg.size() != num_users()) reg.assign(num_users(), fill);
  return reg;
}

void LocalBackend::set_weights(std::span<const double> weights) {
  DPTD_REQUIRE(weights.empty() || weights.size() == num_users(),
               "LocalBackend: weights size != num users");
  losses_pending_ = false;
  if (weights.empty()) {
    weights_.assign(num_users(), 1.0);
  } else {
    weights_.assign(weights.begin(), weights.end());
  }
}

void LocalBackend::crh_prepare(CrhLoss loss, double min_loss_fraction,
                               std::span<const double> stddevs) {
  DPTD_REQUIRE(stddevs.size() == num_objects(),
               "LocalBackend: stddevs size != num objects");
  crh_loss_ = loss;
  crh_min_fraction_ = min_loss_fraction;
  stddevs_.assign(stddevs.begin(), stddevs.end());
}

double LocalBackend::crh_loss(std::span<const double> truths, double total) {
  DPTD_REQUIRE(crh_loss_.has_value(), "LocalBackend: crh_loss before prepare");
  DPTD_REQUIRE(truths.size() == num_objects(),
               "LocalBackend: truths size != num objects");
  crh_user_losses(matrix_, pool_, *crh_loss_, truths, stddevs_, reg(weights_));
  losses_pending_ = true;
  // Local blocks are global blocks, so this continues the global chain.
  return block_chain_sum(weights_, matrix_.plan().block_size, total);
}

void LocalBackend::crh_weights(double total) {
  DPTD_REQUIRE(crh_loss_.has_value(),
               "LocalBackend: crh_weights before prepare");
  if (!std::exchange(losses_pending_, false)) return;  // applied already
  crh_weights_from_losses(pool_, weights_, total, crh_min_fraction_, weights_);
}

void LocalBackend::gtm_prepare(const GtmConfig& config,
                               std::span<const double> shift,
                               std::span<const double> scale) {
  DPTD_REQUIRE(shift.size() == num_objects() && scale.size() == num_objects(),
               "LocalBackend: shift/scale size != num objects");
  gtm_ = config;
  shift_.assign(shift.begin(), shift.end());
  scale_.assign(scale.begin(), scale.end());
}

void LocalBackend::gtm_step(std::span<const double> truth_mean,
                            std::span<const double> truth_var) {
  DPTD_REQUIRE(gtm_.has_value(), "LocalBackend: gtm_step before prepare");
  DPTD_REQUIRE(truth_mean.size() == num_objects() &&
                   truth_var.size() == num_objects(),
               "LocalBackend: posterior size != num objects");
  losses_pending_ = false;
  gtm_m_step(matrix_, pool_, *gtm_, shift_, scale_, truth_mean, truth_var,
             reg(weights_, 1.0));
}

void LocalBackend::gtm_posterior(std::span<double> precision,
                                 std::span<double> weighted) {
  DPTD_REQUIRE(gtm_.has_value(), "LocalBackend: gtm_posterior before prepare");
  DPTD_REQUIRE(precision.size() == num_objects() &&
                   weighted.size() == num_objects(),
               "LocalBackend: posterior size != num objects");
  gtm_posterior_fold(matrix_, pool_, shift_, scale_, reg(weights_, 1.0),
                     precision, weighted);
}

void LocalBackend::catd_prepare(double significance, double min_residual) {
  DPTD_REQUIRE(significance > 0.0 && significance < 1.0,
               "LocalBackend: significance must be in (0,1)");
  min_residual_ = min_residual;
  chi2_.assign(num_users(), 0.0);
  catd_chi_squared(matrix_, pool_, significance, chi2_);
}

void LocalBackend::catd_weights(std::span<const double> truths) {
  DPTD_REQUIRE(chi2_.size() == num_users(),
               "LocalBackend: catd_weights before prepare");
  DPTD_REQUIRE(truths.size() == num_objects(),
               "LocalBackend: truths size != num objects");
  losses_pending_ = false;
  catd_user_weights(matrix_, pool_, chi2_, truths, min_residual_,
                    reg(weights_));
}

void LocalBackend::vote_prepare(std::size_t num_labels,
                                double min_disagreement_fraction) {
  num_labels_ = 0;
  DPTD_REQUIRE(min_disagreement_fraction > 0.0 &&
                   min_disagreement_fraction < 1.0,
               "LocalBackend: min_disagreement_fraction must be in (0,1)");
  check_num_labels(num_labels);
  num_labels_ = num_labels;
  vote_min_fraction_ = min_disagreement_fraction;
}

double LocalBackend::vote_disagreement(
    std::span<const categorical::Label> truths, double total) {
  // Checked before the register is touched: a refused fold leaves it as is.
  const std::size_t labels = vote_labels();
  DPTD_REQUIRE(truths.size() == num_objects(),
               "LocalBackend: truths size != num objects");
  categorical::vote_disagreement(matrix_, labels, pool_, truths,
                                 reg(weights_));
  losses_pending_ = true;
  return block_chain_sum(weights_, matrix_.plan().block_size, total);
}

void LocalBackend::vote_weights(double total) {
  DPTD_REQUIRE(num_labels_ != 0, "LocalBackend: vote_weights before prepare");
  if (!std::exchange(losses_pending_, false)) return;  // applied already
  categorical::vote_weights_from_disagreement(pool_, weights_, total,
                                              vote_min_fraction_, weights_);
}

void LocalBackend::vote_scores(std::span<double> scores) {
  categorical::fold_label_scores(matrix_, vote_labels(), pool_,
                                 reg(weights_, 1.0), scores);
}

void LocalBackend::moments(std::span<RunningStats> acc) {
  fold_object_moments(matrix_, pool_, acc);
}

void LocalBackend::aggregate(AggregateStats& acc) {
  weighted_aggregate_fold(matrix_, reg(weights_, 1.0), acc, pool_);
}

GatheredColumns LocalBackend::gather() {
  return gather_object_values(matrix_);
}

std::vector<double> LocalBackend::collect_weights() {
  losses_pending_ = false;
  return std::exchange(reg(weights_, 1.0), {});
}

}  // namespace dptd::truth
