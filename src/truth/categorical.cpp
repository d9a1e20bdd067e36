#include "truth/categorical.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "truth/fold_backend.h"

namespace dptd::truth {
namespace {

Result to_result(categorical::VotingResult vr) {
  Result out;
  out.truths.reserve(vr.truths.size());
  for (categorical::Label t : vr.truths) {
    out.truths.push_back(static_cast<double>(t));
  }
  out.weights = std::move(vr.weights);
  out.iterations = vr.iterations;
  out.converged = vr.converged;
  return out;
}

}  // namespace

void check_num_labels(std::size_t num_labels) {
  DPTD_REQUIRE(num_labels >= 2 && num_labels <= kMaxBridgedLabels,
               "categorical bridge: num_labels out of range");
}

std::size_t infer_num_labels(const data::ShardedMatrix& m) {
  double max_label = -1.0;
  for (std::size_t s = 0; s < m.num_shards(); ++s) {
    m.shard(s).for_each([&](std::size_t, std::size_t, double v) {
      if (is_label_value(v, kMaxBridgedLabels) && v > max_label) max_label = v;
    });
  }
  const auto inferred =
      max_label < 0.0 ? std::size_t{0} : static_cast<std::size_t>(max_label) + 1;
  return std::max<std::size_t>(inferred, 2);
}

categorical::ShardedLabelMatrix label_view(const data::ShardedMatrix& m,
                                           std::size_t num_labels) {
  check_num_labels(num_labels);
  std::vector<data::ObservationMatrix> shards;
  shards.reserve(m.num_shards());
  for (std::size_t i = 0; i < m.num_shards(); ++i) {
    const data::ObservationMatrix& shard = m.shard(i);
    data::ObservationMatrix admitted(shard.num_users(), m.num_objects());
    shard.for_each([&](std::size_t user, std::size_t object, double value) {
      if (is_label_value(value, num_labels)) admitted.set(user, object, value);
    });
    shards.push_back(std::move(admitted));
  }
  return {data::ShardedMatrix::from_shards(m.plan(), std::move(shards),
                                           m.num_objects()),
          num_labels};
}

std::vector<categorical::Label> labels_from_doubles(
    std::span<const double> truths, std::size_t num_labels) {
  check_num_labels(num_labels);
  std::vector<categorical::Label> out;
  out.reserve(truths.size());
  for (double t : truths) {
    double rounded = std::isfinite(t) ? std::round(t) : 0.0;
    if (rounded < 0.0) rounded = 0.0;
    const double top = static_cast<double>(num_labels - 1);
    if (rounded > top) rounded = top;
    out.push_back(static_cast<categorical::Label>(rounded));
  }
  return out;
}

categorical::VotingResult run_majority_vote(FoldBackend& backend,
                                            std::size_t num_labels) {
  categorical::VotingResult result;
  backend.begin_iterations();
  backend.vote_prepare(num_labels, categorical::WeightedVotingConfig{}
                                       .min_disagreement_fraction);
  backend.set_weights({});
  std::vector<double> scores(backend.num_objects() * num_labels, 0.0);
  backend.vote_scores(scores);
  backend.end_iterations();
  result.truths = categorical::truths_from_scores(scores, backend.num_objects(),
                                                  num_labels);
  result.weights.assign(backend.num_users(), 1.0);
  result.iterations = 1;
  result.converged = true;
  return result;
}

categorical::VotingResult run_weighted_vote(
    FoldBackend& backend, const categorical::WeightedVotingConfig& config,
    std::size_t num_labels, std::span<const double> warm_weights,
    std::span<const categorical::Label> warm_truths) {
  DPTD_REQUIRE(config.max_iterations > 0,
               "weighted_vote: max_iterations must be positive");
  DPTD_REQUIRE(config.min_disagreement_fraction > 0.0 &&
                   config.min_disagreement_fraction < 1.0,
               "weighted_vote: min_disagreement_fraction must be in (0,1)");
  const std::size_t N = backend.num_objects();
  backend.vote_prepare(num_labels, config.min_disagreement_fraction);
  std::vector<double> scores(N * num_labels);
  const auto plurality = [&] {
    std::fill(scores.begin(), scores.end(), 0.0);
    backend.vote_scores(scores);
    return categorical::truths_from_scores(scores, N, num_labels);
  };

  categorical::VotingResult result;
  if (warm_truths.empty()) {
    backend.set_weights(warm_weights);
    result.truths = plurality();
  } else {
    for (categorical::Label t : warm_truths) {
      DPTD_REQUIRE(t < num_labels, "weighted_vote: warm truth label");
    }
    result.truths.assign(warm_truths.begin(), warm_truths.end());
  }

  backend.begin_iterations();
  for (std::size_t it = 1; it <= config.max_iterations; ++it) {
    // Weight update: disagreement count per user, CRH Eq. (3) on 0/1 loss;
    // a zero total (unanimous agreement) sets uniform weights and stops.
    const double total = backend.vote_disagreement(result.truths, 0.0);
    backend.vote_weights(total);
    result.iterations = it;
    if (total <= 0.0) {
      result.converged = true;
      break;
    }
    std::vector<categorical::Label> next = plurality();
    const bool unchanged = next == result.truths;
    result.truths = std::move(next);
    if (unchanged) {
      result.converged = true;
      break;
    }
  }
  backend.end_iterations();
  result.weights = backend.collect_weights();
  return result;
}

MajorityVote::MajorityVote(MajorityVoteConfig config) : config_(config) {
  if (config_.num_labels != 0) check_num_labels(config_.num_labels);
}

Result MajorityVote::run(const data::ObservationMatrix& observations) const {
  return run_sharded(data::ShardedMatrix::single(observations));
}

Result MajorityVote::run_sharded(const data::ShardedMatrix& shards,
                                 const WarmStart& warm) const {
  (void)warm;  // single pass: nothing to seed
  RunPool pool(config_.num_threads);
  LocalBackend backend(shards, pool.get());
  return to_result(run_majority_vote(
      backend, config_.num_labels != 0 ? config_.num_labels
                                       : infer_num_labels(shards)));
}

Result MajorityVote::run_folds(FoldBackend& backend,
                               const WarmStart& warm) const {
  (void)warm;
  return to_result(run_majority_vote(backend, config_.num_labels));
}

WeightedVote::WeightedVote(WeightedVoteConfig config) : config_(config) {
  if (config_.num_labels != 0) check_num_labels(config_.num_labels);
}

Result WeightedVote::run(const data::ObservationMatrix& observations) const {
  return run_sharded(data::ShardedMatrix::single(observations));
}

Result WeightedVote::run_warm(const data::ObservationMatrix& observations,
                              const WarmStart& warm) const {
  return run_sharded(data::ShardedMatrix::single(observations), warm);
}

Result WeightedVote::run_sharded(const data::ShardedMatrix& shards,
                                 const WarmStart& warm) const {
  validate_warm_start(shards.num_users(), shards.num_objects(), warm);
  RunPool pool(config_.num_threads);
  LocalBackend backend(shards, pool.get());
  return run_labels(backend,
                    config_.num_labels != 0 ? config_.num_labels
                                            : infer_num_labels(shards),
                    warm);
}

Result WeightedVote::run_folds(FoldBackend& backend,
                               const WarmStart& warm) const {
  return run_labels(backend, config_.num_labels, warm);
}

Result WeightedVote::run_labels(FoldBackend& backend, std::size_t num_labels,
                                const WarmStart& warm) const {
  std::vector<categorical::Label> warm_truths;
  if (!warm.truths.empty()) {
    warm_truths = labels_from_doubles(warm.truths, num_labels);
  }
  return to_result(run_weighted_vote(backend, config_.voting, num_labels,
                                     warm.weights, warm_truths));
}

}  // namespace dptd::truth
