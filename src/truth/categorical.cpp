#include "truth/categorical.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "truth/fold_backend.h"

namespace dptd::truth {

void check_num_labels(std::size_t num_labels) {
  DPTD_REQUIRE(num_labels >= 2 && num_labels <= kMaxBridgedLabels,
               "categorical bridge: num_labels out of range");
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

MajorityVote::MajorityVote(MajorityVoteConfig config)
    : FoldMethod(config.num_threads), config_(config) {
  check_num_labels(config_.num_labels);
}

Result MajorityVote::run_folds(FoldBackend& backend,
                               const WarmStart& warm) const {
  (void)warm;  // single pass: nothing to seed
  const std::size_t N = backend.num_objects();
  const std::size_t L = config_.num_labels;
  backend.begin_iterations();
  backend.vote_prepare(L, WeightedVoteConfig{}.min_disagreement_fraction);
  backend.set_weights({});
  std::vector<double> scores(N * L, 0.0);
  backend.vote_scores(scores);
  backend.end_iterations();
  const std::vector<categorical::Label> truths =
      categorical::truths_from_scores(scores, N, L);
  Result result;
  result.truths.assign(truths.begin(), truths.end());
  result.weights.assign(backend.num_users(), 1.0);
  result.iterations = 1;
  result.converged = true;
  return result;
}

WeightedVote::WeightedVote(WeightedVoteConfig config)
    : FoldMethod(config.num_threads), config_(config) {
  check_num_labels(config_.num_labels);
  DPTD_REQUIRE(config_.max_iterations > 0,
               "WeightedVote: max_iterations must be positive");
  DPTD_REQUIRE(config_.min_disagreement_fraction > 0.0 &&
                   config_.min_disagreement_fraction < 1.0,
               "WeightedVote: min_disagreement_fraction must be in (0,1)");
}

Result WeightedVote::run_folds(FoldBackend& backend,
                               const WarmStart& warm) const {
  const std::size_t N = backend.num_objects();
  const std::size_t L = config_.num_labels;
  backend.vote_prepare(L, config_.min_disagreement_fraction);
  std::vector<double> scores(N * L);
  const auto plurality = [&] {
    std::fill(scores.begin(), scores.end(), 0.0);
    backend.vote_scores(scores);
    return categorical::truths_from_scores(scores, N, L);
  };

  Result result;
  std::vector<categorical::Label> truths;
  if (warm.truths.empty()) {
    backend.set_weights(warm.weights);
    truths = plurality();
  } else {
    truths = labels_from_doubles(warm.truths, L);
  }

  backend.begin_iterations();
  for (std::size_t it = 1; it <= config_.max_iterations; ++it) {
    // Weight update: disagreement count per user, CRH Eq. (3) on 0/1 loss;
    // a zero total (unanimous agreement) sets uniform weights and stops.
    const double total = backend.vote_disagreement(truths, 0.0);
    backend.vote_weights(total);
    result.iterations = it;
    if (total <= 0.0) {
      result.converged = true;
      break;
    }
    std::vector<categorical::Label> next = plurality();
    const bool unchanged = next == truths;
    truths = std::move(next);
    if (unchanged) {
      result.converged = true;
      break;
    }
  }
  backend.end_iterations();
  result.truths.assign(truths.begin(), truths.end());
  result.weights = backend.collect_weights();
  return result;
}

}  // namespace dptd::truth
