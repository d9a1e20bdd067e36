#include "categorical/voting.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "truth/categorical.h"
#include "truth/fold_backend.h"
#include "truth/sharded_stats.h"

namespace dptd::categorical {
namespace {

// Whether a claim is a label below `num_labels`. A label claim always is; a
// reading is when truth::is_label_value admits it (label_view's rule).
constexpr bool is_label_claim(Label, std::size_t) { return true; }
bool is_label_claim(double value, std::size_t num_labels) {
  return truth::is_label_value(value, num_labels);
}

template <typename Domain>
void fold_scores(const data::ShardedClaimMatrix<Domain>& m, std::size_t L,
                 ThreadPool* pool, std::span<const double> weights,
                 std::span<double> scores) {
  DPTD_REQUIRE(weights.size() == m.num_users(),
               "fold_label_scores: weights size != num users");
  DPTD_REQUIRE(scores.size() == m.num_objects() * L,
               "fold_label_scores: scores size != num_objects * num_labels");
  // An object a block touched chains all L bins, the ones the block left at
  // +0.0 included; an object it did not touch chains nothing, and a skipped
  // claim touches nothing (see truth::detail::fold_row_blocks).
  truth::detail::fold_row_blocks<double>(
      m, pool, L,
      [&](std::size_t user, const auto& e, std::span<double> seg) {
        seg[static_cast<Label>(e.value)] += weights[user];
      },
      [&](std::size_t n, std::span<const double> seg) {
        for (std::size_t v = 0; v < L; ++v) scores[n * L + v] += seg[v];
      },
      [L](const auto& e) { return is_label_claim(e.value, L); });
}

template <typename Domain>
void count_disagreement(const data::ShardedClaimMatrix<Domain>& m,
                        std::size_t L, ThreadPool* pool,
                        std::span<const Label> truths,
                        std::span<double> disagreement) {
  DPTD_REQUIRE(truths.size() == m.num_objects(),
               "vote_disagreement: truths size != num objects");
  DPTD_REQUIRE(disagreement.size() == m.num_users(),
               "vote_disagreement: disagreement size != num users");
  truth::for_each_user_row(m, pool, [&](std::size_t user, auto row) {
    double d = 0.0;
    for (const auto& e : row) {
      if (is_label_claim(e.value, L) &&
          static_cast<Label>(e.value) != truths[e.object]) {
        d += 1.0;
      }
    }
    disagreement[user] = d;
  });
}

}  // namespace

void fold_label_scores(const ShardedLabelMatrix& m, ThreadPool* pool,
                       std::span<const double> weights,
                       std::span<double> scores) {
  fold_scores(m, m.num_labels(), pool, weights, scores);
}

void fold_label_scores(const data::ShardedMatrix& m, std::size_t num_labels,
                       ThreadPool* pool, std::span<const double> weights,
                       std::span<double> scores) {
  fold_scores(m, num_labels, pool, weights, scores);
}

std::vector<Label> truths_from_scores(std::span<const double> scores,
                                      std::size_t num_objects,
                                      std::size_t num_labels) {
  DPTD_REQUIRE(scores.size() == num_objects * num_labels,
               "truths_from_scores: scores size mismatch");
  std::vector<Label> truths(num_objects, 0);
  for (std::size_t n = 0; n < num_objects; ++n) {
    std::size_t best = 0;
    for (std::size_t k = 1; k < num_labels; ++k) {
      if (scores[n * num_labels + k] > scores[n * num_labels + best]) best = k;
    }
    truths[n] = static_cast<Label>(best);
  }
  return truths;
}

void debias_scores(std::span<double> scores, std::size_t num_objects,
                   std::size_t num_labels, double keep_probability) {
  DPTD_REQUIRE(scores.size() == num_objects * num_labels,
               "debias_scores: scores size mismatch");
  if (keep_probability == 1.0) return;  // no perturbation, nothing to invert
  const double p = keep_probability;
  const std::size_t L = num_labels;
  DPTD_REQUIRE(p > 1.0 / static_cast<double>(L) && p <= 1.0,
               "debias_scores: keep probability must be in (1/num_labels, 1]");
  const double q = (1.0 - p) / static_cast<double>(L - 1);
  const double slope = p - q;  // positive: p > 1/L
  for (std::size_t n = 0; n < num_objects; ++n) {
    double support = 0.0;
    for (std::size_t k = 0; k < L; ++k) support += scores[n * L + k];
    for (std::size_t k = 0; k < L; ++k) {
      scores[n * L + k] = (scores[n * L + k] - q * support) / slope;
    }
  }
}

void vote_disagreement(const ShardedLabelMatrix& m, ThreadPool* pool,
                       std::span<const Label> truths,
                       std::span<double> disagreement) {
  count_disagreement(m, m.num_labels(), pool, truths, disagreement);
}

void vote_disagreement(const data::ShardedMatrix& m, std::size_t num_labels,
                       ThreadPool* pool, std::span<const Label> truths,
                       std::span<double> disagreement) {
  count_disagreement(m, num_labels, pool, truths, disagreement);
}

void vote_weights_from_disagreement(std::span<const double> disagreement,
                                    double total, double min_fraction,
                                    std::span<double> weights) {
  DPTD_REQUIRE(weights.size() == disagreement.size(),
               "vote_weights_from_disagreement: size mismatch");
  for (std::size_t s = 0; s < disagreement.size(); ++s) {
    const double fraction = std::max(disagreement[s] / total, min_fraction);
    weights[s] = -std::log(fraction);
  }
}

VotingResult majority_vote(const ShardedLabelMatrix& m, ThreadPool* pool) {
  truth::LocalBackend backend(m, pool);
  return truth::run_majority_vote(backend, m.num_labels());
}

VotingResult weighted_vote(const ShardedLabelMatrix& m,
                           const WeightedVotingConfig& config, ThreadPool* pool,
                           std::span<const double> warm_weights,
                           std::span<const Label> warm_truths) {
  DPTD_REQUIRE(warm_weights.empty() || warm_weights.size() == m.num_users(),
               "weighted_vote: warm weights size != num users");
  DPTD_REQUIRE(warm_truths.empty() || warm_truths.size() == m.num_objects(),
               "weighted_vote: warm truths size != num objects");
  truth::LocalBackend backend(m, pool);
  return truth::run_weighted_vote(backend, config, m.num_labels(),
                                  warm_weights, warm_truths);
}

VotingResult majority_vote(const LabelMatrix& claims) {
  return majority_vote(ShardedLabelMatrix::single(claims));
}

VotingResult weighted_vote(const LabelMatrix& claims,
                           const WeightedVotingConfig& config) {
  return weighted_vote(ShardedLabelMatrix::single(claims), config);
}

}  // namespace dptd::categorical
