#include "categorical/voting.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "truth/categorical.h"
#include "truth/sharded_stats.h"

namespace dptd::categorical {

void fold_label_scores(const data::ShardedMatrix& m, std::size_t num_labels,
                       ThreadPool* pool, std::span<const double> weights,
                       std::span<double> scores) {
  const std::size_t L = num_labels;
  DPTD_REQUIRE(weights.size() == m.num_users(),
               "fold_label_scores: weights size != num users");
  DPTD_REQUIRE(scores.size() == m.num_objects() * L,
               "fold_label_scores: scores size != num_objects * num_labels");
  // An object a block touched chains all L bins, the ones the block left at
  // +0.0 included; an object it did not touch chains nothing, and a skipped
  // claim touches nothing (see truth::detail::fold_row_blocks).
  truth::detail::fold_row_blocks<double>(
      m, pool, L,
      [&](std::size_t user, const data::ObservationMatrix::Entry& e,
          std::span<double> seg) {
        seg[static_cast<Label>(e.value)] += weights[user];
      },
      [&](std::size_t n, std::span<const double> seg) {
        for (std::size_t v = 0; v < L; ++v) scores[n * L + v] += seg[v];
      },
      [L](const data::ObservationMatrix::Entry& e) {
        return truth::is_label_value(e.value, L);
      });
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

void vote_disagreement(const data::ShardedMatrix& m, std::size_t num_labels,
                       ThreadPool* pool, std::span<const Label> truths,
                       std::span<double> disagreement) {
  DPTD_REQUIRE(truths.size() == m.num_objects(),
               "vote_disagreement: truths size != num objects");
  DPTD_REQUIRE(disagreement.size() == m.num_users(),
               "vote_disagreement: disagreement size != num users");
  truth::for_each_user_row(m, pool, [&](std::size_t user, auto row) {
    double d = 0.0;
    for (const data::ObservationMatrix::Entry& e : row) {
      if (truth::is_label_value(e.value, num_labels) &&
          static_cast<Label>(e.value) != truths[e.object]) {
        d += 1.0;
      }
    }
    disagreement[user] = d;
  });
}

void vote_weights_from_disagreement(ThreadPool* pool,
                                    std::span<const double> disagreement,
                                    double total, double min_fraction,
                                    std::span<double> weights) {
  DPTD_REQUIRE(weights.size() == disagreement.size(),
               "vote_weights_from_disagreement: size mismatch");
  if (total <= 0.0) {
    std::fill(weights.begin(), weights.end(), 1.0);
    return;
  }
  for_each_range(pool, disagreement.size(),
                 [&](std::size_t begin, std::size_t end) {
                   for (std::size_t s = begin; s < end; ++s) {
                     const double fraction =
                         std::max(disagreement[s] / total, min_fraction);
                     weights[s] = -std::log(fraction);
                   }
                 });
}

}  // namespace dptd::categorical
