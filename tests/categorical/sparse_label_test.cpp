// Satellite suites of the sparse categorical engine, over label ids held as
// readings in the one claim store:
//  - a matrix of label readings agrees with a dense reference grid under
//    randomized set/clear traffic, on every accessor;
//  - the streaming builder fed label readings produces matrices bitwise
//    identical to batch assembly (last-claim-wins, duplicate rows rejected,
//    reusable);
//  - truth::MajorityVote / truth::WeightedVote are bitwise invariant across
//    shard counts K ∈ {1,2,4,8}, cold and warm-started;
//  - k-RR debiasing edge cases: p = 1 identity, invalid keep probabilities
//    (including the empty (1/L, 1] interval at L = 1), empty objects, and
//    argmax preservation.
#include <gtest/gtest.h>

#include <cstddef>
#include <optional>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "categorical/label_matrix.h"
#include "categorical/randomized_response.h"
#include "categorical/synthetic.h"
#include "categorical/voting.h"
#include "data/builder.h"
#include "data/sharding.h"
#include "truth/categorical.h"

namespace dptd::categorical {
namespace {

constexpr std::size_t kBlock = 8;

/// Dense reference: one optional label reading per cell, mutated in lockstep
/// with the sparse matrix under test.
struct DenseGrid {
  std::size_t users;
  std::size_t objects;
  std::vector<std::optional<double>> cells;

  DenseGrid(std::size_t u, std::size_t n)
      : users(u), objects(n), cells(u * n) {}
  std::optional<double>& at(std::size_t s, std::size_t n) {
    return cells[s * objects + n];
  }
  const std::optional<double>& at(std::size_t s, std::size_t n) const {
    return cells[s * objects + n];
  }
};

void expect_matches_dense(const data::ObservationMatrix& sparse,
                          const DenseGrid& dense) {
  std::size_t nnz = 0;
  for (std::size_t s = 0; s < dense.users; ++s) {
    std::size_t row_count = 0;
    for (std::size_t n = 0; n < dense.objects; ++n) {
      const auto& cell = dense.at(s, n);
      ASSERT_EQ(sparse.present(s, n), cell.has_value()) << s << "," << n;
      ASSERT_EQ(sparse.get(s, n), cell) << s << "," << n;
      if (cell.has_value()) {
        ASSERT_EQ(sparse.value(s, n), *cell) << s << "," << n;
        ++row_count;
        ++nnz;
      }
    }
    EXPECT_EQ(sparse.user_observation_count(s), row_count);
    // CSR row: sorted by object, exactly the present cells.
    const auto row = sparse.user_entries(s);
    ASSERT_EQ(row.size(), row_count);
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (i > 0) {
        EXPECT_LT(row[i - 1].object, row[i].object);
      }
      ASSERT_TRUE(dense.at(s, row[i].object).has_value());
      EXPECT_EQ(row[i].value, *dense.at(s, row[i].object));
    }
  }
  EXPECT_EQ(sparse.observation_count(), nnz);
  // Per-object counts: exactly the present cells.
  for (std::size_t n = 0; n < dense.objects; ++n) {
    std::size_t col_count = 0;
    for (std::size_t s = 0; s < dense.users; ++s) {
      if (dense.at(s, n).has_value()) ++col_count;
    }
    EXPECT_EQ(sparse.object_observation_count(n), col_count);
  }
}

TEST(SparseLabelMatrix, MatchesDenseReferenceUnderRandomizedMutation) {
  constexpr std::size_t kUsers = 23;
  constexpr std::size_t kObjects = 11;
  constexpr std::size_t kLabels = 5;
  std::mt19937_64 rng(0xc0ffee);
  std::uniform_int_distribution<std::size_t> pick_user(0, kUsers - 1);
  std::uniform_int_distribution<std::size_t> pick_object(0, kObjects - 1);
  std::uniform_int_distribution<Label> pick_label(0, kLabels - 1);
  std::uniform_int_distribution<int> pick_op(0, 9);

  data::ObservationMatrix sparse(kUsers, kObjects);
  DenseGrid dense(kUsers, kObjects);
  for (int step = 0; step < 2000; ++step) {
    const std::size_t s = pick_user(rng);
    const std::size_t n = pick_object(rng);
    if (pick_op(rng) < 7) {  // mostly sets (overwrites included)
      const auto l = static_cast<double>(pick_label(rng));
      sparse.set(s, n, l);
      dense.at(s, n) = l;
    } else {
      sparse.clear(s, n);  // clearing a missing cell is a no-op
      dense.at(s, n).reset();
    }
  }
  expect_matches_dense(sparse, dense);
}

TEST(SparseLabelMatrix, FoldScoresMatchesDenseHistogramExactly) {
  // Integer-valued weights make every accumulation exact, so the
  // block-chained fold and a naive dense histogram agree bitwise.
  const LabelDataset dataset = generate_categorical(
      {.num_users = 40, .num_objects = 12, .num_labels = 4,
       .lambda_err = 3.0, .missing_rate = 0.35, .seed = 9});
  const std::size_t L = dataset.num_labels;
  std::vector<double> weights(dataset.claims.num_users());
  for (std::size_t s = 0; s < weights.size(); ++s) {
    weights[s] = static_cast<double>(s % 7 + 1);
  }

  std::vector<double> naive(dataset.claims.num_objects() * L, 0.0);
  dataset.claims.for_each([&](std::size_t s, std::size_t n, double l) {
    naive[n * L + static_cast<Label>(l)] += weights[s];
  });

  const auto view = data::ShardedMatrix::single(dataset.claims, kBlock);
  std::vector<double> folded(naive.size(), 0.0);
  fold_label_scores(view, L, nullptr, weights, folded);
  for (std::size_t i = 0; i < naive.size(); ++i) {
    EXPECT_EQ(folded[i], naive[i]) << "cell " << i;
  }
}

TEST(LabelMatrixBuilder, StreamingEqualsBatchBitwise) {
  constexpr std::size_t kUsers = 31;
  constexpr std::size_t kObjects = 9;
  constexpr std::size_t kLabels = 6;
  std::mt19937_64 rng(0xbeef);
  std::uniform_int_distribution<std::size_t> pick_object(0, kObjects - 1);
  std::uniform_int_distribution<Label> pick_label(0, kLabels - 1);
  std::uniform_int_distribution<std::size_t> pick_count(0, 14);

  // Per-user claim streams with repeated objects (last claim wins) and
  // arbitrary object order — the builder must match ObservationMatrix::set
  // run in the identical claim order.
  data::ObservationMatrix batch(kUsers, kObjects);
  data::ObservationMatrixBuilder builder(kUsers, kObjects);
  for (std::size_t s = 0; s < kUsers; ++s) {
    std::vector<std::uint64_t> objects;
    std::vector<double> labels;
    const std::size_t count = pick_count(rng);
    for (std::size_t i = 0; i < count; ++i) {
      objects.push_back(pick_object(rng));
      labels.push_back(static_cast<double>(pick_label(rng)));
      batch.set(s, objects.back(), labels.back());
    }
    ASSERT_TRUE(builder.add_row(s, objects, labels));
    EXPECT_TRUE(builder.has_row(s));
    // A re-sent row is rejected wholesale, not merged.
    EXPECT_FALSE(builder.add_row(s, objects, labels));
  }
  EXPECT_EQ(builder.rows_ingested(), kUsers);
  const data::ObservationMatrix streamed = builder.finalize();
  EXPECT_EQ(streamed, batch);

  // Voting over the two matrices is bitwise identical.
  truth::WeightedVoteConfig vote_config;
  vote_config.num_labels = kLabels;
  const truth::WeightedVote vote(vote_config);
  const truth::Result a = vote.run(batch);
  const truth::Result b = vote.run(streamed);
  EXPECT_EQ(a.truths, b.truths);
  ASSERT_EQ(a.weights.size(), b.weights.size());
  for (std::size_t s = 0; s < a.weights.size(); ++s) {
    EXPECT_EQ(a.weights[s], b.weights[s]);
  }
  EXPECT_EQ(a.iterations, b.iterations);

  // finalize() resets: the builder serves the next round from a clean slate.
  EXPECT_EQ(builder.rows_ingested(), 0u);
  EXPECT_EQ(builder.observation_count(), 0u);
  const std::vector<std::uint64_t> objs{0, 3};
  const std::vector<double> labs{1.0, 2.0};
  ASSERT_TRUE(builder.add_row(4, objs, labs));
  const data::ObservationMatrix second = builder.finalize();
  EXPECT_EQ(second.observation_count(), 2u);
  EXPECT_EQ(second.get(4, 3), std::optional<double>(2.0));
}

void expect_voting_equal(const truth::Result& a, const truth::Result& b,
                         const std::string& label) {
  EXPECT_EQ(a.truths, b.truths) << label;
  ASSERT_EQ(a.weights.size(), b.weights.size()) << label;
  for (std::size_t s = 0; s < a.weights.size(); ++s) {
    // EXPECT_EQ on doubles is exact — bit-identity, not closeness.
    EXPECT_EQ(a.weights[s], b.weights[s]) << label << " weight " << s;
  }
  EXPECT_EQ(a.iterations, b.iterations) << label;
  EXPECT_EQ(a.converged, b.converged) << label;
}

TEST(SparseLabelVoting, BitwiseInvariantAcrossShardCountsColdAndWarm) {
  // A noisy population so weighted voting genuinely iterates.
  const LabelDataset dataset = generate_categorical(
      {.num_users = 96, .num_objects = 24, .num_labels = 5,
       .lambda_err = 0.8, .missing_rate = 0.3, .seed = 1});
  const truth::MajorityVote majority({.num_labels = dataset.num_labels});
  truth::WeightedVoteConfig vote_config;
  vote_config.num_labels = dataset.num_labels;
  const truth::WeightedVote vote(vote_config);
  const auto reference_view =
      data::ShardedMatrix::single(dataset.claims, kBlock);
  const truth::Result majority_ref = majority.run_sharded(reference_view);
  const truth::Result vote_ref = vote.run_sharded(reference_view);
  ASSERT_GT(vote_ref.iterations, 1u);

  // Warm halves of the seed, each against the single-shard twin.
  const truth::WarmStart warm_weights{{}, vote_ref.weights};
  const truth::WarmStart warm_truths{vote_ref.truths, {}};
  const truth::Result warm_w_ref =
      vote.run_sharded(reference_view, warm_weights);
  const truth::Result warm_t_ref = vote.run_sharded(reference_view, warm_truths);
  for (const std::size_t k : {1u, 2u, 4u, 8u}) {
    const std::string label = "K=" + std::to_string(k);
    const auto view =
        data::ShardedMatrix::partition(dataset.claims, k, kBlock);
    expect_voting_equal(majority_ref, majority.run_sharded(view),
                        "majority " + label);
    expect_voting_equal(vote_ref, vote.run_sharded(view),
                        "vote cold " + label);
    expect_voting_equal(warm_w_ref, vote.run_sharded(view, warm_weights),
                        "vote warm-weights " + label);
    expect_voting_equal(warm_t_ref, vote.run_sharded(view, warm_truths),
                        "vote warm-truths " + label);
  }
}

TEST(RandomizedResponseDebias, KeepOneIsBitwiseIdentity) {
  std::vector<double> scores{3.0, 1.0, 0.0, 2.5, 0.5, 4.0};
  const std::vector<double> original = scores;
  debias_scores(scores, /*num_objects=*/2, /*num_labels=*/3, 1.0);
  for (std::size_t i = 0; i < scores.size(); ++i) {
    EXPECT_EQ(scores[i], original[i]);
  }
}

TEST(RandomizedResponseDebias, RejectsKeepOutsideOpenHalfInterval) {
  std::vector<double> scores(6, 1.0);
  // p must lie in (1/L, 1]: the uniform-noise point 1/L carries no signal.
  EXPECT_THROW(debias_scores(scores, 2, 3, 1.0 / 3.0), std::invalid_argument);
  EXPECT_THROW(debias_scores(scores, 2, 3, 0.2), std::invalid_argument);
  EXPECT_THROW(debias_scores(scores, 2, 3, 1.5), std::invalid_argument);
  // L = 1 makes (1/L, 1] empty: only the p = 1 identity is accepted.
  std::vector<double> single(2, 1.0);
  EXPECT_THROW(debias_scores(single, 2, 1, 0.9), std::invalid_argument);
  debias_scores(single, 2, 1, 1.0);  // identity, no throw
  EXPECT_EQ(single[0], 1.0);
}

TEST(RandomizedResponseDebias, EmptyObjectStaysZeroAndArgmaxIsPreserved) {
  // Object 0 has support, object 1 is empty (nobody claimed it): debiasing
  // must keep its scores exactly zero — (0 - q*0)/(p - q) — not drift them.
  std::vector<double> scores{5.0, 2.0, 1.0, 0.0, 0.0, 0.0};
  debias_scores(scores, 2, 3, 0.6);
  EXPECT_EQ(scores[3], 0.0);
  EXPECT_EQ(scores[4], 0.0);
  EXPECT_EQ(scores[5], 0.0);

  // The affine map has positive slope, so per-object argmax never moves.
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> value(0.0, 10.0);
  constexpr std::size_t kObjects = 20;
  constexpr std::size_t kLabels = 4;
  std::vector<double> raw(kObjects * kLabels);
  for (double& v : raw) v = value(rng);
  const std::vector<Label> before =
      truths_from_scores(raw, kObjects, kLabels);
  debias_scores(raw, kObjects, kLabels, 0.55);
  EXPECT_EQ(truths_from_scores(raw, kObjects, kLabels), before);
}

TEST(RandomizedResponsePerturb, KeepOneIsIdentityAndFlipsStayInRange) {
  Rng rng(99);
  for (Label truth = 0; truth < 5; ++truth) {
    EXPECT_EQ(krr_perturb(truth, 1.0, 5, rng), truth);
  }
  // keep = 0 always flips, and never outside the alphabet.
  for (int i = 0; i < 200; ++i) {
    const Label out = krr_perturb(2, 0.0, 5, rng);
    EXPECT_LT(out, 5u);
    EXPECT_NE(out, 2u);
  }
}

}  // namespace
}  // namespace dptd::categorical
