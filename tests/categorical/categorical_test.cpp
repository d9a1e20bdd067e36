// Extension module tests: label-id claims, voting, k-RR mechanism, and the
// end-to-end categorical private-truth-discovery story. Labels are readings
// (exact doubles) in the one claim store, and every vote runs through
// truth::MajorityVote / truth::WeightedVote.
#include <gtest/gtest.h>

#include <cmath>

#include "categorical/label_matrix.h"
#include "categorical/randomized_response.h"
#include "categorical/synthetic.h"
#include "common/statistics.h"
#include "truth/categorical.h"

namespace dptd::categorical {
namespace {

truth::Result run_majority(const data::ObservationMatrix& claims,
                           std::size_t num_labels) {
  return truth::MajorityVote({.num_labels = num_labels}).run(claims);
}

truth::Result run_weighted(const data::ObservationMatrix& claims,
                           std::size_t num_labels) {
  truth::WeightedVoteConfig config;
  config.num_labels = num_labels;
  return truth::WeightedVote(config).run(claims);
}

std::vector<Label> labels(const truth::Result& result,
                          std::size_t num_labels) {
  return truth::labels_from_doubles(result.truths, num_labels);
}

TEST(LabelMatrix, SetGetClearAndBounds) {
  LabelDataset dataset{data::ObservationMatrix(2, 3), 4, {}};
  data::ObservationMatrix& m = dataset.claims;
  EXPECT_EQ(m.observation_count(), 0u);
  m.set(0, 1, 3.0);
  EXPECT_TRUE(m.present(0, 1));
  EXPECT_EQ(m.value(0, 1), 3.0);
  m.clear(0, 1);
  EXPECT_FALSE(m.present(0, 1));
  EXPECT_THROW(m.set(2, 0, 0.0), std::invalid_argument);  // user out of range
  EXPECT_THROW((void)m.value(0, 0), std::invalid_argument);  // missing
  for (std::size_t n = 0; n < 3; ++n) m.set(0, n, 3.0);
  EXPECT_NO_THROW(dataset.validate());
  m.set(1, 0, 4.0);  // label out of range: the dataset refuses it
  EXPECT_THROW(dataset.validate(), std::invalid_argument);
}

TEST(LabelMatrix, RejectsDegenerateShapes) {
  EXPECT_THROW(data::ObservationMatrix(0, 1), std::invalid_argument);
  EXPECT_THROW(truth::check_num_labels(1), std::invalid_argument);
  LabelDataset one_label{data::ObservationMatrix(1, 1), 1, {}};
  one_label.claims.set(0, 0, 0.0);
  EXPECT_THROW(one_label.validate(), std::invalid_argument);
}

TEST(LabelAccuracy, CountsMatches) {
  EXPECT_DOUBLE_EQ(label_accuracy({1, 2, 3}, {1, 2, 0}), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(label_accuracy({1}, {1}), 1.0);
  EXPECT_THROW(label_accuracy({1}, {1, 2}), std::invalid_argument);
}

TEST(MajorityVote, PluralityWins) {
  data::ObservationMatrix m(5, 1);
  m.set(0, 0, 1.0);
  m.set(1, 0, 1.0);
  m.set(2, 0, 1.0);
  m.set(3, 0, 2.0);
  m.set(4, 0, 0.0);
  EXPECT_EQ(run_majority(m, 3).truths[0], 1.0);
}

TEST(MajorityVote, TiesBreakTowardSmallerLabel) {
  data::ObservationMatrix m(2, 1);
  m.set(0, 0, 2.0);
  m.set(1, 0, 1.0);
  EXPECT_EQ(run_majority(m, 3).truths[0], 1.0);
}

TEST(WeightedVote, DownweightsBadUsers) {
  // 3 reliable users + 2 colluding liars over many objects: weighted voting
  // must recover the truth; the liars' weights must be lower.
  const CategoricalConfig config{.num_users = 5,
                                 .num_objects = 60,
                                 .num_labels = 3,
                                 .lambda_err = 100.0,  // reliable users
                                 .missing_rate = 0.0,
                                 .seed = 3};
  LabelDataset dataset = generate_categorical(config);
  // Replace users 3 and 4 with systematic liars (truth + 1 mod k).
  for (std::size_t n = 0; n < 60; ++n) {
    const Label lie =
        static_cast<Label>((dataset.ground_truth[n] + 1) % 3);
    dataset.claims.set(3, n, static_cast<double>(lie));
    dataset.claims.set(4, n, static_cast<double>(lie));
  }
  const truth::Result result = run_weighted(dataset.claims, 3);
  EXPECT_GT(label_accuracy(labels(result, 3), dataset.ground_truth), 0.95);
  EXPECT_LT(result.weights[3], result.weights[0]);
  EXPECT_LT(result.weights[4], result.weights[0]);
}

TEST(WeightedVote, UnanimousDataConvergesImmediately) {
  data::ObservationMatrix m(3, 2);
  for (std::size_t s = 0; s < 3; ++s) {
    m.set(s, 0, 1.0);
    m.set(s, 1, 0.0);
  }
  const truth::Result result = run_weighted(m, 2);
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.truths, (std::vector<double>{1.0, 0.0}));
  for (double w : result.weights) EXPECT_DOUBLE_EQ(w, 1.0);
}

TEST(WeightedVote, AtLeastAsAccurateAsMajorityOnHeterogeneousData) {
  CategoricalConfig config;
  config.num_users = 60;
  config.num_objects = 200;
  config.lambda_err = 2.0;  // noisy population
  config.seed = 11;
  const LabelDataset dataset = generate_categorical(config);
  const std::size_t L = dataset.num_labels;
  const double weighted = label_accuracy(
      labels(run_weighted(dataset.claims, L), L), dataset.ground_truth);
  const double majority = label_accuracy(
      labels(run_majority(dataset.claims, L), L), dataset.ground_truth);
  EXPECT_GE(weighted, majority - 0.01);
}

TEST(Krr, KeepProbabilityFormulaRoundTrips) {
  for (double eps : {0.1, 0.5, 1.0, 3.0}) {
    for (std::size_t k : {2u, 4u, 10u}) {
      const double p = krr_keep_probability(eps, k);
      EXPECT_GT(p, 1.0 / static_cast<double>(k));
      EXPECT_LT(p, 1.0);
      EXPECT_NEAR(krr_epsilon(p, k), eps, 1e-10);
    }
  }
}

TEST(Krr, ZeroEpsilonIsUniform) {
  EXPECT_NEAR(krr_keep_probability(0.0, 4), 0.25, 1e-12);
}

TEST(Krr, PerturbKeepsFrequenciesAtTheoreticalRate) {
  Rng rng(7);
  const double keep = 0.7;
  int kept = 0;
  const int n = 100'000;
  for (int i = 0; i < n; ++i) {
    if (krr_perturb(2, keep, 5, rng) == 2) ++kept;
  }
  // Kept = keep + (1-keep)*0 (other labels never map back to truth).
  EXPECT_NEAR(static_cast<double>(kept) / n, keep, 0.01);
}

TEST(Krr, WrongLabelsAreUniformOverOthers) {
  Rng rng(8);
  std::vector<int> counts(4, 0);
  const int n = 100'000;
  for (int i = 0; i < n; ++i) {
    const Label out = krr_perturb(0, 0.0, 4, rng);  // always flips
    ASSERT_NE(out, 0u);
    ++counts[out];
  }
  for (int k = 1; k < 4; ++k) {
    EXPECT_NEAR(static_cast<double>(counts[k]) / n, 1.0 / 3.0, 0.01);
  }
}

TEST(UserSampledRr, EpsilonsFollowExponential) {
  const UserSampledRandomizedResponse mech({.lambda_rr = 0.5, .seed = 5});
  RunningStats stats;
  for (std::size_t s = 0; s < 20'000; ++s) stats.add(mech.user_epsilon(s));
  EXPECT_NEAR(stats.mean(), 2.0, 0.05);  // mean = 1/lambda_rr
}

TEST(UserSampledRr, DeterministicInSeed) {
  CategoricalConfig config;
  config.num_users = 20;
  config.num_objects = 10;
  const LabelDataset dataset = generate_categorical(config);
  const UserSampledRandomizedResponse mech({.lambda_rr = 1.0, .seed = 9});
  const RandomizedResponseOutcome a =
      mech.perturb(dataset.claims, dataset.num_labels);
  const RandomizedResponseOutcome b =
      mech.perturb(dataset.claims, dataset.num_labels);
  EXPECT_EQ(a.perturbed, b.perturbed);
  EXPECT_EQ(a.report.epsilons, b.report.epsilons);
}

TEST(UserSampledRr, StrongerPrivacyFlipsMore) {
  CategoricalConfig config;
  config.num_users = 200;
  config.num_objects = 50;
  const LabelDataset dataset = generate_categorical(config);
  const UserSampledRandomizedResponse weak({.lambda_rr = 0.2, .seed = 3});
  const UserSampledRandomizedResponse strong({.lambda_rr = 5.0, .seed = 3});
  const auto weak_out = weak.perturb(dataset.claims, dataset.num_labels);
  const auto strong_out = strong.perturb(dataset.claims, dataset.num_labels);
  EXPECT_LT(weak_out.report.flipped_cells, strong_out.report.flipped_cells);
}

TEST(EndToEnd, WeightedVotingAbsorbsRandomizedResponseNoise) {
  // The categorical analogue of the paper's headline: under user-sampled
  // k-RR noise, weighted voting stays accurate and beats plain majority.
  CategoricalConfig config;
  config.num_users = 150;
  config.num_objects = 100;
  config.num_labels = 4;
  config.lambda_err = 8.0;
  config.seed = 21;
  const LabelDataset dataset = generate_categorical(config);

  const UserSampledRandomizedResponse mech({.lambda_rr = 0.7, .seed = 13});
  const RandomizedResponseOutcome outcome =
      mech.perturb(dataset.claims, dataset.num_labels);
  EXPECT_GT(outcome.report.flipped_cells, 0u);

  const double weighted = label_accuracy(
      labels(run_weighted(outcome.perturbed, 4), 4), dataset.ground_truth);
  const double majority = label_accuracy(
      labels(run_majority(outcome.perturbed, 4), 4), dataset.ground_truth);
  EXPECT_GT(weighted, 0.9);
  EXPECT_GE(weighted, majority);
}

TEST(Synthetic, LambdaErrControlsAccuracy) {
  CategoricalConfig clean;
  clean.lambda_err = 50.0;
  clean.seed = 2;
  CategoricalConfig noisy = clean;
  noisy.lambda_err = 1.5;
  const LabelDataset a = generate_categorical(clean);
  const LabelDataset b = generate_categorical(noisy);
  const auto agreement = [](const LabelDataset& d) {
    std::size_t hits = 0;
    std::size_t total = 0;
    d.claims.for_each([&](std::size_t, std::size_t n, double l) {
      hits += (static_cast<Label>(l) == d.ground_truth[n]);
      ++total;
    });
    return static_cast<double>(hits) / static_cast<double>(total);
  };
  EXPECT_GT(agreement(a), agreement(b) + 0.1);
}

TEST(Synthetic, MissingRateRespectedAndCovered) {
  CategoricalConfig config;
  config.num_users = 50;
  config.num_objects = 40;
  config.missing_rate = 0.5;
  const LabelDataset dataset = generate_categorical(config);
  const double coverage =
      static_cast<double>(dataset.claims.observation_count()) / (50.0 * 40.0);
  EXPECT_NEAR(coverage, 0.5, 0.06);
  EXPECT_NO_THROW(dataset.validate());
}

TEST(Synthetic, RejectsBadConfig) {
  CategoricalConfig config;
  config.num_labels = 1;
  EXPECT_THROW(generate_categorical(config), std::invalid_argument);
  config = {};
  config.lambda_err = 0.0;
  EXPECT_THROW(generate_categorical(config), std::invalid_argument);
}

/// Accuracy degrades gracefully as mean epsilon shrinks (privacy grows).
class RrPrivacySweep : public ::testing::TestWithParam<double> {};

TEST_P(RrPrivacySweep, WeightedVotingStaysAboveChance) {
  const double lambda_rr = GetParam();
  CategoricalConfig config;
  config.num_users = 120;
  config.num_objects = 80;
  config.num_labels = 4;
  config.lambda_err = 8.0;
  config.seed = 31;
  const LabelDataset dataset = generate_categorical(config);
  const UserSampledRandomizedResponse mech({.lambda_rr = lambda_rr,
                                            .seed = 17});
  const auto outcome = mech.perturb(dataset.claims, dataset.num_labels);
  const double accuracy = label_accuracy(
      labels(run_weighted(outcome.perturbed, 4), 4), dataset.ground_truth);
  EXPECT_GT(accuracy, 0.3) << "lambda_rr=" << lambda_rr;  // chance = 0.25
}

INSTANTIATE_TEST_SUITE_P(PrivacyLevels, RrPrivacySweep,
                         ::testing::Values(0.2, 0.5, 1.0, 2.0));

}  // namespace
}  // namespace dptd::categorical
