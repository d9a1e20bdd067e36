#include "data/synthetic.h"

#include <cmath>

#include "common/check.h"
#include "common/distributions.h"

namespace dptd::data {

std::vector<double> sample_error_variances(std::size_t num_users,
                                           double lambda1, Rng& rng) {
  DPTD_REQUIRE(lambda1 > 0.0, "lambda1 must be positive");
  std::vector<double> variances(num_users);
  for (double& v : variances) v = exponential(rng, lambda1);
  return variances;
}

namespace {

/// Shared generator core: `truths_override` / `variances_override` (when
/// non-null) replace the corresponding draw but leave every other stream
/// untouched.
Dataset generate_impl(const SyntheticConfig& config,
                      const std::vector<double>* truths_override,
                      const std::vector<double>* variances_override) {
  DPTD_REQUIRE(config.num_users > 0, "num_users must be positive");
  DPTD_REQUIRE(config.num_objects > 0, "num_objects must be positive");
  DPTD_REQUIRE(config.lambda1 > 0.0, "lambda1 must be positive");
  DPTD_REQUIRE(config.missing_rate >= 0.0 && config.missing_rate < 1.0,
               "missing_rate must be in [0,1)");
  DPTD_REQUIRE(
      config.adversary_fraction >= 0.0 && config.adversary_fraction <= 1.0,
      "adversary_fraction must be in [0,1]");
  DPTD_REQUIRE(config.adversary_kind == "bias" ||
                   config.adversary_kind == "spam" ||
                   config.adversary_kind == "constant",
               "adversary_kind must be bias|spam|constant");

  Rng rng(config.seed);

  Dataset dataset;
  if (truths_override != nullptr) {
    DPTD_REQUIRE(truths_override->size() == config.num_objects,
                 "generate_synthetic_round: truths size != num_objects");
    for (double t : *truths_override) {
      DPTD_REQUIRE(std::isfinite(t),
                   "generate_synthetic_round: non-finite truth");
    }
    dataset.ground_truth = *truths_override;
  } else {
    dataset.ground_truth.resize(config.num_objects);
    for (double& t : dataset.ground_truth) {
      if (config.truth_distribution == TruthDistribution::kUniform) {
        t = uniform(rng, config.truth_lo, config.truth_hi);
      } else {
        t = normal(rng, config.truth_mean, config.truth_stddev);
      }
    }
  }

  std::vector<double> variances;
  if (variances_override != nullptr) {
    DPTD_REQUIRE(variances_override->size() == config.num_users,
                 "generate_synthetic_round: variances size != num_users");
    for (double v : *variances_override) {
      DPTD_REQUIRE(std::isfinite(v) && v > 0.0,
                   "generate_synthetic_round: variances must be positive");
    }
    variances = *variances_override;
  } else {
    variances = sample_error_variances(config.num_users, config.lambda1, rng);
  }

  dataset.provenance.resize(config.num_users);
  const auto num_adversaries = static_cast<std::size_t>(
      std::floor(config.adversary_fraction *
                 static_cast<double>(config.num_users)));
  for (std::size_t s = 0; s < config.num_users; ++s) {
    dataset.provenance[s].error_variance = variances[s];
    if (s < num_adversaries) {
      dataset.provenance[s].adversarial = true;
      dataset.provenance[s].adversary_kind = config.adversary_kind;
    }
  }

  ObservationMatrix obs(config.num_users, config.num_objects);
  GaussianSampler noise(rng.split(0x6f6273ULL));
  Rng missing_rng = rng.split(0x6d697373ULL);
  Rng adversary_rng = rng.split(0x616476ULL);

  // Per-user constant used by "constant" adversaries.
  std::vector<double> constants(config.num_users, 0.0);
  for (double& c : constants) {
    c = uniform(adversary_rng, config.truth_lo, config.truth_hi);
  }

  for (std::size_t s = 0; s < config.num_users; ++s) {
    const double sigma = std::sqrt(variances[s]);
    for (std::size_t n = 0; n < config.num_objects; ++n) {
      if (config.missing_rate > 0.0 &&
          bernoulli(missing_rng, config.missing_rate)) {
        continue;
      }
      const double truth = dataset.ground_truth[n];
      double x = 0.0;
      if (dataset.provenance[s].adversarial) {
        if (config.adversary_kind == "bias") {
          x = truth + config.adversary_bias + noise(0.0, sigma);
        } else if (config.adversary_kind == "spam") {
          x = uniform(adversary_rng, config.truth_lo, config.truth_hi);
        } else {  // constant
          x = constants[s];
        }
      } else {
        x = truth + noise(0.0, sigma);
      }
      obs.set(s, n, x);
    }
  }

  // Guarantee coverage: if missingness emptied an object, force one claim.
  for (std::size_t n = 0; n < config.num_objects; ++n) {
    if (obs.object_observation_count(n) == 0) {
      const auto s = static_cast<std::size_t>(
          uniform_index(missing_rng, config.num_users));
      obs.set(s, n,
              dataset.ground_truth[n] +
                  noise(0.0, std::sqrt(variances[s])));
    }
  }

  dataset.observations = std::move(obs);
  dataset.validate();
  return dataset;
}

}  // namespace

Dataset generate_synthetic(const SyntheticConfig& config) {
  return generate_impl(config, nullptr, nullptr);
}

Dataset generate_synthetic_round(const SyntheticConfig& config,
                                 const std::vector<double>& truths,
                                 const std::vector<double>& user_variances) {
  return generate_impl(config, &truths, &user_variances);
}

}  // namespace dptd::data
