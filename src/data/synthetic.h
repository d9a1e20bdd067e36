// Synthetic workload generator faithful to the paper's §5.1 setup:
//   - N objects with continuous ground truths;
//   - S users; user s draws error variance sigma_s^2 ~ Exp(rate lambda1);
//   - observation x_s_n = truth_n + N(0, sigma_s^2);
//   - optional missingness and adversarial users (beyond-paper extension,
//     used for robustness tests and the ablation bench).
#pragma once

#include <cstdint>

#include "common/rng.h"
#include "data/dataset.h"

namespace dptd::data {

/// How ground truths are drawn.
enum class TruthDistribution {
  kUniform,   ///< Uniform(truth_lo, truth_hi)
  kGaussian,  ///< N(truth_mean, truth_stddev^2)
};

struct SyntheticConfig {
  std::size_t num_users = 150;  ///< paper §5.1 default
  std::size_t num_objects = 30; ///< paper §5.1 default

  /// Rate of the exponential distribution the error variances are drawn from
  /// (paper's lambda_1; mean error variance = 1/lambda1).
  double lambda1 = 2.0;

  TruthDistribution truth_distribution = TruthDistribution::kUniform;
  double truth_lo = 0.0;
  double truth_hi = 10.0;
  double truth_mean = 5.0;
  double truth_stddev = 2.0;

  /// Probability that any given (user, object) cell is missing.
  double missing_rate = 0.0;

  /// Fraction of users replaced by adversaries (0 disables).
  double adversary_fraction = 0.0;
  /// Adversary behaviour: "bias" adds a fixed offset, "spam" reports
  /// uniform noise over the truth range, "constant" always reports the same
  /// value.
  std::string adversary_kind = "bias";
  double adversary_bias = 5.0;

  std::uint64_t seed = 42;
};

/// Generates a dataset according to `config`. Deterministic in `config.seed`.
/// Guarantees every object retains at least one observation even under high
/// missing rates.
Dataset generate_synthetic(const SyntheticConfig& config);

/// Next round of a persistent-fleet workload: ground truths AND per-user
/// error variances are supplied by the caller (truths drift between rounds;
/// a device's sensor quality is a property of the device and persists).
/// Observation noise, missingness, and adversary payloads are still drawn
/// fresh from `config.seed`. Sizes must match `config.num_objects` /
/// `config.num_users`; variances must be positive.
Dataset generate_synthetic_round(const SyntheticConfig& config,
                                 const std::vector<double>& truths,
                                 const std::vector<double>& user_variances);

/// Draws the per-user error variances only (exposed for tests and for the
/// theory-vs-empirical benches).
std::vector<double> sample_error_variances(std::size_t num_users,
                                           double lambda1, Rng& rng);

}  // namespace dptd::data
