// Privacy accounting (Theorem 4.8) and the utility–privacy trade-off
// (Theorem 4.9) expressed as a feasible window on the noise level
// c = lambda1 / lambda2 = E[noise variance] / E[error variance].
//
// Derivation note: the paper's printed privacy bound drops epsilon between
// steps; we implement the bound with epsilon restored:
//   satisfied iff Pr{ delta_s^2 >= Delta_s^2 / (2 eps) } >= 1 - delta
//             iff c >= lambda1 Delta_s^2 / (2 eps ln(1/(1-delta))).
// With Delta_s = gamma_s / lambda1 (Lemma 4.7) this is
//             c >= gamma_s^2 / (2 eps lambda1 ln(1/(1-delta))).
// Setting eps = 1 recovers the paper's printed form.
#pragma once

#include <cstddef>

#include "core/sensitivity.h"

namespace dptd::core {

/// (eps, delta)-local differential privacy target (Definition 4.5).
struct PrivacyTarget {
  double epsilon = 1.0;
  double delta = 0.05;
};

/// (alpha, beta)-utility target (Definition 4.2).
struct UtilityTarget {
  double alpha = 0.5;
  double beta = 0.1;
};

/// Smallest noise level c such that the mechanism is (eps,delta)-LDP for a
/// user with sensitivity Delta (Theorem 4.8, explicit-sensitivity form).
double min_noise_level_for_privacy(const PrivacyTarget& target, double lambda1,
                                   double sensitivity);

/// Same, with the Lemma 4.7 sensitivity bound Delta = gamma_s/lambda1.
double min_noise_level_for_privacy(const PrivacyTarget& target, double lambda1,
                                   const SensitivityParams& params);

/// The epsilon actually achieved at noise level c for sensitivity Delta and
/// failure probability delta (inverse of min_noise_level_for_privacy):
///   eps(c) = lambda1 Delta^2 / (2 c ln(1/(1-delta))).
double achieved_epsilon(double c, double lambda1, double sensitivity,
                        double delta);

/// Largest noise level c compatible with (alpha,beta)-utility
/// (Theorem 4.3 / bounds.h::utility_noise_upper_bound).
double max_noise_level_for_utility(const UtilityTarget& target, double lambda1,
                                   std::size_t num_users);

/// Theorem 4.9: the feasible window of noise levels meeting both targets.
struct NoiseWindow {
  double c_min = 0.0;      ///< privacy lower bound
  double c_max = 0.0;      ///< utility upper bound
  bool feasible = false;   ///< c_min <= c_max and c_max > 0
};

NoiseWindow feasible_noise_window(const UtilityTarget& utility,
                                  const PrivacyTarget& privacy, double lambda1,
                                  std::size_t num_users,
                                  const SensitivityParams& params = {});

/// Convenience: lambda2 corresponding to a chosen noise level c.
double lambda2_for_noise_level(double c, double lambda1);

/// Convenience: noise level c corresponding to a lambda2.
double noise_level_for_lambda2(double lambda2, double lambda1);

}  // namespace dptd::core
