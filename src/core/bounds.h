// Moment calculators and utility bounds backing Theorem 4.3 / Theorem A.1.
//
// Y := sqrt(sigma_s^2 + sigma_{s'}^2 + delta_{s'}^2) with
//   sigma^2 ~ Exp(rate lambda1)  (two independent draws)
//   delta^2 ~ Exp(rate lambda2), lambda2 = lambda1 / c.
//
// T := Y^2 is Gamma(2, 1/lambda1) + Exp(1/lambda2); its exact density has a
// closed convolution form (general c) and reduces to Gamma(3, 1/lambda1) at
// c = 1. E[Y] is computed by quadrature over that density — the closed form
// printed in the paper contains typos, while E[Y^2] matches the paper
// exactly: (2 lambda2 + lambda1) / (lambda1 lambda2).
#pragma once

#include <cstddef>

namespace dptd::core {

/// Density of T = sigma_s^2 + sigma_{s'}^2 + delta_{s'}^2 at t >= 0.
double sum_variance_pdf(double t, double lambda1, double lambda2);

/// E[Y] = E[sqrt(T)], by adaptive quadrature over sum_variance_pdf.
double expected_y(double lambda1, double lambda2);

/// E[Y^2] = (2 lambda2 + lambda1) / (lambda1 lambda2)  (paper, exact).
double expected_y_squared(double lambda1, double lambda2);

/// Var[Y] = E[Y^2] - E[Y]^2.
double variance_y(double lambda1, double lambda2);

/// Closed form E[Y] for the special case c = 1 (T ~ Gamma(3, 1/lambda1)):
/// E[Y] = Gamma(3.5)/Gamma(3) * lambda1^{-1/2} = (15/16) sqrt(pi/lambda1).
double expected_y_c1(double lambda1);

/// Theorem 4.3's bound on the average aggregate deviation:
///   Pr{ (1/N) sum_n |x*_n - xhat*_n| >= alpha }
///     <= 16 sqrt(2/pi) Var(Y) / (S^2 alpha^2) + [ sqrt(2/pi) E(Y) >= alpha/2 ]
/// (clamped to [0,1]). The indicator term reflects the paper's step that the
/// deterministic mean-term probability is 0 or 1.
double utility_probability_bound(double alpha, double lambda1, double lambda2,
                                 std::size_t num_users);

/// Theorem 4.3's upper bound on the noise level c for (alpha, beta)-utility:
///   C = lambda1 sqrt(pi) (alpha^2 beta S^2 / (4 sqrt 2) + alpha^2 sqrt(pi)/8
///       + alpha + 2/sqrt(pi)) - 2.
double utility_noise_upper_bound(double lambda1, double alpha, double beta,
                                 std::size_t num_users);

/// Theorem 4.3's lower threshold on alpha (valid for c != 1):
///   alpha_{lambda1,c} = 2 sqrt2 / sqrt(lambda1 (1-c))
///                       * (3/4 - c (c + sqrt c + 1) / (sqrt2 (1 + sqrt c))).
/// For c -> 1 use alpha_threshold_c1.
double alpha_threshold(double lambda1, double c);

/// Theorem A.1's alpha threshold at c = 1, with the paper's typo corrected:
///   alpha > 2 sqrt2/sqrt(pi) * E(Y) = (15/8) sqrt(2 / lambda1).
double alpha_threshold_c1(double lambda1);

/// Theorem A.1's vanishing-probability bound at c = 1 (corrected constant):
///   Pr{...>= alpha} <= 16 sqrt(2/pi) Var(Y) / (S^2 alpha^2),
/// with Var(Y) = (3 - 225 pi / 256) / lambda1.
double utility_probability_bound_c1(double alpha, double lambda1,
                                    std::size_t num_users);

}  // namespace dptd::core
