// 1-D numerical integration used by the theory module to evaluate the exact
// moments E[Y], E[Y^2] of Y = sqrt(sigma_s^2 + sigma_s'^2 + delta_s'^2) whose
// closed form in the paper contains typos, so E[Y] is integrated numerically.
#pragma once

#include <functional>

namespace dptd {

/// Adaptive Simpson on [a, b] to absolute tolerance `tol`.
double integrate_adaptive_simpson(const std::function<double(double)>& f,
                                  double a, double b, double tol = 1e-10,
                                  int max_depth = 30);

/// Semi-infinite integral \int_a^inf f(x) dx via the substitution
/// x = a + t/(1-t) mapped onto adaptive Simpson on [0,1).
double integrate_to_infinity(const std::function<double(double)>& f, double a,
                             double tol = 1e-10);

/// Fixed-order Gauss–Legendre on [a, b] (orders 8, 16, 32 supported);
/// used as a fast inner rule for smooth integrands.
double integrate_gauss_legendre(const std::function<double(double)>& f,
                                double a, double b, int order = 32);

}  // namespace dptd
