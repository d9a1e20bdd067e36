#include "common/special_functions.h"

#include <cmath>
#include <limits>

#include "common/check.h"

namespace dptd {
namespace {

constexpr double kSqrt2 = 1.4142135623730950488016887242097;
constexpr double kInvSqrt2Pi = 0.39894228040143267793994605993438;

// std::lgamma also writes the global `signgam`, a data race when kernels
// call it from pool threads (CATD's per-user chi-squared quantiles). The
// reentrant form computes the same value and keeps the sign local.
double log_gamma(double a) {
  int sign = 0;
  return ::lgamma_r(a, &sign);
}

// Acklam's inverse normal CDF rational approximation.
double acklam(double p) {
  static constexpr double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                                 -2.759285104469687e+02, 1.383577518672690e+02,
                                 -3.066479806614716e+01, 2.506628277459239e+00};
  static constexpr double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                                 -1.556989798598866e+02, 6.680131188771972e+01,
                                 -1.328068155288572e+01};
  static constexpr double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                                 -2.400758277161838e+00, -2.549732539343734e+00,
                                 4.374664141464968e+00,  2.938163982698783e+00};
  static constexpr double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                                 2.445134137142996e+00, 3.754408661907416e+00};
  constexpr double p_low = 0.02425;

  if (p < p_low) {
    const double q = std::sqrt(-2.0 * std::log(p));
    return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
            c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  if (p <= 1.0 - p_low) {
    const double q = p - 0.5;
    const double r = q * q;
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r +
            a[5]) *
           q /
           (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0);
  }
  const double q = std::sqrt(-2.0 * std::log(1.0 - p));
  return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
           c[5]) /
         ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
}

}  // namespace

double normal_pdf(double x) { return kInvSqrt2Pi * std::exp(-0.5 * x * x); }

double normal_cdf(double x) { return 0.5 * std::erfc(-x / kSqrt2); }

double normal_quantile(double p) {
  DPTD_REQUIRE(p > 0.0 && p < 1.0, "normal_quantile: p must be in (0,1)");
  double x = acklam(p);
  // One Halley refinement step against the true CDF.
  const double e = normal_cdf(x) - p;
  const double u = e * std::sqrt(2.0 * 3.14159265358979323846) *
                   std::exp(0.5 * x * x);
  x = x - u / (1.0 + 0.5 * x * u);
  return x;
}

double regularized_gamma_p(double a, double x) {
  DPTD_REQUIRE(a > 0.0 && x >= 0.0, "regularized_gamma_p: invalid arguments");
  if (x == 0.0) return 0.0;
  constexpr int kMaxIter = 500;
  constexpr double kEps = 1e-14;
  const double gln = log_gamma(a);
  if (x < a + 1.0) {
    // Series representation.
    double ap = a;
    double sum = 1.0 / a;
    double del = sum;
    for (int i = 0; i < kMaxIter; ++i) {
      ap += 1.0;
      del *= x / ap;
      sum += del;
      if (std::abs(del) < std::abs(sum) * kEps) break;
    }
    return sum * std::exp(-x + a * std::log(x) - gln);
  }
  // Continued fraction for Q(a,x); P = 1 - Q.
  constexpr double kFpMin = std::numeric_limits<double>::min() / kEps;
  double b = x + 1.0 - a;
  double c = 1.0 / kFpMin;
  double d = 1.0 / b;
  double h = d;
  for (int i = 1; i <= kMaxIter; ++i) {
    const double an = -static_cast<double>(i) * (static_cast<double>(i) - a);
    b += 2.0;
    d = an * d + b;
    if (std::abs(d) < kFpMin) d = kFpMin;
    c = b + an / c;
    if (std::abs(c) < kFpMin) c = kFpMin;
    d = 1.0 / d;
    const double del = d * c;
    h *= del;
    if (std::abs(del - 1.0) < kEps) break;
  }
  const double q = std::exp(-x + a * std::log(x) - gln) * h;
  return 1.0 - q;
}

double chi_squared_quantile(double p_upper, double dof) {
  DPTD_REQUIRE(p_upper > 0.0 && p_upper < 1.0,
               "chi_squared_quantile: p must be in (0,1)");
  DPTD_REQUIRE(dof > 0.0, "chi_squared_quantile: dof must be positive");
  // Wilson–Hilferty initial guess.
  const double z = normal_quantile(1.0 - p_upper);
  const double t = 1.0 - 2.0 / (9.0 * dof) + z * std::sqrt(2.0 / (9.0 * dof));
  double x = dof * t * t * t;
  if (x <= 0.0) x = 1e-8;
  // Newton polish on P(dof/2, x/2) = 1 - p_upper.
  const double target = 1.0 - p_upper;
  const double a = dof / 2.0;
  for (int it = 0; it < 60; ++it) {
    const double f = regularized_gamma_p(a, x / 2.0) - target;
    // d/dx P(a, x/2) = (x/2)^{a-1} e^{-x/2} / (2 Gamma(a)).
    const double logpdf =
        (a - 1.0) * std::log(x / 2.0) - x / 2.0 - log_gamma(a);
    const double fp = 0.5 * std::exp(logpdf);
    if (fp <= 0.0) break;
    const double step = f / fp;
    x -= step;
    if (x <= 0.0) x = 1e-10;
    if (std::abs(step) < 1e-12 * (1.0 + x)) break;
  }
  return x;
}

double gaussian_tail_bound(double b) {
  DPTD_REQUIRE(b > 0.0, "gaussian_tail_bound: b must be positive");
  return 2.0 * std::exp(-b * b / 2.0) / b;
}

}  // namespace dptd
