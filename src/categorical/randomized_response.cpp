#include "categorical/randomized_response.h"

#include <cmath>

#include "common/check.h"
#include "common/distributions.h"
#include "truth/categorical.h"

namespace dptd::categorical {
namespace {
constexpr std::uint64_t kEpsilonStream = 0x65707353ULL;  // "epsS"
constexpr std::uint64_t kFlipStream = 0x666c6970ULL;     // "flip"
}  // namespace

double krr_keep_probability(double epsilon, std::size_t num_labels) {
  DPTD_REQUIRE(epsilon >= 0.0, "krr: epsilon must be non-negative");
  DPTD_REQUIRE(num_labels >= 2, "krr: need at least 2 labels");
  const double boost = std::exp(epsilon);
  return boost / (boost + static_cast<double>(num_labels) - 1.0);
}

double krr_epsilon(double keep_probability, std::size_t num_labels) {
  DPTD_REQUIRE(num_labels >= 2, "krr: need at least 2 labels");
  const double k = static_cast<double>(num_labels);
  DPTD_REQUIRE(keep_probability > 1.0 / k && keep_probability < 1.0,
               "krr: keep probability must be in (1/k, 1)");
  return std::log(keep_probability * (k - 1.0) / (1.0 - keep_probability));
}

Label krr_perturb(Label truth, double keep_probability,
                  std::size_t num_labels, Rng& rng) {
  DPTD_REQUIRE(truth < num_labels, "krr: truth label out of range");
  DPTD_REQUIRE(keep_probability >= 0.0 && keep_probability <= 1.0,
               "krr: keep probability must be in [0,1]");
  if (bernoulli(rng, keep_probability)) return truth;
  // Uniform over the other k-1 labels.
  const auto offset =
      1 + static_cast<Label>(uniform_index(rng, num_labels - 1));
  return static_cast<Label>((truth + offset) % num_labels);
}

UserSampledRandomizedResponse::UserSampledRandomizedResponse(Config config)
    : config_(config) {
  DPTD_REQUIRE(config_.lambda_rr > 0.0,
               "UserSampledRandomizedResponse: lambda_rr must be positive");
}

double UserSampledRandomizedResponse::user_epsilon(std::size_t user) const {
  Rng rng(derive_seed(config_.seed, kEpsilonStream, user));
  return exponential(rng, config_.lambda_rr);
}

RandomizedResponseOutcome UserSampledRandomizedResponse::perturb(
    const data::ObservationMatrix& original, std::size_t num_labels) const {
  RandomizedResponseOutcome out{
      data::ObservationMatrix(original.num_users(), original.num_objects()),
      {}};
  out.report.epsilons.resize(original.num_users());
  double keep_sum = 0.0;

  for (std::size_t s = 0; s < original.num_users(); ++s) {
    const double eps = user_epsilon(s);
    out.report.epsilons[s] = eps;
    const double keep = krr_keep_probability(eps, num_labels);
    keep_sum += keep;
    Rng rng(derive_seed(config_.seed, kFlipStream, s));
    // Sparse row walk (object-ascending, so set() hits the append fast path).
    // The flip stream only ever advanced on present cells, so this consumes
    // the exact same draws as the historical dense scan.
    for (const data::ObservationMatrix::Entry& e : original.user_entries(s)) {
      DPTD_REQUIRE(truth::is_label_value(e.value, num_labels),
                   "UserSampledRandomizedResponse: claim is no label");
      const auto label = static_cast<Label>(e.value);
      const Label noisy = krr_perturb(label, keep, num_labels, rng);
      out.perturbed.set(s, e.object, static_cast<double>(noisy));
      ++out.report.total_cells;
      if (noisy != label) ++out.report.flipped_cells;
    }
  }
  if (original.num_users() > 0) {
    out.report.mean_keep_probability =
        keep_sum / static_cast<double>(original.num_users());
  }
  return out;
}

}  // namespace dptd::categorical
