#include "crowd/label_client.h"

#include "categorical/randomized_response.h"
#include "common/check.h"
#include "common/rng.h"

namespace dptd::crowd {

LabelReport make_label_report(std::uint64_t round, net::NodeId user_id,
                              std::span<const std::uint64_t> objects,
                              std::span<const categorical::Label> truths,
                              std::size_t num_labels, double keep_probability,
                              std::uint64_t seed) {
  DPTD_REQUIRE(objects.size() == truths.size(),
               "make_label_report: objects/truths size mismatch");
  DPTD_REQUIRE(num_labels >= 2, "make_label_report: need at least 2 labels");
  DPTD_REQUIRE(keep_probability > 1.0 / static_cast<double>(num_labels) &&
                   keep_probability <= 1.0,
               "make_label_report: keep probability must be in "
               "(1/num_labels, 1]");
  LabelReport report;
  report.round = round;
  report.user_id = user_id;
  report.objects.assign(objects.begin(), objects.end());
  report.labels.reserve(truths.size());
  if (keep_probability == 1.0) {
    for (categorical::Label truth : truths) {
      DPTD_REQUIRE(truth < num_labels, "make_label_report: label out of range");
    }
    report.labels.assign(truths.begin(), truths.end());
    return report;
  }
  // krr_perturb refuses a truth outside the alphabet.
  Rng rng(derive_seed(seed, round, user_id));
  for (categorical::Label truth : truths) {
    report.labels.push_back(
        categorical::krr_perturb(truth, keep_probability, num_labels, rng));
  }
  return report;
}

}  // namespace dptd::crowd
