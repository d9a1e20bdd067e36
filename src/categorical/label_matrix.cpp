#include "categorical/label_matrix.h"

#include "common/check.h"
#include "truth/categorical.h"

namespace dptd::categorical {

void LabelDataset::validate() const {
  DPTD_REQUIRE(claims.num_users() > 0, "LabelDataset: empty matrix");
  truth::check_num_labels(num_labels);
  claims.for_each([&](std::size_t, std::size_t, double value) {
    DPTD_REQUIRE(truth::is_label_value(value, num_labels),
                 "LabelDataset: claim is no label below num_labels");
  });
  if (!ground_truth.empty()) {
    DPTD_REQUIRE(ground_truth.size() == claims.num_objects(),
                 "LabelDataset: ground truth size != num objects");
    for (Label truth : ground_truth) {
      DPTD_REQUIRE(truth < num_labels,
                   "LabelDataset: ground-truth label out of range");
    }
  }
  for (std::size_t n = 0; n < claims.num_objects(); ++n) {
    DPTD_REQUIRE(claims.object_observation_count(n) > 0,
                 "LabelDataset: object with zero claims");
  }
}

double label_accuracy(const std::vector<Label>& estimate,
                      const std::vector<Label>& truth) {
  DPTD_REQUIRE(estimate.size() == truth.size() && !estimate.empty(),
               "label_accuracy: size mismatch or empty");
  std::size_t hits = 0;
  for (std::size_t i = 0; i < estimate.size(); ++i) {
    if (estimate[i] == truth[i]) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(estimate.size());
}

}  // namespace dptd::categorical
