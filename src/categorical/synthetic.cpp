#include "categorical/synthetic.h"

#include <algorithm>

#include "common/check.h"
#include "common/distributions.h"
#include "common/rng.h"

namespace dptd::categorical {

LabelDataset generate_categorical(const CategoricalConfig& config) {
  DPTD_REQUIRE(config.num_users > 0 && config.num_objects > 0,
               "generate_categorical: dimensions must be positive");
  DPTD_REQUIRE(config.num_labels >= 2,
               "generate_categorical: need at least 2 labels");
  DPTD_REQUIRE(config.lambda_err > 0.0,
               "generate_categorical: lambda_err must be positive");
  DPTD_REQUIRE(config.missing_rate >= 0.0 && config.missing_rate < 1.0,
               "generate_categorical: missing_rate must be in [0,1)");

  Rng rng(config.seed);
  LabelDataset dataset;
  dataset.ground_truth.resize(config.num_objects);
  for (Label& truth : dataset.ground_truth) {
    truth = static_cast<Label>(uniform_index(rng, config.num_labels));
  }

  std::vector<double> error_probability(config.num_users);
  for (double& p : error_probability) {
    p = std::min(0.95, exponential(rng, config.lambda_err));
  }

  data::ObservationMatrix claims(config.num_users, config.num_objects);
  Rng miss_rng = rng.split(1);
  Rng claim_rng = rng.split(2);
  for (std::size_t s = 0; s < config.num_users; ++s) {
    for (std::size_t n = 0; n < config.num_objects; ++n) {
      if (config.missing_rate > 0.0 &&
          bernoulli(miss_rng, config.missing_rate)) {
        continue;
      }
      const Label truth = dataset.ground_truth[n];
      Label claim = truth;
      if (bernoulli(claim_rng, error_probability[s])) {
        const auto offset =
            1 + static_cast<Label>(uniform_index(claim_rng,
                                                 config.num_labels - 1));
        claim = static_cast<Label>((truth + offset) % config.num_labels);
      }
      claims.set(s, n, static_cast<double>(claim));
    }
  }
  for (std::size_t n = 0; n < config.num_objects; ++n) {
    if (claims.object_observation_count(n) == 0) {
      const auto s = static_cast<std::size_t>(
          uniform_index(miss_rng, config.num_users));
      claims.set(s, n, static_cast<double>(dataset.ground_truth[n]));
    }
  }
  dataset.claims = std::move(claims);
  dataset.num_labels = config.num_labels;
  dataset.validate();
  return dataset;
}

}  // namespace dptd::categorical
