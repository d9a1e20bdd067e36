// Synthetic categorical workloads for the extension module: users with
// heterogeneous per-claim error probabilities (exponentially distributed
// "unreliability", mirroring the continuous generator's Exp(lambda1)
// variances). Claims are label-id readings in data::ObservationMatrix, the
// store a label round ingests into.
#pragma once

#include <cstdint>

#include "categorical/label_matrix.h"

namespace dptd::categorical {

struct CategoricalConfig {
  std::size_t num_users = 150;
  std::size_t num_objects = 30;
  std::size_t num_labels = 4;
  /// Per-user error probability = min(0.95, Exp(rate lambda_err) sample);
  /// mean 1/lambda_err. Bigger lambda_err = cleaner population.
  double lambda_err = 5.0;
  double missing_rate = 0.0;
  std::uint64_t seed = 42;
};

/// Label-id readings over config.num_labels labels. Wrong claims are
/// uniform over the other labels. Every object keeps at least one claim
/// under missingness.
LabelDataset generate_categorical(const CategoricalConfig& config);

}  // namespace dptd::categorical
