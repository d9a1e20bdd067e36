// Categorical claims: label ids held as readings.
//
// EXTENSION (beyond the reproduced paper): the paper handles continuous
// data and cites its companion work (Li et al., KDD 2018 [23]) for the
// categorical case. This module provides the categorical analogue so the
// library covers both data types.
//
// There is no separate label store. A categorical claim is a reading whose
// value is a label id, an exact small double, in the sparse claim matrix of
// data/dataset.h; the alphabet size travels next to it. Generators,
// mechanisms, the streaming builder, the sharded view and every vote fold
// (categorical/voting.h, behind truth::MajorityVote and truth::WeightedVote)
// share that one store with continuous rounds.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "data/dataset.h"

namespace dptd::categorical {

/// A label id in [0, num_labels).
using Label = std::uint32_t;

/// Categorical dataset: label-id readings, their alphabet, and optional
/// ground-truth labels.
struct LabelDataset {
  data::ObservationMatrix claims;   ///< every value a label id as a double
  std::size_t num_labels = 0;
  std::vector<Label> ground_truth;  ///< empty if unknown

  bool has_ground_truth() const { return !ground_truth.empty(); }
  /// Throws std::invalid_argument unless the alphabet is valid
  /// (truth::check_num_labels), every claim is a label id below num_labels
  /// (truth::is_label_value), the ground truth fits, and every object has a
  /// claim.
  void validate() const;
};

/// Fraction of objects where `estimate` matches `truth` (accuracy metric of
/// the categorical literature).
double label_accuracy(const std::vector<Label>& estimate,
                      const std::vector<Label>& truth);

}  // namespace dptd::categorical
