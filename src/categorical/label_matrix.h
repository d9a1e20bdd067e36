// Categorical claims: a sparse user x object matrix of label ids.
//
// EXTENSION (beyond the reproduced paper): the paper handles continuous
// data and cites its companion work (Li et al., KDD 2018 [23]) for the
// categorical case. This module provides the categorical analogue so the
// library covers both data types.
//
// Storage is the sparse claim matrix of data/dataset.h instantiated over
// the label domain: the same store of user rows, streaming row builder
// (data/builder.h) and sharded view (data/sharding.h) as continuous
// readings, with label ids below `num_labels` in the cells. The vote folds
// (categorical/voting.h) walk its rows one canonical user block at a time.
#pragma once

#include <vector>

#include "data/builder.h"
#include "data/dataset.h"
#include "data/sharding.h"

namespace dptd::categorical {

using Label = data::LabelDomain::Value;

/// The label instantiations: constructors take the alphabet size as their
/// trailing argument, and num_labels() reads it back.
using LabelMatrix = data::ClaimMatrix<data::LabelDomain>;
using LabelMatrixBuilder = data::ClaimMatrixBuilder<data::LabelDomain>;
using ShardedLabelMatrix = data::ShardedClaimMatrix<data::LabelDomain>;

/// Categorical dataset with optional ground-truth labels.
struct LabelDataset {
  LabelMatrix claims;
  std::vector<Label> ground_truth;  ///< empty if unknown

  bool has_ground_truth() const { return !ground_truth.empty(); }
  void validate() const;
};

/// Fraction of objects where `estimate` matches `truth` (accuracy metric of
/// the categorical literature).
double label_accuracy(const std::vector<Label>& estimate,
                      const std::vector<Label>& truth);

}  // namespace dptd::categorical
