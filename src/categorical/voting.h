// Truth discovery for categorical claims (extension module): the mergeable
// vote kernels behind truth::MajorityVote and truth::WeightedVote.
//
//  - majority: quality-blind plurality per object.
//  - weighted: the CRH-style iteration on labels — weight users by -log of
//    their share of total disagreement with the current estimates, then take
//    the weighted plurality. Same two principles as Algorithm 1.
//
// Both loops (truth/categorical.h) are built on mergeable sufficient
// statistics in the style of truth/sharded_stats.h: per-object label
// histograms folded in canonical user-block order (flat within a block of
// plan.block_size users, block partials chained ascending) and per-user
// disagreement counts totalled by truth::block_chain_sum. Shard boundaries
// are block-aligned, so a K-shard run is bitwise identical to the
// single-shard run for any K, in process or over the wire.
//
// The kernels read the claim matrix a round ingests, label ids as exact
// doubles, in place: a claim counts as label v exactly when
// truth::is_label_value admits it; any other claim is skipped and touches
// nothing.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "categorical/label_matrix.h"
#include "common/thread_pool.h"
#include "data/sharding.h"

namespace dptd::categorical {

// ---------------------------------------------------------------------------
// Mergeable kernels (the sharded/distributed building blocks).
// ---------------------------------------------------------------------------

/// Adds each shard's weighted per-object histogram of the labels in
/// [0, num_labels) into `scores` (row-major num_objects x num_labels;
/// callers pre-initialize with zeros or the preceding shards' partial).
/// Weights are indexed by *global* user id. Claims are summed flat within a
/// canonical user block and block partials are chained in ascending order,
/// so the result is bitwise identical for any shard count and any `pool`
/// size. An object whose claims in a block are all skipped chains nothing
/// for that block.
void fold_label_scores(const data::ShardedMatrix& m, std::size_t num_labels,
                       ThreadPool* pool, std::span<const double> weights,
                       std::span<double> scores);

/// Plurality per object from a score table: argmax over labels, ties break
/// toward the smaller label id (deterministic). Objects with no support
/// (all-zero scores) resolve to label 0.
std::vector<Label> truths_from_scores(std::span<const double> scores,
                                      std::size_t num_objects,
                                      std::size_t num_labels);

/// Inverts k-RR expectation in place: with keep probability p and flip
/// probability q = (1-p)/(L-1) per other label, an observed (weighted) count
/// c_l on an object with total support W becomes (c_l - q*W) / (p - q) — the
/// unbiased estimate of the true support. The map is affine with positive
/// slope (requires p > 1/L), so per-object argmax is unchanged; the value is
/// honest support/confidence figures under LDP. p = 1 is the identity.
/// Throws std::invalid_argument for p outside (1/L, 1].
void debias_scores(std::span<double> scores, std::size_t num_objects,
                   std::size_t num_labels, double keep_probability);

/// Per-user count of label claims disagreeing with `truths`; skipped claims
/// never disagree. Purely per-user state (no merge): each user's count comes
/// from their own row. `disagreement` is indexed by global user id and fully
/// overwritten.
void vote_disagreement(const data::ShardedMatrix& m, std::size_t num_labels,
                       ThreadPool* pool, std::span<const Label> truths,
                       std::span<double> disagreement);

/// CRH Eq. (3) on 0/1 loss: weights[s] = -log(max(d_s/total, min_fraction)),
/// or all-ones when total <= 0 (unanimous agreement). Call with the
/// block-chained total (truth::block_chain_sum over the disagreement
/// vector). Each weight reads only its own count, so the bits are the same
/// for any `pool`, and `weights` may alias `disagreement` (a fold backend
/// turns its register of counts into weights in place).
void vote_weights_from_disagreement(ThreadPool* pool,
                                    std::span<const double> disagreement,
                                    double total, double min_fraction,
                                    std::span<double> weights);

// ---------------------------------------------------------------------------
// A label-typed view, kept for the layer ladder's kernel rung.
// ---------------------------------------------------------------------------

/// Readings that truth::is_label_value admits below `num_labels`, with that
/// alphabet: what truth::label_view returns. The two overloads below forward
/// to the reading kernels above.
struct ShardedLabelMatrix {
  data::ShardedMatrix readings;
  std::size_t num_labels = 0;
};

inline void fold_label_scores(const ShardedLabelMatrix& m, ThreadPool* pool,
                              std::span<const double> weights,
                              std::span<double> scores) {
  fold_label_scores(m.readings, m.num_labels, pool, weights, scores);
}

inline void vote_disagreement(const ShardedLabelMatrix& m, ThreadPool* pool,
                              std::span<const Label> truths,
                              std::span<double> disagreement) {
  vote_disagreement(m.readings, m.num_labels, pool, truths, disagreement);
}

}  // namespace dptd::categorical
