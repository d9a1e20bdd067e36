// Categorical voting behind the TruthDiscovery interface: the one front door
// for every vote, batch or round.
//
// The production layers — registry, warm-started campaigns, sharded servers,
// the distributed coordinator — all speak truth::TruthDiscovery over
// ObservationMatrix claims, and categorical claims are such claims: label
// ids ride as exact small doubles in the observation matrices, from the
// generator and k-RR onwards, and the mergeable voting kernels of
// categorical/voting.h read them in place, in canonical block order. A claim
// counts as a label only when is_label_value admits it; any other value is
// skipped, the same rule on every layer, so in-process and distributed runs
// agree bitwise. Truths come back as label ids in doubles — exact, since
// every label id is far below 2^53.
#pragma once

#include <cmath>
#include <cstddef>
#include <span>
#include <vector>

#include "categorical/label_matrix.h"
#include "categorical/voting.h"
#include "truth/interface.h"

namespace dptd::truth {

/// Largest label alphabet the bridge accepts; label ids stay exact in a
/// double and per-object histograms stay small.
inline constexpr std::size_t kMaxBridgedLabels = 1u << 20;

/// Throws std::invalid_argument unless 2 <= num_labels <= kMaxBridgedLabels.
void check_num_labels(std::size_t num_labels);

/// True iff `value` encodes a valid label id below `num_labels`: finite,
/// integral, and in [0, num_labels) (-0.0 reads as label 0). Inline: the
/// vote folds call it once per claim.
inline bool is_label_value(double value, std::size_t num_labels) {
  return std::isfinite(value) && value >= 0.0 &&
         value < static_cast<double>(num_labels) &&
         value == std::floor(value);
}

/// Smallest consistent alphabet for a matrix of label-encoded doubles:
/// max valid label id + 1, clamped to >= 2. Values that encode no label at
/// all (non-integral, negative, or >= kMaxBridgedLabels) are ignored — the
/// vote folds skip them. Scans every shard, so the result is independent of
/// the shard count.
std::size_t infer_num_labels(const data::ShardedMatrix& m);

/// Copies `m` with the same plan, shard by shard, keeping only the claims
/// is_label_value admits below `num_labels` — sanitize, never abort, exactly
/// like report ingestion — and pairs the copy with that alphabet. O(nnz)
/// time and a second entry per claim. Rounds never make this copy: the vote
/// folds read `m` in place and skip the same claims, so their bits over `m`
/// equal their bits over the copy. It stays as the reference the in-place
/// reading is tested against.
categorical::ShardedLabelMatrix label_view(const data::ShardedMatrix& m,
                                           std::size_t num_labels);

/// Converts a warm-start truth vector (doubles) back to label ids: rounded
/// to nearest and clamped into [0, num_labels). Seeds from a previous
/// categorical round are exact label doubles, so this is the identity on the
/// happy path; the clamp keeps hostile/stale seeds from derailing a round.
std::vector<categorical::Label> labels_from_doubles(
    std::span<const double> truths, std::size_t num_labels);

/// Plurality vote over `backend`'s label claims in [0, num_labels): one
/// uniform-weight score fold; ties break toward the smaller label id. The
/// loop behind truth::MajorityVote.
categorical::VotingResult run_majority_vote(FoldBackend& backend,
                                            std::size_t num_labels);

/// CRH-style iterative weighted voting over `backend`'s label claims: the
/// loop behind truth::WeightedVote. Non-empty `warm_truths` skip the initial
/// aggregation (the first weight update then overwrites any seed weights
/// before a fold reads them); otherwise `warm_weights` (empty = uniform)
/// feed it — a warm start with all-1.0 weights is bitwise identical to a
/// cold run.
categorical::VotingResult run_weighted_vote(
    FoldBackend& backend, const categorical::WeightedVotingConfig& config,
    std::size_t num_labels, std::span<const double> warm_weights,
    std::span<const categorical::Label> warm_truths);

struct MajorityVoteConfig {
  /// Label alphabet size; 0 infers it from the data (see infer_num_labels).
  std::size_t num_labels = 0;
  std::size_t num_threads = 1;  ///< 1 = serial, 0 = hardware concurrency
};

/// Plurality vote (quality-blind, single pass) behind TruthDiscovery.
class MajorityVote : public TruthDiscovery {
 public:
  explicit MajorityVote(MajorityVoteConfig config = {});

  Result run(const data::ObservationMatrix& observations) const override;
  Result run_sharded(const data::ShardedMatrix& shards,
                     const WarmStart& warm = {}) const override;
  /// Needs an explicit config alphabet (a backend cannot infer one).
  Result run_folds(FoldBackend& backend, const WarmStart& warm) const override;
  std::string name() const override { return "majority"; }

 private:
  MajorityVoteConfig config_;
};

struct WeightedVoteConfig {
  /// Label alphabet size; 0 infers it from the data (see infer_num_labels).
  std::size_t num_labels = 0;
  categorical::WeightedVotingConfig voting;
  std::size_t num_threads = 1;  ///< 1 = serial, 0 = hardware concurrency
};

/// CRH-style iterative weighted voting behind TruthDiscovery. Warm starts
/// honor both halves of the seed: prior weights feed the first aggregation,
/// prior truths skip it entirely.
class WeightedVote : public TruthDiscovery {
 public:
  explicit WeightedVote(WeightedVoteConfig config = {});

  Result run(const data::ObservationMatrix& observations) const override;
  Result run_warm(const data::ObservationMatrix& observations,
                  const WarmStart& warm) const override;
  bool supports_warm_start() const override { return true; }
  Result run_sharded(const data::ShardedMatrix& shards,
                     const WarmStart& warm = {}) const override;
  /// Needs an explicit config alphabet (a backend cannot infer one).
  Result run_folds(FoldBackend& backend, const WarmStart& warm) const override;
  std::string name() const override { return "vote"; }

  const WeightedVoteConfig& config() const { return config_; }

 private:
  Result run_labels(FoldBackend& backend, std::size_t num_labels,
                    const WarmStart& warm) const;

  WeightedVoteConfig config_;
};

}  // namespace dptd::truth
