// Categorical voting behind the TruthDiscovery interface: the one front door
// for every vote, batch or round.
//
// The production layers — warm-started campaigns, sharded servers, the
// distributed coordinator — all speak truth::TruthDiscovery over
// ObservationMatrix claims, and categorical claims are such claims: label
// ids ride as exact small doubles in the observation matrices, from the
// generator and k-RR onwards, and the mergeable voting kernels of
// categorical/voting.h read them in place, in canonical block order. A claim
// counts as a label only when is_label_value admits it; any other value is
// skipped, the same rule on every layer, so in-process and distributed runs
// agree bitwise. Both votes are FoldMethods with a declared alphabet: the
// alphabet a round ingests is the alphabet its vote reads. Truths come back
// as label ids in doubles — exact, since every label id is far below 2^53.
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

struct MajorityVoteConfig {
  std::size_t num_labels = 0;   ///< label alphabet, in [2, kMaxBridgedLabels]
  std::size_t num_threads = 1;  ///< 1 = serial, 0 = hardware concurrency
};

/// Plurality vote (quality-blind, single pass): one uniform-weight score
/// fold over the label claims in [0, num_labels); ties break toward the
/// smaller label id.
class MajorityVote final : public FoldMethod {
 public:
  /// Refuses an alphabet outside [2, kMaxBridgedLabels] (check_num_labels).
  explicit MajorityVote(MajorityVoteConfig config);

  Result run_folds(FoldBackend& backend, const WarmStart& warm) const override;
  std::string name() const override { return "majority"; }

 private:
  MajorityVoteConfig config_;
};

struct WeightedVoteConfig {
  std::size_t num_labels = 0;  ///< label alphabet, in [2, kMaxBridgedLabels]
  /// Iteration cap; the loop stops earlier once no estimate changes.
  std::size_t max_iterations = 50;
  double min_disagreement_fraction = 1e-12;  ///< clamp before the log
  std::size_t num_threads = 1;  ///< 1 = serial, 0 = hardware concurrency
};

/// CRH-style iterative weighted voting: weight users by -log of their share
/// of total disagreement with the current estimates, then take the weighted
/// plurality. Warm starts honor both halves of the seed: non-empty truths
/// skip the initial aggregation (the first weight update then overwrites
/// any seed weights before a fold reads them); otherwise the weights (empty
/// = uniform) feed it, and a warm start with all-1.0 weights is bitwise
/// identical to a cold run.
class WeightedVote final : public FoldMethod {
 public:
  /// Refuses an alphabet outside [2, kMaxBridgedLabels] (check_num_labels),
  /// no iterations, or a clamp outside (0, 1).
  explicit WeightedVote(WeightedVoteConfig config);

  Result run_folds(FoldBackend& backend, const WarmStart& warm) const override;
  bool supports_warm_start() const override { return true; }
  std::string name() const override { return "vote"; }

 private:
  WeightedVoteConfig config_;
};

}  // namespace dptd::truth
