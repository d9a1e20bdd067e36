// Core data model: the sparse user × object claim matrix, stored as user rows
// and written once over the claim's value domain (continuous readings or
// categorical labels), plus the continuous Dataset with optional ground truth
// and generator provenance.
#pragma once

#include <cmath>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/check.h"

namespace dptd::data {

/// Value domain of continuous readings: any finite double.
struct ReadingDomain {
  using Value = double;
  bool valid() const { return true; }
  bool admits(double value) const { return std::isfinite(value); }
  bool operator==(const ReadingDomain&) const = default;
};

/// Value domain of categorical claims: label ids in [0, num_labels), with
/// num_labels >= 2. Converts implicitly from the alphabet size, so the label
/// matrix, builder and sharded view take it as their trailing argument.
struct LabelDomain {
  using Value = std::uint32_t;
  LabelDomain(std::size_t num_labels = 0) : num_labels(num_labels) {}
  bool valid() const { return num_labels >= 2; }
  bool admits(Value label) const { return label < num_labels; }
  bool operator==(const LabelDomain&) const = default;
  std::size_t num_labels = 0;
};

/// Sparse S×N matrix of claims from `Domain`. One instantiation per domain:
/// ObservationMatrix (readings, below) and categorical::LabelMatrix (labels).
///
/// Rows are users (sources), columns are objects (micro-tasks). Crowd sensing
/// matrices are sparse — each user covers a fraction of the objects, and each
/// upload is one user's row — so the store is one entry per *present* cell,
/// held once: per-user rows sorted by object id. `user_entries(s)` is an
/// allocation-free span over a row, and per-object counts are kept eagerly.
/// The per-object folds of truth/sharded_stats.h and categorical/voting.h
/// walk these rows one canonical user block at a time; the callers that need
/// whole columns (the median, GTM and CATD initializations and a shard
/// node's kGather) build them from the rows with truth::gather_object_values.
///
/// Iteration order is identical to the historical dense layout (user-major,
/// object-ascending within a user), so kernels that accumulate in traversal
/// order produce bit-identical results.
///
/// Thread safety: mutations are not synchronized; every const accessor is
/// safe to call concurrently.
template <typename Domain>
class ClaimMatrix {
 public:
  using Value = typename Domain::Value;

  /// One present cell as seen from a user's row.
  struct Entry {
    std::size_t object = 0;
    Value value{};
    bool operator==(const Entry&) const = default;
  };

  ClaimMatrix() = default;
  /// All cells start missing; values must be admitted by `domain`.
  ClaimMatrix(std::size_t num_users, std::size_t num_objects,
              Domain domain = {});

  /// Adopts fully built per-user rows (the streaming builder's finalize
  /// path): each row must be sorted by object id and duplicate-free, with
  /// in-range objects and values in the domain. Validates and derives the
  /// per-object counts in one O(nnz) pass — no dense intermediate.
  static ClaimMatrix from_rows(std::vector<std::vector<Entry>> rows,
                               std::size_t num_objects, Domain domain = {});

  std::size_t num_users() const { return num_users_; }
  std::size_t num_objects() const { return num_objects_; }
  const Domain& domain() const { return domain_; }
  std::size_t num_labels() const
    requires std::same_as<Domain, LabelDomain>
  {
    return domain_.num_labels;
  }

  bool present(std::size_t user, std::size_t object) const;
  Value value(std::size_t user, std::size_t object) const;
  std::optional<Value> get(std::size_t user, std::size_t object) const;

  void set(std::size_t user, std::size_t object, Value value);
  void clear(std::size_t user, std::size_t object);

  /// Number of present cells. O(1).
  std::size_t observation_count() const { return nnz_; }
  std::size_t user_observation_count(std::size_t user) const;
  /// Claims on `object`. O(1).
  std::size_t object_observation_count(std::size_t object) const;

  /// Present claims of `user`, sorted by object id. Allocation-free; the span
  /// is invalidated by any mutation of this user's row.
  std::span<const Entry> user_entries(std::size_t user) const;

  /// Present values claimed by `user` (ordered by object id).
  std::vector<Value> user_values(std::size_t user) const;

  /// Applies f(user, object, value) to every present cell, user-major and
  /// object-ascending within a user (the historical dense traversal order).
  template <typename F>
  void for_each(F&& f) const {
    for (std::size_t s = 0; s < num_users_; ++s) {
      for (const Entry& e : rows_[s]) f(s, e.object, e.value);
    }
  }

  /// Returns a copy with `fn(user, object, value)` applied to every present
  /// cell (used by perturbation mechanisms). O(nnz): the sparsity structure
  /// is copied wholesale, only values are mapped.
  template <typename F>
  ClaimMatrix transformed(F&& fn) const {
    ClaimMatrix out(num_users_, num_objects_, domain_);
    out.rows_ = rows_;
    out.object_counts_ = object_counts_;
    out.nnz_ = nnz_;
    for (std::size_t s = 0; s < num_users_; ++s) {
      for (Entry& e : out.rows_[s]) {
        e.value = fn(s, e.object, e.value);
        DPTD_REQUIRE(domain_.admits(e.value),
                     "ClaimMatrix: value outside the domain");
      }
    }
    return out;
  }

  /// Logical equality: same shape and domain, and the same present cells
  /// with the same values.
  bool operator==(const ClaimMatrix& other) const {
    return num_users_ == other.num_users_ &&
           num_objects_ == other.num_objects_ && domain_ == other.domain_ &&
           rows_ == other.rows_;
  }

 private:
  void check_bounds(std::size_t user, std::size_t object) const;
  /// Iterator to the entry for `object` in `user`'s row, or row end.
  typename std::vector<Entry>::const_iterator find_in_row(
      std::size_t user, std::size_t object) const;

  std::size_t num_users_ = 0;
  std::size_t num_objects_ = 0;
  [[no_unique_address]] Domain domain_;
  std::size_t nnz_ = 0;
  std::vector<std::vector<Entry>> rows_;    ///< per-user, sorted by object
  std::vector<std::size_t> object_counts_;  ///< per-object nnz, eager
};

extern template class ClaimMatrix<ReadingDomain>;
extern template class ClaimMatrix<LabelDomain>;

/// The continuous claim matrix of the paper's mechanism.
using ObservationMatrix = ClaimMatrix<ReadingDomain>;

/// Per-user provenance recorded by the synthetic generator; absent for real
/// or loaded data. Useful for computing *true* weights (Fig. 7).
struct UserProvenance {
  double error_variance = 0.0;       ///< sigma_s^2 drawn from Exp(lambda1)
  bool adversarial = false;          ///< true if replaced by an adversary
  std::string adversary_kind;        ///< "", "bias", "spam", "constant"
};

/// A dataset: observations plus (optionally) ground truth and provenance.
struct Dataset {
  ObservationMatrix observations;
  std::vector<double> ground_truth;       ///< empty if unknown
  std::vector<UserProvenance> provenance; ///< empty if unknown

  std::size_t num_users() const { return observations.num_users(); }
  std::size_t num_objects() const { return observations.num_objects(); }
  bool has_ground_truth() const { return !ground_truth.empty(); }

  /// Throws std::invalid_argument if shapes are inconsistent, any value is
  /// non-finite, or any object has zero observations.
  void validate() const;
};

/// Human-readable shape/coverage summary (for logs and examples).
std::string describe(const Dataset& dataset);

}  // namespace dptd::data
