// Core data model: the sparse user × object claim matrix, stored as user rows
// of finite readings (continuous readings, or label ids as exact doubles),
// plus the continuous Dataset with optional ground truth and generator
// provenance.
#pragma once

#include <cmath>
#include <cstddef>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/check.h"

namespace dptd::data {

/// Sparse S×N matrix of finite readings: the one claim store. Continuous
/// rounds hold the paper's readings in it; categorical rounds hold label ids
/// as exact doubles, which the vote folds read in place (truth/categorical.h).
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
class ObservationMatrix {
 public:
  /// One present cell as seen from a user's row.
  struct Entry {
    std::size_t object = 0;
    double value = 0.0;
    bool operator==(const Entry&) const = default;
  };

  ObservationMatrix() = default;
  /// All cells start missing.
  ObservationMatrix(std::size_t num_users, std::size_t num_objects);

  /// Adopts fully built per-user rows (the streaming builder's finalize
  /// path): each row must be sorted by object id and duplicate-free, with
  /// in-range objects and finite values. Validates and derives the
  /// per-object counts in one O(nnz) pass — no dense intermediate.
  static ObservationMatrix from_rows(std::vector<std::vector<Entry>> rows,
                                     std::size_t num_objects);

  std::size_t num_users() const { return num_users_; }
  std::size_t num_objects() const { return num_objects_; }

  bool present(std::size_t user, std::size_t object) const;
  double value(std::size_t user, std::size_t object) const;
  std::optional<double> get(std::size_t user, std::size_t object) const;

  void set(std::size_t user, std::size_t object, double value);
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
  std::vector<double> user_values(std::size_t user) const;

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
  ObservationMatrix transformed(F&& fn) const {
    ObservationMatrix out(num_users_, num_objects_);
    out.rows_ = rows_;
    out.object_counts_ = object_counts_;
    out.nnz_ = nnz_;
    for (std::size_t s = 0; s < num_users_; ++s) {
      for (Entry& e : out.rows_[s]) {
        e.value = fn(s, e.object, e.value);
        DPTD_REQUIRE(std::isfinite(e.value),
                     "ObservationMatrix: non-finite value");
      }
    }
    return out;
  }

  /// Logical equality: same shape, and the same present cells with the same
  /// values.
  bool operator==(const ObservationMatrix& other) const {
    return num_users_ == other.num_users_ &&
           num_objects_ == other.num_objects_ && rows_ == other.rows_;
  }

 private:
  void check_bounds(std::size_t user, std::size_t object) const;
  /// Iterator to the entry for `object` in `user`'s row, or row end.
  std::vector<Entry>::const_iterator find_in_row(std::size_t user,
                                                 std::size_t object) const;

  std::size_t num_users_ = 0;
  std::size_t num_objects_ = 0;
  std::size_t nnz_ = 0;
  std::vector<std::vector<Entry>> rows_;    ///< per-user, sorted by object
  std::vector<std::size_t> object_counts_;  ///< per-object nnz, eager
};

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
