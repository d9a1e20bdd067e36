// Core data model: a user × object matrix of continuous claims with a
// missingness mask, plus optional ground truth and generator provenance.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace dptd::data {

/// Sparse S×N matrix of continuous observations, dual-indexed.
///
/// Rows are users (sources), columns are objects (micro-tasks). Crowd sensing
/// matrices are sparse — each user covers a fraction of the objects — so the
/// store is one entry per *present* cell, reachable through two views:
///
///   - CSR-by-user: per-user rows sorted by object id. Always up to date;
///     `user_entries(s)` is an allocation-free span over a row. The
///     per-object folds of truth/sharded_stats.h walk these rows one
///     canonical user block at a time; per-object counts are kept eagerly.
///   - CSC-by-object: contiguous (user, value) column arrays sorted by user
///     id (16 B per claim), built lazily from the rows and cached until the
///     next mutation. `object_entries(n)` is an allocation-free view into the
///     cache. Only callers that need whole columns build it: the median,
///     GTM and CATD initializations and a shard node's kGather.
///
/// Iteration order is identical to the historical dense layout (user-major,
/// object-ascending within a user; user-ascending within an object), so
/// kernels that accumulate in traversal order produce bit-identical results.
///
/// Thread safety: mutations and the first indexed read are not synchronized.
/// A caller of `object_entries` / `object_values` / `object_users` from
/// multiple threads calls `ensure_object_index()` once first; after that,
/// all const accessors are safe to call concurrently. Row reads need no
/// such step.
class ObservationMatrix {
 public:
  /// One present cell as seen from a user's row.
  struct Entry {
    std::size_t object = 0;
    double value = 0.0;
    bool operator==(const Entry&) const = default;
  };

  /// Column view of one object: contributing user ids and their claimed
  /// values as parallel arrays, sorted by user id.
  struct ObjectEntries {
    std::span<const std::size_t> users;
    std::span<const double> values;

    std::size_t size() const { return users.size(); }
    bool empty() const { return users.empty(); }
  };

  ObservationMatrix() = default;
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
  std::size_t object_observation_count(std::size_t object) const;

  /// Present claims of `user`, sorted by object id. Allocation-free; the span
  /// is invalidated by any mutation of this user's row.
  std::span<const Entry> user_entries(std::size_t user) const;

  /// Present claims on `object`, sorted by user id. Allocation-free; builds
  /// the column index on first use (see class comment for thread safety).
  ObjectEntries object_entries(std::size_t object) const;

  /// Builds the CSC-by-object view if it is stale. Const (the cache is
  /// logically part of the matrix); call before concurrent column reads.
  void ensure_object_index() const;

  /// Whether the column index is built and current. The per-object folds
  /// never build it; tests use this to hold them to that.
  bool object_index_built() const { return object_index_built_; }

  /// Present values claimed for `object` (ordered by user id), paired with
  /// the contributing user ids.
  std::vector<double> object_values(std::size_t object) const;
  std::vector<std::size_t> object_users(std::size_t object) const;

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
        check_finite(e.value);
      }
    }
    return out;
  }

  /// Logical equality: same shape and the same present cells with the same
  /// values (the lazily built column cache does not participate).
  bool operator==(const ObservationMatrix& other) const {
    return num_users_ == other.num_users_ &&
           num_objects_ == other.num_objects_ && rows_ == other.rows_;
  }

 private:
  static void check_finite(double value);
  void check_bounds(std::size_t user, std::size_t object) const;
  /// Iterator to the entry for `object` in `user`'s row, or row end.
  std::vector<Entry>::const_iterator find_in_row(std::size_t user,
                                                 std::size_t object) const;

  std::size_t num_users_ = 0;
  std::size_t num_objects_ = 0;
  std::size_t nnz_ = 0;
  std::vector<std::vector<Entry>> rows_;       ///< CSR view, always current
  std::vector<std::size_t> object_counts_;     ///< per-object nnz, eager

  // CSC-by-object cache, rebuilt on demand after mutations.
  mutable bool object_index_built_ = false;
  mutable std::vector<std::size_t> col_offsets_;  ///< size N+1
  mutable std::vector<std::size_t> col_users_;    ///< size nnz
  mutable std::vector<double> col_values_;        ///< size nnz
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
