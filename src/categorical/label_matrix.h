// Categorical claims: a sparse user x object matrix of label ids.
//
// EXTENSION (beyond the reproduced paper): the paper handles continuous
// data and cites its companion work (Li et al., KDD 2018 [23]) for the
// categorical case. This module provides the categorical analogue so the
// library covers both data types.
//
// Storage mirrors data::ObservationMatrix: crowd labelling matrices are
// sparse (each user covers a fraction of the objects), so the store is one
// entry per *present* cell, dual-indexed:
//
//   - CSR-by-user: per-user rows sorted by object id, always current;
//     `user_entries(s)` is an allocation-free span over a row. The vote
//     folds (categorical/voting.h) walk these rows one canonical user block
//     at a time; per-object counts are kept eagerly.
//   - CSC-by-object: contiguous (user, label) column arrays sorted by user
//     id, built lazily from the rows and cached until the next mutation.
//     `object_entries(n)` is an allocation-free view into the cache. No
//     built-in kernel needs it; it serves callers that want whole columns.
//
// Iteration order is identical to the historical dense layout (user-major,
// object-ascending within a user; user-ascending within an object), so
// kernels that accumulate in traversal order produce bit-identical results.
//
// Thread safety: mutations and the first indexed read are not synchronized.
// A caller of `object_entries` from multiple threads calls
// `ensure_object_index()` once first; after that, all const accessors are
// safe concurrently. Row reads need no such step.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

namespace dptd::categorical {

using Label = std::uint32_t;

class LabelMatrix {
 public:
  /// One present cell as seen from a user's row.
  struct Entry {
    std::size_t object = 0;
    Label label = 0;
    bool operator==(const Entry&) const = default;
  };

  /// Column view of one object: contributing user ids and their claimed
  /// labels as parallel arrays, sorted by user id.
  struct ObjectEntries {
    std::span<const std::size_t> users;
    std::span<const Label> labels;

    std::size_t size() const { return users.size(); }
    bool empty() const { return users.empty(); }
  };

  LabelMatrix() = default;
  /// All cells start missing; labels must be < num_labels.
  LabelMatrix(std::size_t num_users, std::size_t num_objects,
              std::size_t num_labels);

  /// Adopts fully built per-user rows (the streaming builder's finalize
  /// path): each row must be sorted by object id and duplicate-free, with
  /// in-range objects and labels. Validates and derives the per-object
  /// counts in one O(nnz) pass — no dense intermediate.
  static LabelMatrix from_rows(std::vector<std::vector<Entry>> rows,
                               std::size_t num_objects,
                               std::size_t num_labels);

  std::size_t num_users() const { return num_users_; }
  std::size_t num_objects() const { return num_objects_; }
  std::size_t num_labels() const { return num_labels_; }

  bool present(std::size_t user, std::size_t object) const;
  Label label(std::size_t user, std::size_t object) const;
  std::optional<Label> get(std::size_t user, std::size_t object) const;

  void set(std::size_t user, std::size_t object, Label label);
  void clear(std::size_t user, std::size_t object);

  /// Number of present cells. O(1).
  std::size_t observation_count() const { return nnz_; }
  std::size_t user_observation_count(std::size_t user) const;
  /// Claims on `object`. O(1).
  std::size_t object_observation_count(std::size_t object) const;

  /// Present claims of `user`, sorted by object id. Allocation-free; the
  /// span is invalidated by any mutation of this user's row.
  std::span<const Entry> user_entries(std::size_t user) const;

  /// Present claims on `object`, sorted by user id. Allocation-free; builds
  /// the column index on first use (see header comment for thread safety).
  ObjectEntries object_entries(std::size_t object) const;

  /// Builds the CSC-by-object view if it is stale. Const (the cache is
  /// logically part of the matrix); call before concurrent column reads.
  void ensure_object_index() const;

  /// Whether the column index is built and current. The per-object folds
  /// never build it; tests use this to hold them to that.
  bool object_index_built() const { return object_index_built_; }

  /// Applies f(user, object, label) to every present cell, user-major and
  /// object-ascending within a user (the historical dense traversal order).
  template <typename F>
  void for_each(F&& f) const {
    for (std::size_t s = 0; s < num_users_; ++s) {
      for (const Entry& e : rows_[s]) f(s, e.object, e.label);
    }
  }

  /// Logical equality: same shape/alphabet and the same present cells with
  /// the same labels (the lazily built column cache does not participate).
  bool operator==(const LabelMatrix& other) const {
    return num_users_ == other.num_users_ &&
           num_objects_ == other.num_objects_ &&
           num_labels_ == other.num_labels_ && rows_ == other.rows_;
  }

 private:
  void check_bounds(std::size_t user, std::size_t object) const;
  /// Iterator to the entry for `object` in `user`'s row, or row end.
  std::vector<Entry>::const_iterator find_in_row(std::size_t user,
                                                 std::size_t object) const;

  std::size_t num_users_ = 0;
  std::size_t num_objects_ = 0;
  std::size_t num_labels_ = 0;
  std::size_t nnz_ = 0;
  std::vector<std::vector<Entry>> rows_;    ///< CSR view, always current
  std::vector<std::size_t> object_counts_;  ///< per-object nnz, eager

  // CSC-by-object cache, rebuilt on demand after mutations.
  mutable bool object_index_built_ = false;
  mutable std::vector<std::size_t> col_offsets_;  ///< size N+1
  mutable std::vector<std::size_t> col_users_;    ///< size nnz
  mutable std::vector<Label> col_labels_;         ///< size nnz
};

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
