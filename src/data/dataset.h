// Core data model: the sparse user × object claim matrix, stored as user rows
// of finite readings (continuous readings, or label ids as exact doubles) in
// one block arena per matrix, plus the continuous Dataset with optional
// ground truth and generator provenance.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <optional>
#include <span>
#include <string>
#include <utility>
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
/// Storage: every row is one contiguous run of 12-byte entries (a 32-bit
/// object id and the reading, packed to 4-byte alignment) in the matrix's
/// claim arena, indexed by a (pointer, length) span per user — no heap
/// allocation per row. The 32-bit ids bound every shape at kMaxObjects =
/// 2^32 objects. The arena is a list of blocks that are never reallocated,
/// so a written row never moves: the first block holds 4 KiB of entries,
/// each later block twice its predecessor up to 256 KiB, and a row longer
/// than the next block gets a block of its own length. `set` grows a row in
/// place when it is the arena's tail (every user-major fill); otherwise it
/// rewrites the row at the tail, where it reserves room for as many claims
/// again, and abandons the old run. So growing one row to n claims copies
/// O(n) entries and holds O(n) memory, past the block cap too.
///
/// Copying a matrix copies its claims into a fresh arena (a copy of the row
/// spans would alias the source). Moving it moves the blocks, so every span
/// `user_entries` returned stays valid and reads the same claims.
///
/// Iteration order is identical to the historical dense layout (user-major,
/// object-ascending within a user), so kernels that accumulate in traversal
/// order produce bit-identical results.
///
/// Thread safety: mutations are not synchronized; every const accessor is
/// safe to call concurrently.
class ObservationMatrix {
 public:
  /// One present cell as seen from a user's row: a 32-bit object id, then
  /// the reading, packed into 12 bytes. `value` sits at offset 4, so it is
  /// read and written by value only; binding a `double&` to it is a compile
  /// error, and a `double*` to it would be misaligned.
  struct [[gnu::packed, gnu::aligned(4)]] Entry {
    std::uint32_t object = 0;
    double value = 0.0;
    bool operator==(const Entry&) const = default;
  };
  static_assert(sizeof(Entry) == 12 && alignof(Entry) == 4);

  /// Object ids are 32-bit: a matrix or builder shaped for more objects is
  /// refused with std::invalid_argument before anything is sized by the
  /// object count.
  static constexpr std::size_t kMaxObjects = std::size_t{1} << 32;

  ObservationMatrix() = default;
  /// All cells start missing.
  ObservationMatrix(std::size_t num_users, std::size_t num_objects);

  ObservationMatrix(const ObservationMatrix& other);
  ObservationMatrix& operator=(const ObservationMatrix& other);
  ObservationMatrix(ObservationMatrix&&) noexcept = default;
  ObservationMatrix& operator=(ObservationMatrix&&) noexcept = default;

  /// Builds a matrix from per-user rows: each row must be sorted by object
  /// id and duplicate-free, with in-range objects and finite values.
  /// Validates and derives the per-object counts in one O(nnz) pass — no
  /// dense intermediate.
  static ObservationMatrix from_rows(
      const std::vector<std::vector<Entry>>& rows, std::size_t num_objects);

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
  /// is invalidated by any mutation of this user's row and by the matrix's
  /// destruction, but not by a move.
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
    ObservationMatrix out(*this);
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
  bool operator==(const ObservationMatrix& other) const;

 private:
  friend class ObservationMatrixBuilder;

  /// Append-only entry storage behind a matrix or a builder (the block
  /// policy above). Writing a row is reserve(n), fill up to n entries, then
  /// commit the count filled: a row that throws halfway claims nothing.
  /// A moved-from arena is empty, not left pointing into blocks it gave up.
  class Arena {
   public:
    Arena() = default;
    Arena(Arena&& other) noexcept { *this = std::move(other); }
    Arena& operator=(Arena&& other) noexcept;

    /// `n` contiguous free entries at the tail, starting a new block when
    /// the current one has less room. Nothing is claimed until commit().
    Entry* reserve(std::size_t n);
    /// Claims the first `n` entries of the last reserve().
    void commit(std::size_t n) { used_ += n; }
    /// True when `row` ends at the tail and one more entry fits after it.
    bool can_grow(std::span<const Entry> row) const {
      return used_ < capacity_ && row.size() <= used_ &&
             block_ + (used_ - row.size()) == row.data();
    }
    /// Copies `row` to the tail; returns where it now lives.
    std::span<Entry> append(std::span<const Entry> row);

   private:
    struct Release {
      void operator()(Entry* block) const { ::operator delete(block); }
    };

    std::vector<std::unique_ptr<Entry[], Release>> blocks_;
    Entry* block_ = nullptr;    ///< the last block
    std::size_t used_ = 0;      ///< entries claimed in the last block
    std::size_t capacity_ = 0;  ///< entries the last block holds
  };

  /// Adopts an arena and the row spans into it (the builder's finalize and
  /// from_rows), with from_rows' checks and per-object counts.
  static ObservationMatrix adopt(Arena arena,
                                 std::vector<std::span<Entry>> rows,
                                 std::size_t num_objects);

  void check_bounds(std::size_t user, std::size_t object) const;
  /// The entry for `object` in `user`'s row, or nullptr.
  const Entry* find_in_row(std::size_t user, std::size_t object) const;

  std::size_t num_users_ = 0;
  std::size_t num_objects_ = 0;
  std::size_t nnz_ = 0;
  Arena arena_;
  std::vector<std::span<Entry>> rows_;      ///< per-user, sorted by object
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
