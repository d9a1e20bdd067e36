// Incremental construction of a sparse ObservationMatrix, one user row at a
// time. This is the server's streaming ingestion path: each report is
// decoded and folded in on arrival (deduplicated by user id), so the round
// deadline only has to finalize — no burst of matrix assembly at round
// close, and no dense intermediate at any point. Label rounds build the same
// matrix, with label ids as exact doubles.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "data/dataset.h"

namespace dptd::data {

/// Builds an ObservationMatrix row-by-row. Rows are ingested at most once
/// per user (re-sends are rejected, not merged), claims within a row may
/// arrive in any order and may repeat (last claim per object wins — the same
/// semantics as calling ObservationMatrix::set in claim order, so a streamed
/// matrix is bitwise identical to a batch-assembled one).
///
/// Storage is the matrix's own: add_row writes each row at the tail of a
/// claim arena (ObservationMatrix's 12-byte entries and block policy: blocks
/// that start at 4 KiB, double up to 256 KiB and never move) and records a
/// (pointer, length) span per user, so ingesting a row allocates nothing
/// beyond the arena's next block. A row that fails validation halfway leaves
/// no claims behind. Object ids are stored in 32 bits, so the constructor
/// and reshape() refuse more than ObservationMatrix::kMaxObjects objects.
///
/// The builder is reusable: finalize() hands the arena and the row spans to
/// the matrix without copying a claim, and leaves the builder empty with the
/// same shape, ready for the next round. Its per-user index (17 B a user)
/// exists only while rows are being ingested: reset(), reshape() and
/// finalize() release it and the next add_row re-creates it, so a builder
/// between rounds holds no per-user memory. Moving a builder keeps its rows.
class ObservationMatrixBuilder {
 public:
  using Entry = ObservationMatrix::Entry;

  ObservationMatrixBuilder(std::size_t num_users, std::size_t num_objects);

  std::size_t num_users() const { return num_users_; }
  std::size_t num_objects() const { return num_objects_; }

  /// Ingests `user`'s claims (`objects[i]` ↦ `values[i]`). Returns false and
  /// ignores the row entirely if this user already has an ingested row.
  /// Throws std::invalid_argument for an out-of-range user or object, a
  /// non-finite value, or mismatched array lengths — callers on untrusted
  /// input (the crowd server) sanitize claims before ingesting.
  bool add_row(std::size_t user, std::span<const std::uint64_t> objects,
               std::span<const double> values);

  /// True if `user`'s row has been ingested since the last reset/finalize.
  bool has_row(std::size_t user) const;

  /// Number of distinct users ingested so far (the round-close signal:
  /// duplicates never inflate it).
  std::size_t rows_ingested() const { return rows_ingested_; }

  /// Present cells ingested so far.
  std::size_t observation_count() const { return nnz_; }

  /// Discards all ingested rows, keeping the shape.
  void reset();

  /// Resets AND re-shapes in place: the builder afterwards accepts users in
  /// [0, num_users) and objects in [0, num_objects), with no ingested rows,
  /// so a long-lived worker can serve rounds of varying participant counts.
  void reshape(std::size_t num_users, std::size_t num_objects);

  /// Hands the ingested rows to an ObservationMatrix (O(nnz) checks, no
  /// claim copied) and resets the builder for reuse.
  ObservationMatrix finalize();

 private:
  std::size_t num_users_ = 0;
  std::size_t num_objects_ = 0;
  std::size_t nnz_ = 0;
  std::size_t rows_ingested_ = 0;
  ObservationMatrix::Arena arena_;
  std::vector<std::span<Entry>> rows_;  ///< per-user run in arena_
  std::vector<char> ingested_;  ///< per-user flag (row may be legally empty)
};

}  // namespace dptd::data
