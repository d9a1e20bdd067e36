#include "data/builder.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace dptd::data {

ObservationMatrixBuilder::ObservationMatrixBuilder(std::size_t num_users,
                                                   std::size_t num_objects) {
  reshape(num_users, num_objects);
}

bool ObservationMatrixBuilder::add_row(std::size_t user,
                                       std::span<const std::uint64_t> objects,
                                       std::span<const double> values) {
  DPTD_REQUIRE(user < num_users_,
               "ObservationMatrixBuilder: user out of range");
  DPTD_REQUIRE(objects.size() == values.size(),
               "ObservationMatrixBuilder: objects/values size mismatch");
  if (ingested_.empty()) {
    // The first row since a reset: the index comes back at the kept shape.
    rows_.assign(num_users_, {});
    ingested_.assign(num_users_, 0);
  } else if (ingested_[user]) {
    return false;
  }

  // The row is built in the arena's free tail and claimed only once every
  // claim has passed its checks.
  Entry* const row = arena_.reserve(objects.size());
  std::size_t size = 0;
  for (std::size_t i = 0; i < objects.size(); ++i) {
    const auto object = static_cast<std::size_t>(objects[i]);
    DPTD_REQUIRE(object < num_objects_,
                 "ObservationMatrixBuilder: object out of range");
    DPTD_REQUIRE(std::isfinite(values[i]),
                 "ObservationMatrixBuilder: non-finite value");
    // Same insertion scheme as ObservationMatrix::set, so a streamed row is
    // bitwise identical to a batch-assembled one: ascending append fast
    // path, otherwise sorted insert with last-claim-wins overwrite.
    if (size == 0 || row[size - 1].object < object) {
      row[size++] = {static_cast<std::uint32_t>(object), values[i]};
      continue;
    }
    Entry* const it = std::lower_bound(
        row, row + size, object,
        [](const Entry& e, std::size_t n) { return e.object < n; });
    if (it->object == object) {
      it->value = values[i];
    } else {
      std::copy_backward(it, row + size, row + size + 1);
      *it = {static_cast<std::uint32_t>(object), values[i]};
      ++size;
    }
  }
  arena_.commit(size);
  rows_[user] = {row, size};
  nnz_ += size;
  ingested_[user] = 1;
  ++rows_ingested_;
  return true;
}

bool ObservationMatrixBuilder::has_row(std::size_t user) const {
  DPTD_REQUIRE(user < num_users_,
               "ObservationMatrixBuilder: user out of range");
  return !ingested_.empty() && ingested_[user] != 0;
}

void ObservationMatrixBuilder::reshape(std::size_t num_users,
                                       std::size_t num_objects) {
  DPTD_REQUIRE(num_users > 0 && num_objects > 0,
               "ObservationMatrixBuilder: dimensions must be positive");
  DPTD_REQUIRE(num_objects <= ObservationMatrix::kMaxObjects,
               "ObservationMatrixBuilder: more than 2^32 objects");
  num_users_ = num_users;
  num_objects_ = num_objects;
  reset();
}

void ObservationMatrixBuilder::reset() {
  arena_ = {};
  // Nothing reads the per-user index before the next row arrives, so it is
  // released, not re-filled: swapping with empty vectors frees the capacity
  // that assign() or clear() would keep.
  std::vector<std::span<Entry>>().swap(rows_);
  std::vector<char>().swap(ingested_);
  nnz_ = 0;
  rows_ingested_ = 0;
}

ObservationMatrix ObservationMatrixBuilder::finalize() {
  // No row since the last reset: every user's row is empty.
  if (rows_.empty()) rows_.resize(num_users_);
  ObservationMatrix out = ObservationMatrix::adopt(
      std::move(arena_), std::move(rows_), num_objects_);
  reset();
  return out;
}

}  // namespace dptd::data
