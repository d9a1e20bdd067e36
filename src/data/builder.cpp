#include "data/builder.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace dptd::data {

ObservationMatrixBuilder::ObservationMatrixBuilder(std::size_t num_users,
                                                   std::size_t num_objects)
    : num_users_(num_users),
      num_objects_(num_objects),
      rows_(num_users),
      ingested_(num_users, 0) {
  DPTD_REQUIRE(num_users > 0 && num_objects > 0,
               "ObservationMatrixBuilder: dimensions must be positive");
}

bool ObservationMatrixBuilder::add_row(std::size_t user,
                                       std::span<const std::uint64_t> objects,
                                       std::span<const double> values) {
  DPTD_REQUIRE(user < num_users_,
               "ObservationMatrixBuilder: user out of range");
  DPTD_REQUIRE(objects.size() == values.size(),
               "ObservationMatrixBuilder: objects/values size mismatch");
  if (ingested_[user]) return false;

  std::vector<Entry>& row = rows_[user];
  row.reserve(objects.size());
  for (std::size_t i = 0; i < objects.size(); ++i) {
    const auto object = static_cast<std::size_t>(objects[i]);
    DPTD_REQUIRE(object < num_objects_,
                 "ObservationMatrixBuilder: object out of range");
    DPTD_REQUIRE(std::isfinite(values[i]),
                 "ObservationMatrixBuilder: non-finite value");
    // Same insertion scheme as ObservationMatrix::set, so a streamed row is
    // bitwise identical to a batch-assembled one: ascending append fast
    // path, otherwise sorted insert with last-claim-wins overwrite.
    if (row.empty() || row.back().object < object) {
      row.push_back({object, values[i]});
      ++nnz_;
      continue;
    }
    const auto it = std::lower_bound(
        row.begin(), row.end(), object,
        [](const Entry& e, std::size_t n) { return e.object < n; });
    if (it != row.end() && it->object == object) {
      it->value = values[i];
    } else {
      row.insert(it, {object, values[i]});
      ++nnz_;
    }
  }
  ingested_[user] = 1;
  ++rows_ingested_;
  return true;
}

bool ObservationMatrixBuilder::has_row(std::size_t user) const {
  DPTD_REQUIRE(user < num_users_,
               "ObservationMatrixBuilder: user out of range");
  return ingested_[user] != 0;
}

void ObservationMatrixBuilder::reshape(std::size_t num_users,
                                       std::size_t num_objects) {
  DPTD_REQUIRE(num_users > 0 && num_objects > 0,
               "ObservationMatrixBuilder: dimensions must be positive");
  num_users_ = num_users;
  num_objects_ = num_objects;
  rows_.resize(num_users_);
  for (std::vector<Entry>& row : rows_) row.clear();
  ingested_.assign(num_users_, 0);
  nnz_ = 0;
  rows_ingested_ = 0;
}

void ObservationMatrixBuilder::reset() {
  rows_.assign(num_users_, {});
  ingested_.assign(num_users_, 0);
  nnz_ = 0;
  rows_ingested_ = 0;
}

ObservationMatrix ObservationMatrixBuilder::finalize() {
  ObservationMatrix out =
      ObservationMatrix::from_rows(std::move(rows_), num_objects_);
  reset();
  return out;
}

}  // namespace dptd::data
