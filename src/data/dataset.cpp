#include "data/dataset.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/check.h"

namespace dptd::data {

ObservationMatrix::ObservationMatrix(std::size_t num_users,
                                     std::size_t num_objects)
    : num_users_(num_users),
      num_objects_(num_objects),
      rows_(num_users),
      object_counts_(num_objects, 0) {
  DPTD_REQUIRE(num_users > 0 && num_objects > 0,
               "ObservationMatrix: dimensions must be positive");
}

ObservationMatrix ObservationMatrix::from_rows(
    std::vector<std::vector<Entry>> rows, std::size_t num_objects) {
  ObservationMatrix out(rows.size(), num_objects);
  out.rows_ = std::move(rows);
  for (const std::vector<Entry>& row : out.rows_) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      DPTD_REQUIRE(row[i].object < num_objects,
                   "ObservationMatrix::from_rows: object out of range");
      DPTD_REQUIRE(std::isfinite(row[i].value),
                   "ObservationMatrix::from_rows: non-finite value");
      DPTD_REQUIRE(i == 0 || row[i - 1].object < row[i].object,
                   "ObservationMatrix::from_rows: row not sorted and unique");
      ++out.object_counts_[row[i].object];
      ++out.nnz_;
    }
  }
  return out;
}

void ObservationMatrix::check_bounds(std::size_t user,
                                     std::size_t object) const {
  DPTD_REQUIRE(user < num_users_, "ObservationMatrix: user out of range");
  DPTD_REQUIRE(object < num_objects_, "ObservationMatrix: object out of range");
}

std::vector<ObservationMatrix::Entry>::const_iterator
ObservationMatrix::find_in_row(std::size_t user, std::size_t object) const {
  const std::vector<Entry>& row = rows_[user];
  const auto it = std::lower_bound(
      row.begin(), row.end(), object,
      [](const Entry& e, std::size_t n) { return e.object < n; });
  if (it != row.end() && it->object == object) return it;
  return row.end();
}

bool ObservationMatrix::present(std::size_t user, std::size_t object) const {
  check_bounds(user, object);
  return find_in_row(user, object) != rows_[user].end();
}

double ObservationMatrix::value(std::size_t user, std::size_t object) const {
  check_bounds(user, object);
  const auto it = find_in_row(user, object);
  DPTD_REQUIRE(it != rows_[user].end(),
               "ObservationMatrix: reading a missing cell");
  return it->value;
}

std::optional<double> ObservationMatrix::get(std::size_t user,
                                             std::size_t object) const {
  check_bounds(user, object);
  const auto it = find_in_row(user, object);
  if (it == rows_[user].end()) return std::nullopt;
  return it->value;
}

void ObservationMatrix::set(std::size_t user, std::size_t object,
                            double value) {
  check_bounds(user, object);
  DPTD_REQUIRE(std::isfinite(value), "ObservationMatrix: non-finite value");
  std::vector<Entry>& row = rows_[user];
  // Fast path: generators and mechanisms append in ascending object order.
  if (row.empty() || row.back().object < object) {
    row.push_back({object, value});
    ++object_counts_[object];
    ++nnz_;
    return;
  }
  const auto it = std::lower_bound(
      row.begin(), row.end(), object,
      [](const Entry& e, std::size_t n) { return e.object < n; });
  if (it != row.end() && it->object == object) {
    it->value = value;  // overwrite, structure unchanged
  } else {
    row.insert(it, {object, value});
    ++object_counts_[object];
    ++nnz_;
  }
}

void ObservationMatrix::clear(std::size_t user, std::size_t object) {
  check_bounds(user, object);
  std::vector<Entry>& row = rows_[user];
  const auto it = std::lower_bound(
      row.begin(), row.end(), object,
      [](const Entry& e, std::size_t n) { return e.object < n; });
  if (it == row.end() || it->object != object) return;  // already absent
  row.erase(it);
  --object_counts_[object];
  --nnz_;
}

std::size_t ObservationMatrix::user_observation_count(std::size_t user) const {
  DPTD_REQUIRE(user < num_users_, "user out of range");
  return rows_[user].size();
}

std::size_t ObservationMatrix::object_observation_count(
    std::size_t object) const {
  DPTD_REQUIRE(object < num_objects_, "object out of range");
  return object_counts_[object];
}

std::span<const ObservationMatrix::Entry> ObservationMatrix::user_entries(
    std::size_t user) const {
  DPTD_REQUIRE(user < num_users_, "user out of range");
  return rows_[user];
}

std::vector<double> ObservationMatrix::user_values(std::size_t user) const {
  DPTD_REQUIRE(user < num_users_, "user out of range");
  std::vector<double> out;
  out.reserve(rows_[user].size());
  for (const Entry& e : rows_[user]) out.push_back(e.value);
  return out;
}

void Dataset::validate() const {
  DPTD_REQUIRE(observations.num_users() > 0 && observations.num_objects() > 0,
               "Dataset: empty observation matrix");
  if (!ground_truth.empty()) {
    DPTD_REQUIRE(ground_truth.size() == observations.num_objects(),
                 "Dataset: ground truth size != num objects");
    for (double t : ground_truth) {
      DPTD_REQUIRE(std::isfinite(t), "Dataset: non-finite ground truth");
    }
  }
  if (!provenance.empty()) {
    DPTD_REQUIRE(provenance.size() == observations.num_users(),
                 "Dataset: provenance size != num users");
  }
  for (std::size_t n = 0; n < observations.num_objects(); ++n) {
    DPTD_REQUIRE(observations.object_observation_count(n) > 0,
                 "Dataset: object with zero observations");
  }
}

std::string describe(const Dataset& dataset) {
  std::ostringstream os;
  const auto& obs = dataset.observations;
  const std::size_t cells = obs.num_users() * obs.num_objects();
  os << "Dataset: " << obs.num_users() << " users x " << obs.num_objects()
     << " objects, " << obs.observation_count() << "/" << cells
     << " observations ("
     << (100.0 * static_cast<double>(obs.observation_count()) /
         static_cast<double>(cells))
     << "% coverage), ground truth: "
     << (dataset.has_ground_truth() ? "yes" : "no");
  return os.str();
}

}  // namespace dptd::data
