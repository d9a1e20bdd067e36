// Shared synthetic ObservationMatrix fixtures for the test suites, and a
// column read by row scan. Keep the fixtures tiny and deterministic: every
// builder returns the same matrix on every call so tests can hard-code the
// expected aggregates.
#pragma once

#include <cstddef>
#include <vector>

#include "data/dataset.h"

namespace dptd::testing {

/// One object's claims: the claiming users in ascending order, and their
/// values (readings, or label ids as exact doubles).
struct Column {
  std::vector<std::size_t> users;
  std::vector<double> values;

  std::size_t size() const { return users.size(); }
  bool empty() const { return users.empty(); }
};

/// The column of `object`, read by scanning every user's row: an oracle
/// that shares no code with truth::gather_object_values.
inline Column column_of(const data::ObservationMatrix& matrix,
                        std::size_t object) {
  Column column;
  for (std::size_t s = 0; s < matrix.num_users(); ++s) {
    if (const auto value = matrix.get(s, object)) {
      column.users.push_back(s);
      column.values.push_back(*value);
    }
  }
  return column;
}

/// 3 reliable users (offsets -0.1 / 0 / +0.1) + 1 wildly wrong user (+25)
/// over 4 objects with truths {10, 20, 30, 40}. The canonical scenario for
/// "weighted methods must downweight the outlier".
inline data::ObservationMatrix outlier_matrix() {
  data::ObservationMatrix obs(4, 4);
  const double truths[] = {10.0, 20.0, 30.0, 40.0};
  const double offsets[] = {-0.1, 0.0, 0.1};
  for (std::size_t s = 0; s < 3; ++s) {
    for (std::size_t n = 0; n < 4; ++n) obs.set(s, n, truths[n] + offsets[s]);
  }
  for (std::size_t n = 0; n < 4; ++n) obs.set(3, n, truths[n] + 25.0);
  return obs;
}

/// Ground truth matching outlier_matrix().
inline std::vector<double> outlier_truths() { return {10.0, 20.0, 30.0, 40.0}; }

/// 3 users x 2 objects, fully observed, with known per-object mean
/// (3.0, 40.0) and median (2.0, 20.0).
inline data::ObservationMatrix simple_matrix() {
  data::ObservationMatrix obs(3, 2);
  obs.set(0, 0, 1.0);
  obs.set(1, 0, 2.0);
  obs.set(2, 0, 6.0);
  obs.set(0, 1, 10.0);
  obs.set(1, 1, 20.0);
  obs.set(2, 1, 90.0);
  return obs;
}

/// 2 users x 2 objects, fully observed; per-object means are (2.0, 4.0).
inline data::ObservationMatrix two_user_matrix() {
  data::ObservationMatrix obs(2, 2);
  obs.set(0, 0, 1.0);
  obs.set(0, 1, 3.0);
  obs.set(1, 0, 3.0);
  obs.set(1, 1, 5.0);
  return obs;
}

}  // namespace dptd::testing
