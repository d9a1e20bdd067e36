// Dense↔sparse equivalence suite for the sparse ObservationMatrix.
//
// A trivially-correct dense reference model (value grid + presence mask, the
// pre-sparse storage semantics) is driven through randomized interleavings of
// set / overwrite / clear alongside the real matrix; every accessor, and the
// columns truth::gather_object_values builds from the rows, must agree at
// every checkpoint. This pins the sparse layout to the historical dense
// semantics, including traversal order.
#include <gtest/gtest.h>

#include <cstddef>
#include <optional>
#include <random>
#include <span>
#include <vector>

#include "data/dataset.h"
#include "data/sharding.h"
#include "truth/sharded_stats.h"

namespace dptd::data {
namespace {

/// The old dense-with-mask storage, kept as an executable specification.
class DenseReference {
 public:
  DenseReference(std::size_t users, std::size_t objects)
      : users_(users),
        objects_(objects),
        values_(users * objects, 0.0),
        present_(users * objects, 0) {}

  void set(std::size_t s, std::size_t n, double v) {
    values_[s * objects_ + n] = v;
    present_[s * objects_ + n] = 1;
  }
  void clear(std::size_t s, std::size_t n) {
    values_[s * objects_ + n] = 0.0;
    present_[s * objects_ + n] = 0;
  }
  bool present(std::size_t s, std::size_t n) const {
    return present_[s * objects_ + n] != 0;
  }
  double value(std::size_t s, std::size_t n) const {
    return values_[s * objects_ + n];
  }
  std::size_t count() const {
    std::size_t c = 0;
    for (auto p : present_) c += p;
    return c;
  }
  std::vector<double> object_values(std::size_t n) const {
    std::vector<double> out;
    for (std::size_t s = 0; s < users_; ++s) {
      if (present(s, n)) out.push_back(value(s, n));
    }
    return out;
  }
  std::vector<double> user_values(std::size_t s) const {
    std::vector<double> out;
    for (std::size_t n = 0; n < objects_; ++n) {
      if (present(s, n)) out.push_back(value(s, n));
    }
    return out;
  }
  /// Dense traversal order: user-major, object-ascending.
  std::vector<std::tuple<std::size_t, std::size_t, double>> cells() const {
    std::vector<std::tuple<std::size_t, std::size_t, double>> out;
    for (std::size_t s = 0; s < users_; ++s) {
      for (std::size_t n = 0; n < objects_; ++n) {
        if (present(s, n)) out.emplace_back(s, n, value(s, n));
      }
    }
    return out;
  }

  std::size_t users_, objects_;
  std::vector<double> values_;
  std::vector<std::uint8_t> present_;
};

/// Object n's column as a round reads it: gathered from the rows.
std::vector<double> gathered_column(const ObservationMatrix& obs,
                                    std::size_t n) {
  const truth::GatheredColumns columns =
      truth::gather_object_values(ShardedMatrix::single(obs));
  const std::span<const double> column = columns.column(n);
  return {column.begin(), column.end()};
}

void expect_equivalent(const ObservationMatrix& obs,
                       const DenseReference& ref) {
  ASSERT_EQ(obs.num_users(), ref.users_);
  ASSERT_EQ(obs.num_objects(), ref.objects_);
  EXPECT_EQ(obs.observation_count(), ref.count());

  for (std::size_t s = 0; s < ref.users_; ++s) {
    for (std::size_t n = 0; n < ref.objects_; ++n) {
      ASSERT_EQ(obs.present(s, n), ref.present(s, n)) << s << "," << n;
      if (ref.present(s, n)) {
        ASSERT_EQ(obs.value(s, n), ref.value(s, n)) << s << "," << n;
        ASSERT_EQ(obs.get(s, n), std::optional<double>(ref.value(s, n)));
      } else {
        ASSERT_FALSE(obs.get(s, n).has_value()) << s << "," << n;
      }
    }
  }

  for (std::size_t n = 0; n < ref.objects_; ++n) {
    ASSERT_EQ(obs.object_observation_count(n), ref.object_values(n).size());
    // The gathered column holds exactly the object's claims, in user order.
    ASSERT_EQ(gathered_column(obs, n), ref.object_values(n)) << "object " << n;
  }

  for (std::size_t s = 0; s < ref.users_; ++s) {
    ASSERT_EQ(obs.user_observation_count(s), ref.user_values(s).size());
    ASSERT_EQ(obs.user_values(s), ref.user_values(s)) << "user " << s;
    const auto row = obs.user_entries(s);
    std::vector<double> row_values;
    std::size_t prev_object = 0;
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (i > 0) {
        ASSERT_LT(prev_object, row[i].object) << "row not sorted";
      }
      prev_object = row[i].object;
      row_values.push_back(row[i].value);
    }
    ASSERT_EQ(row_values, ref.user_values(s));
  }

  // for_each must visit present cells in the dense traversal order.
  std::vector<std::tuple<std::size_t, std::size_t, double>> visited;
  obs.for_each([&](std::size_t s, std::size_t n, double v) {
    visited.emplace_back(s, n, v);
  });
  EXPECT_EQ(visited, ref.cells());
}

TEST(SparseEquivalence, RandomizedMutationsMatchDenseReference) {
  std::mt19937 gen(20260727);
  for (int round = 0; round < 8; ++round) {
    const std::size_t users = 1 + gen() % 12;
    const std::size_t objects = 1 + gen() % 15;
    ObservationMatrix obs(users, objects);
    DenseReference ref(users, objects);
    std::uniform_real_distribution<double> val(-100.0, 100.0);

    const int ops = 300;
    for (int op = 0; op < ops; ++op) {
      const std::size_t s = gen() % users;
      const std::size_t n = gen() % objects;
      // 60% set (insert or overwrite), 30% clear, 10% clear-of-absent.
      const unsigned dice = gen() % 10;
      if (dice < 6) {
        const double v = val(gen);
        obs.set(s, n, v);
        ref.set(s, n, v);
      } else {
        obs.clear(s, n);
        ref.clear(s, n);
      }
      if (op % 50 == 0) expect_equivalent(obs, ref);
    }
    expect_equivalent(obs, ref);

    // Round-trip through transformed(): structure preserved, values mapped.
    const ObservationMatrix shifted = obs.transformed(
        [](std::size_t, std::size_t, double v) { return v + 1.0; });
    DenseReference shifted_ref = ref;
    for (std::size_t s = 0; s < users; ++s) {
      for (std::size_t n = 0; n < objects; ++n) {
        if (ref.present(s, n)) shifted_ref.set(s, n, ref.value(s, n) + 1.0);
      }
    }
    expect_equivalent(shifted, shifted_ref);
  }
}

TEST(SparseEquivalence, EqualityIsInsensitiveToConstructionOrder) {
  ObservationMatrix a(3, 3);
  ObservationMatrix b(3, 3);
  // Same final content, inserted in opposite orders with detours.
  a.set(0, 0, 1.0);
  a.set(1, 2, 2.0);
  a.set(2, 1, 3.0);
  b.set(2, 1, -1.0);
  b.set(1, 2, 2.0);
  b.set(1, 0, 99.0);  // detour: removed below
  b.set(0, 0, 1.0);
  b.clear(1, 0);
  b.set(2, 1, 3.0);  // overwrite to the final value
  EXPECT_EQ(a, b);
  b.clear(0, 0);
  EXPECT_NE(a, b);
}

TEST(SparseEquivalence, ClearOfAbsentCellIsANoOp) {
  ObservationMatrix obs(2, 2);
  obs.set(0, 1, 5.0);
  obs.clear(1, 0);  // never present
  obs.clear(0, 1);
  obs.clear(0, 1);  // double clear
  EXPECT_EQ(obs.observation_count(), 0u);
}

TEST(SparseEquivalence, ObjectIndexRebuildsAfterMutation) {
  ObservationMatrix obs(3, 2);
  obs.set(0, 0, 1.0);
  obs.set(2, 0, 3.0);
  EXPECT_EQ(gathered_column(obs, 0), (std::vector<double>{1.0, 3.0}));
  // Mutate after a gather: the next gather sees every change.
  obs.set(1, 0, 2.0);
  EXPECT_EQ(gathered_column(obs, 0), (std::vector<double>{1.0, 2.0, 3.0}));
  obs.clear(0, 0);
  EXPECT_EQ(gathered_column(obs, 0), (std::vector<double>{2.0, 3.0}));
  obs.set(1, 0, -2.0);  // an overwrite too
  EXPECT_EQ(gathered_column(obs, 0), (std::vector<double>{-2.0, 3.0}));
}

}  // namespace
}  // namespace dptd::data
