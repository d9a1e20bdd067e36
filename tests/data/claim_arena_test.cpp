// Invariants of the claim arena behind ObservationMatrix and its builder:
// rows live in blocks that never move, copies own their claims, moves keep
// every span valid, and a reused builder hands each round's arena to its
// matrix. Under ASan a row read past its block, or a copy that aliased its
// source, fails these tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <numeric>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/distributions.h"
#include "common/rng.h"
#include "data/builder.h"
#include "data/dataset.h"

namespace dptd::data {
namespace {

using Entry = ObservationMatrix::Entry;
using Rows = std::vector<std::vector<Entry>>;

// A vector of matrices must move them on reallocation, never copy them.
static_assert(std::is_nothrow_move_constructible_v<ObservationMatrix>);
static_assert(std::is_nothrow_move_constructible_v<ObservationMatrixBuilder>);

// The arena's block policy (dataset.cpp), counted in entries: the first
// block holds as many as fit in 4 KiB, and each later block twice as many,
// up to the 256 KiB cap (64 times the first). The seven blocks up to the
// cap hold kRegularEntries together; later blocks stay at the cap.
constexpr std::size_t kFirstBlockEntries =
    (std::size_t{4} << 10) / sizeof(Entry);
constexpr std::size_t kBlockCapEntries = kFirstBlockEntries << 6;
constexpr std::size_t kRegularEntries = kFirstBlockEntries * 127;

/// Feeds `rows` to a builder row by row, each row's claims in reverse order
/// (so every claim after the first takes the sorted-insert path).
void add_rows_reversed(ObservationMatrixBuilder& builder, const Rows& rows) {
  for (std::size_t user = 0; user < rows.size(); ++user) {
    std::vector<std::uint64_t> objects;
    std::vector<double> values;
    for (auto e = rows[user].rbegin(); e != rows[user].rend(); ++e) {
      objects.push_back(e->object);
      values.push_back(e->value);
    }
    ASSERT_TRUE(builder.add_row(user, objects, values));
  }
}

/// `users` rows of `per_row` claims on objects per_row apart from each other.
Rows strided_rows(std::size_t users, std::size_t per_row) {
  Rows rows(users);
  for (std::size_t s = 0; s < users; ++s) {
    for (std::size_t k = 0; k < per_row; ++k) {
      rows[s].push_back(
          {static_cast<std::uint32_t>((s + k * per_row) % (per_row * per_row)),
           static_cast<double>(s) + 0.25 * static_cast<double>(k)});
    }
    std::sort(rows[s].begin(), rows[s].end(),
              [](const Entry& a, const Entry& b) {
                return a.object < b.object;
              });
  }
  return rows;
}

TEST(ClaimArena, RowLongerThanABlockGetsABlockOfItsOwn) {
  // A row a quarter longer than the 256 KiB block cap holds (27,280 entries
  // of 12 B: 327,360 B). Short rows on either side keep the long row from
  // starting at the first block's start.
  constexpr std::size_t kLong = kBlockCapEntries + kBlockCapEntries / 4;
  Rows rows(3);
  rows[0] = {{3, 1.0}, {7, 2.0}};
  for (std::size_t n = 0; n < kLong; ++n) {
    rows[1].push_back(
        {static_cast<std::uint32_t>(n), 0.5 * static_cast<double>(n)});
  }
  rows[2] = {{kLong - 1, -1.0}};
  const ObservationMatrix expected = ObservationMatrix::from_rows(rows, kLong);

  ObservationMatrixBuilder builder(3, kLong);
  add_rows_reversed(builder, rows);
  const ObservationMatrix built = builder.finalize();
  EXPECT_EQ(built, expected);
  ASSERT_EQ(built.user_entries(1).size(), kLong);
  EXPECT_DOUBLE_EQ(built.user_entries(1).back().value,
                   0.5 * static_cast<double>(kLong - 1));

  // set() grows a row past every block size as well.
  ObservationMatrix grown(3, kLong);
  expected.for_each([&](std::size_t user, std::size_t object, double value) {
    grown.set(user, object, value);
  });
  EXPECT_EQ(grown, expected);
  EXPECT_EQ(grown.object_observation_count(kLong - 1), 2u);
}

TEST(ClaimArena, GrowingARowPastTheBlockCapMovesItRarely) {
  // Ascending set() grows one row 300 claims past the 256 KiB block cap.
  // A moved row takes room for as many claims again, so it moves each time
  // it doubles, not on every set once it outgrows a block.
  constexpr std::size_t kLength = kBlockCapEntries + 300;
  ObservationMatrix m(2, kLength);
  m.set(0, 0, -1.0);  // the long row does not start at the arena's start
  std::size_t moves = 0;
  const Entry* row = nullptr;
  for (std::size_t n = 0; n < kLength; ++n) {
    m.set(1, n, static_cast<double>(n));
    const Entry* const now = m.user_entries(1).data();
    if (row != nullptr && now != row) ++moves;
    row = now;
  }
  // The row fills the rest of the first block, then moves each time it
  // doubles: 7 moves in all, the last one past the cap.
  EXPECT_LE(moves, 8u);
  ASSERT_EQ(m.user_observation_count(1), kLength);
  for (std::size_t n = 0; n < kLength; n += 997) {
    EXPECT_EQ(m.value(1, n), static_cast<double>(n));
  }
  EXPECT_EQ(m.value(1, kLength - 1), static_cast<double>(kLength - 1));
  EXPECT_EQ(m.value(0, 0), -1.0);
  EXPECT_EQ(m.observation_count(), kLength + 1);
}

TEST(ClaimArena, RowsAcrossTheBlockGrowthMatchFromRows) {
  // Rows of 7 claims, one user for every 5 entries the 4 KiB → 256 KiB
  // blocks hold together (8,661 users, 60,627 entries against 43,307 at
  // 12 B): rows land in every block size and past it, and a set() fill moves
  // rows that reach a block's end.
  const Rows rows = strided_rows(kRegularEntries / 5, 7);
  const ObservationMatrix expected = ObservationMatrix::from_rows(rows, 49);
  EXPECT_EQ(expected.observation_count(), rows.size() * 7);
  EXPECT_GT(expected.observation_count(), kRegularEntries);

  ObservationMatrixBuilder builder(rows.size(), 49);
  add_rows_reversed(builder, rows);
  const ObservationMatrix built = builder.finalize();
  EXPECT_EQ(built, expected);

  ObservationMatrix filled(rows.size(), 49);
  for (std::size_t s = 0; s < rows.size(); ++s) {
    for (const Entry& e : rows[s]) filled.set(s, e.object, e.value);
  }
  EXPECT_EQ(filled, expected);
  for (std::size_t n = 0; n < 49; ++n) {
    EXPECT_EQ(filled.object_observation_count(n),
              expected.object_observation_count(n));
  }
}

TEST(ClaimArena, ARowThatThrowsHalfwayClaimsNothing) {
  // A row is committed only after every claim passed its checks: the valid
  // claims before a bad one must not reach the finalized matrix.
  ObservationMatrixBuilder builder(2, 4);
  const std::vector<std::uint64_t> objects{1, 2, 9};
  const std::vector<double> values{1.0, 2.0, 3.0};
  EXPECT_THROW(builder.add_row(0, objects, values), std::invalid_argument);
  EXPECT_EQ(builder.observation_count(), 0u);
  EXPECT_FALSE(builder.has_row(0));

  const std::vector<std::uint64_t> good{3};
  const std::vector<double> good_values{4.0};
  ASSERT_TRUE(builder.add_row(1, good, good_values));
  EXPECT_EQ(builder.finalize(),
            ObservationMatrix::from_rows({{}, {{3, 4.0}}}, 4));
}

TEST(ClaimArena, BuildersRefuseMoreObjectsThanIdsHold) {
  // Object ids are 32-bit, so a builder refuses 2^32 + 1 objects when it is
  // shaped, before a finalize could size anything by the object count (a
  // per-object count array that long is 32 GiB).
  constexpr std::size_t kTooMany = ObservationMatrix::kMaxObjects + 1;
  EXPECT_THROW(ObservationMatrixBuilder(1, kTooMany), std::invalid_argument);

  // A refused reshape leaves the builder's shape and rows as they were.
  ObservationMatrixBuilder builder(2, 3);
  const std::vector<std::uint64_t> objects{2};
  const std::vector<double> values{1.0};
  ASSERT_TRUE(builder.add_row(0, objects, values));
  ASSERT_THROW(builder.reshape(2, kTooMany), std::invalid_argument);
  EXPECT_EQ(builder.num_objects(), 3u);
  EXPECT_TRUE(builder.has_row(0));
  EXPECT_EQ(builder.finalize(),
            ObservationMatrix::from_rows({{{2, 1.0}}, {}}, 3));

  // 2^32 objects is a shape: the highest id fits. (Never finalized, since
  // its per-object counts would be 32 GiB.)
  ObservationMatrixBuilder widest(1, ObservationMatrix::kMaxObjects);
  const std::vector<std::uint64_t> top{ObservationMatrix::kMaxObjects - 1};
  EXPECT_TRUE(widest.add_row(0, top, values));
  EXPECT_EQ(widest.observation_count(), 1u);
}

TEST(ClaimArena, MatricesRefuseMoreObjectsThanIdsHold) {
  // Both matrix shapes refuse 2^32 + 1 objects before the per-object count
  // array (32 GiB) is sized; the builder's finalize goes through the same
  // check as from_rows.
  constexpr std::size_t kTooMany = ObservationMatrix::kMaxObjects + 1;
  EXPECT_THROW(ObservationMatrix(1, kTooMany), std::invalid_argument);
  EXPECT_THROW(ObservationMatrix::from_rows({{}}, kTooMany),
               std::invalid_argument);
}

TEST(ClaimArena, SetOnANonTailRowMovesItAndClearStillWorks) {
  ObservationMatrix m(3, 5);
  m.set(0, 1, 1.0);
  m.set(0, 3, 3.0);
  m.set(1, 0, 10.0);
  m.set(1, 4, 14.0);  // row 1 is now the arena's tail
  const Entry* const row0_before = m.user_entries(0).data();
  const Entry* const row1 = m.user_entries(1).data();

  m.set(0, 3, 3.5);  // an overwrite never moves a row
  EXPECT_EQ(m.user_entries(0).data(), row0_before);
  m.set(0, 2, 2.0);  // row 0 is not the tail: it moves there
  const Entry* const row0_moved = m.user_entries(0).data();
  EXPECT_NE(row0_moved, row0_before);
  EXPECT_EQ(m.user_entries(1).data(), row1);  // other rows stay put
  m.set(0, 0, 0.5);  // now it is the tail: it grows in place
  EXPECT_EQ(m.user_entries(0).data(), row0_moved);

  const std::vector<Entry> row0{{0, 0.5}, {1, 1.0}, {2, 2.0}, {3, 3.5}};
  EXPECT_TRUE(std::ranges::equal(m.user_entries(0), row0));
  EXPECT_EQ(m.observation_count(), 6u);

  m.clear(0, 2);
  m.clear(0, 0);
  m.clear(0, 4);  // absent: no-op
  EXPECT_EQ(m, ObservationMatrix::from_rows(
                   {{{1, 1.0}, {3, 3.5}}, {{0, 10.0}, {4, 14.0}}, {}}, 5));
  EXPECT_EQ(m.object_observation_count(0), 1u);
  EXPECT_EQ(m.object_observation_count(2), 0u);
  EXPECT_EQ(m.observation_count(), 4u);

  m.set(0, 2, 2.5);  // a cleared row takes claims again
  EXPECT_DOUBLE_EQ(m.value(0, 2), 2.5);
  EXPECT_EQ(m.user_observation_count(0), 3u);
}

TEST(ClaimArena, CopiesOwnTheirClaims) {
  const Rows rows = strided_rows(40, 5);
  auto source = std::make_unique<ObservationMatrix>(
      ObservationMatrix::from_rows(rows, 25));
  const ObservationMatrix copy = *source;
  ObservationMatrix assigned(1, 1);
  assigned = *source;
  const ObservationMatrix doubled =
      source->transformed([](std::size_t, std::size_t, double v) {
        return 2.0 * v;
      });
  EXPECT_NE(copy.user_entries(0).data(), source->user_entries(0).data());
  EXPECT_NE(assigned.user_entries(0).data(), source->user_entries(0).data());

  // Reading after the source is gone: a copy of row pointers would read
  // freed blocks here.
  source.reset();
  const ObservationMatrix expected = ObservationMatrix::from_rows(rows, 25);
  EXPECT_EQ(copy, expected);
  EXPECT_EQ(assigned, expected);
  for (std::size_t s = 0; s < rows.size(); ++s) {
    for (const Entry& e : rows[s]) {
      EXPECT_DOUBLE_EQ(doubled.value(s, e.object), 2.0 * e.value);
    }
  }

  // Writing to a copy leaves the original alone.
  ObservationMatrix edited = copy;
  edited.set(0, 24, 9.0);
  edited.clear(1, rows[1][0].object);
  EXPECT_EQ(copy, expected);
  EXPECT_FALSE(copy.present(0, 24));
}

TEST(ClaimArena, MovesKeepEverySpanValid) {
  const Rows rows = strided_rows(30, 4);
  ObservationMatrix m = ObservationMatrix::from_rows(rows, 16);
  const std::span<const Entry> row = m.user_entries(7);

  ObservationMatrix moved = std::move(m);
  EXPECT_EQ(moved.user_entries(7).data(), row.data());
  EXPECT_TRUE(std::ranges::equal(row, rows[7]));

  // Growing a vector of matrices moves them; the spans read the same claims.
  std::vector<ObservationMatrix> shards;
  shards.push_back(std::move(moved));
  for (std::size_t i = 0; i < 16; ++i) shards.emplace_back(1, 1);
  EXPECT_EQ(shards[0].user_entries(7).data(), row.data());
  EXPECT_TRUE(std::ranges::equal(row, rows[7]));
  ObservationMatrix assigned(2, 2);
  assigned = std::move(shards[0]);
  EXPECT_EQ(assigned.user_entries(7).data(), row.data());
  EXPECT_EQ(assigned, ObservationMatrix::from_rows(rows, 16));

  // A moved builder keeps the rows it ingested and takes more.
  ObservationMatrixBuilder builder(2, 3);
  const std::vector<std::uint64_t> objects{2, 0};
  const std::vector<double> values{2.0, 0.5};
  ASSERT_TRUE(builder.add_row(0, objects, values));
  ObservationMatrixBuilder moved_builder = std::move(builder);
  EXPECT_TRUE(moved_builder.has_row(0));
  EXPECT_FALSE(moved_builder.add_row(0, objects, values));
  ASSERT_TRUE(moved_builder.add_row(1, objects, values));
  EXPECT_EQ(moved_builder.finalize(),
            ObservationMatrix::from_rows(
                {{{0, 0.5}, {2, 2.0}}, {{0, 0.5}, {2, 2.0}}}, 3));
}

TEST(ClaimArena, ReshapedBuilderRoundsMatchFromRows) {
  // One builder serves rounds of different shapes, as a shard's ingestor
  // does. Every finalized matrix keeps its own arena, so rounds built later
  // never touch an earlier round's claims.
  struct Round {
    std::size_t users;
    std::size_t objects;
  };
  const std::vector<Round> rounds{{300, 9}, {5, 3}, {2000, 12}, {40, 7}};
  Rng rng(26);
  ObservationMatrixBuilder builder(1, 1);
  std::vector<ObservationMatrix> built;
  std::vector<ObservationMatrix> expected;
  for (const Round& round : rounds) {
    Rows rows(round.users);
    for (std::vector<Entry>& row : rows) {
      for (std::size_t n = 0; n < round.objects; ++n) {
        if (bernoulli(rng, 0.5)) {
          row.push_back({static_cast<std::uint32_t>(n),
                         static_cast<double>(rng.next() % 1000) / 8.0});
        }
      }
    }
    std::vector<std::size_t> arrival(round.users);
    std::iota(arrival.begin(), arrival.end(), std::size_t{0});
    for (std::size_t i = arrival.size(); i > 1; --i) {
      std::swap(arrival[i - 1], arrival[uniform_index(rng, i)]);
    }

    builder.reshape(round.users, round.objects);
    for (const std::size_t user : arrival) {
      std::vector<std::uint64_t> objects;
      std::vector<double> values;
      for (auto e = rows[user].rbegin(); e != rows[user].rend(); ++e) {
        objects.push_back(e->object);
        values.push_back(e->value);
      }
      ASSERT_TRUE(builder.add_row(user, objects, values));
    }
    built.push_back(builder.finalize());
    expected.push_back(ObservationMatrix::from_rows(rows, round.objects));
  }
  ASSERT_EQ(built.size(), rounds.size());
  for (std::size_t r = 0; r < rounds.size(); ++r) {
    EXPECT_EQ(built[r], expected[r]) << "round " << r;
  }
}

}  // namespace
}  // namespace dptd::data
