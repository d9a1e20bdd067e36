#include "data/dataset.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <utility>

#include "common/check.h"

namespace dptd::data {

namespace {

using Entry = ObservationMatrix::Entry;

/// Block policy of the claim arena: the first block holds 4 KiB of entries
/// and each later one doubles, up to 4 KiB << 6 = 256 KiB. A 2k-user round
/// stays within a few small blocks; a 1M-user round fills a few hundred
/// large ones instead of a million small chunks.
constexpr std::size_t kFirstBlockEntries =
    (std::size_t{4} << 10) / sizeof(Entry);
constexpr std::size_t kBlockDoublings = 6;

bool before_object(const Entry& e, std::size_t object) {
  return e.object < object;
}

/// `num_objects`, once every id below it is known to fit an Entry.
std::size_t checked_num_objects(std::size_t num_objects) {
  DPTD_REQUIRE(num_objects <= ObservationMatrix::kMaxObjects,
               "ObservationMatrix: more than 2^32 objects");
  return num_objects;
}

}  // namespace

ObservationMatrix::Arena& ObservationMatrix::Arena::operator=(
    Arena&& other) noexcept {
  blocks_ = std::exchange(other.blocks_, {});
  block_ = std::exchange(other.block_, nullptr);
  used_ = std::exchange(other.used_, 0);
  capacity_ = std::exchange(other.capacity_, 0);
  return *this;
}

Entry* ObservationMatrix::Arena::reserve(std::size_t n) {
  if (capacity_ - used_ < n) {
    const std::size_t regular =
        kFirstBlockEntries << std::min(blocks_.size(), kBlockDoublings);
    const std::size_t capacity = std::max(n, regular);
    std::unique_ptr<Entry[], Release> block(
        static_cast<Entry*>(::operator new(capacity * sizeof(Entry))));
    blocks_.push_back(std::move(block));
    block_ = blocks_.back().get();
    used_ = 0;
    capacity_ = capacity;
  }
  return block_ + used_;
}

std::span<Entry> ObservationMatrix::Arena::append(std::span<const Entry> row) {
  Entry* const out = reserve(row.size());
  std::copy(row.begin(), row.end(), out);
  commit(row.size());
  return {out, row.size()};
}

ObservationMatrix::ObservationMatrix(std::size_t num_users,
                                     std::size_t num_objects)
    : num_users_(num_users),
      num_objects_(checked_num_objects(num_objects)),
      rows_(num_users),
      object_counts_(num_objects, 0) {
  DPTD_REQUIRE(num_users > 0 && num_objects > 0,
               "ObservationMatrix: dimensions must be positive");
}

ObservationMatrix::ObservationMatrix(const ObservationMatrix& other)
    : num_users_(other.num_users_),
      num_objects_(other.num_objects_),
      nnz_(other.nnz_),
      object_counts_(other.object_counts_) {
  rows_.reserve(other.rows_.size());
  for (const std::span<const Entry> row : other.rows_) {
    rows_.push_back(arena_.append(row));
  }
}

ObservationMatrix& ObservationMatrix::operator=(
    const ObservationMatrix& other) {
  if (this != &other) *this = ObservationMatrix(other);
  return *this;
}

ObservationMatrix ObservationMatrix::from_rows(
    const std::vector<std::vector<Entry>>& rows, std::size_t num_objects) {
  Arena arena;
  std::vector<std::span<Entry>> spans;
  spans.reserve(rows.size());
  for (const std::vector<Entry>& row : rows) spans.push_back(arena.append(row));
  return adopt(std::move(arena), std::move(spans), num_objects);
}

ObservationMatrix ObservationMatrix::adopt(Arena arena,
                                           std::vector<std::span<Entry>> rows,
                                           std::size_t num_objects) {
  DPTD_REQUIRE(!rows.empty() && num_objects > 0,
               "ObservationMatrix: dimensions must be positive");
  ObservationMatrix out;
  out.num_users_ = rows.size();
  out.num_objects_ = checked_num_objects(num_objects);
  out.arena_ = std::move(arena);
  out.rows_ = std::move(rows);
  out.object_counts_.assign(num_objects, 0);
  for (const std::span<const Entry> row : out.rows_) {
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

const Entry* ObservationMatrix::find_in_row(std::size_t user,
                                            std::size_t object) const {
  const std::span<const Entry> row = rows_[user];
  const auto it =
      std::lower_bound(row.begin(), row.end(), object, before_object);
  if (it != row.end() && it->object == object) return &*it;
  return nullptr;
}

bool ObservationMatrix::present(std::size_t user, std::size_t object) const {
  check_bounds(user, object);
  return find_in_row(user, object) != nullptr;
}

double ObservationMatrix::value(std::size_t user, std::size_t object) const {
  check_bounds(user, object);
  const Entry* const e = find_in_row(user, object);
  DPTD_REQUIRE(e != nullptr, "ObservationMatrix: reading a missing cell");
  return e->value;
}

std::optional<double> ObservationMatrix::get(std::size_t user,
                                             std::size_t object) const {
  check_bounds(user, object);
  const Entry* const e = find_in_row(user, object);
  if (e == nullptr) return std::nullopt;
  return e->value;
}

void ObservationMatrix::set(std::size_t user, std::size_t object,
                            double value) {
  check_bounds(user, object);
  DPTD_REQUIRE(std::isfinite(value), "ObservationMatrix: non-finite value");
  std::span<Entry>& row = rows_[user];
  // Fast path: generators and mechanisms append in ascending object order.
  const auto it = row.empty() || row.back().object < object
                      ? row.end()
                      : std::lower_bound(row.begin(), row.end(), object,
                                         before_object);
  if (it != row.end() && it->object == object) {
    it->value = value;  // overwrite, structure unchanged
    return;
  }
  const std::size_t size = row.size();
  const auto at = static_cast<std::size_t>(it - row.begin());
  Entry* out = row.data();
  if (arena_.can_grow(row)) {
    arena_.commit(1);
    std::copy_backward(out + at, out + size, out + size + 1);
  } else {
    // Not the tail: the row is rewritten there and its old run abandoned.
    // Room for as many claims again lets the row grow in place while it
    // stays the tail, so a row grown to n claims moves O(log n) times.
    Entry* const moved = arena_.reserve(2 * size + 1);
    std::copy(out, out + at, moved);
    std::copy(out + at, out + size, moved + at + 1);
    arena_.commit(size + 1);
    out = moved;
  }
  out[at] = {static_cast<std::uint32_t>(object), value};
  row = {out, size + 1};
  ++object_counts_[object];
  ++nnz_;
}

void ObservationMatrix::clear(std::size_t user, std::size_t object) {
  check_bounds(user, object);
  std::span<Entry>& row = rows_[user];
  const auto it =
      std::lower_bound(row.begin(), row.end(), object, before_object);
  if (it == row.end() || it->object != object) return;  // already absent
  std::copy(it + 1, row.end(), it);
  row = row.first(row.size() - 1);
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

std::span<const Entry> ObservationMatrix::user_entries(
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

bool ObservationMatrix::operator==(const ObservationMatrix& other) const {
  return num_users_ == other.num_users_ &&
         num_objects_ == other.num_objects_ &&
         std::ranges::equal(rows_, other.rows_,
                            [](std::span<const Entry> a,
                               std::span<const Entry> b) {
                              return std::ranges::equal(a, b);
                            });
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
