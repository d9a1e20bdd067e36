#include "crowd/server.h"

#include <cmath>
#include <limits>
#include <numeric>
#include <type_traits>
#include <utility>

#include "common/check.h"
#include "common/serialize.h"

namespace dptd::crowd {

bool ingest_report_claims(data::ObservationMatrixBuilder& builder,
                          std::size_t local_user, const Report& report,
                          std::size_t num_objects) {
  const std::size_t count =
      std::min(report.objects.size(), report.values.size());
  bool clean = count == report.objects.size() && count == report.values.size();
  for (std::size_t i = 0; clean && i < count; ++i) {
    clean = report.objects[i] < num_objects && std::isfinite(report.values[i]);
  }
  if (clean) {
    builder.add_row(local_user, report.objects, report.values);
    return false;
  }
  std::vector<std::uint64_t> objects;
  std::vector<double> values;
  objects.reserve(count);
  values.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    if (report.objects[i] >= num_objects) continue;
    if (!std::isfinite(report.values[i])) continue;
    objects.push_back(report.objects[i]);
    values.push_back(report.values[i]);
  }
  builder.add_row(local_user, objects, values);
  return true;
}

namespace {

/// What ingest_label_claims had to drop or rewrite.
struct LabelIngestOutcome {
  bool malformed = false;          ///< array mismatch / out-of-range objects
  std::size_t invalid_labels = 0;  ///< claims with label >= num_labels
};

/// The categorical twin of ingest_report_claims: validates every claim's
/// object range AND label range (out-of-alphabet labels are dropped and
/// counted, never aborting the report) and ingests the surviving claims as
/// exact label-id doubles under `local_user`. The caller must have
/// dedup-checked `local_user` already.
LabelIngestOutcome ingest_label_claims(data::ObservationMatrixBuilder& builder,
                                       std::size_t local_user,
                                       const LabelReport& report,
                                       std::size_t num_objects,
                                       std::size_t num_labels) {
  LabelIngestOutcome outcome;
  const std::size_t count =
      std::min(report.objects.size(), report.labels.size());
  outcome.malformed =
      count != report.objects.size() || count != report.labels.size();
  std::vector<std::uint64_t> objects;
  std::vector<double> values;
  objects.reserve(count);
  values.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    if (report.objects[i] >= num_objects) {
      outcome.malformed = true;
      continue;
    }
    if (report.labels[i] >= num_labels) {
      ++outcome.invalid_labels;
      continue;
    }
    objects.push_back(report.objects[i]);
    values.push_back(static_cast<double>(report.labels[i]));
  }
  builder.add_row(local_user, objects, values);
  return outcome;
}

}  // namespace

void ShardIngestor::begin_round(std::size_t num_users, std::size_t num_objects,
                                std::uint64_t round,
                                const LabelIngestPolicy& labels) {
  if (builder_.has_value()) {
    builder_->reshape(num_users, num_objects);
  } else {
    builder_.emplace(num_users, num_objects);
  }
  num_objects_ = num_objects;
  round_ = round;
  labels_ = labels;
  stats_ = {};
}

bool ShardIngestor::ingest(std::size_t row,
                           std::span<const std::uint8_t> fields) {
  return labels_.enabled() ? ingest_as<LabelReport>(row, fields)
                           : ingest_as<Report>(row, fields);
}

template <typename Upload>
bool ShardIngestor::ingest_as(std::size_t row,
                              std::span<const std::uint8_t> fields) {
  // Decode before dedup: an undecodable re-send is a reject, not a
  // duplicate, on every path.
  Upload upload;
  try {
    upload = Upload::decode_fields(round_, fields);
  } catch (const DecodeError&) {
    ++stats_.rejected_reports;
    return false;
  }
  if (builder_->has_row(row)) {
    ++stats_.duplicates_ignored;
    return false;
  }
  if constexpr (std::is_same_v<Upload, LabelReport>) {
    const LabelIngestOutcome outcome = ingest_label_claims(
        *builder_, row, upload, num_objects_, labels_.num_labels);
    if (outcome.malformed) ++stats_.malformed_reports;
    stats_.invalid_labels += outcome.invalid_labels;
  } else {
    if (ingest_report_claims(*builder_, row, upload, num_objects_)) {
      ++stats_.malformed_reports;
    }
  }
  ++stats_.reports_received;
  return true;
}

data::ObservationMatrix ShardIngestor::finalize() {
  return builder_->finalize();
}

namespace {

/// True when the range [base, base + count) ends at or before the largest
/// NodeId, so base + count does not overflow.
bool range_fits(net::NodeId base, std::size_t count) {
  return count <= std::numeric_limits<net::NodeId>::max() - base;
}

}  // namespace

void ParticipantIndex::build(const std::vector<net::NodeId>& participants) {
  const net::NodeId base = participants.empty() ? 0 : participants.front();
  bool contiguous = range_fits(base, participants.size());
  for (std::size_t i = 0; contiguous && i < participants.size(); ++i) {
    contiguous = participants[i] - base == i;
  }
  if (contiguous) {
    build_range(base, participants.size());
    return;
  }
  ParticipantIndex built;
  built.size_ = participants.size();
  built.ids_ = participants;
  built.rows_.reserve(participants.size());
  for (std::size_t i = 0; i < participants.size(); ++i) {
    DPTD_REQUIRE(built.rows_.emplace(participants[i], i).second,
                 "ParticipantIndex: participant id repeated in the roster");
  }
  *this = std::move(built);
}

void ParticipantIndex::build_range(net::NodeId base, std::size_t count) {
  DPTD_REQUIRE(range_fits(base, count),
               "ParticipantIndex: roster range runs past the largest id");
  ParticipantIndex built;
  built.size_ = count;
  built.base_ = base;
  *this = std::move(built);
}

std::optional<std::size_t> ParticipantIndex::row_of(net::NodeId user) const {
  if (ids_.empty()) {
    // Unsigned, so an id below base_ wraps past size_.
    const net::NodeId row = user - base_;
    if (row >= size_) return std::nullopt;
    return static_cast<std::size_t>(row);
  }
  const auto it = rows_.find(user);
  if (it == rows_.end()) return std::nullopt;
  return it->second;
}

ParticipantIndex::Slice ParticipantIndex::slice(std::size_t begin,
                                                std::size_t end) const {
  DPTD_REQUIRE(begin <= end && end <= size_,
               "ParticipantIndex: slice outside the roster");
  Slice slice;
  slice.count = end - begin;
  if (ids_.empty()) {
    slice.first = base_ + begin;
  } else {
    slice.ids = std::span<const net::NodeId>(ids_).subspan(begin, slice.count);
  }
  return slice;
}

std::vector<net::NodeId> ParticipantIndex::ids() const {
  if (!ids_.empty()) return ids_;
  std::vector<net::NodeId> ids(size_);
  std::iota(ids.begin(), ids.end(), base_);
  return ids;
}

void fan_out(net::Transport& transport, net::NodeId source,
             const ParticipantIndex& roster, MessageType type,
             std::vector<std::uint8_t> payload) {
  const net::Payload shared = net::Payload::shared(std::move(payload));
  for (std::size_t row = 0; row < roster.size(); ++row) {
    transport.send(net::Message{source, roster.id_of(row),
                                static_cast<std::uint32_t>(type), shared});
  }
}

std::vector<double> remap_warm_weights(
    const WarmState& warm, const std::vector<net::NodeId>& participants,
    std::size_t num_users) {
  const std::vector<double>& prev = warm.result.weights;
  if (prev.empty() || num_users != participants.size()) return {};
  if (warm.participants == participants) {
    // Unchanged roster: the fast path, bitwise identical to seeding with the
    // previous round's weights directly.
    return prev.size() == num_users ? prev : std::vector<double>{};
  }
  if (prev.size() != warm.participants.size()) return {};
  // Roster changed: carry each surviving user's weight through its stable
  // node id. Users new to the roster (or returning after a gap the state no
  // longer covers) start from the *surviving* fleet's mean weight — neutral
  // on the converged scale, unlike the cold 1.0, and unbiased by whatever
  // cohort just departed.
  std::unordered_map<net::NodeId, double> by_user;
  by_user.reserve(prev.size());
  for (std::size_t i = 0; i < prev.size(); ++i) {
    by_user.emplace(warm.participants[i], prev[i]);
  }
  std::vector<double> weights(num_users, 0.0);
  std::vector<char> survived(num_users, 0);
  double survivor_sum = 0.0;
  std::size_t survivors = 0;
  for (std::size_t i = 0; i < participants.size(); ++i) {
    const auto it = by_user.find(participants[i]);
    if (it != by_user.end()) {
      weights[i] = it->second;
      survived[i] = 1;
      survivor_sum += it->second;
      ++survivors;
    }
  }
  // A fully replaced fleet has no per-user signal to carry over.
  if (survivors == 0) return {};
  const double fill = survivor_sum / static_cast<double>(survivors);
  for (std::size_t i = 0; i < num_users; ++i) {
    if (!survived[i]) weights[i] = fill;
  }
  return weights;
}

truth::WarmStart WarmState::seed(
    bool warm_start, const truth::TruthDiscovery& method,
    const std::vector<net::NodeId>& participants) const {
  truth::WarmStart seed;
  if (warm_start && valid && method.supports_warm_start()) {
    seed.truths = result.truths;
    seed.weights =
        remap_warm_weights(*this, participants, participants.size());
  }
  return seed;
}

void WarmState::record(bool warm_start, const truth::Result& round_result,
                       std::vector<net::NodeId> roster) {
  if (!warm_start) return;
  result = round_result;
  participants = std::move(roster);
  valid = true;
}

}  // namespace dptd::crowd
