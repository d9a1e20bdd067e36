#include "net/fault_transport.h"

#include <algorithm>
#include <stdexcept>

#include "common/distributions.h"

namespace dptd::net {

namespace {

void validate_probability(double p, const char* what) {
  if (!(p >= 0.0 && p <= 1.0)) {
    throw std::invalid_argument(std::string("LinkFaults: ") + what +
                                " must be in [0, 1]");
  }
}

double max_extra_delay_of(const LinkFaults& f) {
  double extra = 0.0;
  if (f.delay_probability > 0.0) extra = std::max(extra, f.delay_max_seconds);
  if (f.reorder_probability > 0.0) {
    extra = std::max(extra, f.reorder_max_seconds);
  }
  return extra;
}

}  // namespace

bool LinkFaults::any() const {
  return drop_probability > 0.0 || duplicate_probability > 0.0 ||
         delay_probability > 0.0 || reorder_probability > 0.0 ||
         corrupt_probability > 0.0 || truncate_probability > 0.0;
}

void LinkFaults::validate() const {
  validate_probability(drop_probability, "drop_probability");
  validate_probability(duplicate_probability, "duplicate_probability");
  validate_probability(delay_probability, "delay_probability");
  validate_probability(reorder_probability, "reorder_probability");
  validate_probability(corrupt_probability, "corrupt_probability");
  validate_probability(truncate_probability, "truncate_probability");
  if (delay_probability > 0.0 &&
      !(delay_min_seconds >= 0.0 &&
        delay_max_seconds >= delay_min_seconds)) {
    throw std::invalid_argument(
        "LinkFaults: delay window must satisfy 0 <= min <= max");
  }
  if (reorder_probability > 0.0 && !(reorder_max_seconds > 0.0)) {
    throw std::invalid_argument(
        "LinkFaults: reorder_max_seconds must be > 0 when reordering");
  }
}

void FaultSchedule::validate() const {
  rpc.validate();
  reports.validate();
  for (const auto& [link, faults] : links) {
    (void)link;
    faults.validate();
  }
  for (const PartitionWindow& w : partitions) {
    if (!(w.end_seconds >= w.begin_seconds)) {
      throw std::invalid_argument("PartitionWindow: end must be >= begin");
    }
  }
  for (const CrashWindow& w : crashes) {
    if (!(w.end_seconds >= w.begin_seconds)) {
      throw std::invalid_argument("CrashWindow: end must be >= begin");
    }
  }
}

FaultInjectionTransport::FaultInjectionTransport(Transport& inner,
                                                FaultSchedule schedule)
    : inner_(inner), schedule_(std::move(schedule)), rng_(schedule_.seed) {
  schedule_.validate();
  max_extra_delay_ =
      std::max(max_extra_delay_of(schedule_.rpc),
               max_extra_delay_of(schedule_.reports));
  for (const auto& [link, faults] : schedule_.links) {
    (void)link;
    max_extra_delay_ = std::max(max_extra_delay_, max_extra_delay_of(faults));
  }
}

void FaultInjectionTransport::attach(NodeId id, Node& node) {
  inner_.attach(id, node);
}

void FaultInjectionTransport::detach(NodeId id) { inner_.detach(id); }

bool FaultInjectionTransport::attached(NodeId id) const {
  return inner_.attached(id);
}

double FaultInjectionTransport::now() const { return inner_.now(); }

std::size_t FaultInjectionTransport::poll(double deadline) {
  return inner_.poll(deadline);
}

std::size_t FaultInjectionTransport::run_until_idle() {
  return inner_.run_until_idle();
}

void FaultInjectionTransport::schedule(double delay, std::function<void()> fn) {
  inner_.schedule(delay, std::move(fn));
}

const NetworkStats& FaultInjectionTransport::stats() const {
  const NetworkStats& in = inner_.stats();
  merged_.messages_sent = sent_;
  merged_.bytes_sent = bytes_sent_;
  merged_.messages_delivered = in.messages_delivered;
  merged_.bytes_delivered = in.bytes_delivered;
  merged_.messages_dropped = in.messages_dropped;
  merged_.messages_undeliverable = in.messages_undeliverable + undeliverable_;
  return merged_;
}

std::size_t FaultInjectionTransport::undeliverable_to(
    NodeId destination) const {
  std::size_t count = inner_.undeliverable_to(destination);
  const auto it = undeliverable_by_dest_.find(destination);
  if (it != undeliverable_by_dest_.end()) count += it->second;
  return count;
}

double FaultInjectionTransport::drain_window_seconds() const {
  return inner_.drain_window_seconds() + max_extra_delay_;
}

const LinkFaults& FaultInjectionTransport::faults_for(
    const Message& message) const {
  const auto it =
      schedule_.links.find({message.source, message.destination});
  if (it != schedule_.links.end()) return it->second;
  for (std::uint32_t type : schedule_.report_types) {
    if (message.type == type) return schedule_.reports;
  }
  return schedule_.rpc;
}

bool FaultInjectionTransport::severed(const Message& message, double t,
                                      bool* crash) const {
  for (const CrashWindow& w : schedule_.crashes) {
    if ((message.source == w.node || message.destination == w.node) &&
        t >= w.begin_seconds && t < w.end_seconds) {
      *crash = true;
      return true;
    }
  }
  for (const PartitionWindow& w : schedule_.partitions) {
    const bool forward =
        message.source == w.from && message.destination == w.to;
    const bool backward = w.bidirectional && message.source == w.to &&
                          message.destination == w.from;
    if ((forward || backward) && t >= w.begin_seconds && t < w.end_seconds) {
      *crash = false;
      return true;
    }
  }
  return false;
}

void FaultInjectionTransport::count_loss(const Message& message) {
  ++undeliverable_;
  ++undeliverable_by_dest_[message.destination];
}

void FaultInjectionTransport::forward(Message message, double extra_delay) {
  if (extra_delay <= 0.0) {
    inner_.send(std::move(message));
    return;
  }
  inner_.schedule(extra_delay, [this, m = std::move(message)]() mutable {
    inner_.send(std::move(m));
  });
}

void FaultInjectionTransport::send(Message message) {
  ++sent_;
  bytes_sent_ += message.payload.size();

  bool crash = false;
  if (severed(message, inner_.now(), &crash)) {
    if (crash) {
      ++injected_.crash_losses;
    } else {
      ++injected_.partition_losses;
    }
    count_loss(message);
    return;
  }

  const LinkFaults& f = faults_for(message);
  if (!f.any()) {
    inner_.send(std::move(message));
    return;
  }

  if (f.drop_probability > 0.0 && bernoulli(rng_, f.drop_probability)) {
    ++injected_.drops;
    count_loss(message);
    return;
  }

  double extra = 0.0;
  if (f.delay_probability > 0.0 && bernoulli(rng_, f.delay_probability)) {
    ++injected_.delays;
    extra = uniform(rng_, f.delay_min_seconds, f.delay_max_seconds);
  } else if (f.reorder_probability > 0.0 &&
             bernoulli(rng_, f.reorder_probability)) {
    ++injected_.reorders;
    extra = uniform(rng_, 0.0, f.reorder_max_seconds);
  }

  if (f.corrupt_probability > 0.0 && !message.payload.empty() &&
      bernoulli(rng_, f.corrupt_probability)) {
    ++injected_.corruptions;
    const std::uint64_t bit =
        uniform_index(rng_, message.payload.size() * 8);
    message.payload.mutable_bytes()[bit / 8] ^=
        static_cast<std::uint8_t>(1u << (bit % 8));
  }

  if (f.truncate_probability > 0.0 && !message.payload.empty() &&
      bernoulli(rng_, f.truncate_probability)) {
    ++injected_.truncations;
    message.payload.mutable_bytes().resize(
        uniform_index(rng_, message.payload.size()));
  }

  const bool duplicate = f.duplicate_probability > 0.0 &&
                         bernoulli(rng_, f.duplicate_probability);
  if (duplicate) {
    ++injected_.duplicates;
    ++sent_;
    bytes_sent_ += message.payload.size();
    forward(message, extra);
  }
  forward(std::move(message), extra);
}

}  // namespace dptd::net
