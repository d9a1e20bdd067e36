#include "net/network.h"

#include "common/check.h"
#include "common/distributions.h"

namespace dptd::net {

void LatencyModel::validate() const {
  DPTD_REQUIRE(base_seconds >= 0.0, "LatencyModel: negative base latency");
  DPTD_REQUIRE(jitter_seconds >= 0.0, "LatencyModel: negative jitter");
  DPTD_REQUIRE(drop_probability >= 0.0 && drop_probability < 1.0,
               "LatencyModel: drop probability must be in [0,1)");
}

Network::Network(Simulator& sim, LatencyModel latency, std::uint64_t seed)
    : sim_(&sim), latency_(latency), rng_(seed) {
  latency_.validate();
}

void Network::attach(NodeId id, Node& node) {
  DPTD_REQUIRE(!nodes_.count(id), "Network::attach: id already attached");
  nodes_[id] = &node;
}

void Network::detach(NodeId id) { nodes_.erase(id); }

bool Network::attached(NodeId id) const { return nodes_.count(id) != 0; }

std::size_t Network::undeliverable_to(NodeId destination) const {
  const auto it = undeliverable_by_dest_.find(destination);
  return it == undeliverable_by_dest_.end() ? 0 : it->second;
}

void Network::send(Message message) {
  ++stats_.messages_sent;
  stats_.bytes_sent += message.payload.size();

  if (latency_.drop_probability > 0.0 &&
      bernoulli(rng_, latency_.drop_probability)) {
    ++stats_.messages_dropped;
    return;
  }
  if (!attached(message.destination)) {
    ++stats_.messages_undeliverable;
    ++undeliverable_by_dest_[message.destination];
    return;
  }
  const double delay =
      latency_.base_seconds +
      (latency_.jitter_seconds > 0.0 ? uniform(rng_, 0.0, latency_.jitter_seconds)
                                     : 0.0);
  sim_->deliver(delay, *this, std::move(message));
}

void Network::deliver(const Message& message) {
  // Resolve the destination NOW, not at send time: the original node may
  // have detached (undeliverable) or been replaced under the same id (the
  // replacement receives). A send-time Node* would dangle across a
  // detach + destroy + re-attach cycle — the shard failure/rejoin flow.
  const auto it = nodes_.find(message.destination);
  if (it == nodes_.end()) {
    ++stats_.messages_undeliverable;
    ++undeliverable_by_dest_[message.destination];
    return;
  }
  ++stats_.messages_delivered;
  stats_.bytes_delivered += message.payload.size();
  it->second->on_message(message);
}

std::size_t Network::poll(double deadline) {
  const std::size_t before = stats_.messages_delivered;
  sim_->run_until(deadline);
  return stats_.messages_delivered - before;
}

std::size_t Network::run_until_idle() {
  const std::size_t before = stats_.messages_delivered;
  sim_->run();
  return stats_.messages_delivered - before;
}

}  // namespace dptd::net
