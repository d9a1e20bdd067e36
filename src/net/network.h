// Message-passing layer over the discrete-event simulator: registered nodes,
// per-link latency with jitter, probabilistic drops, and traffic accounting.
// This is the simulator-backed implementation of net::Transport; the
// socket-backed twin lives in net/socket_transport.h.
//
// Deliveries are Simulator::deliver events and fire in the simulator's
// (due time, scheduling order) order, interleaved with timers. Without
// jitter a link's due times never decrease, so its deliveries ride the
// simulator's FIFO lane (unless another link on the same simulator queued a
// later one); a delivery due before the lane's last entry takes the event
// heap. The order is the same either way.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "net/simulator.h"
#include "net/transport.h"

namespace dptd::net {

/// Link model: fixed base latency + uniform jitter, i.i.d. drop probability.
struct LatencyModel {
  double base_seconds = 0.010;    ///< e.g. 10 ms cellular one-way
  double jitter_seconds = 0.005;  ///< uniform in [0, jitter]
  double drop_probability = 0.0;  ///< per-message loss

  void validate() const;
};

class Network final : public Transport {
 public:
  Network(Simulator& sim, LatencyModel latency, std::uint64_t seed = 1);

  /// Registers a node under `id`; the node must outlive the network.
  void attach(NodeId id, Node& node) override;
  void detach(NodeId id) override;
  bool attached(NodeId id) const override;

  /// Sends a message; delivery is scheduled on the simulator (or dropped).
  /// Sending to an unknown destination counts as undeliverable. The
  /// destination is resolved again at delivery time, so a node that detaches
  /// and is replaced under the same id between send and delivery receives the
  /// message — never the stale original.
  void send(Message message) override;

  /// Transport progress contract, delegated to the simulator: poll runs the
  /// event queue up to `deadline` and jumps virtual time there (trivially
  /// conformant — delivery "waits" cost nothing), run_until_idle drains the
  /// queue.
  double now() const override { return sim_->now(); }
  std::size_t poll(double deadline) override;
  std::size_t run_until_idle() override;
  void schedule(double delay, std::function<void()> fn) override {
    sim_->schedule(delay, std::move(fn));
  }

  const NetworkStats& stats() const override { return stats_; }
  std::size_t undeliverable_to(NodeId destination) const override;
  /// Worst-case one-way delay: base + jitter.
  double drain_window_seconds() const override {
    return latency_.base_seconds + latency_.jitter_seconds;
  }

  /// The link model in force, e.g. for tests that shape traffic.
  const LatencyModel& latency() const { return latency_; }
  Simulator& simulator() { return *sim_; }

 private:
  friend class Simulator;
  /// Fires one scheduled delivery (called by the simulator).
  void deliver(const Message& message);

  Simulator* sim_;
  LatencyModel latency_;
  Rng rng_;
  std::unordered_map<NodeId, Node*> nodes_;
  NetworkStats stats_;
  std::unordered_map<NodeId, std::size_t> undeliverable_by_dest_;
};

}  // namespace dptd::net
