// Discrete-event simulator: a virtual clock plus an event queue with
// deterministic FIFO tie-breaking. Substrate for the simulated crowd sensing
// system: simulated devices and links stand in for the paper's real mobile
// devices and their network.
//
// Order contract: every event — a timer from schedule() or a message
// delivery from deliver() — gets its due time and the next value of one
// sequence counter, and events fire in ascending (time, sequence) order. So
// events at equal times fire in scheduling order, whichever kind they are.
//
// Two queues keep that order. Deliveries due no earlier than the last entry
// of a FIFO lane are appended to it with their Message stored inline (no
// closure, no heap sift): with one constant-latency link on the simulator,
// every delivery qualifies, because its due times never decrease. Timers and
// deliveries due before the lane's last entry (e.g. a jittered message
// overtaking an earlier send) go to a binary heap. The lane is sorted by
// construction, so the run loop fires whichever of the lane front and the
// heap top comes first.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <queue>
#include <vector>

#include "net/transport.h"

namespace dptd::net {

/// Virtual time in seconds.
using SimTime = double;

class Network;

class Simulator {
 public:
  SimTime now() const { return now_; }

  /// Schedules `fn` to run at now() + delay (delay >= 0).
  /// Events at equal times fire in scheduling order.
  void schedule(SimTime delay, std::function<void()> fn);

  /// Schedules `network` to deliver `message` at now() + delay (delay >= 0),
  /// in the same (time, sequence) order as schedule(). `network` must
  /// outlive the delivery. Network::send is the caller; it hands over its
  /// message by reference, which spares every report one Message move.
  void deliver(SimTime delay, Network& network, Message&& message);

  /// Runs events until the queue empties. Returns the number executed.
  std::size_t run();

  /// Runs events with time <= deadline; leaves later events queued.
  std::size_t run_until(SimTime deadline);

  /// Queued events: timers and deliveries.
  std::size_t pending() const { return queue_.size() + lane_.size(); }

 private:
  struct Event {
    SimTime time;
    std::uint64_t seq;  // FIFO among equal times
    std::function<void()> fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };
  struct Delivery {
    SimTime time;
    std::uint64_t seq;
    Network* network;
    Message message;
  };

  /// Fires the earliest queued event if it is due by `deadline`; returns
  /// false (firing nothing) otherwise.
  bool fire_next(SimTime deadline);

  SimTime now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
  std::deque<Delivery> lane_;  ///< ascending (time, seq)
};

}  // namespace dptd::net
