#include "net/simulator.h"

#include <limits>

#include "common/check.h"
#include "net/network.h"

namespace dptd::net {

void Simulator::schedule(SimTime delay, std::function<void()> fn) {
  DPTD_REQUIRE(delay >= 0.0, "Simulator::schedule: negative delay");
  DPTD_REQUIRE(fn != nullptr, "Simulator::schedule: null event");
  queue_.push(Event{now_ + delay, next_seq_++, std::move(fn)});
}

void Simulator::deliver(SimTime delay, Network& network, Message&& message) {
  DPTD_REQUIRE(delay >= 0.0, "Simulator::deliver: negative delay");
  const SimTime time = now_ + delay;
  if (lane_.empty() || time >= lane_.back().time) {
    lane_.push_back(Delivery{time, next_seq_++, &network, std::move(message)});
    return;
  }
  queue_.push(Event{time, next_seq_++,
                    [net = &network, msg = std::move(message)]() mutable {
                      net->deliver(msg);
                    }});
}

bool Simulator::fire_next(SimTime deadline) {
  const bool lane_first =
      !lane_.empty() &&
      (queue_.empty() || lane_.front().time < queue_.top().time ||
       (lane_.front().time == queue_.top().time &&
        lane_.front().seq < queue_.top().seq));
  if (lane_first) {
    if (lane_.front().time > deadline) return false;
    // Moved out before firing: the handler may queue more deliveries or run
    // the simulator re-entrantly.
    Delivery delivery = std::move(lane_.front());
    lane_.pop_front();
    now_ = delivery.time;
    delivery.network->deliver(delivery.message);
    return true;
  }
  if (queue_.empty() || queue_.top().time > deadline) return false;
  // priority_queue::top is const; the handler is moved out via const_cast,
  // which is safe because the element is popped immediately after.
  Event event = std::move(const_cast<Event&>(queue_.top()));
  queue_.pop();
  now_ = event.time;
  event.fn();
  return true;
}

std::size_t Simulator::run() {
  std::size_t executed = 0;
  while (fire_next(std::numeric_limits<SimTime>::infinity())) ++executed;
  return executed;
}

std::size_t Simulator::run_until(SimTime deadline) {
  std::size_t executed = 0;
  while (fire_next(deadline)) ++executed;
  if (now_ < deadline) now_ = deadline;
  return executed;
}

}  // namespace dptd::net
