#include "net/simulator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "common/distributions.h"
#include "common/rng.h"
#include "net/network.h"

namespace dptd::net {
namespace {

TEST(Simulator, StartsAtTimeZero) {
  const Simulator sim;
  EXPECT_EQ(sim.now(), 0.0);
}

TEST(Simulator, ExecutesEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(3.0, [&order] { order.push_back(3); });
  sim.schedule(1.0, [&order] { order.push_back(1); });
  sim.schedule(2.0, [&order] { order.push_back(2); });
  EXPECT_EQ(sim.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulator, EqualTimesFireInFifoOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule(1.0, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Simulator, ClockAdvancesToEventTime) {
  Simulator sim;
  double seen = -1.0;
  sim.schedule(5.5, [&] { seen = sim.now(); });
  sim.run();
  EXPECT_DOUBLE_EQ(seen, 5.5);
  EXPECT_DOUBLE_EQ(sim.now(), 5.5);
}

TEST(Simulator, EventsCanScheduleMoreEvents) {
  Simulator sim;
  std::vector<double> times;
  sim.schedule(1.0, [&] {
    times.push_back(sim.now());
    sim.schedule(1.0, [&] { times.push_back(sim.now()); });
  });
  EXPECT_EQ(sim.run(), 2u);
  EXPECT_DOUBLE_EQ(times[0], 1.0);
  EXPECT_DOUBLE_EQ(times[1], 2.0);
}

TEST(Simulator, RunUntilLeavesLaterEventsPending) {
  Simulator sim;
  int fired = 0;
  sim.schedule(1.0, [&fired] { ++fired; });
  sim.schedule(10.0, [&fired] { ++fired; });
  EXPECT_EQ(sim.run_until(5.0), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.pending(), 1u);
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, ZeroDelayFiresAtCurrentTime) {
  Simulator sim;
  double seen = -1.0;
  sim.schedule(2.0, [&] {
    sim.schedule(0.0, [&] { seen = sim.now(); });
  });
  sim.run();
  EXPECT_DOUBLE_EQ(seen, 2.0);
}

TEST(Simulator, RejectsNegativeDelayAndNullEvent) {
  Simulator sim;
  EXPECT_THROW(sim.schedule(-1.0, [] {}), std::invalid_argument);
  EXPECT_THROW(sim.schedule(1.0, nullptr), std::invalid_argument);
}

TEST(Simulator, RunOnEmptyQueueIsNoOp) {
  Simulator sim;
  EXPECT_EQ(sim.run(), 0u);
  EXPECT_EQ(sim.now(), 0.0);
}

TEST(Simulator, ManyEventsAllExecute) {
  Simulator sim;
  int count = 0;
  for (int i = 0; i < 10'000; ++i) {
    sim.schedule(static_cast<double>(i % 100), [&count] { ++count; });
  }
  EXPECT_EQ(sim.run(), 10'000u);
  EXPECT_EQ(count, 10'000);
}

// --- The order contract across timers and message deliveries --------------

/// Forwards each delivered message's id (its 8-byte payload) to `on_id`.
class IdNode final : public Node {
 public:
  explicit IdNode(std::function<void(std::uint64_t)> on_id)
      : on_id_(std::move(on_id)) {}
  void on_message(const Message& message) override {
    std::uint64_t id = 0;
    std::memcpy(&id, message.payload.data(), sizeof(id));
    on_id_(id);
  }

 private:
  std::function<void(std::uint64_t)> on_id_;
};

Message id_message(std::uint64_t id) {
  Message message;
  message.source = 0;
  message.destination = 1;
  message.payload.resize(sizeof(id));
  std::memcpy(message.payload.data(), &id, sizeof(id));
  return message;
}

TEST(Simulator, RandomInterleavingFiresInDueTimeThenSchedulingOrder) {
  // Timers and zero-, constant- and jittered-latency deliveries on three
  // Networks sharing one Simulator, scheduled from outside and from inside
  // callbacks, run in run_until slices. The test-local reference: every
  // event's due time (the jitter draws replayed from the network's seed)
  // and its scheduling index; the simulator must fire them sorted by that
  // pair, each at exactly its due time.
  constexpr std::size_t kEvents = 3000;
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    Simulator sim;
    const LatencyModel zero_model{0.0, 0.0, 0.0};
    const LatencyModel constant_model{0.002, 0.0, 0.0};
    const LatencyModel jitter_model{0.001, 0.003, 0.0};
    Network zero(sim, zero_model, 1);
    Network constant(sim, constant_model, 1);
    Network jittered(sim, jitter_model, seed);
    Rng jitter_replay(seed);  // the stream `jittered` draws its delays from
    Rng choices(seed * 7919 + 17);

    std::vector<SimTime> due;  // by scheduling index (= event id)
    std::vector<std::uint64_t> fired;
    std::vector<SimTime> fired_at;
    std::function<void()> schedule_random;
    const auto on_fire = [&](std::uint64_t id) {
      fired.push_back(id);
      fired_at.push_back(sim.now());
      const std::uint64_t spawn = uniform_index(choices, 3);
      for (std::uint64_t i = 0; i < spawn && due.size() < kEvents; ++i) {
        schedule_random();
      }
    };
    IdNode zero_node(on_fire);
    IdNode constant_node(on_fire);
    IdNode jittered_node(on_fire);
    zero.attach(1, zero_node);
    constant.attach(1, constant_node);
    jittered.attach(1, jittered_node);

    schedule_random = [&] {
      const std::uint64_t id = due.size();
      switch (uniform_index(choices, 4)) {
        case 0: {
          // A coarse grid of timer delays makes ties with deliveries common.
          const SimTime delay =
              0.001 * static_cast<double>(uniform_index(choices, 4));
          due.push_back(sim.now() + delay);
          sim.schedule(delay, [&on_fire, id] { on_fire(id); });
          break;
        }
        case 1:
          due.push_back(sim.now() + zero_model.base_seconds);
          zero.send(id_message(id));
          break;
        case 2:
          due.push_back(sim.now() + constant_model.base_seconds);
          constant.send(id_message(id));
          break;
        default:
          due.push_back(sim.now() +
                        (jitter_model.base_seconds +
                         uniform(jitter_replay, 0.0,
                                 jitter_model.jitter_seconds)));
          jittered.send(id_message(id));
          break;
      }
    };

    for (int i = 0; i < 40; ++i) schedule_random();
    while (sim.pending() > 0) {
      sim.run_until(sim.now() +
                    0.0005 * static_cast<double>(uniform_index(choices, 5)));
      if (due.size() < kEvents && uniform_index(choices, 3) == 0) {
        schedule_random();  // from outside, between slices
      }
    }

    std::vector<std::uint64_t> reference(due.size());
    std::iota(reference.begin(), reference.end(), 0);
    std::stable_sort(reference.begin(), reference.end(),
                     [&](std::uint64_t a, std::uint64_t b) {
                       return due[a] < due[b];
                     });
    ASSERT_EQ(fired.size(), due.size()) << "seed " << seed;
    EXPECT_EQ(fired, reference) << "seed " << seed;
    for (std::size_t i = 0; i < fired.size(); ++i) {
      ASSERT_EQ(fired_at[i], due[fired[i]]) << "seed " << seed << " #" << i;
    }
  }
}

TEST(Simulator, EqualTimeTimersAndDeliveriesFireInSchedulingOrder) {
  // `slow` queues first, so `fast` deliveries are due before the lane's last
  // entry and take the heap: ties are broken across lane and heap alike.
  Simulator sim;
  Network slow(sim, LatencyModel{0.02, 0.0, 0.0});
  Network fast(sim, LatencyModel{0.01, 0.0, 0.0});
  std::vector<std::uint64_t> order;
  const auto record = [&order](std::uint64_t id) { order.push_back(id); };
  IdNode slow_node(record);
  IdNode fast_node(record);
  slow.attach(1, slow_node);
  fast.attach(1, fast_node);

  slow.send(id_message(0));                // t=0.02
  fast.send(id_message(1));                // t=0.01
  sim.schedule(0.01, [&] { record(2); });  // t=0.01
  fast.send(id_message(3));                // t=0.01
  sim.schedule(0.02, [&] { record(4); });  // t=0.02
  slow.send(id_message(5));                // t=0.02
  sim.schedule(0.01, [&] { record(6); });  // t=0.01
  EXPECT_EQ(sim.pending(), 7u);
  EXPECT_EQ(sim.run(), 7u);
  EXPECT_EQ(order, (std::vector<std::uint64_t>{1, 2, 3, 6, 0, 4, 5}));
}

TEST(Simulator, ZeroDelaySendFromCallbackFiresAfterQueuedEqualTimeEvents) {
  Simulator sim;
  Network instant(sim, LatencyModel{0.0, 0.0, 0.0});
  Network one_second(sim, LatencyModel{1.0, 0.0, 0.0});
  std::vector<std::uint64_t> order;
  const auto record = [&order](std::uint64_t id) { order.push_back(id); };
  IdNode instant_node(record);
  IdNode one_second_node(record);
  instant.attach(1, instant_node);
  one_second.attach(1, one_second_node);

  sim.schedule(1.0, [&] {
    record(0);
    instant.send(id_message(3));             // due now, behind 1 and 2
    sim.schedule(0.0, [&] { record(4); });  // and behind 3
  });
  one_second.send(id_message(1));
  sim.schedule(1.0, [&] { record(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<std::uint64_t>{0, 1, 2, 3, 4}));
  EXPECT_DOUBLE_EQ(sim.now(), 1.0);
}

TEST(Simulator, PendingCountsDeliveriesAndRunUntilLeavesLaterOnesQueued) {
  Simulator sim;
  Network net(sim, LatencyModel{1.0, 0.0, 0.0});
  std::vector<std::uint64_t> order;
  IdNode node([&order](std::uint64_t id) { order.push_back(id); });
  net.attach(1, node);

  for (std::uint64_t id = 0; id < 3; ++id) net.send(id_message(id));
  EXPECT_EQ(sim.pending(), 3u);
  sim.schedule(5.0, [&order] { order.push_back(9); });
  EXPECT_EQ(sim.pending(), 4u);

  EXPECT_EQ(sim.run_until(0.5), 0u);
  EXPECT_EQ(sim.pending(), 4u);
  EXPECT_DOUBLE_EQ(sim.now(), 0.5);
  net.send(id_message(3));  // due 1.5
  EXPECT_EQ(sim.pending(), 5u);

  EXPECT_EQ(sim.run_until(1.2), 3u);
  EXPECT_EQ(order, (std::vector<std::uint64_t>{0, 1, 2}));
  EXPECT_EQ(sim.pending(), 2u);
  EXPECT_DOUBLE_EQ(sim.now(), 1.2);

  EXPECT_EQ(net.poll(1.5), 1u);
  EXPECT_EQ(sim.pending(), 1u);
  EXPECT_EQ(sim.run(), 1u);
  EXPECT_EQ(order, (std::vector<std::uint64_t>{0, 1, 2, 3, 9}));
  EXPECT_EQ(sim.pending(), 0u);
}

}  // namespace
}  // namespace dptd::net
