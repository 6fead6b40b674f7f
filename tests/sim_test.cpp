// Tests for the discrete-event simulator: ordering, cancellation, timers.

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "iq/sim/event_queue.hpp"
#include "iq/sim/simulator.hpp"
#include "iq/sim/timer.hpp"

namespace iq::sim {
namespace {

TEST(EventQueueTest, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(TimePoint::from_ns(30), [&] { order.push_back(3); });
  q.schedule(TimePoint::from_ns(10), [&] { order.push_back(1); });
  q.schedule(TimePoint::from_ns(20), [&] { order.push_back(2); });
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, EqualTimesFifo) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule(TimePoint::from_ns(5), [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.pop().fn();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueueTest, CancelPreventsExecution) {
  EventQueue q;
  bool ran = false;
  const EventId id = q.schedule(TimePoint::from_ns(1), [&] { ran = true; });
  EXPECT_TRUE(q.cancel(id));
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(q.cancel(id));  // double cancel
  EXPECT_FALSE(ran);
}

TEST(EventQueueTest, CancelMiddleKeepsOthers) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(TimePoint::from_ns(1), [&] { order.push_back(1); });
  const EventId id =
      q.schedule(TimePoint::from_ns(2), [&] { order.push_back(2); });
  q.schedule(TimePoint::from_ns(3), [&] { order.push_back(3); });
  q.cancel(id);
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(EventQueueTest, NextTimeSkipsCancelled) {
  EventQueue q;
  const EventId id = q.schedule(TimePoint::from_ns(1), [] {});
  q.schedule(TimePoint::from_ns(9), [] {});
  q.cancel(id);
  EXPECT_EQ(q.next_time(), TimePoint::from_ns(9));
}

// Regression: cancelling an event that already fired used to decrement the
// live count anyway, eventually making the queue report empty while events
// were still pending. Stale handles must be rejected outright.
TEST(EventQueueTest, CancelAfterFireRejected) {
  EventQueue q;
  const EventId fired = q.schedule(TimePoint::from_ns(1), [] {});
  q.schedule(TimePoint::from_ns(2), [] {});
  q.pop().fn();  // `fired` executes
  EXPECT_FALSE(q.cancel(fired));
  EXPECT_EQ(q.size(), 1u);
  EXPECT_FALSE(q.empty());
  q.pop();
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, DoubleCancelDoesNotCorruptCount) {
  EventQueue q;
  const EventId id = q.schedule(TimePoint::from_ns(1), [] {});
  q.schedule(TimePoint::from_ns(2), [] {});
  q.schedule(TimePoint::from_ns(3), [] {});
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));
  EXPECT_EQ(q.size(), 2u);
  int popped = 0;
  while (!q.empty()) {
    q.pop();
    ++popped;
  }
  EXPECT_EQ(popped, 2);
}

// A stale handle whose slot has been reused by a newer event must not
// cancel the newer event.
TEST(EventQueueTest, StaleHandleCannotCancelReusedSlot) {
  EventQueue q;
  const EventId old_id = q.schedule(TimePoint::from_ns(1), [] {});
  q.pop();  // frees the slot
  bool ran = false;
  q.schedule(TimePoint::from_ns(2), [&] { ran = true; });
  EXPECT_FALSE(q.cancel(old_id));
  ASSERT_FALSE(q.empty());
  q.pop().fn();
  EXPECT_TRUE(ran);
}

TEST(EventQueueTest, CancelOfGarbageIdsRejected) {
  EventQueue q;
  q.schedule(TimePoint::from_ns(1), [] {});
  EXPECT_FALSE(q.cancel(0));
  EXPECT_FALSE(q.cancel(0xffffffffffffffffull));
  EXPECT_EQ(q.size(), 1u);
}

TEST(SimulatorTest, ClockAdvancesWithEvents) {
  Simulator sim;
  TimePoint seen;
  sim.after(Duration::millis(5), [&] { seen = sim.now(); });
  sim.run();
  EXPECT_EQ(seen, TimePoint::zero() + Duration::millis(5));
  EXPECT_EQ(sim.now(), seen);
}

TEST(SimulatorTest, NestedScheduling) {
  Simulator sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) sim.after(Duration::millis(1), recurse);
  };
  sim.after(Duration::millis(1), recurse);
  sim.run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(sim.now().ns(), Duration::millis(5).ns());
}

TEST(SimulatorTest, RunUntilStopsAtDeadline) {
  Simulator sim;
  int count = 0;
  PeriodicTask task(sim, Duration::millis(10), [&] { ++count; });
  task.start();
  sim.run_until(TimePoint::zero() + Duration::millis(95));
  EXPECT_EQ(count, 9);
  EXPECT_EQ(sim.now(), TimePoint::zero() + Duration::millis(95));
}

TEST(SimulatorTest, RunUntilAdvancesClockWithoutEvents) {
  Simulator sim;
  sim.run_until(TimePoint::zero() + Duration::seconds(3));
  EXPECT_EQ(sim.now().to_seconds(), 3.0);
}

TEST(SimulatorTest, EventBudgetStopsRunaway) {
  Simulator sim;
  std::function<void()> forever = [&] {
    sim.after(Duration::nanos(1), forever);
  };
  sim.after(Duration::nanos(1), forever);
  sim.set_event_budget(1000);
  sim.run();
  EXPECT_EQ(sim.events_executed(), 1000u);
}

TEST(SimulatorTest, ScheduleBetweenClockAndNextEventAfterRunUntil) {
  // run_until(10 ms) refuses the event at 50 ms, which leaves the wheel's
  // position there while the clock stops at 10 ms. Events scheduled in
  // between, and a second one at 50 ms, still fire in (time, insertion)
  // order with the clock at each deadline.
  Simulator sim;
  const auto ms = [](std::int64_t v) {
    return TimePoint::zero() + Duration::millis(v);
  };
  std::vector<std::pair<int, TimePoint>> fired;
  const auto record = [&](int tag) {
    return [&fired, &sim, tag] { fired.emplace_back(tag, sim.now()); };
  };
  sim.at(ms(50), record(0));
  sim.run_until(ms(10));
  EXPECT_TRUE(fired.empty());
  EXPECT_EQ(sim.now(), ms(10));
  sim.at(ms(20), record(1));
  sim.at(ms(50), record(2));
  sim.run();
  EXPECT_EQ(fired, (std::vector<std::pair<int, TimePoint>>{
                       {1, ms(20)}, {0, ms(50)}, {2, ms(50)}}));
  EXPECT_EQ(sim.events_executed(), 3u);
}

TEST(TimerTest, FiresOnceAtExpiry) {
  Simulator sim;
  int fires = 0;
  Timer t(sim, [&] { ++fires; });
  t.start(Duration::millis(7));
  EXPECT_TRUE(t.pending());
  sim.run();
  EXPECT_EQ(fires, 1);
  EXPECT_FALSE(t.pending());
}

TEST(TimerTest, RestartReplacesPending) {
  Simulator sim;
  int fires = 0;
  Timer t(sim, [&] { ++fires; });
  t.start(Duration::millis(5));
  t.start(Duration::millis(20));
  sim.run_until(TimePoint::zero() + Duration::millis(10));
  EXPECT_EQ(fires, 0);
  sim.run();
  EXPECT_EQ(fires, 1);
}

TEST(TimerTest, StartIfIdleDoesNotRestart) {
  Simulator sim;
  Timer t(sim, [] {});
  t.start(Duration::millis(5));
  const TimePoint expiry = t.expiry();
  t.start_if_idle(Duration::millis(50));
  EXPECT_EQ(t.expiry(), expiry);
}

TEST(TimerTest, StopCancels) {
  Simulator sim;
  int fires = 0;
  Timer t(sim, [&] { ++fires; });
  t.start(Duration::millis(5));
  t.stop();
  sim.run();
  EXPECT_EQ(fires, 0);
}

TEST(TimerTest, DestructionCancels) {
  Simulator sim;
  int fires = 0;
  {
    Timer t(sim, [&] { ++fires; });
    t.start(Duration::millis(5));
  }
  sim.run();
  EXPECT_EQ(fires, 0);
}

TEST(TimerTest, RestartableFromCallback) {
  Simulator sim;
  int fires = 0;
  Timer* ptr = nullptr;
  Timer t(sim, [&] {
    if (++fires < 3) ptr->start(Duration::millis(1));
  });
  ptr = &t;
  t.start(Duration::millis(1));
  sim.run();
  EXPECT_EQ(fires, 3);
}

TEST(PeriodicTaskTest, FiresAtInterval) {
  Simulator sim;
  std::vector<std::int64_t> at;
  PeriodicTask task(sim, Duration::millis(10),
                    [&] { at.push_back(sim.now().ns()); });
  task.start();
  sim.run_until(TimePoint::zero() + Duration::millis(35));
  ASSERT_EQ(at.size(), 3u);
  EXPECT_EQ(at[0], Duration::millis(10).ns());
  EXPECT_EQ(at[2], Duration::millis(30).ns());
}

TEST(PeriodicTaskTest, FireNowStartsImmediately) {
  Simulator sim;
  int count = 0;
  PeriodicTask task(sim, Duration::millis(10), [&] { ++count; });
  task.start(/*fire_now=*/true);
  sim.run_until(TimePoint::zero() + Duration::millis(5));
  EXPECT_EQ(count, 1);
}

TEST(PeriodicTaskTest, CallbackCanStopTask) {
  Simulator sim;
  int count = 0;
  PeriodicTask* ptr = nullptr;
  PeriodicTask task(sim, Duration::millis(1), [&] {
    if (++count == 4) ptr->stop();
  });
  ptr = &task;
  task.start();
  sim.run_until(TimePoint::zero() + Duration::seconds(1));
  EXPECT_EQ(count, 4);
  EXPECT_TRUE(sim.idle());
}

}  // namespace
}  // namespace iq::sim
