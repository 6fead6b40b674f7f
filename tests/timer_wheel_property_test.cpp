// Differential test of the hierarchical TimerWheel against the indexed
// 4-ary EventQueue as the reference model.
//
// The wheel replaces the heap inside Simulator and RealtimeLoop, so its
// observable behaviour must be *identical*: the same (time, insertion-seq)
// fire order (this is what keeps CityScale's cross-shard digests
// bit-identical at every shard count), the same cancel results for live,
// fired, stale and double-cancelled handles, the same size accounting and
// the same next_time() at every step. Random interleavings of
// schedule/rearm/cancel/fire across seeds 1–24 drive deadlines through
// every wheel level: same-nanosecond collisions (level-0 FIFO pileups),
// near rearm-style horizons, far-future deadlines that must cascade down
// multiple levels before firing, and deadlines behind the wheel's position
// (legal on the realtime path) that join its fire heap but keep their
// ordering key. Bounded pops (pop_until) refuse events beyond their bound,
// which can leave the wheel's position ahead of the caller's clock.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "iq/common/rng.hpp"
#include "iq/sim/event_queue.hpp"
#include "iq/sim/timer_wheel.hpp"

namespace iq::sim {
namespace {

TEST(TimerWheelPropertyTest, MatchesEventHeapUnderRandomChurn) {
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    Rng rng(seed);
    TimerWheel wheel;
    EventQueue ref;

    std::vector<std::size_t> wheel_fired;
    std::vector<std::size_t> ref_fired;
    std::vector<EventId> wheel_ids;  // schedule order -> handle
    std::vector<EventId> ref_ids;
    std::size_t scheduled = 0;
    std::int64_t fired_at = 0;  // time of the last fired event

    const auto schedule_both = [&](TimePoint at) {
      const std::size_t tag = scheduled++;
      wheel_ids.push_back(wheel.schedule(
          at, [&wheel_fired, tag] { wheel_fired.push_back(tag); }));
      ref_ids.push_back(ref.schedule(
          at, [&ref_fired, tag] { ref_fired.push_back(tag); }));
    };

    const auto random_deadline = [&]() {
      const double kind = rng.uniform01();
      if (kind < 0.40) {
        // Coarse near-term offsets: plenty of same-ns collisions.
        return TimePoint::from_ns(fired_at + rng.uniform_int(0, 199));
      }
      if (kind < 0.70) {
        // Rearm-style horizons (RTO/keepalive scale).
        return TimePoint::from_ns(fired_at +
                                  rng.uniform_int(1'000, 400'000'000));
      }
      if (kind < 0.90) {
        // Far future: forces placement at high wheel levels and multi-step
        // cascades back down before firing.
        const int shift = static_cast<int>(rng.uniform_int(30, 55));
        return TimePoint::from_ns(fired_at + (std::int64_t{1} << shift) +
                                  rng.uniform_int(0, 9999));
      }
      // Behind the last fired deadline — the realtime path schedules these;
      // both sides must order them by their original timestamp.
      return TimePoint::from_ns(
          std::max<std::int64_t>(0, fired_at - rng.uniform_int(0, 5000)));
    };

    for (int op = 0; op < 15'000; ++op) {
      const double roll = rng.uniform01();
      if (roll < 0.40 || wheel.empty()) {
        schedule_both(random_deadline());
      } else if (roll < 0.55) {
        // Rearm: cancel a random handle and, if it was live, reschedule.
        const auto pick = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(wheel_ids.size()) - 1));
        const bool wheel_ok = wheel.cancel(wheel_ids[pick]);
        const bool ref_ok = ref.cancel(ref_ids[pick]);
        ASSERT_EQ(wheel_ok, ref_ok) << "rearm-cancel divergence at op " << op
                                    << " seed " << seed;
        if (wheel_ok) schedule_both(random_deadline());
      } else if (roll < 0.75) {
        // Cancel a random handle — live, fired, or already cancelled; the
        // generation check must reject stale handles identically.
        const auto pick = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(wheel_ids.size()) - 1));
        EXPECT_EQ(wheel.cancel(wheel_ids[pick]), ref.cancel(ref_ids[pick]))
            << "cancel divergence at op " << op << " seed " << seed;
      } else {
        ASSERT_FALSE(wheel.empty());
        ASSERT_EQ(wheel.next_time(), ref.next_time())
            << "next_time divergence at op " << op << " seed " << seed;
        auto from_wheel = wheel.pop();
        auto from_ref = ref.pop();
        ASSERT_EQ(from_wheel.at, from_ref.at)
            << "pop-time divergence at op " << op << " seed " << seed;
        fired_at = from_wheel.at.ns();
        from_wheel.fn();
        from_ref.fn();
        ASSERT_EQ(wheel_fired.back(), ref_fired.back())
            << "fire-order divergence at op " << op << " seed " << seed;
      }
      ASSERT_EQ(wheel.size(), ref.size())
          << "size divergence at op " << op << " seed " << seed;
      ASSERT_EQ(wheel.empty(), ref.empty());
    }

    // Drain both completely; the full tag sequences must be identical.
    while (!wheel.empty()) {
      ASSERT_EQ(wheel.next_time(), ref.next_time()) << "seed " << seed;
      auto from_wheel = wheel.pop();
      auto from_ref = ref.pop();
      ASSERT_EQ(from_wheel.at, from_ref.at) << "seed " << seed;
      from_wheel.fn();
      from_ref.fn();
    }
    EXPECT_TRUE(ref.empty());
    EXPECT_EQ(wheel.next_time(), TimePoint::max());
    ASSERT_EQ(wheel_fired, ref_fired) << "seed " << seed;
  }
}

TEST(TimerWheelPropertyTest, PopUntilMatchesEventHeap) {
  // Bounded pops against the heap's "next_time() <= bound ? pop() :
  // nothing". A refusal can leave the wheel's position at the refused
  // event, ahead of the last fired time (the caller's clock), so the run
  // schedules into that gap and rearms and cancels entries the refusal
  // pulled into the fire heap.
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    Rng rng(seed);
    TimerWheel wheel;
    EventQueue ref;

    std::vector<std::size_t> wheel_fired;
    std::vector<std::size_t> ref_fired;
    std::vector<EventId> wheel_ids;  // tag -> handle
    std::vector<EventId> ref_ids;
    std::vector<std::int64_t> deadline;  // tag -> deadline
    std::int64_t clock = 0;     // time of the last fired event
    std::int64_t refused = -1;  // event the last pop refused, -1 if none
    int refusals = 0;
    int gap_schedules = 0;
    int heap_cancels = 0;

    const auto schedule_both = [&](std::int64_t at) {
      const std::size_t tag = deadline.size();
      deadline.push_back(at);
      wheel_ids.push_back(wheel.schedule(
          TimePoint::from_ns(at),
          [&wheel_fired, tag] { wheel_fired.push_back(tag); }));
      ref_ids.push_back(ref.schedule(
          TimePoint::from_ns(at),
          [&ref_fired, tag] { ref_fired.push_back(tag); }));
    };
    const auto random_deadline = [&]() -> std::int64_t {
      const double kind = rng.uniform01();
      if (refused > clock + 1 && kind < 0.35) {
        // Between the clock and the refused event: at or before the
        // wheel's position, after everything that has fired.
        ++gap_schedules;
        return rng.uniform_int(clock, refused - 1);
      }
      if (kind < 0.55) return clock + rng.uniform_int(0, 199);
      if (kind < 0.85) return clock + rng.uniform_int(1'000, 4'000'000);
      if (kind < 0.95) {
        const int shift = static_cast<int>(rng.uniform_int(30, 55));
        return clock + (std::int64_t{1} << shift) + rng.uniform_int(0, 9999);
      }
      return std::max<std::int64_t>(0, clock - rng.uniform_int(0, 5000));
    };
    // A recent tag due at or before the wheel's position, which is in the
    // fire heap whether live or not; -1 if a few draws find none.
    const auto heap_tag = [&]() -> std::int64_t {
      const std::int64_t horizon = std::max(clock, refused);
      const auto n = static_cast<std::int64_t>(deadline.size());
      for (int tries = 0; tries < 8 && n > 0; ++tries) {
        const std::int64_t tag =
            rng.uniform_int(std::max<std::int64_t>(0, n - 64), n - 1);
        if (deadline[static_cast<std::size_t>(tag)] <= horizon) return tag;
      }
      return -1;
    };

    for (int op = 0; op < 15'000; ++op) {
      const double roll = rng.uniform01();
      if (roll < 0.35 || wheel.empty()) {
        schedule_both(random_deadline());
      } else if (roll < 0.50) {
        // Rearm or cancel, half the time an entry in the fire heap.
        std::int64_t tag = rng.uniform01() < 0.5 ? heap_tag() : -1;
        if (tag < 0) {
          tag = rng.uniform_int(
              0, static_cast<std::int64_t>(deadline.size()) - 1);
        } else {
          ++heap_cancels;
        }
        const auto pick = static_cast<std::size_t>(tag);
        const bool wheel_ok = wheel.cancel(wheel_ids[pick]);
        ASSERT_EQ(wheel_ok, ref.cancel(ref_ids[pick]))
            << "cancel divergence at op " << op << " seed " << seed;
        if (wheel_ok && rng.uniform01() < 0.7) schedule_both(random_deadline());
      } else {
        const std::int64_t next = ref.next_time().ns();
        const double kind = rng.uniform01();
        const std::int64_t spread = std::int64_t{1} << rng.uniform_int(0, 30);
        std::int64_t bound = next;
        if (kind < 0.4) {
          bound = next - rng.uniform_int(1, spread);
        } else if (kind < 0.8) {
          bound = next + rng.uniform_int(0, spread);
        }
        auto got = wheel.pop_until(TimePoint::from_ns(bound));
        if (next <= bound) {
          ASSERT_TRUE(got.has_value())
              << "refused a due event at op " << op << " seed " << seed;
          auto want = ref.pop();
          ASSERT_EQ(got->at, want.at)
              << "pop-time divergence at op " << op << " seed " << seed;
          got->fn();
          want.fn();
          ASSERT_EQ(wheel_fired.back(), ref_fired.back())
              << "fire-order divergence at op " << op << " seed " << seed;
          clock = std::max(clock, got->at.ns());
          refused = -1;
        } else {
          ASSERT_FALSE(got.has_value())
              << "popped an event after the bound at op " << op << " seed "
              << seed;
          refused = next;
          ++refusals;
        }
      }
      ASSERT_EQ(wheel.next_time(), ref.next_time())
          << "next_time divergence at op " << op << " seed " << seed;
      ASSERT_EQ(wheel.size(), ref.size())
          << "size divergence at op " << op << " seed " << seed;
    }

    while (auto got = wheel.pop_until(TimePoint::max())) {
      auto want = ref.pop();
      ASSERT_EQ(got->at, want.at) << "seed " << seed;
      got->fn();
      want.fn();
    }
    EXPECT_TRUE(ref.empty());
    ASSERT_EQ(wheel_fired, ref_fired) << "seed " << seed;
    // The run must exercise what it is named for.
    EXPECT_GT(refusals, 500) << "seed " << seed;
    EXPECT_GT(gap_schedules, 200) << "seed " << seed;
    EXPECT_GT(heap_cancels, 200) << "seed " << seed;
  }
}

// One side of a lockstep run in which the callbacks themselves schedule and
// cancel, against the queue that fired them: a fired event may schedule a
// zero-delay follow-up (it joins the same-instant batch being drained), a
// follow-up behind the clock, and cancel an event that joined the current
// batch after its draining began, fired or not. Both sides seed the same Rng,
// so while their fire orders agree they make the same choices.
template <typename Queue>
struct BatchChurn {
  static constexpr std::size_t kMaxEvents = 40'000;

  explicit BatchChurn(std::uint64_t seed) : rng(seed) {}

  void schedule(std::int64_t at_ns) {
    const std::size_t tag = ids.size();
    ids.push_back(
        q.schedule(TimePoint::from_ns(at_ns), [this, tag] { fire(tag); }));
  }

  void fire(std::size_t tag) {
    fired.push_back(tag);
    if (ids.size() >= kMaxEvents) return;
    const double roll = rng.uniform01();
    if (roll < 0.45) {
      joined.push_back(ids.size());
      schedule(clock);
    }
    if (roll > 0.80) {
      schedule(std::max<std::int64_t>(0, clock - rng.uniform_int(1, 2000)));
    }
    if (!joined.empty() && rng.uniform01() < 0.3) {
      const auto pick = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(joined.size()) - 1));
      cancels.push_back(q.cancel(ids[joined[pick]]));
    }
  }

  /// Pop and run one event. The clock is the latest instant popped so far,
  /// as on the realtime path, where a late event fires after its deadline.
  TimePoint step() {
    auto ev = q.pop();
    if (ev.at.ns() > clock) {
      clock = ev.at.ns();
      joined.clear();
    }
    ev.fn();
    return ev.at;
  }

  Queue q;
  Rng rng;
  std::int64_t clock = 0;
  std::vector<EventId> ids;          ///< tag -> handle
  std::vector<std::size_t> fired;    ///< tags in fire order
  std::vector<std::size_t> joined;   ///< tags scheduled at the current clock
  std::vector<bool> cancels;         ///< results of callback cancels
};

TEST(TimerWheelPropertyTest, CallbacksScheduleAndCancelInsideSameInstantBatch) {
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    BatchChurn<TimerWheel> wheel(seed);
    BatchChurn<EventQueue> ref(seed);
    Rng plan(seed + 1000);
    const auto both = [&](std::int64_t at_ns) {
      wheel.schedule(at_ns);
      ref.schedule(at_ns);
    };
    const auto pop_both = [&] {
      const TimePoint at = wheel.step();
      ASSERT_EQ(at, ref.step()) << "pop-time divergence, seed " << seed;
      ASSERT_EQ(wheel.fired.back(), ref.fired.back())
          << "fire-order divergence, seed " << seed;
      ASSERT_EQ(wheel.cancels.size(), ref.cancels.size()) << "seed " << seed;
      if (!wheel.cancels.empty()) {
        ASSERT_EQ(wheel.cancels.back(), ref.cancels.back())
            << "cancel divergence, seed " << seed;
      }
      ASSERT_EQ(wheel.q.size(), ref.q.size()) << "seed " << seed;
      ASSERT_EQ(wheel.q.next_time(), ref.q.next_time())
          << "next_time divergence after a pop, seed " << seed;
    };

    std::int64_t at = 0;
    for (int round = 0; round < 200; ++round) {
      // The next batch lies 1 ns to ~1 ms ahead, so it starts from a bucket
      // at any of the low wheel levels; noise lands around it.
      at += plan.uniform_int(1, std::int64_t{1} << plan.uniform_int(1, 20));
      const auto batch = plan.uniform_int(1, 64);
      for (std::int64_t i = 0; i < batch; ++i) both(at);
      for (int i = 0; i < 4; ++i) both(at + plan.uniform_int(0, 300));
      while (!wheel.q.empty() && wheel.q.next_time().ns() <= at) {
        pop_both();
        if (HasFatalFailure()) return;
      }
    }
    while (!wheel.q.empty()) {
      pop_both();
      if (HasFatalFailure()) return;
    }
    EXPECT_TRUE(ref.q.empty());
    EXPECT_EQ(wheel.fired, ref.fired) << "seed " << seed;
    // The run must exercise what it is named for.
    EXPECT_GT(wheel.ids.size(), 10'000u) << "seed " << seed;
    EXPECT_GT(std::count(wheel.cancels.begin(), wheel.cancels.end(), true), 50)
        << "seed " << seed;
  }
}

TEST(TimerWheelPropertyTest, LateSchedulesAndCancelsWithoutPopsKeepHeapOrder) {
  // Late deadlines join the wheel's fire heap, where a cancel leaves a stale
  // reference; with no pop in between, the heap drops stale references
  // whenever it is full and half stale. The survivors must still fire in
  // the reference heap's order.
  Rng rng(9);
  TimerWheel wheel;
  EventQueue ref;
  std::vector<int> wheel_order;
  std::vector<int> ref_order;
  std::vector<EventId> wheel_ids;
  std::vector<EventId> ref_ids;
  wheel.schedule(TimePoint::from_ns(1'000'000), [] {});
  ref.schedule(TimePoint::from_ns(1'000'000), [] {});
  (void)wheel.pop();  // the wheel now stands at 1 ms
  (void)ref.pop();
  // Most schedules rearm one of eight timers (cancelling its pending
  // event); the rest are one-shots that stay live across the heap's drops.
  std::vector<int> armed(8, -1);  // timer -> tag of its pending event
  for (int i = 0; i < 5000; ++i) {
    const auto at = TimePoint::from_ns(1'000'000 - rng.uniform_int(0, 999));
    wheel_ids.push_back(
        wheel.schedule(at, [&wheel_order, i] { wheel_order.push_back(i); }));
    ref_ids.push_back(
        ref.schedule(at, [&ref_order, i] { ref_order.push_back(i); }));
    if (rng.uniform01() < 0.8) {
      int& pending = armed[static_cast<std::size_t>(rng.uniform_int(0, 7))];
      if (pending >= 0) {
        const auto tag = static_cast<std::size_t>(pending);
        ASSERT_TRUE(wheel.cancel(wheel_ids[tag])) << "rearm at " << i;
        ASSERT_TRUE(ref.cancel(ref_ids[tag]));
      }
      pending = i;
    }
  }
  ASSERT_EQ(wheel.size(), ref.size());
  while (!wheel.empty()) {
    ASSERT_EQ(wheel.next_time(), ref.next_time());
    wheel.pop().fn();
    ref.pop().fn();
  }
  EXPECT_TRUE(ref.empty());
  EXPECT_EQ(wheel_order, ref_order);
  EXPECT_GT(wheel_order.size(), 1000u);
}

TEST(TimerWheelPropertyTest, EqualTimestampsFireFifoUnderChurn) {
  Rng rng(5);
  TimerWheel wheel;
  // Interleave schedules at one timestamp with noise at other times; the
  // single-timestamp group must fire in insertion order even though the
  // wheel batches the pileup through its fire heap.
  std::vector<int> fired;
  std::vector<EventId> noise;
  int next_tag = 0;
  for (int round = 0; round < 300; ++round) {
    const int tag = next_tag++;
    wheel.schedule(TimePoint::from_ns(1000),
                   [&fired, tag] { fired.push_back(tag); });
    noise.push_back(
        wheel.schedule(TimePoint::from_ns(rng.uniform_int(0, 2000)), [] {}));
    if (round % 3 == 0 && !noise.empty()) {
      const auto pick = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(noise.size()) - 1));
      wheel.cancel(noise[pick]);
    }
  }
  while (!wheel.empty()) wheel.pop().fn();
  ASSERT_EQ(fired.size(), 300u);
  for (int i = 0; i < 300; ++i) EXPECT_EQ(fired[i], i);
}

TEST(TimerWheelPropertyTest, StaleAndDoubleCancelStructurallyRejected) {
  TimerWheel wheel;
  const EventId a = wheel.schedule(TimePoint::from_ns(10), [] {});
  const EventId b = wheel.schedule(TimePoint::from_ns(20), [] {});

  EXPECT_TRUE(wheel.cancel(a));
  EXPECT_FALSE(wheel.cancel(a)) << "double cancel must be rejected";

  (void)wheel.pop();  // fires b
  EXPECT_FALSE(wheel.cancel(b)) << "cancel-after-fire must be rejected";

  // A recycled slot gets a fresh generation, so the old handle stays dead
  // even once the slot is reused.
  const EventId c = wheel.schedule(TimePoint::from_ns(30), [] {});
  EXPECT_FALSE(wheel.cancel(a));
  EXPECT_FALSE(wheel.cancel(b));
  EXPECT_TRUE(wheel.cancel(c));

  // Garbage ids.
  EXPECT_FALSE(wheel.cancel(0));
  EXPECT_FALSE(wheel.cancel(~EventId{0}));
  EXPECT_TRUE(wheel.empty());
}

TEST(TimerWheelPropertyTest, CancelOfBatchedSameNsEntryIsHonoured) {
  // Force a same-ns pileup, fire part of it, then cancel an entry that is
  // already staged in the wheel's internal fire batch — the cancel must
  // still return true exactly once and the entry must not fire.
  TimerWheel wheel;
  std::vector<int> fired;
  std::vector<EventId> ids;
  for (int i = 0; i < 8; ++i) {
    ids.push_back(wheel.schedule(TimePoint::from_ns(100),
                                 [&fired, i] { fired.push_back(i); }));
  }
  wheel.pop().fn();  // fires 0; 1..7 are now staged internally
  EXPECT_TRUE(wheel.cancel(ids[3]));
  EXPECT_FALSE(wheel.cancel(ids[3]));
  EXPECT_EQ(wheel.size(), 6u);
  while (!wheel.empty()) wheel.pop().fn();
  ASSERT_EQ(fired, (std::vector<int>{0, 1, 2, 4, 5, 6, 7}));
}

TEST(TimerWheelPropertyTest, FarFutureDeadlinesCascadeInOrder) {
  // Deadlines spread over ~16 orders of magnitude land on every wheel level
  // and must still fire in exact (time, insertion) order, including the
  // same-deadline pair planted at each magnitude.
  TimerWheel wheel;
  EventQueue ref;
  std::vector<std::int64_t> wheel_order;
  std::vector<std::int64_t> ref_order;
  std::int64_t tag = 0;
  for (int shift = 0; shift < 55; ++shift) {
    const std::int64_t at = (std::int64_t{1} << shift) + shift;
    for (int dup = 0; dup < 2; ++dup) {
      const std::int64_t t = tag++;
      wheel.schedule(TimePoint::from_ns(at),
                     [&wheel_order, t] { wheel_order.push_back(t); });
      ref.schedule(TimePoint::from_ns(at),
                   [&ref_order, t] { ref_order.push_back(t); });
    }
  }
  while (!wheel.empty()) {
    ASSERT_EQ(wheel.next_time(), ref.next_time());
    auto w = wheel.pop();
    auto r = ref.pop();
    ASSERT_EQ(w.at, r.at);
    w.fn();
    r.fn();
  }
  ASSERT_EQ(wheel_order, ref_order);
  ASSERT_EQ(wheel_order.size(), 110u);
}

}  // namespace
}  // namespace iq::sim
