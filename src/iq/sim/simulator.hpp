#pragma once
// The discrete-event simulator: a virtual clock plus an event queue.
//
// Components schedule callbacks at absolute or relative times; run() advances
// the clock event by event. A single Simulator instance is single-threaded by
// design — determinism comes from total event ordering, not locks.

#include <cstdint>
#include <functional>

#include "iq/common/time.hpp"
#include "iq/sim/executor.hpp"
#include "iq/sim/timer_wheel.hpp"

namespace iq::sim {

class Simulator final : public Executor {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  TimePoint now() const override { return now_; }

  EventId at(TimePoint t, EventFn fn);
  EventId after(Duration d, EventFn fn);
  bool cancel(EventId id) { return queue_.cancel(id); }

  // Executor interface (aliases of the above).
  EventId schedule_at(TimePoint t, EventFn fn) override {
    return at(t, std::move(fn));
  }
  bool cancel_event(EventId id) override { return cancel(id); }

  /// Run until the queue empties or the event budget is exhausted.
  void run();
  /// Run events with timestamp <= deadline; the clock ends at `deadline`
  /// even if no event lies exactly there, unless the event budget stopped
  /// the run first.
  void run_until(TimePoint deadline);
  /// Run for `d` of simulated time from now.
  void run_for(Duration d) { run_until(now() + d); }

  bool idle() const { return queue_.empty(); }
  std::uint64_t events_executed() const { return executed_; }

  /// Jump the clock forward to `t` without executing anything. Used by the
  /// sharded engine to land the clock on a window boundary and to position
  /// it at a cross-shard parcel's due time before running the parcel.
  void advance_to(TimePoint t);

  /// Safety valve: stop the run loop after this many events (0 = unlimited).
  void set_event_budget(std::uint64_t budget) { event_budget_ = budget; }

 private:
  /// Run events due at or before `bound`, one pop_until() per event;
  /// returns false when the event budget stopped it first.
  bool drain(TimePoint bound);

  /// Hierarchical timing wheel (O(1) schedule/rearm/cancel) with the same
  /// (time, seq) fire order as the 4-ary EventQueue it replaced — see
  /// iq/sim/timer_wheel.hpp for the determinism contract.
  TimerWheel queue_;
  TimePoint now_ = TimePoint::zero();
  std::uint64_t executed_ = 0;
  std::uint64_t event_budget_ = 0;
};

}  // namespace iq::sim
