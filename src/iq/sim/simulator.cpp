#include "iq/sim/simulator.hpp"

#include "iq/common/check.hpp"

namespace iq::sim {

EventId Simulator::at(TimePoint t, EventFn fn) {
  IQ_CHECK_MSG(t >= now_, "cannot schedule into the past");
  return queue_.schedule(t, std::move(fn));
}

EventId Simulator::after(Duration d, EventFn fn) {
  IQ_CHECK_MSG(!d.is_negative(), "negative delay");
  return queue_.schedule(now_ + d, std::move(fn));
}

bool Simulator::drain(TimePoint bound) {
  for (;;) {
    if (event_budget_ != 0 && executed_ >= event_budget_) return false;
    auto ev = queue_.pop_until(bound);
    if (!ev) return true;
    IQ_CHECK(ev->at >= now_);
    now_ = ev->at;
    ++executed_;
    ev->fn();
  }
}

void Simulator::run() { drain(TimePoint::max()); }

void Simulator::run_until(TimePoint deadline) {
  if (drain(deadline) && now_ < deadline) now_ = deadline;
}

void Simulator::advance_to(TimePoint t) {
  IQ_CHECK_MSG(t >= now_, "cannot advance the clock backwards");
  IQ_CHECK_MSG(queue_.empty() || queue_.next_time() >= t,
               "advance_to would skip pending events");
  now_ = t;
}

}  // namespace iq::sim
