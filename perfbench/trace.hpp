#pragma once
// Outside-in layer trace for the benchmark's traced runs.
//
// Spans are timed around calls into each layer's public entry points: the
// benchmark's own calls (RealtimeLoop::poll_once, IqRudpConnection::
// send_with_attrs, Simulator::run_for) and, through two decorators, every
// call a connection makes into its wire (SegmentWire::send), every segment
// the wire hands back (the receiver callback) and every callback the
// connection schedules on its clock (Executor). No library code changes:
// the decorators sit between each connection and its UdpWire/SimWire.
//
// Spans nest on a stack. A span's self time is its duration minus the
// durations of the spans it directly encloses, so self times partition the
// time covered by the outermost spans; the benchmark's own time is the rest of
// the measured phase. Accumulators are fixed per span and written out once
// at the end of the run.

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "iq/common/check.hpp"
#include "iq/rudp/segment_wire.hpp"
#include "iq/sim/executor.hpp"

namespace perfbench {

enum class Span : std::uint8_t {
  WirePoll,    ///< RealtimeLoop::poll_once (epoll, recvmmsg, decode, flush)
  WireSend,    ///< SegmentWire::send (encode+CRC+sendmmsg, or sim hand-off)
  RudpRecv,    ///< the wire's receiver callback into the connection
  RudpTimer,   ///< a callback the connection scheduled on its Executor
  CoreSend,    ///< IqRudpConnection::send_with_attrs
  SimRun,      ///< Simulator::run_for (wheel, links, queues, cross traffic)
  AppDeliver,  ///< the benchmark's own delivery handlers
};
inline constexpr std::size_t kSpanCount = 7;
inline constexpr std::array<const char*, kSpanCount> kSpanNames = {
    "wire.poll", "wire.send", "rudp.recv",  "rudp.timer",
    "core.send", "sim.run",   "app.deliver"};

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Tracer {
 public:
  struct Totals {
    std::uint64_t calls = 0;
    std::int64_t self_ns = 0;
  };

  /// Timestamps are arguments so the arithmetic can be checked on synthetic
  /// spans; Scope supplies the clock.
  void begin(Span s, std::int64_t t) {
    IQ_CHECK_MSG(depth_ < stack_.size(), "trace: spans nested too deeply");
    stack_[depth_++] = Frame{s, t, 0};
  }
  void end(std::int64_t t) {
    IQ_CHECK_MSG(depth_ > 0, "trace: end() without begin()");
    const Frame f = stack_[--depth_];
    const std::int64_t d = t - f.start_ns;
    Totals& acc = totals_[static_cast<std::size_t>(f.span)];
    ++acc.calls;
    acc.self_ns += d - f.child_ns;
    if (depth_ > 0) {
      stack_[depth_ - 1].child_ns += d;
    } else {
      outer_ns_ += d;
    }
  }

  const Totals& totals(Span s) const {
    return totals_[static_cast<std::size_t>(s)];
  }
  /// Time covered by outermost spans (= the sum of every span's self time).
  std::int64_t outer_ns() const { return outer_ns_; }
  std::size_t depth() const { return depth_; }

 private:
  struct Frame {
    Span span;
    std::int64_t start_ns;
    std::int64_t child_ns;
  };
  std::array<Totals, kSpanCount> totals_{};
  std::array<Frame, 32> stack_{};
  std::size_t depth_ = 0;
  std::int64_t outer_ns_ = 0;
};

/// RAII span; a null tracer (the untraced run) reads no clock.
class Scope {
 public:
  Scope(Tracer* t, Span s) : t_(t) {
    if (t_ != nullptr) t_->begin(s, now_ns());
  }
  ~Scope() {
    if (t_ != nullptr) t_->end(now_ns());
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* t_;
};

/// Callbacks scheduled through a TracedExecutor wait here while their event
/// is pending, so the wrapper the inner executor holds is a slot index and
/// two pointers. That fits InlineFn's inline buffer, and tracing adds no
/// heap allocation per event; a wrapper holding the whole EventFn would not
/// fit and would take one heap box per event, charged to the spans. One
/// pool per thread, because the inner executor may drop a pending wrapper
/// after the decorator is gone.
class ParkedCallbacks {
 public:
  static ParkedCallbacks& for_this_thread() {
    thread_local ParkedCallbacks pool;
    return pool;
  }

  std::uint32_t park(iq::sim::EventFn fn) {
    if (free_.empty()) {
      slots_.push_back(std::move(fn));
      return static_cast<std::uint32_t>(slots_.size() - 1);
    }
    const std::uint32_t slot = free_.back();
    free_.pop_back();
    slots_[slot] = std::move(fn);
    return slot;
  }
  iq::sim::EventFn take(std::uint32_t slot) {
    iq::sim::EventFn fn = std::move(slots_[slot]);
    free_.push_back(slot);
    return fn;
  }
  std::size_t parked() const { return slots_.size() - free_.size(); }

 private:
  std::vector<iq::sim::EventFn> slots_;
  std::vector<std::uint32_t> free_;
};

/// What a TracedExecutor hands its inner executor: runs the parked callback
/// inside a rudp.timer span, or releases it when the event is cancelled.
class TracedCallback {
 public:
  TracedCallback(Tracer* tracer, ParkedCallbacks* pool, std::uint32_t slot)
      : tracer_(tracer), pool_(pool), slot_(slot) {}
  TracedCallback(TracedCallback&& o) noexcept
      : tracer_(o.tracer_), pool_(o.pool_), slot_(std::exchange(o.slot_, kNone)) {}
  TracedCallback& operator=(TracedCallback&&) = delete;
  ~TracedCallback() {
    if (slot_ != kNone) pool_->take(slot_);
  }

  void operator()() {
    iq::sim::EventFn fn = pool_->take(std::exchange(slot_, kNone));
    Scope s(tracer_, Span::RudpTimer);
    fn();
  }

 private:
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};
  Tracer* tracer_;
  ParkedCallbacks* pool_;
  std::uint32_t slot_;
};

/// Executor decorator: every callback scheduled through it runs inside a
/// rudp.timer span. Event ids are the inner executor's, so cancel_event
/// forwards unchanged and the inner event count is untouched.
class TracedExecutor final : public iq::sim::Executor {
 public:
  TracedExecutor(iq::sim::Executor& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer), pool_(ParkedCallbacks::for_this_thread()) {}

  iq::TimePoint now() const override { return inner_.now(); }
  iq::sim::EventId schedule_at(iq::TimePoint t,
                               iq::sim::EventFn fn) override {
    return inner_.schedule_at(
        t, TracedCallback(&tracer_, &pool_, pool_.park(std::move(fn))));
  }
  bool cancel_event(iq::sim::EventId id) override {
    return inner_.cancel_event(id);
  }

 private:
  iq::sim::Executor& inner_;
  Tracer& tracer_;
  ParkedCallbacks& pool_;
};

/// SegmentWire decorator: both send overloads run inside a wire.send span
/// (the move overload stays a move, so SimWire still adopts the body), the
/// receiver runs inside a rudp.recv span, the corruption and send-drop
/// handlers pass through, and executor() is the traced executor.
class TracedWire final : public iq::rudp::SegmentWire {
 public:
  TracedWire(iq::rudp::SegmentWire& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer), exec_(inner.executor(), tracer) {}

  void send(const iq::rudp::Segment& segment) override {
    Scope s(&tracer_, Span::WireSend);
    inner_.send(segment);
  }
  void send(iq::rudp::Segment&& segment) override {
    Scope s(&tracer_, Span::WireSend);
    inner_.send(std::move(segment));
  }
  void set_receiver(RecvFn fn) override {
    inner_.set_receiver(
        [tr = &tracer_, f = std::move(fn)](const iq::rudp::Segment& seg) {
          Scope s(tr, Span::RudpRecv);
          f(seg);
        });
  }
  void set_corruption_handler(CorruptionFn fn) override {
    inner_.set_corruption_handler(std::move(fn));
  }
  void set_send_drop_handler(SendDropFn fn) override {
    inner_.set_send_drop_handler(std::move(fn));
  }
  iq::sim::Executor& executor() override { return exec_; }

 private:
  iq::rudp::SegmentWire& inner_;
  Tracer& tracer_;
  TracedExecutor exec_;
};

}  // namespace perfbench
