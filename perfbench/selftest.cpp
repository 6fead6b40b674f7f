// Self-check of the benchmark's trace: the decorators forward everything a
// connection uses without a heap box per scheduled event, and the span
// arithmetic partitions the measured time.
// Exits nonzero if any check fails.

#include <cmath>
#include <cstdio>

#include "iq/harness/scenarios.hpp"
#include "iq/sim/simulator.hpp"
#include "table1.hpp"
#include "trace.hpp"

namespace {

using namespace iq;
using perfbench::Span;
using perfbench::Tracer;

int g_failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "selftest FAIL: %s\n", what);
    ++g_failures;
  }
}

/// Forwards to a Simulator and records whether every callback it was handed
/// fits InlineFn's inline buffer (no heap box per scheduled event).
class InlineCheckingExecutor final : public sim::Executor {
 public:
  explicit InlineCheckingExecutor(sim::Simulator& sim) : sim_(sim) {}
  TimePoint now() const override { return sim_.now(); }
  sim::EventId schedule_at(TimePoint t, sim::EventFn fn) override {
    all_inline = all_inline && fn.is_inline();
    return sim_.schedule_at(t, std::move(fn));
  }
  bool cancel_event(sim::EventId id) override { return sim_.cancel_event(id); }

  bool all_inline = true;

 private:
  sim::Simulator& sim_;
};

/// Records which SegmentWire entry points the decorator reached.
class FakeWire final : public rudp::SegmentWire {
 public:
  explicit FakeWire(sim::Executor& exec) : exec_(exec) {}
  void send(const rudp::Segment&) override { ++copy_sends; }
  void send(rudp::Segment&&) override { ++move_sends; }
  void set_receiver(RecvFn fn) override { recv = std::move(fn); }
  void set_corruption_handler(CorruptionFn fn) override {
    corrupt = std::move(fn);
  }
  void set_send_drop_handler(SendDropFn fn) override { drop = std::move(fn); }
  sim::Executor& executor() override { return exec_; }

  int copy_sends = 0;
  int move_sends = 0;
  RecvFn recv;
  CorruptionFn corrupt;
  SendDropFn drop;

 private:
  sim::Executor& exec_;
};

void decorators_forward() {
  sim::Simulator simulator;
  InlineCheckingExecutor inner_exec(simulator);
  FakeWire inner(inner_exec);
  Tracer tracer;
  perfbench::TracedWire wire(inner, tracer);

  rudp::Segment seg;
  wire.send(seg);
  wire.send(rudp::Segment{});
  expect(inner.copy_sends == 1 && inner.move_sends == 1,
         "each send overload reaches its own inner overload");

  int received = 0, corrupted = 0, dropped = 0;
  wire.set_receiver([&](const rudp::Segment&) { ++received; });
  wire.set_corruption_handler([&] { ++corrupted; });
  wire.set_send_drop_handler([&] { ++dropped; });
  expect(inner.recv && inner.corrupt && inner.drop,
         "receiver, corruption and send-drop handlers are installed");
  inner.recv(seg);
  inner.corrupt();
  inner.drop();
  expect(received == 1 && corrupted == 1 && dropped == 1,
         "installed handlers reach the connection's callbacks");

  sim::Executor& exec = wire.executor();
  int fired = 0;
  const sim::EventId keep = exec.schedule_after(Duration::millis(1), [&] { ++fired; });
  const sim::EventId drop_id =
      exec.schedule_after(Duration::millis(2), [&] { fired += 10; });
  expect(keep != drop_id, "event ids are distinct");
  expect(exec.cancel_event(drop_id), "cancel_event accepts the returned id");
  simulator.run();
  expect(fired == 1, "the cancelled event never fires, the other does");
  expect(exec.now() == simulator.now(), "now() is the inner clock");
  expect(inner_exec.all_inline,
         "the decorator's wrapper is stored inline, not in a heap box");
  expect(perfbench::ParkedCallbacks::for_this_thread().parked() == 0,
         "fired and cancelled events both release their parked callback");

  expect(tracer.totals(Span::WireSend).calls == 2 &&
             tracer.totals(Span::RudpRecv).calls == 1 &&
             tracer.totals(Span::RudpTimer).calls == 1,
         "sends, receives and timer callbacks are each one span");
  expect(tracer.depth() == 0, "every span closed");
}

void self_time_arithmetic() {
  // A [0,100] encloses B [10,40] (which encloses C [20,25]) and D [50,70];
  // E [150,160] is a second outermost span. Measured phase: [0,200].
  Tracer t;
  t.begin(Span::WirePoll, 0);
  t.begin(Span::RudpRecv, 10);
  t.begin(Span::WireSend, 20);
  t.end(25);
  t.end(40);
  t.begin(Span::RudpTimer, 50);
  t.end(70);
  t.end(100);
  t.begin(Span::CoreSend, 150);
  t.end(160);

  expect(t.totals(Span::WirePoll).self_ns == 100 - 30 - 20, "A self = 50");
  expect(t.totals(Span::RudpRecv).self_ns == 30 - 5, "B self = 25");
  expect(t.totals(Span::WireSend).self_ns == 5, "C self = 5");
  expect(t.totals(Span::RudpTimer).self_ns == 20, "D self = 20");
  expect(t.totals(Span::CoreSend).self_ns == 10, "E self = 10");
  expect(t.outer_ns() == 110, "outermost spans cover 110");

  const double measured = 200.0;
  double shares = (measured - static_cast<double>(t.outer_ns())) / measured;
  for (std::size_t i = 0; i < perfbench::kSpanCount; ++i) {
    shares += static_cast<double>(t.totals(static_cast<Span>(i)).self_ns) /
              measured;
  }
  expect(std::fabs(shares - 1.0) < 1e-12,
         "span shares plus the benchmark's own share sum to 1");
}

void decorated_table1_reaches_golden() {
  const auto cfg = harness::scenarios::table1(harness::SchemeSpec::iq_rudp(), true);
  Tracer tracer;
  {
    perfbench::Table1Run run(cfg, &tracer);
    expect(run.run(), "decorated Table-1 run completes");
    if (run.events() != perfbench::kTable1Events) {
      std::fprintf(stderr, "decorated Table-1 run: %llu events\n",
                   static_cast<unsigned long long>(run.events()));
    }
    expect(run.events() == perfbench::kTable1Events,
           "decorated Table-1 run executes the golden 464832 events");
  }
  expect(tracer.depth() == 0, "every span closed after the run");
  expect(tracer.totals(Span::SimRun).calls > 0 &&
             tracer.totals(Span::RudpRecv).calls > 0 &&
             tracer.totals(Span::RudpTimer).calls > 0 &&
             tracer.totals(Span::WireSend).calls > 0,
         "decorated run records every simulated span");
  expect(perfbench::ParkedCallbacks::for_this_thread().parked() == 0,
         "events still pending at teardown release their parked callback");
}

}  // namespace

int main() {
  decorators_forward();
  self_time_arithmetic();
  decorated_table1_reaches_golden();
  if (g_failures == 0) std::fprintf(stderr, "perfbench selftest: ok\n");
  return g_failures == 0 ? 0 : 1;
}
