// Tests for the IQ-ECho middleware: channels, adaptation policies, the
// adaptive source and the metric sink.

#include <gtest/gtest.h>

#include <memory>

#include "iq/echo/channel.hpp"
#include "iq/echo/policies.hpp"
#include "iq/echo/sink.hpp"
#include "iq/echo/source.hpp"
#include "iq/sim/simulator.hpp"
#include "iq/wire/lossy_wire.hpp"

namespace iq::echo {
namespace {

struct EchoPair {
  sim::Simulator sim;
  wire::LossyWirePair wires;
  std::unique_ptr<core::IqRudpConnection> snd;
  std::unique_ptr<core::IqRudpConnection> rcv;
  std::unique_ptr<EventChannel> chan_s;
  std::unique_ptr<EventChannel> chan_r;

  explicit EchoPair(double tolerance = 0.0,
                    Duration one_way_delay = Duration::millis(15))
      : wires(sim, {.one_way_delay = one_way_delay}) {
    rudp::RudpConfig cfg;
    rudp::RudpConfig rcfg;
    rcfg.recv_loss_tolerance = tolerance;
    snd = std::make_unique<core::IqRudpConnection>(wires.a(), cfg,
                                                   rudp::Role::Client);
    rcv = std::make_unique<core::IqRudpConnection>(wires.b(), rcfg,
                                                   rudp::Role::Server);
    chan_s = std::make_unique<EventChannel>("viz", *snd);
    chan_r = std::make_unique<EventChannel>("viz", *rcv);
    rcv->listen();
    snd->connect();
    sim.run_until(TimePoint::zero() + Duration::millis(200));
  }
};

// -------------------------------------------------------------- channel ---

TEST(EventChannelTest, SubmitDelivers) {
  EchoPair p;
  std::vector<ReceivedEvent> got;
  p.chan_r->set_event_handler([&](const ReceivedEvent& e) {
    got.push_back(e);
  });
  Event ev;
  ev.bytes = 4000;
  ev.tagged = true;
  ev.meta.set("slice", std::int64_t{3});
  p.chan_s->submit(ev);
  p.sim.run_until(TimePoint::zero() + Duration::seconds(2));
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].event.bytes, 4000);
  EXPECT_TRUE(got[0].event.tagged);
  EXPECT_EQ(got[0].event.meta.get_int("slice"), 3);
  EXPECT_GT(got[0].delivered, got[0].sent);
}

TEST(EventChannelTest, CountsSubmittedAndReceived) {
  EchoPair p;
  p.chan_r->set_event_handler([](const ReceivedEvent&) {});
  for (int i = 0; i < 10; ++i) p.chan_s->submit({.bytes = 100});
  p.sim.run_until(TimePoint::zero() + Duration::seconds(2));
  EXPECT_EQ(p.chan_s->events_submitted(), 10u);
  EXPECT_EQ(p.chan_r->events_received(), 10u);
}

// ------------------------------------------------------------- policies ---

TEST(ResolutionPolicyTest, ShrinkByErrorRatio) {
  ResolutionPolicy pol;
  const auto rec = pol.shrink(0.2);
  EXPECT_NEAR(pol.scale(), 0.8, 1e-12);
  EXPECT_NEAR(*rec.resolution_change, 0.2, 1e-12);
  EXPECT_EQ(pol.apply(1000), 800);
}

TEST(ResolutionPolicyTest, GrowTenPercentCappedAtFull) {
  ResolutionPolicy pol;
  pol.shrink(0.5);
  const auto rec = pol.grow();
  EXPECT_NEAR(pol.scale(), 0.55, 1e-12);
  EXPECT_NEAR(*rec.resolution_change, -0.1, 1e-12);  // size increase
  for (int i = 0; i < 50; ++i) pol.grow();
  EXPECT_DOUBLE_EQ(pol.scale(), 1.0);
}

TEST(ResolutionPolicyTest, ScaleFloorLimitsEffectiveChange) {
  ResolutionPolicyConfig cfg;
  cfg.min_scale = 0.5;
  ResolutionPolicy pol(cfg);
  pol.shrink(0.4);  // 1.0 -> 0.6
  const auto rec = pol.shrink(0.4);  // would be 0.36, floored at 0.5
  EXPECT_DOUBLE_EQ(pol.scale(), 0.5);
  EXPECT_NEAR(*rec.resolution_change, 1.0 - 0.5 / 0.6, 1e-12);
}

TEST(MarkingPolicyTest, InactiveTagsEverything) {
  MarkingPolicy pol(1);
  for (std::uint64_t i = 0; i < 50; ++i) EXPECT_TRUE(pol.decide_tagged(i));
}

TEST(MarkingPolicyTest, UpperActivatesWithFloorProbability) {
  MarkingPolicy pol(1);
  const auto rec = pol.on_upper(0.10);  // gain 1.25*0.10 = 0.125 < 0.40 floor
  EXPECT_TRUE(pol.active());
  EXPECT_DOUBLE_EQ(pol.unmark_probability(), 0.40);
  EXPECT_DOUBLE_EQ(*rec.mark_degree, 0.40);
  const auto rec2 = pol.on_upper(0.60);  // 1.25*0.6 = 0.75
  EXPECT_DOUBLE_EQ(*rec2.mark_degree, 0.75);
}

TEST(MarkingPolicyTest, EveryFifthAlwaysTagged) {
  MarkingPolicy pol(1);
  pol.on_upper(0.9);
  for (std::uint64_t i = 0; i < 100; i += 5) {
    EXPECT_TRUE(pol.decide_tagged(i));
  }
}

TEST(MarkingPolicyTest, UnmarkRateTracksProbability) {
  MarkingPolicy pol(1);
  pol.on_upper(0.40);  // p = 0.5
  int unmarked = 0;
  const int n = 5000;
  for (std::uint64_t i = 0; i < n; ++i) {
    if (i % 5 == 0) continue;
    if (!pol.decide_tagged(i)) ++unmarked;
  }
  EXPECT_NEAR(unmarked / (n * 0.8), 0.5, 0.05);
}

TEST(MarkingPolicyTest, LowerDecaysAndDeactivates) {
  MarkingPolicy pol(1);
  pol.on_upper(0.10);  // p = 0.40
  pol.on_lower();
  EXPECT_NEAR(pol.unmark_probability(), 0.32, 1e-12);
  for (int i = 0; i < 30; ++i) pol.on_lower();
  EXPECT_FALSE(pol.active());
  EXPECT_DOUBLE_EQ(pol.unmark_probability(), 0.0);
}

TEST(FrequencyPolicyTest, ReduceAndRestore) {
  FrequencyPolicy pol;
  const auto rec = pol.reduce(0.5);
  EXPECT_DOUBLE_EQ(pol.keep_ratio(), 0.5);
  EXPECT_NEAR(*rec.freq_ratio, 0.5, 1e-12);
  for (int i = 0; i < 30; ++i) pol.restore();
  EXPECT_DOUBLE_EQ(pol.keep_ratio(), 1.0);
}

TEST(FrequencyPolicyTest, ThinningKeepsRequestedFraction) {
  FrequencyPolicy pol;
  pol.reduce(0.75);  // keep 25 %
  int kept = 0;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    if (pol.should_send(i)) ++kept;
  }
  EXPECT_NEAR(kept, 250, 2);
}

// ------------------------------------------------------- source + sink ----

TEST(AdaptiveSourceTest, FixedRateSubmitsAllFrames) {
  EchoPair p;
  stats::MessageMetrics metrics;
  MetricSink sink(*p.chan_r, metrics);
  AdaptiveSourceConfig cfg;
  cfg.frame_rate = 100;
  cfg.total_frames = 50;
  cfg.fixed_frame_bytes = 1000;
  AdaptiveSource src(*p.chan_s, nullptr, cfg, &metrics);
  src.start();
  p.sim.run_until(TimePoint::zero() + Duration::seconds(10));
  EXPECT_TRUE(src.done());
  EXPECT_EQ(src.frames_submitted(), 50u);
  EXPECT_EQ(metrics.delivered(), 50u);
  EXPECT_DOUBLE_EQ(metrics.summary().delivered_pct, 100.0);
}

TEST(AdaptiveSourceTest, AsapModeFillsTransport) {
  EchoPair p;
  stats::MessageMetrics metrics;
  MetricSink sink(*p.chan_r, metrics);
  AdaptiveSourceConfig cfg;
  cfg.frame_rate = 0;  // ASAP
  cfg.total_frames = 200;
  cfg.fixed_frame_bytes = 1400;
  AdaptiveSource src(*p.chan_s, nullptr, cfg, &metrics);
  src.start();
  p.sim.run_until(TimePoint::zero() + Duration::seconds(30));
  EXPECT_TRUE(src.done());
  EXPECT_EQ(metrics.delivered(), 200u);
}

// ASAP means as fast as the transport allows. On a fast lossless path the
// 64-segment backlog drains well within the 1-ms refill tick, so a source
// paced by the tick idles most of each millisecond; one clocked by the
// acks that empty the queue is not. 6000 frames take ~51 ms of simulated
// time on the tick alone and ~11 ms ack-clocked.
TEST(AdaptiveSourceTest, AsapModeIsAckClockedOnAFastPath) {
  EchoPair p(/*tolerance=*/0.0, /*one_way_delay=*/Duration::micros(50));
  stats::MessageMetrics metrics;
  MetricSink sink(*p.chan_r, metrics);
  AdaptiveSourceConfig cfg;
  cfg.frame_rate = 0;  // ASAP
  cfg.total_frames = 6000;
  cfg.fixed_frame_bytes = 1400;
  AdaptiveSource src(*p.chan_s, nullptr, cfg, &metrics);
  const TimePoint start = p.sim.now();
  src.start();
  p.sim.run_until(start + Duration::millis(25));
  EXPECT_TRUE(src.done());
  EXPECT_EQ(metrics.delivered(), 6000u);
}

TEST(AdaptiveSourceTest, TraceDrivenFrameSizes) {
  EchoPair p;
  workload::MboneTrace trace;
  workload::FrameSchedule schedule(trace, 3000);
  stats::MessageMetrics metrics;
  std::vector<std::int64_t> sizes;
  p.chan_r->set_event_handler(
      [&](const ReceivedEvent& e) { sizes.push_back(e.event.bytes); });
  AdaptiveSourceConfig cfg;
  cfg.frame_rate = 10;
  cfg.total_frames = 20;
  AdaptiveSource src(*p.chan_s, &schedule, cfg, &metrics);
  src.start();
  p.sim.run_until(TimePoint::zero() + Duration::seconds(30));
  ASSERT_EQ(sizes.size(), 20u);
  // First frames use the trace head: group(0..2) * 3000.
  EXPECT_EQ(sizes[0], static_cast<std::int64_t>(trace.group_at(0)) * 3000);
}

TEST(AdaptiveSourceTest, DeferredAdaptationWaitsForAlignedFrame) {
  EchoPair p;
  stats::MessageMetrics metrics;
  AdaptiveSourceConfig cfg;
  cfg.frame_rate = 100;
  cfg.total_frames = 100;
  cfg.fixed_frame_bytes = 1000;
  cfg.adaptation = AdaptKind::Resolution;
  cfg.adapt_granularity = 20;
  cfg.attach_cond = true;
  AdaptiveSource src(*p.chan_s, nullptr, cfg, &metrics);
  src.start();

  // Manually fire the upper threshold between aligned frames.
  p.sim.run_until(TimePoint::zero() + Duration::millis(150));  // ~15 frames in
  p.snd->callbacks().on_metric(attr::kNetLossRatio, 0.5, p.sim.now());
  EXPECT_EQ(src.deferrals(), 1u);
  EXPECT_TRUE(p.snd->coordinator().deferral_pending());
  EXPECT_DOUBLE_EQ(src.resolution_policy().scale(), 1.0);  // not yet applied

  p.sim.run_until(TimePoint::zero() + Duration::seconds(5));
  // The adaptation landed at the next index % 20 == 0 frame. (A trailing
  // loss-epoch callback may legitimately open a *new* deferral afterwards,
  // so we assert on the resolution counters, not on pending state.)
  EXPECT_NEAR(src.resolution_policy().scale(), 0.5, 1e-9);
  EXPECT_GE(p.snd->coordinator().stats().deferred_resolved, 1u);
  EXPECT_GE(p.snd->coordinator().stats().cond_compensations, 1u);
}

TEST(MetricSinkTest, CollectsJitterSeries) {
  EchoPair p;
  stats::MessageMetrics metrics;
  stats::TimeSeries series("jitter");
  MetricSink sink(*p.chan_r, metrics, &series);
  AdaptiveSourceConfig cfg;
  cfg.frame_rate = 100;
  cfg.total_frames = 30;
  cfg.fixed_frame_bytes = 500;
  AdaptiveSource src(*p.chan_s, nullptr, cfg, &metrics);
  src.start();
  p.sim.run_until(TimePoint::zero() + Duration::seconds(5));
  // Jitter points start at the third arrival.
  EXPECT_EQ(series.size(), 28u);
}

}  // namespace
}  // namespace iq::echo
