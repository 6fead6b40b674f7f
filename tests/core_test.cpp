// Tests for the IQ coordination core: adaptation records, eq. (1), the
// coordinator's three schemes, metric export, and the assembled facade.

#include <gtest/gtest.h>

#include <memory>

#include "iq/cm/manager.hpp"
#include "iq/core/iq_connection.hpp"
#include "iq/sim/simulator.hpp"
#include "iq/wire/lossy_wire.hpp"

namespace iq::core {
namespace {

// ----------------------------------------------------- AdaptationRecord ---

TEST(AdaptationRecordTest, RoundTripThroughAttrs) {
  AdaptationRecord rec;
  rec.resolution_change = 0.25;
  rec.mark_degree = 0.4;
  rec.when = attr::kAdaptDeferred;
  rec.cond_error_ratio = 0.18;
  rec.frame_bytes = 900;

  const AdaptationRecord back = AdaptationRecord::from_attrs(rec.to_attrs());
  EXPECT_EQ(back.resolution_change, 0.25);
  EXPECT_EQ(back.mark_degree, 0.4);
  EXPECT_EQ(back.when, attr::kAdaptDeferred);
  EXPECT_EQ(back.cond_error_ratio, 0.18);
  EXPECT_EQ(back.frame_bytes, 900);
}

TEST(AdaptationRecordTest, EmptyAttrsIsNoAdaptation) {
  const AdaptationRecord rec = AdaptationRecord::from_attrs({});
  EXPECT_FALSE(rec.any());
  EXPECT_FALSE(rec.deferred());
}

TEST(AdaptationRecordTest, FreqOnlyCounts) {
  attr::AttrList attrs{{attr::kAdaptFreq, 0.5}};
  EXPECT_TRUE(AdaptationRecord::from_attrs(attrs).any());
}

// --------------------------------------------------------------- eq. (1) --

TEST(RescaleFactorTest, PureResolutionRescale) {
  // Shrinking frames by 20% grows the window by 1/0.8.
  EXPECT_NEAR(Coordinator::rescale_factor(0.2, 0, 0, false), 1.25, 1e-12);
  // Growing frames by 10% (rate_chg = -0.1) shrinks the window.
  EXPECT_NEAR(Coordinator::rescale_factor(-0.1, 0, 0, false), 1.0 / 1.1,
              1e-12);
}

TEST(RescaleFactorTest, CondCompensationDirections) {
  // Network got worse during the deferral: window must grow LESS.
  const double worse = Coordinator::rescale_factor(0.2, 0.05, 0.30, true);
  const double same = Coordinator::rescale_factor(0.2, 0.05, 0.05, true);
  const double better = Coordinator::rescale_factor(0.2, 0.30, 0.05, true);
  EXPECT_LT(worse, same);
  EXPECT_GT(better, same);
  EXPECT_NEAR(same, 1.25, 1e-12);
}

TEST(RescaleFactorTest, Equation1Value) {
  // w' / w = 1/(1-rate_chg) * (1-eratio_now)/(1-eratio_then).
  EXPECT_NEAR(Coordinator::rescale_factor(0.25, 0.10, 0.28, true),
              (1.0 / 0.75) * (0.72 / 0.90), 1e-12);
}

// ------------------------------------------------------------- fixtures ---

struct CorePair {
  sim::Simulator sim;
  wire::LossyWirePair wires{sim, {.one_way_delay = Duration::millis(15)}};
  std::unique_ptr<IqRudpConnection> snd;
  std::unique_ptr<IqRudpConnection> rcv;

  explicit CorePair(CoordinationMode mode = CoordinationMode::Coordinated,
                    double tolerance = 0.4) {
    rudp::RudpConfig cfg;
    rudp::RudpConfig rcfg;
    rcfg.recv_loss_tolerance = tolerance;
    CoordinatorConfig ccfg;
    ccfg.mode = mode;
    snd = std::make_unique<IqRudpConnection>(wires.a(), cfg,
                                             rudp::Role::Client, ccfg);
    rcv = std::make_unique<IqRudpConnection>(wires.b(), rcfg,
                                             rudp::Role::Server, ccfg);
    rcv->listen();
    snd->connect();
    sim.run_until(TimePoint::zero() + Duration::millis(200));
  }
};

// ------------------------------------------------------------ scheme 1 ----

TEST(CoordinatorTest, MarkAdaptationEnablesDiscard) {
  CorePair p;
  attr::CallbackContext ctx;
  attr::AttrList result{{attr::kAdaptMark, 0.4}};
  p.snd->coordinator().on_callback_result(result, ctx);
  EXPECT_TRUE(p.snd->transport().discard_unmarked());
  EXPECT_EQ(p.snd->coordinator().stats().discard_enables, 1u);

  attr::AttrList off{{attr::kAdaptMark, 0.0}};
  p.snd->coordinator().on_callback_result(off, ctx);
  EXPECT_FALSE(p.snd->transport().discard_unmarked());
}

TEST(CoordinatorTest, UncoordinatedIgnoresMarkAdaptation) {
  CorePair p(CoordinationMode::Uncoordinated);
  attr::CallbackContext ctx;
  attr::AttrList result{{attr::kAdaptMark, 0.4}};
  p.snd->coordinator().on_callback_result(result, ctx);
  EXPECT_FALSE(p.snd->transport().discard_unmarked());
  EXPECT_EQ(p.snd->coordinator().stats().records_seen, 1u);
}

// ------------------------------------------------------------ scheme 2 ----

TEST(CoordinatorTest, ResolutionAdaptationRescalesWindow) {
  CorePair p;
  const double w0 = p.snd->transport().congestion().cwnd();
  attr::CallbackContext ctx;
  attr::AttrList result{{attr::kAdaptPktSize, 0.2},
                        {attr::kAppFrameBytes, std::int64_t{800}}};
  p.snd->coordinator().on_callback_result(result, ctx);
  EXPECT_NEAR(p.snd->transport().congestion().cwnd(), w0 * 1.25, 1e-9);
  EXPECT_EQ(p.snd->coordinator().stats().window_rescales, 1u);
}

TEST(CoordinatorTest, LargeFramesGetNoRescale) {
  CorePair p;
  const double w0 = p.snd->transport().congestion().cwnd();
  attr::CallbackContext ctx;
  // Frame still far above MSS after adaptation: packets stay MSS-sized.
  attr::AttrList result{{attr::kAdaptPktSize, 0.2},
                        {attr::kAppFrameBytes, std::int64_t{90'000}}};
  p.snd->coordinator().on_callback_result(result, ctx);
  EXPECT_DOUBLE_EQ(p.snd->transport().congestion().cwnd(), w0);
  EXPECT_EQ(p.snd->coordinator().stats().window_rescales, 0u);
}

TEST(CoordinatorTest, FrequencyAdaptationNoRescale) {
  CorePair p;
  const double w0 = p.snd->transport().congestion().cwnd();
  attr::CallbackContext ctx;
  attr::AttrList result{{attr::kAdaptFreq, 0.5}};
  p.snd->coordinator().on_callback_result(result, ctx);
  EXPECT_DOUBLE_EQ(p.snd->transport().congestion().cwnd(), w0);
  EXPECT_EQ(p.snd->coordinator().stats().freq_adaptations, 1u);
}

TEST(CoordinatorTest, UncoordinatedNeverRescales) {
  CorePair p(CoordinationMode::Uncoordinated);
  const double w0 = p.snd->transport().congestion().cwnd();
  attr::CallbackContext ctx;
  attr::AttrList result{{attr::kAdaptPktSize, 0.5}};
  p.snd->coordinator().on_callback_result(result, ctx);
  EXPECT_DOUBLE_EQ(p.snd->transport().congestion().cwnd(), w0);
}

// ------------------------------------------------------------ scheme 3 ----

TEST(CoordinatorTest, DeferredThenResolvedOnSend) {
  CorePair p;
  const double w0 = p.snd->transport().congestion().cwnd();

  attr::CallbackContext ctx;
  attr::AttrList deferred{{attr::kAdaptWhen, attr::kAdaptDeferred}};
  p.snd->coordinator().on_callback_result(deferred, ctx);
  EXPECT_TRUE(p.snd->coordinator().deferral_pending());
  EXPECT_DOUBLE_EQ(p.snd->transport().congestion().cwnd(), w0);

  // The adaptation lands with the next send call.
  rudp::MessageSpec spec;
  spec.bytes = 700;
  attr::AttrList attrs{{attr::kAdaptPktSize, 0.2},
                       {attr::kAppFrameBytes, std::int64_t{700}}};
  p.snd->send_with_attrs(spec, attrs);
  EXPECT_FALSE(p.snd->coordinator().deferral_pending());
  EXPECT_NEAR(p.snd->transport().congestion().cwnd(), w0 * 1.25, 1e-9);
  EXPECT_EQ(p.snd->coordinator().stats().deferred_resolved, 1u);
}

// Regression: deferral_pending_ used to stick forever unless a *send-path
// resolution* adaptation arrived — a deferral resolved by a frequency
// adaptation, superseded by a later concrete callback, or simply abandoned
// left the flag set, mis-applying eq. (1) compensation to the next
// unrelated adaptation.
TEST(CoordinatorTest, DeferredResolvedByFrequencySend) {
  CorePair p;
  attr::CallbackContext ctx;
  attr::AttrList deferred{{attr::kAdaptWhen, attr::kAdaptDeferred}};
  p.snd->coordinator().on_callback_result(deferred, ctx);
  ASSERT_TRUE(p.snd->coordinator().deferral_pending());

  rudp::MessageSpec spec;
  spec.bytes = 700;
  attr::AttrList attrs{{attr::kAdaptFreq, 0.5}};
  p.snd->send_with_attrs(spec, attrs);
  EXPECT_FALSE(p.snd->coordinator().deferral_pending());
  EXPECT_EQ(p.snd->coordinator().stats().deferred_resolved, 1u);
  EXPECT_EQ(p.snd->coordinator().stats().deferrals_superseded, 0u);
}

TEST(CoordinatorTest, DeferredSupersededByConcreteCallback) {
  CorePair p;
  attr::CallbackContext ctx;
  attr::AttrList deferred{{attr::kAdaptWhen, attr::kAdaptDeferred}};
  p.snd->coordinator().on_callback_result(deferred, ctx);
  ASSERT_TRUE(p.snd->coordinator().deferral_pending());

  // A later callback announces an immediate (non-deferred) adaptation: the
  // old deferral is superseded, not left pending.
  attr::AttrList concrete{{attr::kAdaptPktSize, 0.2},
                          {attr::kAppFrameBytes, std::int64_t{700}}};
  p.snd->coordinator().on_callback_result(concrete, ctx);
  EXPECT_FALSE(p.snd->coordinator().deferral_pending());
  EXPECT_EQ(p.snd->coordinator().stats().deferrals_superseded, 1u);
  EXPECT_EQ(p.snd->coordinator().stats().deferred_resolved, 0u);
}

TEST(CoordinatorTest, MarkOnlySendLeavesDeferralPending) {
  CorePair p;
  attr::CallbackContext ctx;
  attr::AttrList deferred{{attr::kAdaptWhen, attr::kAdaptDeferred}};
  p.snd->coordinator().on_callback_result(deferred, ctx);

  // Reliability adaptations are orthogonal to the announced rate
  // adaptation; they must not count as its resolution.
  rudp::MessageSpec spec;
  spec.bytes = 700;
  attr::AttrList attrs{{attr::kAdaptMark, 0.4}};
  p.snd->send_with_attrs(spec, attrs);
  EXPECT_TRUE(p.snd->coordinator().deferral_pending());
  EXPECT_EQ(p.snd->coordinator().stats().deferred_resolved, 0u);
}

TEST(CoordinatorTest, CancelDeferralClearsAndCounts) {
  CorePair p;
  attr::CallbackContext ctx;
  attr::AttrList deferred{{attr::kAdaptWhen, attr::kAdaptDeferred}};
  p.snd->coordinator().on_callback_result(deferred, ctx);
  ASSERT_TRUE(p.snd->coordinator().deferral_pending());

  p.snd->coordinator().cancel_deferral();
  EXPECT_FALSE(p.snd->coordinator().deferral_pending());
  EXPECT_EQ(p.snd->coordinator().stats().deferrals_cancelled, 1u);

  // Cancelling with nothing pending is a no-op and is not counted.
  p.snd->coordinator().cancel_deferral();
  EXPECT_EQ(p.snd->coordinator().stats().deferrals_cancelled, 1u);
}

TEST(CoordinatorTest, CondCompensationUsesCurrentEratio) {
  CorePair p;
  const double w0 = p.snd->transport().congestion().cwnd();

  // The transport currently measures 30% loss...
  rudp::EpochReport report;
  report.loss_ratio = 0.30;
  p.snd->coordinator().on_epoch(report);

  // ...but the application adapted based on a stale 10% reading.
  rudp::MessageSpec spec;
  spec.bytes = 700;
  attr::AttrList attrs{{attr::kAdaptPktSize, 0.2},
                       {attr::kAdaptCondErrorRatio, 0.10},
                       {attr::kAppFrameBytes, std::int64_t{700}}};
  p.snd->send_with_attrs(spec, attrs);
  EXPECT_NEAR(p.snd->transport().congestion().cwnd(),
              w0 * (1.0 / 0.8) * (0.70 / 0.90), 1e-9);
  EXPECT_EQ(p.snd->coordinator().stats().cond_compensations, 1u);
}

TEST(CoordinatorTest, CondDisabledIgnoresCompensation) {
  rudp::RudpConfig cfg;
  CoordinatorConfig ccfg;
  ccfg.enable_cond_compensation = false;
  sim::Simulator sim;
  wire::LossyWirePair wires(sim, {.one_way_delay = Duration::millis(15)});
  IqRudpConnection snd(wires.a(), cfg, rudp::Role::Client, ccfg);
  IqRudpConnection rcv(wires.b(), cfg, rudp::Role::Server, ccfg);
  rcv.listen();
  snd.connect();
  sim.run_until(TimePoint::zero() + Duration::millis(200));

  const double w0 = snd.transport().congestion().cwnd();
  rudp::EpochReport report;
  report.loss_ratio = 0.30;
  snd.coordinator().on_epoch(report);
  attr::AttrList attrs{{attr::kAdaptPktSize, 0.2},
                       {attr::kAdaptCondErrorRatio, 0.10},
                       {attr::kAppFrameBytes, std::int64_t{700}}};
  snd.send_with_attrs({.bytes = 700}, attrs);
  EXPECT_NEAR(snd.transport().congestion().cwnd(), w0 * 1.25, 1e-9);
}

// --------------------------------------------------------- metric export --

TEST(MetricsExportTest, EpochsPublishNetAttributes) {
  CorePair p;
  for (int i = 0; i < 300; ++i) {
    p.snd->send({.bytes = 1400});
  }
  p.sim.run_until(TimePoint::zero() + Duration::seconds(60));
  auto& store = p.snd->attributes();
  ASSERT_TRUE(store.has(attr::kNetLossRatio));
  ASSERT_TRUE(store.has(attr::kNetRttMs));
  ASSERT_TRUE(store.has(attr::kNetCwndPkts));
  EXPECT_NEAR(*store.query_double(attr::kNetRttMs), 30.0, 10.0);
  EXPECT_GE(*store.query_double(attr::kNetLossRatio), 0.0);
}

TEST(MetricsExportTest, EpochsFeedCallbackRegistryAllMetrics) {
  // Regression: epochs must forward rtt / rate / cwnd to the callback
  // registry, not just the loss ratio — thresholds registered on any of the
  // NET_* metrics have to fire.
  CorePair p;
  int rtt_fired = 0, rate_fired = 0, cwnd_fired = 0;
  const auto noop = [](const attr::CallbackContext&) {
    return attr::AttrList{};
  };
  p.snd->callbacks().register_threshold(
      {.metric = attr::kNetRttMs, .upper = 1.0, .lower = -1.0},
      [&](const attr::CallbackContext& ctx) {
        ++rtt_fired;
        EXPECT_GT(ctx.value, 0.0);
        return attr::AttrList{};
      },
      noop);
  p.snd->callbacks().register_threshold(
      {.metric = attr::kNetRateBps, .upper = 1.0, .lower = -1.0},
      [&](const attr::CallbackContext&) {
        ++rate_fired;
        return attr::AttrList{};
      },
      noop);
  p.snd->callbacks().register_threshold(
      {.metric = attr::kNetCwndPkts, .upper = 1.0, .lower = -1.0},
      [&](const attr::CallbackContext&) {
        ++cwnd_fired;
        return attr::AttrList{};
      },
      noop);
  for (int i = 0; i < 200; ++i) p.snd->send({.bytes = 1400});
  p.sim.run_until(TimePoint::zero() + Duration::seconds(60));
  EXPECT_GT(rtt_fired, 0);
  EXPECT_GT(rate_fired, 0);
  EXPECT_GT(cwnd_fired, 0);
}

TEST(MetricsExportTest, EpochsFeedCallbackRegistryCmMetrics) {
  // Regression mirroring EpochsFeedCallbackRegistryAllMetrics for the
  // congestion-manager export path: with a CM attached, every epoch must
  // forward the iq.cm.* gauges to the callback registry so applications can
  // register thresholds on their apportioned share, not just on NET_*.
  cm::CmConfig mcfg;
  mcfg.aggregate.initial_cwnd = 8.0;
  cm::CongestionManager mgr(mcfg);  // outlives the pair: detach-before-dtor
  CorePair p;
  p.snd->attach_cm(mgr);
  int share_fired = 0, aggregate_fired = 0, changes_fired = 0;
  const auto noop = [](const attr::CallbackContext&) {
    return attr::AttrList{};
  };
  p.snd->callbacks().register_threshold(
      {.metric = attr::kCmShare, .upper = 1.0, .lower = -1.0},
      [&](const attr::CallbackContext& ctx) {
        ++share_fired;
        EXPECT_GT(ctx.value, 0.0);
        return attr::AttrList{};
      },
      noop);
  p.snd->callbacks().register_threshold(
      {.metric = attr::kCmAggregateCwnd, .upper = 1.0, .lower = -1.0},
      [&](const attr::CallbackContext&) {
        ++aggregate_fired;
        return attr::AttrList{};
      },
      noop);
  p.snd->callbacks().register_threshold(
      {.metric = attr::kCmApportionChanges, .upper = 0.5, .lower = -1.0},
      [&](const attr::CallbackContext&) {
        ++changes_fired;
        return attr::AttrList{};
      },
      noop);
  for (int i = 0; i < 200; ++i) p.snd->send({.bytes = 1400});
  p.sim.run_until(TimePoint::zero() + Duration::seconds(60));
  EXPECT_GT(share_fired, 0);
  EXPECT_GT(aggregate_fired, 0);
  // Attaching the flow was a structural apportionment, so the counter gauge
  // crosses 0.5 on the first export.
  EXPECT_GT(changes_fired, 0);
  auto& store = p.snd->attributes();
  ASSERT_TRUE(store.has(attr::kCmShare));
  ASSERT_TRUE(store.has(attr::kCmWeight));
  ASSERT_TRUE(store.has(attr::kCmFlows));
  EXPECT_EQ(*store.query_double(attr::kCmFlows), 1.0);
  p.snd->detach_cm();
}

TEST(MetricsExportTest, FailureCountersExportedPerEpoch) {
  // Regression: the robustness counters ride along with every epoch export,
  // and a healthy connection reads NET_FAILED = 0 (FailureReason::None).
  CorePair p;
  for (int i = 0; i < 200; ++i) p.snd->send({.bytes = 1400});
  p.sim.run_until(TimePoint::zero() + Duration::seconds(60));
  auto& store = p.snd->attributes();
  ASSERT_TRUE(store.has(attr::kNetConnectRetries));
  ASSERT_TRUE(store.has(attr::kNetRtoBackoffs));
  ASSERT_TRUE(store.has(attr::kNetKeepaliveMisses));
  ASSERT_TRUE(store.has(attr::kNetChecksumRejects));
  ASSERT_TRUE(store.has(attr::kNetSendsDropped));
  ASSERT_TRUE(store.has(attr::kNetFailed));
  EXPECT_EQ(*store.query_double(attr::kNetConnectRetries), 0.0);
  EXPECT_EQ(*store.query_double(attr::kNetChecksumRejects), 0.0);
  EXPECT_EQ(*store.query_double(attr::kNetSendsDropped), 0.0);
  EXPECT_EQ(*store.query_double(attr::kNetFailed), 0.0);
}

TEST(MetricsExportTest, FailurePublishesImmediatelyAndNotifiesObserver) {
  // A connection that never establishes produces no epochs, so the failure
  // path must publish NET_FAILED by itself, and the facade's error observer
  // must hear about it.
  sim::Simulator sim;
  wire::LossyConfig lcfg;
  lcfg.drop_probability = 1.0;  // nothing ever arrives
  wire::LossyWirePair wires(sim, lcfg);
  rudp::RudpConfig cfg;
  cfg.connect_retry = Duration::millis(100);
  cfg.max_connect_attempts = 2;
  IqRudpConnection snd(wires.a(), cfg, rudp::Role::Client);
  std::vector<rudp::FailureReason> observed;
  snd.set_error_observer(
      [&](rudp::FailureReason r) { observed.push_back(r); });
  snd.connect();
  sim.run_until(TimePoint::zero() + Duration::seconds(10));

  EXPECT_TRUE(snd.transport().failed());
  ASSERT_EQ(observed.size(), 1u);
  EXPECT_EQ(observed[0], rudp::FailureReason::HandshakeTimeout);
  auto& store = snd.attributes();
  ASSERT_TRUE(store.has(attr::kNetFailed));
  EXPECT_EQ(*store.query_double(attr::kNetFailed),
            static_cast<double>(rudp::FailureReason::HandshakeTimeout));
  EXPECT_EQ(*store.query_double(attr::kNetConnectRetries), 1.0);
}

TEST(IqConnectionTest, ThresholdCallbackDrivesCoordination) {
  // Full loop: epochs → registry → callback returns ADAPT_MARK →
  // coordinator enables discard.
  CorePair p;
  int fired = 0;
  p.snd->register_error_ratio_callbacks(
      /*upper=*/0.0,  // any epoch (loss >= 0) triggers the upper callback
      /*lower=*/-1.0,
      [&](const attr::CallbackContext&) {
        ++fired;
        return attr::AttrList{{attr::kAdaptMark, 0.5}};
      },
      [](const attr::CallbackContext&) { return attr::AttrList{}; });
  for (int i = 0; i < 200; ++i) p.snd->send({.bytes = 1400});
  p.sim.run_until(TimePoint::zero() + Duration::seconds(60));
  EXPECT_GT(fired, 0);
  EXPECT_TRUE(p.snd->transport().discard_unmarked());
}

TEST(IqConnectionTest, SendWithAttrsDeliversData) {
  CorePair p;
  std::vector<rudp::DeliveredMessage> got;
  p.rcv->set_message_handler(
      [&](const rudp::DeliveredMessage& m) { got.push_back(m); });
  attr::AttrList attrs{{attr::kAdaptPktSize, 0.1}};
  p.snd->send_with_attrs({.bytes = 5000}, attrs);
  p.sim.run_until(TimePoint::zero() + Duration::seconds(5));
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].bytes, 5000);
  // The adaptation attributes ride in-band to the receiver.
  EXPECT_EQ(got[0].attrs.get_double(attr::kAdaptPktSize), 0.1);
}

}  // namespace
}  // namespace iq::core
