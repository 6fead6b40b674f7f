// Tests for the per-host congestion manager (docs/CM.md): the apportionment
// policy, the CongestionManager/FlowHandle shared state, the CmAuditor
// invariants, and the integration with the transport and the IQ facade.

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <vector>

#include "iq/audit/cm_auditor.hpp"
#include "iq/cm/apportion.hpp"
#include "iq/cm/manager.hpp"
#include "iq/core/iq_connection.hpp"
#include "iq/sim/simulator.hpp"
#include "iq/wire/lossy_wire.hpp"

namespace iq::cm {
namespace {

TimePoint at_ms(std::int64_t ms) {
  return TimePoint::zero() + Duration::millis(ms);
}

// ------------------------------------------------------------ apportion ---

TEST(ApportionTest, EqualWeightsSplitEqually) {
  const std::array<double, 4> w{1.0, 1.0, 1.0, 1.0};
  std::array<double, 4> s{};
  const ApportionResult r = apportion(40.0, w, 1.0, s);
  for (double share : s) EXPECT_DOUBLE_EQ(share, 10.0);
  EXPECT_DOUBLE_EQ(r.sum, 40.0);
  EXPECT_DOUBLE_EQ(r.min_share, 10.0);
}

TEST(ApportionTest, WeightsSplitProportionallyAboveFloor) {
  const std::array<double, 2> w{2.0, 1.0};
  std::array<double, 2> s{};
  const ApportionResult r = apportion(32.0, w, 1.0, s);
  // floor 1 each, surplus 30 split 2:1 → 21 and 11.
  EXPECT_DOUBLE_EQ(s[0], 21.0);
  EXPECT_DOUBLE_EQ(s[1], 11.0);
  EXPECT_DOUBLE_EQ(r.sum, 32.0);
}

TEST(ApportionTest, FloorProtectsZeroWeightFlow) {
  const std::array<double, 2> w{1.0, 0.0};
  std::array<double, 2> s{};
  apportion(10.0, w, 1.0, s);
  EXPECT_DOUBLE_EQ(s[1], 1.0);  // floor only
  EXPECT_DOUBLE_EQ(s[0], 9.0);  // floor + all surplus
}

TEST(ApportionTest, DegeneratesToEqualSplitWhenAggregateBelowFloors) {
  // 8 flows, floor 1, aggregate 4: equal split of 0.5 each.
  const std::vector<double> w(8, 1.0);
  std::vector<double> s(8);
  const ApportionResult r = apportion(4.0, w, 1.0, s);
  for (double share : s) EXPECT_DOUBLE_EQ(share, 0.5);
  EXPECT_DOUBLE_EQ(r.min_share, 0.5);
}

TEST(ApportionTest, ZeroTotalWeightSplitsSurplusEqually) {
  const std::array<double, 2> w{0.0, 0.0};
  std::array<double, 2> s{};
  apportion(10.0, w, 1.0, s);
  EXPECT_DOUBLE_EQ(s[0], 5.0);
  EXPECT_DOUBLE_EQ(s[1], 5.0);
}

TEST(ApportionTest, NegativeWeightTreatedAsZero) {
  const std::array<double, 2> w{1.0, -3.0};
  std::array<double, 2> s{};
  apportion(10.0, w, 1.0, s);
  EXPECT_DOUBLE_EQ(s[1], 1.0);
  EXPECT_DOUBLE_EQ(s[0], 9.0);
}

TEST(ApportionTest, SumIsExactAfterDriftAbsorption) {
  // Awkward weights whose proportional shares don't sum exactly; the
  // largest share absorbs the drift and the reported sum is the true total.
  const std::array<double, 3> w{0.1, 0.3, 0.7};
  std::array<double, 3> s{};
  const ApportionResult r = apportion(17.77, w, 0.5, s);
  EXPECT_DOUBLE_EQ(r.sum, s[0] + s[1] + s[2]);
  EXPECT_NEAR(r.sum, 17.77, 1e-9);
}

TEST(ApportionTest, EmptyIsZero) {
  const ApportionResult r = apportion(10.0, {}, 1.0, {});
  EXPECT_DOUBLE_EQ(r.sum, 0.0);
}

// ----------------------------------------------------------- manager -----

CmConfig small_cm(double initial = 8.0) {
  CmConfig cfg;
  cfg.aggregate.initial_cwnd = initial;
  return cfg;
}

TEST(CongestionManagerTest, RegisterApportionsEqually) {
  CongestionManager mgr(small_cm(8.0));
  FlowHandle* a = mgr.register_flow();
  FlowHandle* b = mgr.register_flow();
  EXPECT_EQ(mgr.flow_count(), 2u);
  EXPECT_DOUBLE_EQ(a->share(), 4.0);
  EXPECT_DOUBLE_EQ(b->share(), 4.0);
  EXPECT_DOUBLE_EQ(a->cwnd(), a->share());
  mgr.unregister_flow(a);
  mgr.unregister_flow(b);
}

TEST(CongestionManagerTest, WeightsApportionProportionally) {
  CongestionManager mgr(small_cm(32.0));
  FlowHandle* a = mgr.register_flow(2.0);
  FlowHandle* b = mgr.register_flow(1.0);
  EXPECT_DOUBLE_EQ(a->share(), 21.0);
  EXPECT_DOUBLE_EQ(b->share(), 11.0);
  b->set_weight(2.0);
  EXPECT_DOUBLE_EQ(a->share(), 16.0);
  EXPECT_DOUBLE_EQ(b->share(), 16.0);
  mgr.unregister_flow(a);
  mgr.unregister_flow(b);
}

TEST(CongestionManagerTest, LeaveReturnsShareToSiblings) {
  CongestionManager mgr(small_cm(30.0));
  FlowHandle* a = mgr.register_flow();
  FlowHandle* b = mgr.register_flow();
  FlowHandle* c = mgr.register_flow();
  EXPECT_DOUBLE_EQ(a->share(), 10.0);
  int a_notified = 0;
  a->set_share_listener([&] { ++a_notified; });
  mgr.unregister_flow(b);
  EXPECT_DOUBLE_EQ(a->share(), 15.0);
  EXPECT_DOUBLE_EQ(c->share(), 15.0);
  EXPECT_EQ(a_notified, 1);  // grew → notified
  mgr.unregister_flow(a);
  mgr.unregister_flow(c);
}

TEST(CongestionManagerTest, ApportionChangesCountsStructuralOnly) {
  CongestionManager mgr(small_cm(8.0));
  FlowHandle* a = mgr.register_flow();   // structural
  FlowHandle* b = mgr.register_flow();   // structural
  a->on_ack(1, at_ms(10));               // not structural
  a->set_weight(3.0);                    // structural
  mgr.scale_aggregate(1.5);              // structural
  EXPECT_EQ(mgr.stats().apportion_changes, 4u);
  EXPECT_GE(mgr.stats().reapportions, 5u);
  mgr.unregister_flow(a);
  mgr.unregister_flow(b);
}

TEST(CongestionManagerTest, SharedAcksGrowAggregateOnce) {
  // Two flows' acks feed one macro-flow: aggregate growth matches what a
  // single flow with the same total ack stream would get.
  CongestionManager mgr(small_cm(10.0));
  FlowHandle* a = mgr.register_flow();
  FlowHandle* b = mgr.register_flow();
  const double before = mgr.aggregate_cwnd();
  a->on_ack(1, at_ms(1));
  b->on_ack(1, at_ms(2));

  rudp::LdaConfig solo_cfg;
  solo_cfg.initial_cwnd = 10.0;
  rudp::LdaController solo(solo_cfg);
  solo.on_ack(1, at_ms(1));
  solo.on_ack(1, at_ms(2));

  EXPECT_GT(mgr.aggregate_cwnd(), before);
  EXPECT_DOUBLE_EQ(mgr.aggregate_cwnd(), solo.cwnd());
  mgr.unregister_flow(a);
  mgr.unregister_flow(b);
}

TEST(CongestionManagerTest, LossDedupWithinWindow) {
  CongestionManager mgr(small_cm(10.0));
  FlowHandle* a = mgr.register_flow();
  FlowHandle* b = mgr.register_flow();
  // Simultaneous losses on both flows: one congestion event.
  a->on_timeout(at_ms(100));
  b->on_timeout(at_ms(101));
  const auto& st = mgr.stats();
  EXPECT_EQ(st.timeouts_reported, 2u);
  EXPECT_EQ(st.timeouts_penalized, 1u);
  EXPECT_EQ(st.timeouts_deduped, 1u);
  // Past the dedup window (min 10 ms, no RTT samples): a fresh event.
  b->on_timeout(at_ms(150));
  EXPECT_EQ(st.timeouts_penalized, 2u);
  EXPECT_EQ(st.timeouts_reported,
            st.timeouts_penalized + st.timeouts_deduped);
  mgr.unregister_flow(a);
  mgr.unregister_flow(b);
}

TEST(CongestionManagerTest, EpochsCollapseWithinWindow) {
  CongestionManager mgr(small_cm(64.0));
  FlowHandle* a = mgr.register_flow();
  FlowHandle* b = mgr.register_flow();
  a->on_epoch(0.10, at_ms(1000));  // applied (first)
  b->on_epoch(0.30, at_ms(1001));  // pending: within the window
  EXPECT_EQ(mgr.stats().epochs_reported, 2u);
  EXPECT_EQ(mgr.stats().epochs_applied, 1u);
  a->on_epoch(0.30, at_ms(1100));  // window expired → applies mean(0.3, 0.3)
  EXPECT_EQ(mgr.stats().epochs_applied, 2u);
  mgr.unregister_flow(a);
  mgr.unregister_flow(b);
}

TEST(CongestionManagerTest, DonationMovesShareNotAggregate) {
  CongestionManager mgr(small_cm(32.0));
  FlowHandle* video = mgr.register_flow(1.0);
  FlowHandle* bulk = mgr.register_flow(1.0);
  const double aggregate_before = mgr.aggregate_cwnd();
  const double bulk_before = bulk->share();
  // The coordinator's rescale hook on a CM flow is a donation: video halves
  // its weight; the freed window goes to bulk, the aggregate is unchanged.
  video->scale_window(0.5);
  EXPECT_DOUBLE_EQ(mgr.aggregate_cwnd(), aggregate_before);
  EXPECT_DOUBLE_EQ(video->weight(), 0.5);
  EXPECT_GT(bulk->share(), bulk_before);
  EXPECT_LT(video->share(), bulk->share());
  EXPECT_EQ(mgr.stats().donation_rescales, 1u);
  mgr.unregister_flow(video);
  mgr.unregister_flow(bulk);
}

TEST(CongestionManagerTest, AggregateRescaleScalesEveryShare) {
  CongestionManager mgr(small_cm(16.0));
  FlowHandle* a = mgr.register_flow();
  FlowHandle* b = mgr.register_flow();
  mgr.scale_aggregate(2.0);
  EXPECT_DOUBLE_EQ(mgr.aggregate_cwnd(), 32.0);
  EXPECT_DOUBLE_EQ(a->share(), 16.0);
  EXPECT_DOUBLE_EQ(b->share(), 16.0);
  EXPECT_EQ(mgr.stats().aggregate_rescales, 1u);
  mgr.unregister_flow(a);
  mgr.unregister_flow(b);
}

TEST(CongestionManagerTest, SharesAlwaysConserveAggregate) {
  CongestionManager mgr(small_cm(11.3));
  std::vector<FlowHandle*> flows;
  for (int i = 0; i < 5; ++i) {
    flows.push_back(mgr.register_flow(0.5 + i));
    double sum = 0.0;
    for (FlowHandle* f : flows) sum += f->share();
    EXPECT_NEAR(sum, mgr.aggregate_cwnd(), 1e-9);
  }
  for (FlowHandle* f : flows) mgr.unregister_flow(f);
}

// ------------------------------------------------------------ auditor ----

TEST(CmAuditorTest, CleanStreamHasNoViolations) {
  CongestionManager mgr(small_cm(12.0));
  audit::AuditConfig acfg;
  acfg.dump_on_violation = false;
  const audit::CmAuditor* aud = mgr.enable_audit(acfg);
  FlowHandle* a = mgr.register_flow();
  FlowHandle* b = mgr.register_flow(3.0);
  a->on_ack(1, at_ms(1));
  a->on_timeout(at_ms(20));
  b->on_timeout(at_ms(21));
  b->on_epoch(0.05, at_ms(500));
  a->scale_window(0.5);
  mgr.scale_aggregate(1.25);
  mgr.unregister_flow(a);
  mgr.unregister_flow(b);
  EXPECT_GT(aud->events_seen(), 0u);
  EXPECT_GT(aud->checks_performed(), 0u);
  EXPECT_TRUE(aud->violations().empty());
}

TEST(CmAuditorTest, SeededConservationViolationTrips) {
  audit::CmAuditor aud;
  audit::Event join;
  join.type = audit::EventType::CmFlowJoin;
  join.seq = 1;
  join.a = 1;
  aud.on_event(join);
  audit::Event app;
  app.type = audit::EventType::CmApportion;
  app.a = 1;
  app.x = 5.0;   // shares sum
  app.y = 8.0;   // aggregate — mismatch: conservation broken
  app.d = 5'000'000;
  aud.on_event(app);
  ASSERT_EQ(aud.violations().size(), 1u);
  EXPECT_EQ(aud.violations()[0].invariant, "cm-share-conservation");
}

TEST(CmAuditorTest, MissingReapportionAfterJoinTrips) {
  audit::CmAuditor aud;
  audit::Event join;
  join.type = audit::EventType::CmFlowJoin;
  join.seq = 1;
  join.a = 1;
  aud.on_event(join);
  audit::Event loss;
  loss.type = audit::EventType::CmLoss;
  loss.a = 1;
  loss.b = 1;
  loss.flag = 0x2;
  aud.on_event(loss);  // join not followed by an apportionment
  ASSERT_FALSE(aud.violations().empty());
  EXPECT_EQ(aud.violations()[0].invariant, "cm-reapportion-ordering");
}

TEST(CmAuditorTest, StarvationViolationTrips) {
  audit::CmAuditor aud;
  audit::CmAuditor::Policy policy;
  policy.share_floor = 1.0;
  policy.max_cwnd = 4096.0;
  aud.set_policy(policy);
  audit::Event join;
  join.type = audit::EventType::CmFlowJoin;
  join.seq = 1;
  join.a = 1;
  aud.on_event(join);
  audit::Event app;
  app.type = audit::EventType::CmApportion;
  app.a = 1;
  app.x = 8.0;
  app.y = 8.0;
  app.d = 100;  // min share 1e-4 « min(floor 1, 8/1)
  aud.on_event(app);
  ASSERT_EQ(aud.violations().size(), 1u);
  EXPECT_EQ(aud.violations()[0].invariant, "cm-anti-starvation");
}

TEST(CmAuditorTest, DedupAccountingViolationTrips) {
  audit::CmAuditor aud;
  audit::Event loss;
  loss.type = audit::EventType::CmLoss;
  loss.a = 3;
  loss.b = 1;
  loss.c = 1;  // 3 != 1 + 1
  loss.flag = 0x2;
  aud.on_event(loss);
  ASSERT_FALSE(aud.violations().empty());
  EXPECT_EQ(aud.violations()[0].invariant, "cm-loss-dedup");
}

// -------------------------------------------------------- integration ----

struct CmPair {
  sim::Simulator sim;
  wire::LossyWirePair wires_a{sim, {.one_way_delay = Duration::millis(15)}};
  wire::LossyWirePair wires_b{sim, {.one_way_delay = Duration::millis(15)}};
  CongestionManager mgr;
  std::unique_ptr<core::IqRudpConnection> snd_a, rcv_a, snd_b, rcv_b;

  CmPair() : mgr(small_cm(8.0)) {
    rudp::RudpConfig cfg;
    snd_a = std::make_unique<core::IqRudpConnection>(wires_a.a(), cfg,
                                                     rudp::Role::Client);
    rcv_a = std::make_unique<core::IqRudpConnection>(wires_a.b(), cfg,
                                                     rudp::Role::Server);
    cfg.conn_id = 2;
    snd_b = std::make_unique<core::IqRudpConnection>(wires_b.a(), cfg,
                                                     rudp::Role::Client);
    rcv_b = std::make_unique<core::IqRudpConnection>(wires_b.b(), cfg,
                                                     rudp::Role::Server);
    rcv_a->listen();
    rcv_b->listen();
    snd_a->connect();
    snd_b->connect();
    sim.run_until(at_ms(200));
  }
};

TEST(CmIntegrationTest, ConnectionWindowIsTheApportionedShare) {
  CmPair p;
  FlowHandle* fa = p.snd_a->attach_cm(p.mgr);
  FlowHandle* fb = p.snd_b->attach_cm(p.mgr);
  EXPECT_EQ(p.mgr.flow_count(), 2u);
  EXPECT_DOUBLE_EQ(p.snd_a->transport().congestion().cwnd(), fa->share());
  EXPECT_DOUBLE_EQ(p.snd_b->transport().congestion().cwnd(), fb->share());

  for (int i = 0; i < 200; ++i) {
    p.snd_a->send({.bytes = 1400});
    p.snd_b->send({.bytes = 1400});
  }
  p.sim.run_until(at_ms(20'000));
  EXPECT_GT(p.rcv_a->transport().stats().messages_delivered, 100u);
  EXPECT_GT(p.rcv_b->transport().stats().messages_delivered, 100u);
  // Still delegated, still conserving.
  EXPECT_DOUBLE_EQ(p.snd_a->transport().congestion().cwnd(), fa->share());
  EXPECT_NEAR(fa->share() + fb->share(), p.mgr.aggregate_cwnd(), 1e-9);
  p.snd_a->detach_cm();
  p.snd_b->detach_cm();
}

TEST(CmIntegrationTest, DetachRestoresBuiltInController) {
  CmPair p;
  const double builtin = p.snd_a->transport().congestion().cwnd();
  p.snd_a->attach_cm(p.mgr);
  EXPECT_NE(p.snd_a->transport().congestion().name(), "lda");
  p.snd_a->detach_cm();
  EXPECT_EQ(p.snd_a->transport().congestion().name(), "lda");
  EXPECT_DOUBLE_EQ(p.snd_a->transport().congestion().cwnd(), builtin);
  EXPECT_EQ(p.mgr.flow_count(), 0u);
  EXPECT_EQ(p.snd_a->cm_flow(), nullptr);
}

TEST(CmIntegrationTest, PriorityAttrOnSendSetsWeight) {
  CmPair p;
  FlowHandle* fa = p.snd_a->attach_cm(p.mgr);
  p.snd_b->attach_cm(p.mgr);
  attr::AttrList attrs{{attr::kFlowPriority, 2.0}};
  p.snd_a->send_with_attrs({.bytes = 1400}, attrs);
  EXPECT_DOUBLE_EQ(fa->weight(), 2.0);
  EXPECT_EQ(p.snd_a->coordinator().stats().priority_updates, 1u);
  EXPECT_GT(fa->share(), p.mgr.aggregate_cwnd() / 2.0);
  p.snd_a->detach_cm();
  p.snd_b->detach_cm();
}

TEST(CmIntegrationTest, CoordinatorDonationKeepsAggregate) {
  // A resolution adaptation on a CM-attached flow reweights the flow
  // (donation) instead of inflating the shared aggregate.
  CmPair p;
  FlowHandle* fa = p.snd_a->attach_cm(p.mgr);
  FlowHandle* fb = p.snd_b->attach_cm(p.mgr);
  const double aggregate = p.mgr.aggregate_cwnd();
  const double fb_before = fb->share();
  attr::AttrList attrs{{attr::kAdaptPktSize, -0.5},  // frames grow → shrink
                       {attr::kAppFrameBytes, std::int64_t{700}}};
  p.snd_a->send_with_attrs({.bytes = 700}, attrs);
  EXPECT_DOUBLE_EQ(p.mgr.aggregate_cwnd(), aggregate);
  EXPECT_LT(fa->weight(), 1.0);
  EXPECT_GT(fb->share(), fb_before);
  p.snd_a->detach_cm();
  p.snd_b->detach_cm();
}

TEST(CmIntegrationTest, AggregateRescaleModeRoutesToManager) {
  sim::Simulator sim;
  wire::LossyWirePair wires(sim, {.one_way_delay = Duration::millis(15)});
  CongestionManager mgr(small_cm(8.0));
  rudp::RudpConfig cfg;
  core::CoordinatorConfig ccfg;
  ccfg.cm_aggregate_rescale = true;
  core::IqRudpConnection snd(wires.a(), cfg, rudp::Role::Client, ccfg);
  core::IqRudpConnection rcv(wires.b(), cfg, rudp::Role::Server);
  rcv.listen();
  snd.connect();
  sim.run_until(at_ms(200));

  snd.attach_cm(mgr);
  const double aggregate = mgr.aggregate_cwnd();
  attr::AttrList attrs{{attr::kAdaptPktSize, 0.2},
                      {attr::kAppFrameBytes, std::int64_t{700}}};
  snd.send_with_attrs({.bytes = 700}, attrs);
  EXPECT_NEAR(mgr.aggregate_cwnd(), aggregate * 1.25, 1e-9);
  EXPECT_EQ(snd.coordinator().stats().aggregate_rescales, 1u);
  EXPECT_EQ(mgr.stats().aggregate_rescales, 1u);
  snd.detach_cm();
}

TEST(CmIntegrationTest, FailureDetachesAndReturnsShare) {
  sim::Simulator sim;
  wire::LossyConfig lcfg;
  lcfg.drop_probability = 1.0;  // dead path: the handshake can never finish
  wire::LossyWirePair dead(sim, lcfg);
  wire::LossyWirePair live(sim, {.one_way_delay = Duration::millis(15)});
  CongestionManager mgr(small_cm(8.0));
  rudp::RudpConfig cfg;
  cfg.connect_retry = Duration::millis(100);
  cfg.max_connect_attempts = 2;
  core::IqRudpConnection doomed(dead.a(), cfg, rudp::Role::Client);
  rudp::RudpConfig live_cfg;
  live_cfg.conn_id = 2;
  core::IqRudpConnection snd(live.a(), live_cfg, rudp::Role::Client);
  core::IqRudpConnection rcv(live.b(), live_cfg, rudp::Role::Server);
  rcv.listen();
  snd.connect();
  doomed.connect();
  FlowHandle* doomed_flow = doomed.attach_cm(mgr);
  FlowHandle* live_flow = snd.attach_cm(mgr);
  ASSERT_EQ(mgr.flow_count(), 2u);
  EXPECT_DOUBLE_EQ(doomed_flow->share(), 4.0);

  sim.run_until(at_ms(10'000));
  EXPECT_TRUE(doomed.transport().failed());
  // The failed flow auto-detached; its share went back to the survivor.
  EXPECT_EQ(doomed.cm_flow(), nullptr);
  EXPECT_EQ(mgr.flow_count(), 1u);
  EXPECT_DOUBLE_EQ(live_flow->share(), mgr.aggregate_cwnd());
  snd.detach_cm();
}

TEST(CmIntegrationTest, EpochsExportCmAttrs) {
  CmPair p;
  p.snd_a->attach_cm(p.mgr);
  p.snd_b->attach_cm(p.mgr);
  for (int i = 0; i < 200; ++i) p.snd_a->send({.bytes = 1400});
  p.sim.run_until(at_ms(60'000));
  auto& store = p.snd_a->attributes();
  ASSERT_TRUE(store.has(attr::kCmShare));
  ASSERT_TRUE(store.has(attr::kCmAggregateCwnd));
  ASSERT_TRUE(store.has(attr::kCmFlows));
  EXPECT_EQ(*store.query_double(attr::kCmFlows), 2.0);
  EXPECT_GT(*store.query_double(attr::kCmShare), 0.0);
  EXPECT_GE(*store.query_double(attr::kCmAggregateCwnd),
            *store.query_double(attr::kCmShare));
  p.snd_a->detach_cm();
  p.snd_b->detach_cm();
}

}  // namespace
}  // namespace iq::cm
