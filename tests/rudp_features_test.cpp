// Feature tests for the less-travelled protocol paths: delayed acks,
// mid-connection tolerance re-advertisement, close during transfer, and
// one-way-delay accounting.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "iq/rudp/connection.hpp"
#include "iq/sim/simulator.hpp"
#include "iq/wire/lossy_wire.hpp"

namespace iq::rudp {
namespace {

struct FeaturePair {
  sim::Simulator sim;
  wire::LossyWirePair wires;
  std::unique_ptr<RudpConnection> sender;
  std::unique_ptr<RudpConnection> receiver;
  std::vector<DeliveredMessage> delivered;

  FeaturePair(RudpConfig scfg, RudpConfig rcfg)
      : FeaturePair(wire::LossyConfig{}, scfg, rcfg) {}
  FeaturePair(const wire::LossyConfig& lcfg, RudpConfig scfg, RudpConfig rcfg)
      : wires(sim, lcfg) {
    sender = std::make_unique<RudpConnection>(wires.a(), scfg, Role::Client);
    receiver = std::make_unique<RudpConnection>(wires.b(), rcfg, Role::Server);
    receiver->set_message_handler(
        [this](const DeliveredMessage& m) { delivered.push_back(m); });
    receiver->listen();
    sender->connect();
    sim.run_until(TimePoint::zero() + Duration::millis(200));
  }

  void run_s(double s) { sim.run_until(sim.now() + Duration::from_seconds(s)); }
};

// ---------------------------------------------------------- delayed acks --

TEST(DelayedAckTest, FewerAcksSameDelivery) {
  RudpConfig eager;
  RudpConfig delayed;
  delayed.ack_every = 4;

  FeaturePair p1(eager, eager);
  FeaturePair p2(eager, delayed);
  for (int i = 0; i < 40; ++i) {
    p1.sender->send_message({.bytes = 5000});
    p2.sender->send_message({.bytes = 5000});
  }
  p1.run_s(20);
  p2.run_s(20);
  EXPECT_EQ(p1.delivered.size(), 40u);
  EXPECT_EQ(p2.delivered.size(), 40u);
  // Batched acks: at most ~1/4 of the eager count (plus flush-timer acks).
  EXPECT_LT(p2.receiver->stats().acks_sent,
            p1.receiver->stats().acks_sent / 2);
}

TEST(DelayedAckTest, FlushTimerBoundsAckLatency) {
  RudpConfig rcfg;
  rcfg.ack_every = 100;             // effectively "never by count"
  rcfg.ack_delay = Duration::millis(50);
  FeaturePair p({}, rcfg);
  p.sender->send_message({.bytes = 1000});  // a single in-order segment
  p.run_s(1.0);
  // The flush timer must have acked it; the sender's buffer is clean.
  EXPECT_TRUE(p.sender->send_idle());
  EXPECT_EQ(p.delivered.size(), 1u);
}

TEST(DelayedAckTest, ReliableUnderLossWithDelayedAcks) {
  wire::LossyConfig lcfg;
  lcfg.drop_probability = 0.15;
  lcfg.seed = 21;
  RudpConfig scfg;
  RudpConfig rcfg;
  rcfg.ack_every = 3;
  FeaturePair p(lcfg, scfg, rcfg);
  ASSERT_TRUE(p.sender->established());
  for (int i = 0; i < 40; ++i) p.sender->send_message({.bytes = 4000});
  p.run_s(120);
  EXPECT_EQ(p.delivered.size(), 40u);
}

// ------------------------------------------- tolerance re-advertisement ---

TEST(ToleranceUpdateTest, MidConnectionUpdateReachesSender) {
  RudpConfig scfg;
  RudpConfig rcfg;
  rcfg.recv_loss_tolerance = 0.1;
  FeaturePair p(scfg, rcfg);
  EXPECT_DOUBLE_EQ(p.sender->peer_recv_tolerance(), 0.1);

  p.receiver->set_local_recv_tolerance(0.6);
  p.run_s(0.5);
  EXPECT_DOUBLE_EQ(p.sender->peer_recv_tolerance(), 0.6);
}

TEST(ToleranceUpdateTest, RaisedToleranceEnablesMoreSkips) {
  wire::LossyConfig lcfg;
  lcfg.drop_probability = 0.3;
  lcfg.seed = 31;
  RudpConfig scfg;
  RudpConfig rcfg;
  rcfg.recv_loss_tolerance = 0.0;  // initially fully reliable
  FeaturePair p(lcfg, scfg, rcfg);
  ASSERT_TRUE(p.sender->established());

  for (int i = 0; i < 30; ++i) {
    p.sender->send_message({.bytes = 1400, .marked = false});
  }
  p.run_s(60);
  EXPECT_EQ(p.sender->stats().messages_skipped, 0u);
  EXPECT_EQ(p.delivered.size(), 30u);

  p.receiver->set_local_recv_tolerance(0.5);
  p.run_s(1);
  for (int i = 0; i < 30; ++i) {
    p.sender->send_message({.bytes = 1400, .marked = false});
  }
  p.run_s(120);
  EXPECT_GT(p.sender->stats().messages_skipped, 0u);
  EXPECT_EQ(p.delivered.size() + p.receiver->stats().messages_dropped, 60u);
}

// ---------------------------------------------------- close mid-transfer --

TEST(CloseTest, CloseDuringTransferIsClean) {
  FeaturePair p(RudpConfig{}, RudpConfig{});
  for (int i = 0; i < 100; ++i) p.sender->send_message({.bytes = 10'000});
  p.run_s(0.2);  // transfer in full flight
  p.sender->close();
  EXPECT_EQ(p.sender->state(), ConnState::Closed);
  p.run_s(5);
  // Receiver learned of the close; no timers keep the sim alive forever.
  EXPECT_EQ(p.receiver->state(), ConnState::Closed);
  EXPECT_TRUE(p.sim.idle());
}

TEST(CloseTest, SendAfterCloseDoesNotTransmit) {
  FeaturePair p(RudpConfig{}, RudpConfig{});
  p.sender->close();
  const auto sent_before = p.sender->stats().segments_sent;
  p.sender->send_message({.bytes = 1000});
  p.run_s(2);
  EXPECT_EQ(p.sender->stats().segments_sent, sent_before);
  EXPECT_TRUE(p.delivered.empty());
}

// ------------------------------------------------------- one-way delay ----

TEST(OneWayDelayTest, MatchesPathDelay) {
  FeaturePair p(RudpConfig{}, RudpConfig{});
  p.sender->send_message({.bytes = 500});
  p.run_s(2);
  ASSERT_EQ(p.delivered.size(), 1u);
  const Duration owd = p.delivered[0].delivered - p.delivered[0].first_sent;
  // One-way delay of the 15 ms pipe (plus microsecond rounding).
  EXPECT_NEAR(owd.to_millis(), 15.0, 0.5);
}

}  // namespace
}  // namespace iq::rudp
