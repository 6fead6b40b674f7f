// Connection failure semantics: bounded handshake retries with exponential
// backoff, RTO-streak dead-path detection, keepalive-based dead-peer
// detection, blackout recovery (loss-epoch reset), and drop-oldest
// backpressure on the send queue.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "iq/rudp/connection.hpp"
#include "iq/sim/simulator.hpp"
#include "iq/wire/lossy_wire.hpp"

namespace iq::rudp {
namespace {

struct LossyPair {
  sim::Simulator sim;
  wire::LossyWirePair wire;
  RudpConnection sender;
  RudpConnection receiver;
  std::vector<DeliveredMessage> delivered;
  std::vector<FailureReason> errors;

  explicit LossyPair(const wire::LossyConfig& lcfg, RudpConfig scfg = {},
                     RudpConfig rcfg = {})
      : wire(sim, lcfg),
        sender(wire.a(), scfg, Role::Client),
        receiver(wire.b(), rcfg, Role::Server) {
    receiver.set_message_handler(
        [this](const DeliveredMessage& m) { delivered.push_back(m); });
    sender.set_error_handler(
        [this](FailureReason r) { errors.push_back(r); });
    receiver.listen();
    sender.connect();
  }

  void run_ms(std::int64_t ms) {
    sim.run_until(sim.now() + Duration::millis(ms));
  }
};

// ------------------------------------------------------------ handshake ---

TEST(FailureTest, HandshakeExhaustionEntersFailed) {
  wire::LossyConfig lcfg;
  lcfg.drop_probability = 1.0;  // no SYN ever arrives
  RudpConfig cfg;
  cfg.connect_retry = Duration::millis(100);
  cfg.max_connect_attempts = 3;
  LossyPair p(lcfg, cfg);
  p.run_ms(5000);

  EXPECT_TRUE(p.sender.failed());
  EXPECT_EQ(p.sender.state(), ConnState::Failed);
  EXPECT_EQ(p.sender.failure_reason(), FailureReason::HandshakeTimeout);
  EXPECT_EQ(p.sender.stats().connect_retries, 2u);  // SYNs after the first
  EXPECT_EQ(p.sender.stats().failures, 1u);
  ASSERT_EQ(p.errors.size(), 1u);
  EXPECT_EQ(p.errors[0], FailureReason::HandshakeTimeout);
}

TEST(FailureTest, HandshakeRetriesBackOffExponentiallyWithCap) {
  wire::LossyConfig lcfg;
  lcfg.drop_probability = 1.0;
  RudpConfig cfg;
  cfg.connect_retry = Duration::millis(100);
  cfg.connect_retry_cap = Duration::millis(400);
  cfg.max_connect_attempts = 6;
  LossyPair p(lcfg, cfg);
  std::vector<TimePoint> syn_times;
  p.sender.set_segment_tap(
      [&](RudpConnection::TapDirection dir, const Segment& s) {
        if (dir == RudpConnection::TapDirection::Out &&
            s.type == SegmentType::Syn) {
          syn_times.push_back(p.sim.now());
        }
      });
  p.run_ms(10'000);

  // First SYN went out before the tap was installed (connect() in the
  // fixture ctor); gaps between the remaining ones are 200, 400, 400, 400 ms
  // — doubling from the second retry, clamped at the cap.
  ASSERT_EQ(syn_times.size(), 5u);
  const std::int64_t expected_gaps_ms[] = {200, 400, 400, 400};
  for (std::size_t i = 1; i < syn_times.size(); ++i) {
    EXPECT_EQ((syn_times[i] - syn_times[i - 1]).ms(), expected_gaps_ms[i - 1])
        << "gap " << i;
  }
  EXPECT_TRUE(p.sender.failed());
}

TEST(FailureTest, HandshakeSucceedsBeforeExhaustionStaysClean) {
  wire::LossyConfig lcfg;  // lossless
  RudpConfig cfg;
  cfg.max_connect_attempts = 3;
  LossyPair p(lcfg, cfg);
  p.run_ms(1000);
  EXPECT_TRUE(p.sender.established());
  EXPECT_FALSE(p.sender.failed());
  EXPECT_EQ(p.sender.failure_reason(), FailureReason::None);
  EXPECT_TRUE(p.errors.empty());
}

// ------------------------------------------------------------ RTO streak --

TEST(FailureTest, RtoStreakOnDeadPathEntersFailed) {
  wire::LossyConfig lcfg;
  RudpConfig cfg;
  cfg.max_rto_streak = 4;
  LossyPair p(lcfg, cfg);
  p.run_ms(200);
  ASSERT_TRUE(p.sender.established());

  p.wire.set_blackout(true);  // path dies, permanently
  p.sender.send_message({.bytes = 500});
  p.run_ms(120'000);

  EXPECT_TRUE(p.sender.failed());
  EXPECT_EQ(p.sender.failure_reason(), FailureReason::RtoStreak);
  EXPECT_GE(p.sender.stats().rto_backoffs, 4u);
  ASSERT_EQ(p.errors.size(), 1u);
  EXPECT_EQ(p.errors[0], FailureReason::RtoStreak);
}

TEST(FailureTest, RtoStreakDisabledNeverFails) {
  wire::LossyConfig lcfg;
  RudpConfig cfg;
  cfg.max_rto_streak = 0;  // disabled
  LossyPair p(lcfg, cfg);
  p.run_ms(200);
  ASSERT_TRUE(p.sender.established());
  p.wire.set_blackout(true);
  p.sender.send_message({.bytes = 500});
  p.run_ms(300'000);
  EXPECT_FALSE(p.sender.failed());
  EXPECT_GT(p.sender.stats().rto_backoffs, 0u);
}

// -------------------------------------------------------------- keepalive --

TEST(FailureTest, KeepaliveMissesDetectDeadPeer) {
  wire::LossyConfig lcfg;
  RudpConfig cfg;
  cfg.keepalive = Duration::millis(200);
  cfg.max_keepalive_misses = 3;
  LossyPair p(lcfg, cfg, cfg);
  p.run_ms(300);
  ASSERT_TRUE(p.sender.established());

  p.wire.set_blackout(true);  // idle connection, peer unreachable
  p.run_ms(10'000);

  EXPECT_TRUE(p.sender.failed());
  EXPECT_EQ(p.sender.failure_reason(), FailureReason::KeepaliveTimeout);
  EXPECT_GE(p.sender.stats().keepalive_misses, 3u);
}

TEST(FailureTest, AnsweredKeepalivesNeverAccumulateMisses) {
  wire::LossyConfig lcfg;
  RudpConfig cfg;
  cfg.keepalive = Duration::millis(200);
  cfg.max_keepalive_misses = 2;
  LossyPair p(lcfg, cfg, cfg);
  p.run_ms(20'000);  // long idle stretch over a healthy path
  EXPECT_TRUE(p.sender.established());
  EXPECT_FALSE(p.sender.failed());
  EXPECT_EQ(p.sender.stats().keepalive_misses, 0u);
  EXPECT_GT(p.sender.stats().nuls_sent, 10u);  // probes did flow
}

TEST(FailureTest, HighRttKeepaliveDoesNotFalseTrip) {
  // Satellite regression: a 500 ms RTT path with a 200 ms keepalive clock.
  // Before the keepalive interval was bounded below by the RTO, two probe
  // intervals (400 ms) elapsed before any probe's reply could return one
  // full RTT later — an always-on keepalive false-tripped every healthy
  // long-RTT connection. The effective interval max(keepalive, rto) keeps
  // the probe clock at or above the path's reply time.
  wire::LossyConfig lcfg;
  lcfg.one_way_delay = Duration::millis(250);  // 500 ms RTT
  RudpConfig cfg;
  cfg.keepalive = Duration::millis(200);  // sub-RTT probe clock
  cfg.max_keepalive_misses = 2;
  LossyPair p(lcfg, cfg, cfg);
  p.run_ms(2000);
  ASSERT_TRUE(p.sender.established());

  p.run_ms(30'000);  // long idle stretch at 500 ms RTT
  EXPECT_TRUE(p.sender.established());
  EXPECT_FALSE(p.sender.failed());
  EXPECT_GT(p.sender.stats().nuls_sent, 5u);  // probes did flow

  // Dead-peer detection still works with the bounded interval.
  p.wire.set_blackout(true);
  p.run_ms(60'000);
  EXPECT_TRUE(p.sender.failed());
  EXPECT_EQ(p.sender.failure_reason(), FailureReason::KeepaliveTimeout);
}

TEST(FailureTest, HighRttDataFlowNeverTripsRtoStreak) {
  // 500 ms RTT with default failure knobs: a streaming sender must not
  // accumulate a terminal RTO streak on a healthy (if slow) path — every
  // delivery resets the streak.
  wire::LossyConfig lcfg;
  lcfg.one_way_delay = Duration::millis(250);
  RudpConfig cfg;  // default max_rto_streak = 8
  LossyPair p(lcfg, cfg);
  p.run_ms(3000);
  ASSERT_TRUE(p.sender.established());

  for (int burst = 0; burst < 20; ++burst) {
    for (int i = 0; i < 5; ++i) p.sender.send_message({.bytes = 1200});
    p.run_ms(1000);
  }
  EXPECT_FALSE(p.sender.failed());
  EXPECT_TRUE(p.sender.established());
  EXPECT_EQ(p.delivered.size(), 100u);
}

// ------------------------------------------------------ blackout recovery --

TEST(FailureTest, SurvivableBlackoutRecoversAndResetsEpoch) {
  wire::LossyConfig lcfg;
  RudpConfig cfg;  // defaults: max_rto_streak = 8 tolerates a 2 s outage
  LossyPair p(lcfg, cfg);
  p.run_ms(200);
  ASSERT_TRUE(p.sender.established());

  // Keep traffic flowing, cut the wire for 2 s mid-run, restore.
  for (int i = 0; i < 20; ++i) p.sender.send_message({.bytes = 1000});
  p.run_ms(500);
  p.wire.set_blackout(true);
  for (int i = 0; i < 5; ++i) p.sender.send_message({.bytes = 1000});
  p.run_ms(2000);
  EXPECT_FALSE(p.sender.failed()) << "failed during a survivable outage";
  p.wire.set_blackout(false);
  p.run_ms(30'000);

  EXPECT_FALSE(p.sender.failed());
  EXPECT_TRUE(p.sender.established());
  EXPECT_GE(p.sender.stats().blackout_recoveries, 1u);
  EXPECT_EQ(p.delivered.size(), 25u);  // everything sent eventually arrives
}

// ----------------------------------------------------------- backpressure --

TEST(FailureTest, BackpressureShedsOldestWholeMessages) {
  wire::LossyConfig lcfg;
  RudpConfig cfg;
  LossyPair p(lcfg, cfg);
  p.run_ms(200);
  ASSERT_TRUE(p.sender.established());

  p.wire.set_blackout(true);  // nothing drains while we flood
  p.sender.set_max_pending_segments(10);
  const int kOffered = 50;
  for (int i = 0; i < kOffered; ++i) {
    p.sender.send_message({.bytes = 1000});  // 1 segment each
  }
  p.run_ms(10);
  EXPECT_LE(p.sender.queued_segments(), 10u + 2u);  // bound holds (±inflight)
  EXPECT_GT(p.sender.stats().messages_shed, 0u);

  p.wire.set_blackout(false);
  p.run_ms(60'000);
  // Conservation: every offered message was either shed or delivered.
  EXPECT_EQ(p.delivered.size() + p.sender.stats().messages_shed,
            static_cast<std::size_t>(kOffered));
  // Drop-oldest: the survivors are still in order and include the newest
  // message; the shed ones leave a gap in the middle (the messages already
  // in flight when the flood began are retransmitted, not shed).
  for (std::size_t i = 1; i < p.delivered.size(); ++i) {
    EXPECT_LT(p.delivered[i - 1].msg_id, p.delivered[i].msg_id);
  }
  ASSERT_FALSE(p.delivered.empty());
  EXPECT_EQ(p.delivered.back().msg_id, static_cast<std::uint32_t>(kOffered));
}

TEST(FailureTest, BackpressureNeverShedsPartiallySentMessage) {
  wire::LossyConfig lcfg;
  RudpConfig cfg;
  LossyPair p(lcfg, cfg);
  p.run_ms(200);
  ASSERT_TRUE(p.sender.established());

  // A large fragmented message goes first; once its head fragments are in
  // flight the rest of its run at the queue front must be unshedable.
  p.sender.send_message({.bytes = 20'000});  // ~15 fragments
  p.run_ms(5);                               // pump a couple of fragments
  p.wire.set_blackout(true);
  p.sender.set_max_pending_segments(4);
  for (int i = 0; i < 30; ++i) p.sender.send_message({.bytes = 1000});
  p.run_ms(10);
  p.wire.set_blackout(false);
  p.run_ms(60'000);

  ASSERT_FALSE(p.delivered.empty());
  // The partially-sent 20 kB message survived the shed and arrived intact.
  EXPECT_EQ(p.delivered.front().bytes, 20'000);
  EXPECT_GT(p.sender.stats().messages_shed, 0u);
}

TEST(FailureTest, UnboundedQueueNeverSheds) {
  wire::LossyConfig lcfg;
  LossyPair p(lcfg);
  p.run_ms(200);
  ASSERT_TRUE(p.sender.established());
  p.wire.set_blackout(true);
  for (int i = 0; i < 200; ++i) p.sender.send_message({.bytes = 1000});
  p.run_ms(100);
  EXPECT_EQ(p.sender.stats().messages_shed, 0u);
  EXPECT_GE(p.sender.queued_segments(), 190u);
}

// ------------------------------------------------------- failed terminal --

TEST(FailureTest, FailedStateIsTerminalAndSilent) {
  wire::LossyConfig lcfg;
  lcfg.drop_probability = 1.0;
  RudpConfig cfg;
  cfg.connect_retry = Duration::millis(100);
  cfg.max_connect_attempts = 2;
  LossyPair p(lcfg, cfg);
  p.run_ms(5000);
  ASSERT_TRUE(p.sender.failed());
  const std::uint64_t failures = p.sender.stats().failures;

  // Another 60 s changes nothing: no more retries, no second error event.
  p.run_ms(60'000);
  EXPECT_EQ(p.sender.stats().failures, failures);
  EXPECT_EQ(p.errors.size(), 1u);
}

}  // namespace
}  // namespace iq::rudp
