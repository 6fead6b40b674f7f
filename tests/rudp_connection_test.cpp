// End-to-end protocol tests for RudpConnection over in-memory wires:
// handshake, transfer, retransmission, adaptive reliability, keepalive.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <set>
#include <vector>

#include "iq/rudp/connection.hpp"
#include "iq/sim/simulator.hpp"
#include "iq/wire/lossy_wire.hpp"

namespace iq::rudp {
namespace {

struct Pair {
  sim::Simulator sim;
  wire::LossyWirePair wires;
  std::unique_ptr<RudpConnection> sender;
  std::unique_ptr<RudpConnection> receiver;
  std::vector<DeliveredMessage> delivered;

  explicit Pair(RudpConfig cfg = {}, RudpConfig rcfg_override = {},
                bool use_rcfg = false)
      : Pair(wire::LossyConfig{}, cfg, use_rcfg ? rcfg_override : cfg) {}

  explicit Pair(const wire::LossyConfig& lcfg, RudpConfig cfg = {},
                RudpConfig rcfg = {})
      : wires(sim, lcfg) {
    sender = std::make_unique<RudpConnection>(wires.a(), cfg, Role::Client);
    receiver = std::make_unique<RudpConnection>(wires.b(), rcfg, Role::Server);
    hook();
  }

  void hook() {
    receiver->set_message_handler(
        [this](const DeliveredMessage& m) { delivered.push_back(m); });
    receiver->listen();
    sender->connect();
  }

  void run_ms(std::int64_t ms) {
    sim.run_until(sim.now() + Duration::millis(ms));
  }
};

TEST(RudpConnectionTest, HandshakeEstablishes) {
  Pair p;
  EXPECT_FALSE(p.sender->established());
  p.run_ms(100);
  EXPECT_TRUE(p.sender->established());
  EXPECT_TRUE(p.receiver->established());
}

TEST(RudpConnectionTest, EstablishedHandlerFires) {
  Pair p;
  int fired = 0;
  p.sender->set_established_handler([&] { ++fired; });
  p.run_ms(100);
  EXPECT_EQ(fired, 1);
}

TEST(RudpConnectionTest, HandshakeSurvivesSynLoss) {
  wire::LossyConfig lcfg;
  lcfg.drop_probability = 0.8;  // most SYNs die; retry must win eventually
  lcfg.seed = 3;
  RudpConfig cfg;
  cfg.max_connect_attempts = 200;
  cfg.connect_retry_cap = cfg.connect_retry;  // fixed interval: 200 × 500ms
  Pair p(lcfg, cfg);
  p.run_ms(60000);
  EXPECT_TRUE(p.sender->established());
}

TEST(RudpConnectionTest, SmallMessageDelivered) {
  Pair p;
  p.run_ms(100);
  auto res = p.sender->send_message({.bytes = 500});
  EXPECT_FALSE(res.discarded);
  p.run_ms(200);
  ASSERT_EQ(p.delivered.size(), 1u);
  EXPECT_EQ(p.delivered[0].bytes, 500);
  EXPECT_TRUE(p.delivered[0].marked);
}

TEST(RudpConnectionTest, LargeMessageFragmentsAndReassembles) {
  Pair p;
  p.run_ms(100);
  p.sender->send_message({.bytes = 100'000});  // 72 fragments
  p.run_ms(5000);
  ASSERT_EQ(p.delivered.size(), 1u);
  EXPECT_EQ(p.delivered[0].bytes, 100'000);
  EXPECT_GT(p.sender->stats().segments_sent, 70u);
}

TEST(RudpConnectionTest, ManyMessagesInOrder) {
  Pair p;
  p.run_ms(100);
  for (int i = 0; i < 50; ++i) {
    p.sender->send_message({.bytes = 3000});
  }
  p.run_ms(5000);
  ASSERT_EQ(p.delivered.size(), 50u);
  for (std::size_t i = 1; i < p.delivered.size(); ++i) {
    EXPECT_GT(p.delivered[i].msg_id, p.delivered[i - 1].msg_id);
    EXPECT_GE(p.delivered[i].delivered, p.delivered[i - 1].delivered);
  }
}

TEST(RudpConnectionTest, ZeroByteMessageDelivered) {
  Pair p;
  p.run_ms(100);
  p.sender->send_message({.bytes = 0});
  p.run_ms(200);
  ASSERT_EQ(p.delivered.size(), 1u);
  EXPECT_EQ(p.delivered[0].bytes, 0);
}

TEST(RudpConnectionTest, AttrsArriveWithMessage) {
  Pair p;
  p.run_ms(100);
  MessageSpec spec;
  spec.bytes = 2000;
  spec.attrs.set("frame", std::int64_t{42});
  p.sender->send_message(spec);
  p.run_ms(500);
  ASSERT_EQ(p.delivered.size(), 1u);
  EXPECT_EQ(p.delivered[0].attrs.get_int("frame"), 42);
}

TEST(RudpConnectionTest, ReliableUnderHeavyLoss) {
  wire::LossyConfig lcfg;
  lcfg.drop_probability = 0.2;
  lcfg.seed = 11;
  Pair p(lcfg);
  p.run_ms(2000);
  ASSERT_TRUE(p.sender->established());
  for (int i = 0; i < 40; ++i) p.sender->send_message({.bytes = 5000});
  p.run_ms(60000);
  EXPECT_EQ(p.delivered.size(), 40u);
  EXPECT_GT(p.sender->stats().segments_retransmitted, 0u);
}

TEST(RudpConnectionTest, ReliableUnderReordering) {
  wire::LossyConfig lcfg;
  lcfg.reorder_jitter = Duration::millis(40);
  lcfg.seed = 13;
  Pair p(lcfg);
  p.run_ms(1000);
  for (int i = 0; i < 30; ++i) p.sender->send_message({.bytes = 4000});
  p.run_ms(30000);
  ASSERT_EQ(p.delivered.size(), 30u);
  for (std::size_t i = 1; i < 30; ++i) {
    EXPECT_GT(p.delivered[i].msg_id, p.delivered[i - 1].msg_id);
  }
}

TEST(RudpConnectionTest, ReliableUnderDuplication) {
  wire::LossyConfig lcfg;
  lcfg.duplicate_probability = 0.3;
  lcfg.seed = 17;
  Pair p(lcfg);
  p.run_ms(1000);
  for (int i = 0; i < 30; ++i) p.sender->send_message({.bytes = 4000});
  p.run_ms(30000);
  EXPECT_EQ(p.delivered.size(), 30u);  // duplicates filtered
  EXPECT_GT(p.receiver->stats().duplicates_received, 0u);
}

TEST(RudpConnectionTest, UnmarkedSkippedWithinTolerance) {
  wire::LossyConfig lcfg;
  lcfg.drop_probability = 0.25;
  lcfg.seed = 19;
  RudpConfig scfg;
  RudpConfig rcfg;
  rcfg.recv_loss_tolerance = 0.5;
  Pair p(lcfg, scfg, rcfg);
  p.run_ms(8000);  // lossy handshake + exponential retry backoff
  ASSERT_TRUE(p.sender->established());
  EXPECT_DOUBLE_EQ(p.sender->peer_recv_tolerance(), 0.5);

  for (int i = 0; i < 60; ++i) {
    p.sender->send_message({.bytes = 1400, .marked = false});
  }
  p.run_ms(60000);
  const auto& st = p.sender->stats();
  // Some unmarked messages were abandoned rather than retransmitted…
  EXPECT_GT(st.messages_skipped, 0u);
  // …but the abandoned share respects the receiver's tolerance.
  EXPECT_LE(p.sender->skip_budget().skipped_fraction(), 0.5);
  // Receiver accounted every message exactly once.
  EXPECT_EQ(p.delivered.size() + p.receiver->stats().messages_dropped, 60u);
}

TEST(RudpConnectionTest, MarkedAlwaysRetransmitted) {
  wire::LossyConfig lcfg;
  lcfg.drop_probability = 0.3;
  lcfg.seed = 23;
  RudpConfig rcfg;
  rcfg.recv_loss_tolerance = 0.9;  // tolerance exists but marked data must land
  Pair p(lcfg, {}, rcfg);
  p.run_ms(2000);
  for (int i = 0; i < 30; ++i) {
    p.sender->send_message({.bytes = 1400, .marked = true});
  }
  p.run_ms(60000);
  EXPECT_EQ(p.delivered.size(), 30u);
  EXPECT_EQ(p.sender->stats().messages_skipped, 0u);
}

TEST(RudpConnectionTest, DiscardUnmarkedAtSend) {
  RudpConfig rcfg;
  rcfg.recv_loss_tolerance = 0.4;
  Pair p({}, rcfg, /*use_rcfg=*/true);
  p.run_ms(100);
  p.sender->set_discard_unmarked(true);

  int discarded = 0;
  for (int i = 0; i < 100; ++i) {
    auto res = p.sender->send_message({.bytes = 1400, .marked = false});
    if (res.discarded) ++discarded;
  }
  p.run_ms(5000);
  // Discards happen, bounded by the 40% tolerance.
  EXPECT_GT(discarded, 0);
  EXPECT_LE(discarded, 40);
  EXPECT_EQ(p.delivered.size(), 100u - discarded);
  EXPECT_EQ(p.sender->stats().messages_discarded_at_send,
            static_cast<std::uint64_t>(discarded));
}

TEST(RudpConnectionTest, DiscardRequiresUnmarked) {
  RudpConfig rcfg;
  rcfg.recv_loss_tolerance = 0.9;
  Pair p({}, rcfg, /*use_rcfg=*/true);
  p.run_ms(100);
  p.sender->set_discard_unmarked(true);
  for (int i = 0; i < 20; ++i) {
    auto res = p.sender->send_message({.bytes = 500, .marked = true});
    EXPECT_FALSE(res.discarded);
  }
  p.run_ms(2000);
  EXPECT_EQ(p.delivered.size(), 20u);
}

TEST(RudpConnectionTest, RtoRecoversFromBlackout) {
  // Drop everything for a while, then heal: RTO must resend and finish.
  wire::LossyConfig lcfg;
  lcfg.drop_probability = 0.0;
  Pair p(lcfg);
  p.run_ms(100);
  ASSERT_TRUE(p.sender->established());
  p.wires.set_drop_probability(1.0);
  p.sender->send_message({.bytes = 2000});
  p.run_ms(1500);  // several RTOs fire into the void
  EXPECT_GT(p.sender->stats().timeouts, 0u);
  p.wires.set_drop_probability(0.0);
  p.run_ms(60000);
  ASSERT_EQ(p.delivered.size(), 1u);
}

TEST(RudpConnectionTest, EpochHandlerReportsLoss) {
  wire::LossyConfig lcfg;
  lcfg.drop_probability = 0.1;
  lcfg.seed = 29;
  RudpConfig cfg;
  cfg.loss_epoch_packets = 50;
  Pair p(lcfg, cfg);
  std::vector<EpochReport> epochs;
  p.sender->set_epoch_handler(
      [&](const EpochReport& r) { epochs.push_back(r); });
  p.run_ms(1000);
  for (int i = 0; i < 100; ++i) p.sender->send_message({.bytes = 1400});
  p.run_ms(60000);
  ASSERT_GT(epochs.size(), 0u);
  bool saw_loss = false;
  for (const auto& e : epochs) {
    EXPECT_GE(e.loss_ratio, 0.0);
    EXPECT_LE(e.loss_ratio, 1.0);
    saw_loss |= e.loss_ratio > 0.0;
  }
  EXPECT_TRUE(saw_loss);
}

TEST(RudpConnectionTest, ScaleCongestionWindowTakesEffect) {
  Pair p;
  p.run_ms(100);
  const double before = p.sender->congestion().cwnd();
  p.sender->scale_congestion_window(1.0 / (1.0 - 0.25));
  EXPECT_NEAR(p.sender->congestion().cwnd(), before / 0.75, 1e-9);
}

TEST(RudpConnectionTest, KeepaliveNulsWhenIdle) {
  RudpConfig cfg;
  cfg.keepalive = Duration::millis(200);
  Pair p(cfg);
  // Warm the RTT estimator: the probe clock never ticks faster than the
  // RTO, and an unmeasured path sits at the conservative initial RTO (1 s).
  // One round trip brings the RTO down to min_rto on this 30 ms path, and
  // the probes then flow at the configured 200 ms pace.
  p.sender->send_message({.bytes = 100});
  p.run_ms(500);
  const std::uint64_t before = p.sender->stats().nuls_sent;
  p.run_ms(2000);
  EXPECT_GT(p.sender->stats().nuls_sent - before, 5u);
}

TEST(RudpConnectionTest, CloseSendsRstAndNotifiesPeer) {
  Pair p;
  p.run_ms(100);
  bool closed = false;
  p.receiver->set_closed_handler([&] { closed = true; });
  p.sender->close();
  p.run_ms(100);
  EXPECT_EQ(p.sender->state(), ConnState::Closed);
  EXPECT_TRUE(closed);
  EXPECT_EQ(p.receiver->state(), ConnState::Closed);
}

TEST(RudpConnectionTest, SendIdleReflectsDrain) {
  Pair p;
  p.run_ms(100);
  EXPECT_TRUE(p.sender->send_idle());
  p.sender->send_message({.bytes = 50'000});
  EXPECT_FALSE(p.sender->send_idle());
  p.run_ms(10000);
  EXPECT_TRUE(p.sender->send_idle());
}

TEST(RudpConnectionTest, StatsConsistency) {
  wire::LossyConfig lcfg;
  lcfg.drop_probability = 0.1;
  lcfg.seed = 31;
  Pair p(lcfg);
  p.run_ms(1000);
  for (int i = 0; i < 50; ++i) p.sender->send_message({.bytes = 2800});
  p.run_ms(60000);
  const auto& st = p.sender->stats();
  EXPECT_EQ(st.messages_offered, 50u);
  EXPECT_EQ(st.messages_enqueued, 50u);
  EXPECT_GE(st.segments_sent, 100u);  // 2 fragments each, plus rexmits
  EXPECT_EQ(st.segments_sent - st.segments_retransmitted, 100u);
  EXPECT_EQ(p.delivered.size(), 50u);
}

// ----------------------------------------------------------- skip budget --

/// Wraps a SegmentWire, dropping outbound segments a predicate selects.
class FilterWire final : public SegmentWire {
 public:
  explicit FilterWire(SegmentWire& inner) : inner_(inner) {}

  void send(const Segment& seg) override {
    if (drop && drop(seg)) return;
    inner_.send(seg);
  }
  void set_receiver(RecvFn fn) override { inner_.set_receiver(std::move(fn)); }
  sim::Executor& executor() override { return inner_.executor(); }

  std::function<bool(const Segment&)> drop;

 private:
  SegmentWire& inner_;
};

// SkipBudget only counts; spending one unit per message is the connection's
// job (`Outstanding::msg_skipped`), so the budget's once-per-message rule is
// checked here, end to end.

// Every fragment of an unmarked message is condemned, and the ADVANCE that
// reports them is lost and resent: the message still spends one unit.
TEST(SkipBudgetTest, MessageCountedOnce) {
  sim::Simulator sim;
  wire::LossyWirePair wires(sim, wire::LossyConfig{});
  FilterWire filter(wires.a());
  RudpConfig rcfg;
  rcfg.recv_loss_tolerance = 1.0;
  RudpConnection sender(filter, RudpConfig{}, Role::Client);
  RudpConnection receiver(wires.b(), rcfg, Role::Server);
  std::vector<std::uint32_t> delivered;
  receiver.set_message_handler(
      [&](const DeliveredMessage& m) { delivered.push_back(m.msg_id); });
  receiver.listen();
  sender.connect();
  sim.run_until(sim.now() + Duration::millis(100));
  ASSERT_TRUE(sender.established());

  // Seqs: A = 1–3 (unmarked), B = 4 (marked). Drop the first transmission
  // of each of A's fragments and the first ADVANCE.
  std::set<WireSeq> dropped;
  int advances = 0;
  filter.drop = [&](const Segment& s) {
    if (s.type == SegmentType::Advance) return ++advances == 1;
    return s.type == SegmentType::Data && s.seq <= 3 &&
           dropped.insert(s.seq).second;
  };
  sender.send_message({.bytes = 3 * 1400, .marked = false});
  const std::uint32_t b = sender.send_message({.bytes = 1000}).msg_id;
  sim.run_until(sim.now() + Duration::seconds(20));

  EXPECT_EQ(dropped.size(), 3u);
  EXPECT_GE(advances, 2);
  EXPECT_EQ(sender.stats().segments_skipped, 3u);
  EXPECT_EQ(sender.stats().messages_skipped, 1u);
  EXPECT_EQ(sender.skip_budget().skipped(), 1u);
  EXPECT_EQ(receiver.stats().messages_dropped, 1u);
  EXPECT_EQ(delivered, (std::vector<std::uint32_t>{b}));
  EXPECT_TRUE(sender.send_idle());
}

// A fragmented unmarked message whose fragments are condemned one by one
// spends one unit of skip budget, so the next message's skip is not
// starved. A's first two fragments time out and are skipped while its tail
// is still queued; its third, sent after that, is condemned on its own.
TEST(SkipBudgetTest, FragmentedMessageSkipsIdempotently) {
  sim::Simulator sim;
  wire::LossyWirePair wires(sim, wire::LossyConfig{});
  FilterWire filter(wires.a());
  RudpConfig rcfg;
  rcfg.recv_loss_tolerance = 0.5;
  RudpConnection sender(filter, RudpConfig{}, Role::Client);
  RudpConnection receiver(wires.b(), rcfg, Role::Server);
  std::vector<std::uint32_t> delivered;
  receiver.set_message_handler(
      [&](const DeliveredMessage& m) { delivered.push_back(m.msg_id); });
  receiver.listen();
  sender.connect();
  sim.run_until(sim.now() + Duration::millis(100));
  ASSERT_TRUE(sender.established());

  // Seqs: A = 1–6 (unmarked), B = 7 (unmarked), C = 8–10, D = 11–13.
  // Drop the first transmission of A's first three fragments and of B.
  std::set<WireSeq> dropped;
  filter.drop = [&](const Segment& s) {
    return s.type == SegmentType::Data && (s.seq <= 3 || s.seq == 7) &&
           dropped.insert(s.seq).second;
  };
  sender.send_message({.bytes = 6 * 1400, .marked = false});
  sender.send_message({.bytes = 1000, .marked = false});
  const std::uint32_t c = sender.send_message({.bytes = 3 * 1400}).msg_id;
  const std::uint32_t d = sender.send_message({.bytes = 3 * 1400}).msg_id;
  sim.run_until(sim.now() + Duration::seconds(20));

  // Four messages offered at tolerance 0.5: two may be skipped, A and B.
  EXPECT_EQ(dropped.size(), 4u);
  EXPECT_EQ(sender.stats().segments_skipped, 4u);
  EXPECT_EQ(sender.stats().messages_skipped, 2u);
  EXPECT_EQ(sender.skip_budget().skipped(), 2u);
  EXPECT_EQ(receiver.stats().messages_dropped, 2u);
  EXPECT_EQ(delivered, (std::vector<std::uint32_t>{c, d}));
  EXPECT_TRUE(sender.send_idle());
}

// ------------------------------------------------------------- lying peer --

// A forger fills a whole receive window with DATA far ahead of the
// receiver's cumulative point. It is refused, not buffered, so the window
// stays open and the honest transfer behind it still delivers everything.
TEST(RudpConnectionTest, FarAheadForgeriesCannotWedgeTheReceiver) {
  Pair p;
  p.run_ms(100);
  ASSERT_TRUE(p.receiver->established());
  const RudpConfig cfg;
  for (std::uint32_t i = 0; i < cfg.recv_window_packets; ++i) {
    Segment seg;
    seg.type = SegmentType::Data;
    seg.conn_id = cfg.conn_id;
    seg.seq = 100'000 + i;
    seg.msg_id = 1'000'000 + i;
    seg.payload_bytes = 100;
    p.wires.a().send(std::move(seg));
  }
  for (int i = 0; i < 50; ++i) p.sender->send_message({.bytes = 3000});
  p.run_ms(20'000);
  ASSERT_EQ(p.delivered.size(), 50u);
  EXPECT_EQ(p.delivered.back().msg_id, 50u);
  EXPECT_TRUE(p.sender->send_idle());
}

// An honest sender stays inside the receiver's window. The window (64)
// binds, not cwnd (fixed at 256): the head segment and the ADVANCE that
// skips it are lost, so the receiver's cumulative point stays on the skip
// while later segments are sacked and the sender's unacknowledged count
// falls. The send window's span still holds the skip record and the sacked
// segments, so nothing is sent past the window to be refused: only the
// message whose segment was lost is dropped.
TEST(RudpConnectionTest, HonestSenderStaysInsideTheReceiveWindow) {
  sim::Simulator sim;
  wire::LossyWirePair wires(sim, wire::LossyConfig{});
  FilterWire filter(wires.a());
  RudpConfig cfg;
  cfg.cc_kind = CcKind::Fixed;
  RudpConfig rcfg;
  rcfg.recv_window_packets = 64;
  rcfg.recv_loss_tolerance = 1.0;
  RudpConnection sender(filter, cfg, Role::Client);
  RudpConnection receiver(wires.b(), rcfg, Role::Server);
  std::uint64_t delivered = 0;
  receiver.set_message_handler([&](const DeliveredMessage&) { ++delivered; });
  // The receiver acks every arrival, so its last ack carries the
  // cumulative point each DATA segment meets.
  WireSeq cum = 1;
  std::int32_t max_ahead = 0;
  receiver.set_segment_tap(
      [&](RudpConnection::TapDirection dir, const Segment& s) {
        if (dir == RudpConnection::TapDirection::Out &&
            s.type == SegmentType::Ack) {
          cum = s.cum_ack;
        } else if (dir == RudpConnection::TapDirection::In &&
                   s.type == SegmentType::Data) {
          max_ahead =
              std::max(max_ahead, static_cast<std::int32_t>(s.seq - cum));
        }
      });
  receiver.listen();
  sender.connect();
  sim.run_until(sim.now() + Duration::millis(100));
  ASSERT_TRUE(sender.established());

  bool head_dropped = false;
  int advances = 0;
  filter.drop = [&](const Segment& s) {
    if (s.type == SegmentType::Advance) return ++advances == 1;
    if (s.type != SegmentType::Data || s.seq != 1 || head_dropped) {
      return false;
    }
    head_dropped = true;
    return true;
  };
  constexpr std::uint64_t kMessages = 500;
  for (std::uint64_t i = 0; i < kMessages; ++i) {
    sender.send_message({.bytes = 1000, .marked = false});
  }
  sim.run_until(sim.now() + Duration::seconds(20));

  EXPECT_TRUE(head_dropped);
  EXPECT_GE(advances, 2);
  EXPECT_LT(max_ahead, 64);
  EXPECT_EQ(sender.stats().segments_skipped, 1u);
  EXPECT_EQ(receiver.stats().messages_dropped, 1u);
  EXPECT_EQ(delivered, kMessages - 1);
  EXPECT_TRUE(sender.send_idle());
}

// A lying peer sacks every new segment, never moves its cumulative ack and
// advertises a huge rwnd: 2^31 - 1, the most a signed count holds, and
// 2^32 - 1, the most the wire carries. Sacked segments leave the
// unacknowledged count, so cwnd never stops the sender; its own window,
// which caps the send window's span, does.
TEST(RudpConnectionTest, LyingAcksCannotGrowTheSendWindowPastItsOwnWindow) {
  for (const std::uint32_t rwnd : {0x7FFF'FFFFu, 0xFFFF'FFFFu}) {
    SCOPED_TRACE(rwnd);
    sim::Simulator sim;
    wire::LossyWirePair wires(sim, wire::LossyConfig{});
    FilterWire filter(wires.a());
    const RudpConfig cfg;
    RudpConnection sender(filter, cfg, Role::Client);
    RudpConnection receiver(wires.b(), cfg, Role::Server);
    receiver.listen();
    sender.connect();
    sim.run_until(sim.now() + Duration::millis(100));
    ASSERT_TRUE(sender.established());

    // The honest receiver never sees DATA; the liar answers each one.
    filter.drop = [&](const Segment& s) {
      if (s.type != SegmentType::Data) return false;
      Segment ack;
      ack.type = SegmentType::Ack;
      ack.conn_id = cfg.conn_id;
      ack.cum_ack = 1;
      ack.eacks.push_back(s.seq);
      ack.rwnd_packets = rwnd;
      wires.b().send(std::move(ack));
      return true;
    };
    for (std::uint32_t i = 0; i < 3 * cfg.recv_window_packets; ++i) {
      sender.send_message({.bytes = 100});
    }
    sim.run_until(sim.now() + Duration::seconds(30));
    // First transmissions (an RTO the eacks do not restart may resend one).
    const RudpStats& st = sender.stats();
    EXPECT_EQ(st.segments_sent - st.segments_retransmitted,
              cfg.recv_window_packets);
    EXPECT_EQ(sender.inflight(), 0);
    EXPECT_EQ(sender.queued_segments(), 2u * cfg.recv_window_packets);
  }
}

// ------------------------------------------------------------ send queue --

// The queue holds one entry per message, but queued_segments() and the
// backpressure bound count fragments. Nothing is pumped before the
// handshake completes, so every fragment offered in SynSent is still queued.
TEST(RudpConnectionTest, QueuedSegmentsCountsFragmentsNotMessages) {
  Pair p;
  ASSERT_EQ(p.sender->state(), ConnState::SynSent);
  for (int i = 0; i < 3; ++i) p.sender->send_message({.bytes = 3500});
  EXPECT_EQ(p.sender->queued_segments(), 9u);
  p.sender->send_message({.bytes = 0});
  EXPECT_EQ(p.sender->queued_segments(), 10u);

  // Shedding the oldest whole message frees all three of its fragments.
  p.sender->set_max_pending_segments(9);
  EXPECT_EQ(p.sender->queued_segments(), 7u);
  EXPECT_EQ(p.sender->stats().messages_shed, 1u);

  // The survivors leave as MSS-sized fragments, in sequence and in order.
  std::vector<Segment> sent;
  p.sender->set_segment_tap([&](RudpConnection::TapDirection dir,
                                const Segment& s) {
    if (dir == RudpConnection::TapDirection::Out &&
        s.type == SegmentType::Data) {
      sent.push_back(s);
    }
  });
  p.run_ms(2000);
  const std::vector<std::pair<std::uint32_t, std::int32_t>> want = {
      {2, 1400}, {2, 1400}, {2, 700}, {3, 1400}, {3, 1400}, {3, 700},
      {4, 0}};
  ASSERT_EQ(sent.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(sent[i].seq, i + 1);
    EXPECT_EQ(sent[i].msg_id, want[i].first);
    EXPECT_EQ(sent[i].payload_bytes, want[i].second);
    EXPECT_EQ(sent[i].frag_index, i < 6 ? i % 3 : 0);
  }
  ASSERT_EQ(p.delivered.size(), 3u);
  EXPECT_EQ(p.delivered[0].bytes, 3500);
  EXPECT_EQ(p.delivered[1].bytes, 3500);
  EXPECT_EQ(p.delivered[2].bytes, 0);
  EXPECT_EQ(p.sender->queued_segments(), 0u);
}

// The drained handler (ack-clocked refill): it fires at the end of every
// inbound ACK that leaves the unsent queue empty, never from
// send_message(), so a handler that sends cannot recurse; clearing it
// silences it.
TEST(RudpConnectionTest, DrainedHandlerFiresOnAcksThatLeaveTheQueueEmpty) {
  const wire::LossyConfig lcfg{.one_way_delay = Duration::millis(5)};
  {
    SCOPED_TRACE("a window that never fills: every ACK fires it");
    RudpConfig cfg;
    cfg.cc_kind = CcKind::Fixed;
    Pair p(lcfg, cfg);
    p.run_ms(100);
    ASSERT_TRUE(p.sender->established());
    const std::uint64_t acks0 = p.sender->stats().acks_received;
    int fired = 0;
    int refills = 0;
    bool inside = false;
    p.sender->set_drained_handler([&] {
      EXPECT_FALSE(inside) << "a send from the handler re-entered it";
      EXPECT_EQ(p.sender->queued_segments(), 0u);
      ++fired;
      if (refills < 3) {
        ++refills;
        inside = true;
        p.sender->send_message({.bytes = 1000});
        inside = false;
      }
    });
    for (int i = 0; i < 10; ++i) p.sender->send_message({.bytes = 1000});
    EXPECT_EQ(fired, 0);
    p.run_ms(500);
    EXPECT_EQ(p.delivered.size(), 13u);
    EXPECT_EQ(refills, 3);
    EXPECT_EQ(static_cast<std::uint64_t>(fired),
              p.sender->stats().acks_received - acks0);

    p.sender->set_drained_handler(nullptr);
    const int fired_before = fired;
    for (int i = 0; i < 5; ++i) p.sender->send_message({.bytes = 1000});
    p.run_ms(500);
    EXPECT_EQ(p.delivered.size(), 18u);
    EXPECT_EQ(fired, fired_before);
  }
  {
    SCOPED_TRACE("a backlog behind the initial window: only ACKs that "
                 "empty the queue fire it");
    Pair p(lcfg);
    p.run_ms(100);
    int fired = 0;
    p.sender->set_drained_handler([&] {
      EXPECT_EQ(p.sender->queued_segments(), 0u);
      ++fired;
    });
    for (int i = 0; i < 50; ++i) p.sender->send_message({.bytes = 1000});
    EXPECT_GT(p.sender->queued_segments(), 0u);
    p.run_ms(2000);
    EXPECT_EQ(p.delivered.size(), 50u);
    EXPECT_GT(fired, 0);
    EXPECT_LT(static_cast<std::uint64_t>(fired),
              p.sender->stats().acks_received);
  }
}

// Layout pin. CityScale builds 20,608 connections and BENCH_SCALE.json's
// hard scale_build_bytes ratchet counts every byte of them, so a new member
// is paid for by a smaller layout (the drained handler's 32 B by the audit
// scratch list moving into AuditContext and two one-byte state enums).
TEST(RudpConnectionTest, StaysSmall) {
  EXPECT_LE(sizeof(RudpConnection), 2512u);
}

// Fragment indices and counts are 16-bit on the wire: a message that needs
// more fragments is an API error, rejected like a negative size instead of
// being truncated or queued as nothing.
TEST(RudpConnectionDeathTest, MessageBeyond65535FragmentsIsRejected) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::int64_t mss = RudpConfig{}.max_segment_payload;
  Pair p;
  p.sender->send_message({.bytes = 65535 * mss});
  EXPECT_EQ(p.sender->queued_segments(), 65535u);
  EXPECT_DEATH(p.sender->send_message({.bytes = 65535 * mss + 1}),
               "more than 65535 fragments");
  EXPECT_DEATH(p.sender->send_message({.bytes = 65537 * mss}),
               "more than 65535 fragments");
}

}  // namespace
}  // namespace iq::rudp
