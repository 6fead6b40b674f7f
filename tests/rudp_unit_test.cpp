// Unit tests for RUDP building blocks: sequence arithmetic, RTT estimation,
// loss monitoring, congestion controllers, send/recv buffers, skip budget.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <span>
#include <vector>

#include "iq/common/rng.hpp"
#include "iq/rudp/congestion.hpp"
#include "iq/rudp/loss_monitor.hpp"
#include "iq/rudp/recv_buffer.hpp"
#include "iq/rudp/reliability.hpp"
#include "iq/rudp/rtt_estimator.hpp"
#include "iq/rudp/send_buffer.hpp"
#include "iq/rudp/seq.hpp"

namespace iq::rudp {
namespace {

TimePoint at_ms(std::int64_t ms) {
  return TimePoint::zero() + Duration::millis(ms);
}

// ------------------------------------------------------------------ seq ---

TEST(SeqTest, SerialComparisons) {
  EXPECT_TRUE(wire_seq_lt(1, 2));
  EXPECT_TRUE(wire_seq_lt(0xfffffffe, 0xffffffff));
  EXPECT_TRUE(wire_seq_lt(0xffffffff, 0));  // wraparound
  EXPECT_TRUE(wire_seq_gt(5, 0xfffffff0));
  EXPECT_EQ(wire_seq_diff(5, 3), 2);
  EXPECT_EQ(wire_seq_diff(1, 0xffffffff), 2);
}

TEST(SeqTest, UnwrapNearReference) {
  EXPECT_EQ(unwrap(100, 90), 100u);
  EXPECT_EQ(unwrap(90, 100), 90u);
}

TEST(SeqTest, UnwrapAcrossEraBoundary) {
  const Seq ref = (Seq{1} << 32) - 5;  // near the end of era 0
  EXPECT_EQ(unwrap(3, ref), (Seq{1} << 32) + 3);
  EXPECT_EQ(unwrap(0xfffffff0, ref), (Seq{1} << 32) - 16);
}

TEST(SeqTest, UnwrapBackwardFromNewEra) {
  const Seq ref = (Seq{1} << 32) + 5;
  EXPECT_EQ(unwrap(0xfffffffa, ref), (Seq{1} << 32) - 6);
}

TEST(SeqTest, UnwrapManySequential) {
  Seq expected = 1;
  Seq ref = 1;
  for (int i = 0; i < 200000; ++i) {
    EXPECT_EQ(unwrap(to_wire(expected), ref), expected);
    ref = expected;
    ++expected;
  }
}

// ------------------------------------------------------------------ rtt ---

TEST(RttEstimatorTest, FirstSampleInitializes) {
  RttEstimator est;
  est.add_sample(Duration::millis(100));
  EXPECT_EQ(est.srtt().ms(), 100);
  EXPECT_EQ(est.rttvar().ms(), 50);
}

TEST(RttEstimatorTest, ConvergesToStableRtt) {
  RttEstimator est;
  for (int i = 0; i < 100; ++i) est.add_sample(Duration::millis(30));
  EXPECT_NEAR(static_cast<double>(est.srtt().ms()), 30.0, 1.0);
  // RTO floors at min_rto even when variance collapses.
  EXPECT_GE(est.rto(), Duration::millis(200));
}

TEST(RttEstimatorTest, RtoCoversVariance) {
  RttEstimator est;
  for (int i = 0; i < 50; ++i) {
    est.add_sample(Duration::millis(i % 2 == 0 ? 20 : 120));
  }
  EXPECT_GT(est.rto(), est.srtt());
}

TEST(RttEstimatorTest, BackoffDoublesAndResets) {
  RttEstimator est;
  est.add_sample(Duration::millis(300));
  const Duration base = est.rto();
  est.backoff();
  EXPECT_EQ(est.rto().ns(), (base * 2).ns());
  est.backoff();
  EXPECT_EQ(est.rto().ns(), (base * 4).ns());
  // A fresh sample resets the multiplier (and re-smooths rttvar downward,
  // so the new RTO is at most the pre-backoff base).
  est.add_sample(Duration::millis(300));
  EXPECT_LE(est.rto().ns(), base.ns());
  EXPECT_GE(est.rto(), Duration::millis(300));
}

TEST(RttEstimatorTest, RtoCapped) {
  RttConfig cfg;
  cfg.max_rto = Duration::seconds(2);
  RttEstimator est(cfg);
  est.add_sample(Duration::millis(900));
  for (int i = 0; i < 10; ++i) est.backoff();
  EXPECT_LE(est.rto(), Duration::seconds(2));
}

TEST(RttEstimatorTest, NoSampleUsesInitialRto) {
  RttEstimator est;
  EXPECT_EQ(est.rto().ms(), 1000);
  EXPECT_FALSE(est.has_sample());
}

// --------------------------------------------------------------- monitor --

TEST(LossMonitorTest, EpochClosesAtPacketCount) {
  LossMonitor mon(10);
  std::vector<EpochReport> reports;
  mon.set_epoch_handler([&](const EpochReport& r) { reports.push_back(r); });
  mon.on_acked(9, 9 * 1400, at_ms(10));
  EXPECT_TRUE(reports.empty());
  mon.on_lost(1, at_ms(20));
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_DOUBLE_EQ(reports[0].loss_ratio, 0.1);
  EXPECT_EQ(reports[0].acked, 9u);
  EXPECT_EQ(reports[0].lost, 1u);
}

TEST(LossMonitorTest, RateComputedOverEpochSpan) {
  LossMonitor mon(10);
  EpochReport last;
  mon.set_epoch_handler([&](const EpochReport& r) { last = r; });
  mon.on_acked(1, 1400, at_ms(0));
  mon.on_acked(9, 9 * 1400, at_ms(100));
  // 10 * 1400 B over 100 ms = 1.12 Mb/s.
  EXPECT_NEAR(last.delivered_rate_bps, 1.12e6, 1e4);
}

TEST(LossMonitorTest, SmoothedLossTracksEwma) {
  LossMonitor mon(10, 0.5);
  mon.set_epoch_handler([](const EpochReport&) {});
  mon.on_acked(10, 0, at_ms(1));  // epoch 1: r=0
  mon.on_lost(10, at_ms(2));      // epoch 2: r=1
  EXPECT_DOUBLE_EQ(mon.smoothed_loss_ratio(), 0.5);
  EXPECT_DOUBLE_EQ(mon.last_loss_ratio(), 1.0);
}

TEST(LossMonitorTest, LifetimeRatio) {
  LossMonitor mon(5);
  mon.on_acked(8, 0, at_ms(1));
  mon.on_lost(2, at_ms(2));
  EXPECT_DOUBLE_EQ(mon.lifetime_loss_ratio(), 0.2);
}

// ------------------------------------------------------------ congestion --

TEST(LdaControllerTest, AdditiveIncreasePerWindow) {
  LdaController cc;
  const double w0 = cc.cwnd();
  // One window's worth of acks ≈ +1 packet.
  const int acks = static_cast<int>(w0);
  for (int i = 0; i < acks; ++i) cc.on_ack(1, at_ms(i));
  EXPECT_NEAR(cc.cwnd(), w0 + 1.0, 0.3);
}

TEST(LdaControllerTest, DecreaseProportionalToLossRatio) {
  LdaConfig cfg;
  cfg.initial_cwnd = 100;
  cfg.tcp_friendly_floor = false;
  LdaController cc(cfg);
  cc.on_epoch(0.1, at_ms(1));
  EXPECT_NEAR(cc.cwnd(), 90.0, 1e-9);
  cc.on_epoch(0.0, at_ms(2));  // loss-free epoch: no decrease
  EXPECT_NEAR(cc.cwnd(), 90.0, 1e-9);
}

TEST(LdaControllerTest, DecreaseFloorsAtHalf) {
  LdaConfig cfg;
  cfg.initial_cwnd = 100;
  cfg.tcp_friendly_floor = false;
  LdaController cc(cfg);
  cc.on_epoch(0.9, at_ms(1));
  EXPECT_NEAR(cc.cwnd(), 50.0, 1e-9);
}

TEST(LdaControllerTest, TcpFriendlyFloorApplies) {
  LdaConfig cfg;
  cfg.initial_cwnd = 8;
  LdaController cc(cfg);
  // At 1% loss the TCP-fair window is sqrt(1.5/0.01) ≈ 12.2 > 8: the
  // decrease must not shrink the window below its current value.
  cc.on_epoch(0.01, at_ms(1));
  EXPECT_NEAR(cc.cwnd(), 8.0, 1e-9);
}

TEST(LdaControllerTest, WindowNeverBelowMin) {
  LdaController cc;
  for (int i = 0; i < 50; ++i) cc.on_timeout(at_ms(i));
  EXPECT_GE(cc.cwnd(), 1.0);
}

TEST(LdaControllerTest, ScaleWindowMultiplies) {
  LdaConfig cfg;
  cfg.initial_cwnd = 10;
  LdaController cc(cfg);
  cc.scale_window(1.0 / (1.0 - 0.2));  // rate_chg = 0.2
  EXPECT_NEAR(cc.cwnd(), 12.5, 1e-9);
  cc.scale_window(0.5);
  EXPECT_NEAR(cc.cwnd(), 6.25, 1e-9);
}

TEST(LdaControllerTest, TcpFriendlyWindowFormula) {
  EXPECT_NEAR(LdaController::tcp_friendly_window(0.015),
              std::sqrt(1.5 / 0.015), 1e-9);
  EXPECT_GT(LdaController::tcp_friendly_window(0.0), 1000.0);
}

TEST(AimdControllerTest, SlowStartDoublesPerWindow) {
  AimdConfig cfg;
  cfg.initial_cwnd = 2;
  AimdController cc(cfg);
  EXPECT_TRUE(cc.in_slow_start());
  cc.on_ack(2, at_ms(1));
  EXPECT_NEAR(cc.cwnd(), 4.0, 1e-9);
}

TEST(AimdControllerTest, LossHalvesOncePerRtt) {
  AimdConfig cfg;
  cfg.initial_cwnd = 80;
  cfg.initial_ssthresh = 10;  // start in CA
  AimdController cc(cfg);
  cc.set_srtt(Duration::millis(100));
  cc.on_loss(at_ms(0));
  EXPECT_NEAR(cc.cwnd(), 40.0, 1e-9);
  cc.on_loss(at_ms(10));  // same window: ignored
  EXPECT_NEAR(cc.cwnd(), 40.0, 1e-9);
  cc.on_loss(at_ms(150));  // next RTT: halves again
  EXPECT_NEAR(cc.cwnd(), 20.0, 1e-9);
}

TEST(AimdControllerTest, TimeoutResetsToMin) {
  AimdConfig cfg;
  cfg.initial_cwnd = 50;
  AimdController cc(cfg);
  cc.on_timeout(at_ms(0));
  EXPECT_NEAR(cc.cwnd(), cfg.min_cwnd, 1e-9);
  EXPECT_NEAR(cc.ssthresh(), 25.0, 1e-9);
}

TEST(FixedWindowControllerTest, IgnoresAllSignals) {
  FixedWindowController cc(64);
  cc.on_ack(10, at_ms(0));
  cc.on_loss(at_ms(1));
  cc.on_timeout(at_ms(2));
  cc.on_epoch(0.5, at_ms(3));
  EXPECT_EQ(cc.cwnd(), 64.0);
  // The coordination hook still works (it is the paper's scheme 2 path).
  cc.scale_window(2.0);
  EXPECT_EQ(cc.cwnd(), 128.0);
}

TEST(ControllerFactoryTest, MakesRequestedKinds) {
  EXPECT_EQ(make_controller(CcKind::Lda, 2)->name(), "lda");
  EXPECT_EQ(make_controller(CcKind::Aimd, 2)->name(), "aimd");
  EXPECT_EQ(make_controller(CcKind::Fixed, 32)->name(), "fixed");
  EXPECT_EQ(make_controller(CcKind::Fixed, 32)->cwnd(), 32.0);
}

// ------------------------------------------------------------ send buf ----

Outstanding make_outstanding(Seq seq, bool marked = true,
                             std::uint32_t msg = 1) {
  Outstanding o;
  o.seq = seq;
  o.msg_id = msg;
  o.payload_bytes = 1400;
  o.marked = marked;
  return o;
}

TEST(SendBufferTest, CumulativeAckRemoves) {
  SendBuffer buf;
  for (Seq s = 1; s <= 5; ++s) buf.add(make_outstanding(s));
  EXPECT_EQ(buf.inflight(), 5);
  auto out = buf.on_ack(4, {}, 3);
  EXPECT_EQ(out.newly_acked, 3);
  EXPECT_EQ(out.newly_acked_bytes, 3 * 1400);
  EXPECT_EQ(buf.size(), 2u);
  EXPECT_EQ(buf.inflight(), 2);
  EXPECT_TRUE(out.cum_advanced);
}

TEST(SendBufferTest, EackMarksWithoutRemoving) {
  SendBuffer buf;
  for (Seq s = 1; s <= 5; ++s) buf.add(make_outstanding(s));
  const std::vector<Seq> eacks{3, 5};
  auto out = buf.on_ack(1, eacks, 30);
  EXPECT_EQ(out.newly_acked, 2);
  EXPECT_EQ(buf.size(), 5u);
  EXPECT_EQ(buf.inflight(), 3);
  // Re-acking the same eacks adds nothing.
  auto again = buf.on_ack(1, eacks, 30);
  EXPECT_EQ(again.newly_acked, 0);
}

TEST(SendBufferTest, SackLossDetectionAtThreshold) {
  SendBuffer buf;
  for (Seq s = 1; s <= 6; ++s) buf.add(make_outstanding(s));
  // Seqs 2,3,4 eacked: high water 4, seq 1 is 3 below => lost.
  const std::vector<Seq> eacks{2, 3, 4};
  auto out = buf.on_ack(1, eacks, 3);
  ASSERT_EQ(out.lost.size(), 1u);
  EXPECT_EQ(out.lost[0], 1u);
  // Not reported twice.
  auto again = buf.on_ack(1, eacks, 3);
  EXPECT_TRUE(again.lost.empty());
}

TEST(SendBufferTest, NoLossBelowThreshold) {
  SendBuffer buf;
  for (Seq s = 1; s <= 4; ++s) buf.add(make_outstanding(s));
  const std::vector<Seq> eacks{2, 3};  // high water 3: only 2 above seq 1
  auto out = buf.on_ack(1, eacks, 3);
  EXPECT_TRUE(out.lost.empty());
}

TEST(SendBufferTest, FirstUnackedSkipsSacked) {
  SendBuffer buf;
  for (Seq s = 1; s <= 3; ++s) buf.add(make_outstanding(s));
  const std::vector<Seq> eacks{1};
  buf.on_ack(1, eacks, 30);
  Outstanding* first = buf.first_unacked();
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->seq, 2u);
}

TEST(SendBufferTest, RemoveAbandonsSegment) {
  SendBuffer buf;
  buf.add(make_outstanding(1));
  buf.add(make_outstanding(2));
  EXPECT_TRUE(buf.abandon(1));
  EXPECT_FALSE(buf.abandon(1));
  EXPECT_EQ(buf.inflight(), 1);
  EXPECT_EQ(buf.size(), 1u);
  ASSERT_NE(buf.first_unacked(), nullptr);
  EXPECT_EQ(buf.first_unacked()->seq, 2u);  // lowest live segment
  EXPECT_EQ(buf.base(), 1u);
  // The abandoned seq stays as a skip record until the cumulative ack.
  EXPECT_EQ(buf.find(1), nullptr);
  EXPECT_TRUE(buf.is_skip(1));
  EXPECT_EQ(buf.skips_from(0), (SkippedList{{1, 1, 1}}));
  auto out = buf.on_ack(2, {}, 3);
  EXPECT_EQ(out.newly_acked, 0);
  EXPECT_FALSE(out.cum_advanced);  // only a skip record left
  EXPECT_FALSE(buf.holds_skips());
  EXPECT_EQ(buf.size(), 1u);
}

// The loss scan as it was before it started above the segments earlier acks
// settled: every ack walks it from the lowest buffered seq.
struct FullRescanBuffer {
  struct Flags {
    bool counted = false;
    bool reported = false;
  };
  std::map<Seq, Flags> segs;
  Seq high_water = 0;
  bool any_evidence = false;

  struct Outcome {
    int newly_acked = 0;
    std::vector<Seq> lost;
  };
  Outcome on_ack(Seq cum_ack, const std::vector<Seq>& eacks,
                 int dup_threshold) {
    Outcome out;
    const auto evidence = [&](Seq seq, Flags& f) {
      if (!f.counted) {
        f.counted = true;
        ++out.newly_acked;
      }
      if (!any_evidence || seq > high_water) {
        high_water = seq;
        any_evidence = true;
      }
    };
    for (Seq e : eacks) {
      auto it = segs.find(e);
      if (it != segs.end()) evidence(e, it->second);
    }
    while (!segs.empty() && segs.begin()->first < cum_ack) {
      evidence(segs.begin()->first, segs.begin()->second);
      segs.erase(segs.begin());
    }
    if (any_evidence) {
      for (auto& [seq, f] : segs) {
        if (seq + static_cast<Seq>(dup_threshold) > high_water) break;
        if (f.counted || f.reported) continue;
        f.reported = true;
        out.lost.push_back(seq);
      }
    }
    return out;
  }
};

TEST(SendBufferTest, LossScanMatchesFullRescan) {
  constexpr int kDup = 3;
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    Rng rng(seed);
    SendBuffer buf;
    FullRescanBuffer ref;
    Seq next = 1;
    Seq cum = 1;             // receiver's cumulative point
    std::set<Seq> received;  // receiver's holdings above `cum`
    std::size_t lost = 0;
    int skips = 0;
    int acks = 0;
    for (int step = 0; step < 3000; ++step) {
      const double roll = rng.uniform01();
      if (roll < 0.40) {
        // Send a few segments; each one reaches the receiver with p = 0.9.
        for (auto n = rng.uniform_int(1, 4); n > 0; --n, ++next) {
          buf.add(make_outstanding(next));
          ref.segs.emplace(next, FullRescanBuffer::Flags{});
          if (rng.uniform01() < 0.9) received.insert(next);
        }
      } else if (roll < 0.50 && next > cum) {
        // Adaptive-reliability skip of a random unacked seq: the sender
        // abandons it and the receiver is told to move past it.
        const auto seq = static_cast<Seq>(
            rng.uniform_int(static_cast<std::int64_t>(cum),
                            static_cast<std::int64_t>(next) - 1));
        const bool removed = buf.abandon(seq);
        ASSERT_EQ(removed, ref.segs.erase(seq) > 0) << "seed " << seed;
        if (removed) ++skips;
        received.insert(seq);
      } else if (roll < 0.65) {
        // A retransmission fills the lowest hole.
        Seq hole = cum;
        while (hole < next && received.count(hole) != 0) ++hole;
        if (hole < next) received.insert(hole);
      } else {
        while (received.erase(cum) != 0) ++cum;
        // EACKs: up to 8 receiver holdings above the cumulative point, in
        // random order, holes between them; sometimes one already acked.
        std::vector<Seq> eacks;
        for (Seq s : received) {
          if (eacks.size() == 8) break;
          if (rng.uniform01() < 0.6) eacks.push_back(s);
        }
        std::shuffle(eacks.begin(), eacks.end(), rng.engine());
        if (cum > 1 && rng.uniform01() < 0.2) eacks.push_back(cum - 1);
        const auto got = buf.on_ack(cum, eacks, kDup);
        const auto want = ref.on_ack(cum, eacks, kDup);
        ASSERT_EQ(got.newly_acked, want.newly_acked)
            << "step " << step << " seed " << seed;
        ASSERT_EQ(std::vector<Seq>(got.lost.begin(), got.lost.end()),
                  want.lost)
            << "step " << step << " seed " << seed;
        ASSERT_EQ(buf.high_water(), ref.high_water)
            << "step " << step << " seed " << seed;
        lost += want.lost.size();
        ++acks;
      }
    }
    // The run must exercise what it is named for.
    EXPECT_GT(acks, 500) << "seed " << seed;
    EXPECT_GT(lost, 30u) << "seed " << seed;
    EXPECT_GT(skips, 30) << "seed " << seed;
  }
}

// ------------------------------------------------------------ recv buf ----

RecvBuffer::Result data(RecvBuffer& buf, const RecvSegment& seg,
                        TimePoint now) {
  RecvBuffer::Result r;
  buf.on_data(seg, now, r);
  return r;
}

RecvBuffer::Result skip(RecvBuffer& buf,
                        std::span<const SkippedSeq> skipped,
                        TimePoint now) {
  RecvBuffer::Result r;
  buf.on_skip(skipped, now, r);
  return r;
}

RecvSegment rseg(Seq seq, std::uint32_t msg, std::uint16_t fi,
                 std::uint16_t fc, bool marked = true) {
  RecvSegment s;
  s.seq = seq;
  s.msg_id = msg;
  s.frag_index = fi;
  s.frag_count = fc;
  s.payload_bytes = 1000;
  s.marked = marked;
  s.ts_us = 5;
  return s;
}

TEST(RecvBufferTest, InOrderSingleFragmentMessages) {
  RecvBuffer buf;
  auto r1 = data(buf, rseg(1, 1, 0, 1), at_ms(1));
  ASSERT_EQ(r1.delivered.size(), 1u);
  EXPECT_EQ(r1.delivered[0].msg_id, 1u);
  EXPECT_EQ(r1.delivered[0].bytes, 1000);
  EXPECT_EQ(buf.cum(), 2u);
}

TEST(RecvBufferTest, MultiFragmentReassembly) {
  RecvBuffer buf;
  EXPECT_TRUE(data(buf, rseg(1, 1, 0, 3), at_ms(1)).delivered.empty());
  EXPECT_TRUE(data(buf, rseg(2, 1, 1, 3), at_ms(2)).delivered.empty());
  auto r = data(buf, rseg(3, 1, 2, 3), at_ms(3));
  ASSERT_EQ(r.delivered.size(), 1u);
  EXPECT_EQ(r.delivered[0].bytes, 3000);
}

TEST(RecvBufferTest, OutOfOrderBuffersAndEacks) {
  RecvBuffer buf;
  data(buf, rseg(3, 3, 0, 1), at_ms(1));
  data(buf, rseg(5, 5, 0, 1), at_ms(2));
  EXPECT_EQ(buf.cum(), 1u);
  EXPECT_EQ(buf.eacks(10), (iq::InlineVec<Seq, 16>{3, 5}));
  auto r = data(buf, rseg(1, 1, 0, 1), at_ms(3));
  EXPECT_EQ(r.delivered.size(), 1u);
  EXPECT_EQ(buf.cum(), 2u);
  r = data(buf, rseg(2, 2, 0, 1), at_ms(4));
  EXPECT_EQ(r.delivered.size(), 2u);  // 2 and 3 both complete
  EXPECT_EQ(buf.cum(), 4u);
}

TEST(RecvBufferTest, DuplicateDetection) {
  RecvBuffer buf;
  data(buf, rseg(1, 1, 0, 1), at_ms(1));
  auto r = data(buf, rseg(1, 1, 0, 1), at_ms(2));
  EXPECT_TRUE(r.duplicate);
  data(buf, rseg(3, 3, 0, 1), at_ms(3));
  auto r2 = data(buf, rseg(3, 3, 0, 1), at_ms(4));
  EXPECT_TRUE(r2.duplicate);
  EXPECT_EQ(buf.duplicates(), 2u);
}

TEST(RecvBufferTest, SkipAdvancesAndDropsMessage) {
  RecvBuffer buf;
  data(buf, rseg(2, 2, 0, 1), at_ms(1));  // out of order
  const std::vector<SkippedSeq> skips{{1, 1, 1}};
  auto r = skip(buf, skips, at_ms(2));
  EXPECT_EQ(r.dropped_messages, 1u);
  ASSERT_EQ(r.delivered.size(), 1u);  // msg 2 now completes
  EXPECT_EQ(buf.cum(), 3u);
}

TEST(RecvBufferTest, FullySkippedMultiFragmentCountsOnce) {
  RecvBuffer buf;
  const std::vector<SkippedSeq> skips{{1, 7, 3}, {2, 7, 3}, {3, 7, 3}};
  auto r = skip(buf, skips, at_ms(1));
  EXPECT_EQ(r.dropped_messages, 1u);
  EXPECT_EQ(buf.cum(), 4u);
  EXPECT_EQ(buf.dropped_messages(), 1u);
}

TEST(RecvBufferTest, PartiallySkippedMessageDropped) {
  RecvBuffer buf;
  data(buf, rseg(1, 1, 0, 3, false), at_ms(1));
  data(buf, rseg(3, 1, 2, 3, false), at_ms(2));
  const std::vector<SkippedSeq> skips{{2, 1, 3}};
  auto r = skip(buf, skips, at_ms(3));
  EXPECT_EQ(r.dropped_messages, 1u);
  EXPECT_TRUE(r.delivered.empty());
  EXPECT_EQ(buf.cum(), 4u);
}

TEST(RecvBufferTest, LateArrivalSupersedesSkip) {
  RecvBuffer buf;
  // Skip announced for a seq still in flight, data arrives first... then
  // skip is ignored for already-received data.
  data(buf, rseg(1, 1, 0, 1), at_ms(1));
  const std::vector<SkippedSeq> skips{{1, 1, 1}};
  auto r = skip(buf, skips, at_ms(2));
  EXPECT_EQ(r.dropped_messages, 0u);
  EXPECT_EQ(buf.delivered_messages(), 1u);
}

TEST(RecvBufferTest, RwndShrinksWithBuffering) {
  RecvBuffer buf(100);
  EXPECT_EQ(buf.rwnd(), 100u);
  data(buf, rseg(5, 5, 0, 1), at_ms(1));
  data(buf, rseg(6, 6, 0, 1), at_ms(2));
  EXPECT_EQ(buf.rwnd(), 98u);
}

// A lying peer sends a full window of segments far ahead of the cumulative
// point. They fall outside the receive window and are refused, so the
// window stays open and the honest segments behind them still deliver.
TEST(RecvBufferTest, FarAheadSegmentsCannotWedgeTheWindow) {
  constexpr std::uint32_t kWindow = 4096;
  RecvBuffer buf(kWindow, 1);
  for (Seq s = 100000; s < 100000 + kWindow; ++s) {
    data(buf, rseg(s, static_cast<std::uint32_t>(s), 0, 1), at_ms(1));
  }
  EXPECT_EQ(buf.buffered(), 0u);
  EXPECT_EQ(buf.rwnd(), kWindow);
  for (Seq s = 1; s <= 3; ++s) {
    const auto r = data(buf, rseg(s, static_cast<std::uint32_t>(s), 0, 1),
                        at_ms(2));
    ASSERT_EQ(r.delivered.size(), 1u) << "seq " << s;
    EXPECT_EQ(r.delivered[0].msg_id, s);
  }
  EXPECT_EQ(buf.cum(), 4u);

  // The boundary: cum + window - 1 is admitted, cum + window refused.
  data(buf, rseg(4 + kWindow - 1, 9, 0, 1), at_ms(3));
  EXPECT_TRUE(buf.has(4 + kWindow - 1));
  EXPECT_EQ(buf.buffered(), 1u);
  data(buf, rseg(4 + kWindow, 10, 0, 1), at_ms(3));
  EXPECT_FALSE(buf.has(4 + kWindow));
  EXPECT_EQ(buf.buffered(), 1u);
  EXPECT_EQ(buf.rwnd(), kWindow - 1);
  // Skips obey the same bound.
  const std::vector<SkippedSeq> far{{4 + kWindow, 10, 1}};
  skip(buf, far, at_ms(4));
  EXPECT_FALSE(buf.has(4 + kWindow));
}

// The window is a ring indexed by seq - cum, so one forged segment at its
// far end grows the ring to the whole window (about 0.85 MB at the default
// 4096). That is the most a peer can make it hold: segments anywhere in or
// beyond the window, and the window sliding on, never grow it further.
TEST(RecvBufferTest, ForgedSegmentsGrowTheRingToTheWindowAtMost) {
  constexpr std::uint32_t kWindow = 4096;
  RecvBuffer buf(kWindow, 1);
  data(buf, rseg(kWindow, 1, 0, 1), at_ms(1));  // cum + window - 1
  EXPECT_TRUE(buf.has(kWindow));
  EXPECT_EQ(buf.capacity(), kWindow);
  for (Seq s = 2; s < 4 * kWindow; s += 7) {
    data(buf, rseg(s, static_cast<std::uint32_t>(s), 0, 1), at_ms(2));
  }
  const std::vector<SkippedSeq> skips{{3, 3, 1}, {2 * kWindow, 9, 1}};
  skip(buf, skips, at_ms(3));
  EXPECT_EQ(buf.capacity(), kWindow);
  for (Seq s = 1; s < 3 * kWindow; ++s) {
    data(buf, rseg(s, static_cast<std::uint32_t>(s), 0, 1), at_ms(4));
  }
  EXPECT_EQ(buf.cum(), 3 * kWindow);
  EXPECT_EQ(buf.capacity(), kWindow);
}

// A lying peer opens a fresh message with every in-order segment. An honest
// peer never has two messages open (they occupy contiguous sequences and
// finalize in order), so each new one drops the one before it: the
// reassembly state stays one message.
TEST(RecvBufferTest, FreshMessageIdsCannotGrowReassemblyState) {
  RecvBuffer buf;
  RecvBuffer::Result r;
  std::size_t delivered = 0;
  std::uint64_t dropped = 0;
  for (Seq s = 1; s <= 100000; ++s) {
    buf.on_data(rseg(s, static_cast<std::uint32_t>(s), 0, 2), at_ms(1), r);
    delivered += r.delivered.size();
    dropped += r.dropped_messages;
  }
  EXPECT_EQ(buf.cum(), 100001u);
  EXPECT_EQ(delivered, 0u);
  EXPECT_EQ(buf.delivered_messages(), 0u);
  EXPECT_EQ(buf.dropped_messages(), 99999u);
  EXPECT_EQ(dropped, 99999u);
}

// ---------------------------------------------------------------- budget --

TEST(SkipBudgetTest, ZeroToleranceNeverSkips) {
  SkipBudget b(0.0);
  b.on_message_offered();
  EXPECT_FALSE(b.may_skip_message());
}

TEST(SkipBudgetTest, EnforcesFraction) {
  SkipBudget b(0.4);
  for (int i = 0; i < 10; ++i) b.on_message_offered();
  // 4 of 10 allowed.
  EXPECT_TRUE(b.may_skip_message());
  b.on_message_skipped();
  b.on_message_skipped();
  b.on_message_skipped();
  b.on_message_skipped();
  EXPECT_FALSE(b.may_skip_message());
  EXPECT_DOUBLE_EQ(b.skipped_fraction(), 0.4);
  // More offered messages re-open the budget.
  for (int i = 0; i < 5; ++i) b.on_message_offered();
  EXPECT_TRUE(b.may_skip_message());
}

TEST(SkipBudgetTest, ToleranceExactlyMetAllowsTheBoundarySkip) {
  // may_skip asks "would one MORE skip stay within tolerance" — with the
  // comparison inclusive, the skip that lands exactly on the tolerance is
  // permitted and the one past it is not.
  SkipBudget b(0.5);
  for (int i = 0; i < 10; ++i) b.on_message_offered();
  for (int i = 0; i < 4; ++i) b.on_message_skipped();
  // 5/10 == 0.5 exactly: still allowed.
  EXPECT_TRUE(b.may_skip_message());
  b.on_message_skipped();
  EXPECT_DOUBLE_EQ(b.skipped_fraction(), 0.5);
  // 6/10 would exceed it.
  EXPECT_FALSE(b.may_skip_message());
}

TEST(SkipBudgetTest, ToleranceLoweredMidStreamClosesTheBudget) {
  // The receiver can re-advertise a tighter tolerance at any time; messages
  // already skipped under the old tolerance stay counted, and no further
  // skips are allowed until enough new offers dilute the fraction.
  SkipBudget b(0.5);
  for (int i = 0; i < 10; ++i) b.on_message_offered();
  for (int i = 0; i < 3; ++i) b.on_message_skipped();
  EXPECT_TRUE(b.may_skip_message());

  b.set_tolerance(0.2);
  EXPECT_EQ(b.tolerance(), 0.2);
  // 3/10 already exceeds the new 0.2 tolerance: budget is closed.
  EXPECT_FALSE(b.may_skip_message());
  EXPECT_DOUBLE_EQ(b.skipped_fraction(), 0.3);

  // 4/20 == 0.2: offering ten more re-opens exactly at the boundary.
  for (int i = 0; i < 10; ++i) b.on_message_offered();
  EXPECT_TRUE(b.may_skip_message());
  b.on_message_skipped();
  EXPECT_FALSE(b.may_skip_message());
}

}  // namespace
}  // namespace iq::rudp
