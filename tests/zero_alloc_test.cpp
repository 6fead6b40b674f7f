// Steady-state allocation pinning: after warmup, a lossy RUDP transfer, over
// an in-memory pipe or across the simulated network, must run without
// touching the global heap — InlineVec keeps protocol lists inline,
// ObjectPool recycles segment bodies, the scheduler's InlineFn keeps
// callbacks in its inline buffer, the wire pipe shares immutable pooled
// segment bodies, and link and send queues and the RUDP send and receive
// windows are rings. The Dumbbell pin also runs the message shape echo and
// CityScale send: several fragments cut in place off the send queue's front
// message, with in-band attrs that move onto fragment 0. The unmarked pin
// runs adaptive reliability: skip records, skip slots, ADVANCE and its
// resend. The FTP pin runs a bulk transfer through the IQ-FTP endpoints,
// the coordinator and the ack-clocked refill. A regression in any of those
// layers shows up here as a nonzero allocation delta.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>

// Replace the global allocation functions in this binary so every
// operator-new is counted (see bench_util.hpp).
#define IQ_COUNT_ALLOCS
#include "../bench/bench_util.hpp"
#include "iq/attr/names.hpp"
#include "iq/cm/manager.hpp"
#include "iq/core/iq_connection.hpp"
#include "iq/ftp/iq_ftp.hpp"
#include "iq/net/dumbbell.hpp"
#include "iq/rudp/connection.hpp"
#include "iq/sim/simulator.hpp"
#include "iq/sim/timer_wheel.hpp"
#include "iq/wire/lossy_wire.hpp"
#include "iq/wire/sim_wire.hpp"

namespace iq::rudp {
namespace {

struct Transfer {
  sim::Simulator sim;
  wire::LossyWirePair pipe;
  RudpConnection sender;
  RudpConnection receiver;
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t target = 0;
  std::uint64_t mark_every = 1;  ///< every Nth message is marked

  static wire::LossyConfig lossy_config(double drop = 0.02) {
    wire::LossyConfig l;
    l.drop_probability = drop;          // retransmission paths stay hot
    l.reorder_jitter = Duration::millis(2);  // eack/dup-ack paths stay hot
    l.seed = 7;
    return l;
  }

  static RudpConfig rudp_config() {
    RudpConfig cfg;
    // Cap eacks at the Segment::EackList inline capacity so ACK assembly
    // never spills. The default (64) would heap-allocate by design.
    cfg.max_eacks_per_ack = 16;
    return cfg;
  }

  explicit Transfer(const wire::LossyConfig& lossy = lossy_config(),
                    const RudpConfig& receiver_config = rudp_config())
      : pipe(sim, lossy),
        sender(pipe.a(), rudp_config(), Role::Client),
        receiver(pipe.b(), receiver_config, Role::Server) {
    receiver.set_message_handler(
        [this](const DeliveredMessage&) { ++delivered; });
    receiver.listen();
    sender.connect();
  }

  // Self-rescheduling pacer. A tiny trivially-copyable functor (one
  // pointer) so the scheduler stores it inline: the test harness itself
  // must not allocate in the measured phase.
  struct Pace {
    Transfer* t;
    void operator()() const {
      if (t->sent >= t->target) return;
      ++t->sent;
      t->sender.send_message(
          {.bytes = 1000, .marked = t->sent % t->mark_every == 0});
      t->sim.after(Duration::millis(2), Pace{t});
    }
  };

  /// Send `n` more paced messages and run until the pipe drains.
  void send_and_drain(std::uint64_t n) {
    target += n;
    sim.after(Duration::millis(1), Pace{this});
    sim.run_until(sim.now() + Duration::seconds(
                                  static_cast<std::int64_t>(n) / 100 + 10));
  }
};

// The same transfer across the simulated network: RUDP over SimWire through
// a Dumbbell whose bottleneck queues and randomly drops. The LossyWirePair
// pins never touch net::Link, its DropTailQueue or Node forwarding; this
// one does. Closed loop: every delivery submits the next message, so the
// sender always holds kBacklog undelivered messages, more than the path's
// bandwidth-delay product plus the bottleneck queue: the queue stays
// occupied and overflows now and then. Every message is `spec`.
struct DumbbellTransfer {
  static constexpr int kBacklog = 64;
  static constexpr std::uint16_t kPort = 10;

  sim::Simulator sim;
  net::Network net{sim};
  net::Dumbbell db{net, dumbbell_config()};
  wire::SimWire snd_wire{net, {db.left(0).id(), kPort},
                         {db.right(0).id(), kPort}, 1};
  wire::SimWire rcv_wire{net, {db.right(0).id(), kPort},
                         {db.left(0).id(), kPort}, 1};
  RudpConnection sender{snd_wire, Transfer::rudp_config(), Role::Client};
  RudpConnection receiver{rcv_wire, Transfer::rudp_config(), Role::Server};
  MessageSpec spec;
  std::uint64_t delivered = 0;

  static net::DumbbellConfig dumbbell_config() {
    net::DumbbellConfig c;
    c.pairs = 1;
    c.bottleneck_bps = 2'000'000;  // ~240 segments/s, BDP ~8 segments
    c.bottleneck_queue_bytes = 16 * 1500;  // ~23 segments
    c.bottleneck_drop_probability = 0.01;
    c.bottleneck_drop_seed = 7;
    return c;
  }

  void submit() { sender.send_message(spec); }

  explicit DumbbellTransfer(MessageSpec s) : spec(std::move(s)) {
    receiver.set_message_handler([this](const DeliveredMessage&) {
      ++delivered;
      submit();
    });
    receiver.listen();
    sender.connect();
    for (int i = 0; i < kBacklog; ++i) submit();
  }
};

/// Warm the Dumbbell transfer up, then count the allocations of a 20-s
/// measured phase. The delivery floors depend on the message size.
void expect_dumbbell_steady_state_alloc_free(MessageSpec spec,
                                             std::uint64_t warmup_floor,
                                             std::uint64_t measured_floor) {
  DumbbellTransfer t(std::move(spec));
  net::Link& bottleneck = t.db.bottleneck();

  // Warmup, as in the pins above: a blackout forces a worst-case repair
  // episode, so every pool, ring and timer slab reaches a deeper high
  // water than the measured phase reaches.
  t.sim.after(Duration::millis(1500), [&] { bottleneck.set_blackout(true); });
  t.sim.after(Duration::millis(3000), [&] { bottleneck.set_blackout(false); });
  t.sim.run_until(TimePoint::zero() + Duration::seconds(40));
  ASSERT_TRUE(t.sender.established());
  ASSERT_GT(t.delivered, warmup_floor);

  const std::uint64_t delivered0 = t.delivered;
  const std::uint64_t transmitted0 = bottleneck.transmitted();
  const std::uint64_t queued0 = bottleneck.queue().enqueued();
  const std::uint64_t drops0 = bottleneck.random_drops();
  const std::uint64_t before = iq::bench::alloc_count();
  t.sim.run_until(t.sim.now() + Duration::seconds(20));
  const std::uint64_t allocs = iq::bench::alloc_count() - before;

  const std::uint64_t transmitted = bottleneck.transmitted() - transmitted0;
  EXPECT_GT(t.delivered - delivered0, measured_floor);
  // Nearly every segment waited in the bottleneck queue, the queue filled
  // up, and the random drop path ran.
  EXPECT_GT(bottleneck.queue().enqueued() - queued0, transmitted * 9 / 10);
  EXPECT_GT(bottleneck.queue().dropped(), 0u);
  EXPECT_GT(bottleneck.random_drops() - drops0, 10u);
  EXPECT_EQ(allocs, 0u) << "steady state across the dumbbell touched the "
                        << "heap " << allocs << " times";
}

TEST(ZeroAllocTest, SteadyStateTransferAcrossDumbbellDoesNotAllocate) {
  if (std::getenv("IQ_AUDIT") != nullptr) {
    GTEST_SKIP() << "IQ_AUDIT arms the flight recorder; its bookkeeping "
                    "allocates by design";
  }
  expect_dumbbell_steady_state_alloc_free({.bytes = 1000, .marked = true},
                                          5000, 4000);
}

// 3500-B messages are three fragments (1400 + 1400 + 700), so the front of
// the send queue is partly consumed most of the time, and each message's
// attrs move onto its fragment 0 and ride the DATA segment in band.
TEST(ZeroAllocTest, SteadyStateFragmentedMessagesWithAttrsDoNotAllocate) {
  if (std::getenv("IQ_AUDIT") != nullptr) {
    GTEST_SKIP() << "IQ_AUDIT arms the flight recorder; its bookkeeping "
                    "allocates by design";
  }
  MessageSpec spec{.bytes = 3500, .marked = true};
  spec.attrs.set(attr::kMsgMarked, true);
  spec.attrs.set("frame", std::int64_t{7});
  // The floors sit below what this deterministic run reads: 1964 messages
  // delivered in warmup, 1222 (with 37 random drops) in the measured phase.
  expect_dumbbell_steady_state_alloc_free(std::move(spec), 1500, 1000);
}

TEST(ZeroAllocTest, SteadyStateLossyTransferDoesNotAllocate) {
  if (std::getenv("IQ_AUDIT") != nullptr) {
    GTEST_SKIP() << "IQ_AUDIT arms the flight recorder on every connection; "
                    "its event bookkeeping allocates by design, so the "
                    "zero-allocation pin only holds for the production path";
  }
  Transfer t;

  // Warmup: handshake, pool/arena growth to high water, first losses,
  // retransmissions, RTO timers — every steady-state path runs at least
  // once while allocation is still allowed. Capacity growth is high-water
  // driven (pool freelists, reorder backlog, delivery batches), so the
  // warmup must reach a *deeper* state than anything the measured phase
  // hits: a blackout forces a worst-case gap-repair episode (RTO backoff
  // chain, full-window reorder backlog, then a burst drain), and the long
  // tail of the warmup covers the rare multi-drop repair episodes that a
  // short warmup would first encounter during measurement.
  t.sim.after(Duration::millis(1500), [&t] { t.pipe.set_blackout(true); });
  t.sim.after(Duration::millis(3000), [&t] { t.pipe.set_blackout(false); });
  t.send_and_drain(10'000);
  ASSERT_TRUE(t.sender.established());
  const std::uint64_t warm_delivered = t.delivered;
  ASSERT_GT(warm_delivered, 9900u);  // losses are recovered, not lost

  // Measured phase: 10'000 more segments through the same lossy pipe.
  const std::uint64_t before = iq::bench::alloc_count();
  t.send_and_drain(10'000);
  const std::uint64_t allocs = iq::bench::alloc_count() - before;

  EXPECT_EQ(t.sent, 20'000u);
  EXPECT_GT(t.delivered, warm_delivered + 9900u);
  EXPECT_EQ(allocs, 0u) << "steady-state transfer touched the heap "
                        << allocs << " times";
}

// Adaptive reliability in steady state: every 5th message is marked and the
// receiver tolerates 30% loss, so lost unmarked messages are abandoned:
// the sender's window keeps skip records until the peer's cumulative ack
// passes them, ADVANCEs (and their resends, when one is lost) carry them,
// and the receiver's window holds skip slots. With send-side discard on,
// the budget goes to messages dropped before they are sent. 1% drop keeps
// every ADVANCE within SkippedList's 8 inline skips; at 2% some reach 9
// and spill by design.
void expect_unmarked_steady_state_alloc_free(bool discard) {
  RudpConfig rcfg = Transfer::rudp_config();
  rcfg.recv_loss_tolerance = 0.3;
  Transfer t(Transfer::lossy_config(0.01), rcfg);
  t.mark_every = 5;
  std::size_t max_skips = 0;
  t.sender.set_segment_tap([&max_skips](RudpConnection::TapDirection dir,
                                        const Segment& s) {
    if (dir == RudpConnection::TapDirection::Out &&
        s.type == SegmentType::Advance) {
      max_skips = std::max(max_skips, s.skipped.size());
    }
  });
  t.sender.set_discard_unmarked(discard);

  t.sim.after(Duration::millis(1500), [&t] { t.pipe.set_blackout(true); });
  t.sim.after(Duration::millis(3000), [&t] { t.pipe.set_blackout(false); });
  t.send_and_drain(10'000);
  ASSERT_TRUE(t.sender.established());
  const std::uint64_t warm_delivered = t.delivered;
  const std::uint64_t skipped0 = t.sender.skip_budget().skipped();
  const std::uint64_t lost_skips0 = t.sender.stats().messages_skipped;
  const std::uint64_t advances0 = t.sender.stats().advances_sent;
  max_skips = 0;  // the blackout's repair may spill, by design

  const std::uint64_t before = iq::bench::alloc_count();
  t.send_and_drain(10'000);
  const std::uint64_t allocs = iq::bench::alloc_count() - before;

  const RudpStats& st = t.sender.stats();
  EXPECT_EQ(t.sent, 20'000u);
  EXPECT_GT(t.sender.skip_budget().skipped() - skipped0, 100u);
  if (!discard) {
    EXPECT_GT(st.messages_skipped - lost_skips0, 100u);
    EXPECT_GT(st.advances_sent - advances0, 100u);
  }
  EXPECT_LE(t.sender.skip_budget().skipped_fraction(), 0.3);
  // Every message is delivered or accounted as dropped.
  EXPECT_EQ(t.delivered + t.receiver.stats().messages_dropped +
                st.messages_discarded_at_send,
            t.sent);
  EXPECT_GT(t.delivered, warm_delivered + 6'000u);
  EXPECT_LE(max_skips, 8u) << "an ADVANCE spilled SkippedList";
  EXPECT_EQ(allocs, 0u) << "unmarked steady state touched the heap "
                        << allocs << " times";
}

TEST(ZeroAllocTest, SteadyStateUnmarkedTransferWithSkipsDoesNotAllocate) {
  if (std::getenv("IQ_AUDIT") != nullptr) {
    GTEST_SKIP() << "IQ_AUDIT arms the flight recorder; its bookkeeping "
                    "allocates by design";
  }
  {
    SCOPED_TRACE("send-side discard off");
    expect_unmarked_steady_state_alloc_free(false);
  }
  {
    SCOPED_TRACE("send-side discard on");
    expect_unmarked_steady_state_alloc_free(true);
  }
}

// The timer-rearm hot path, pinned directly on the scheduler now backing
// sim::Simulator and the RealtimeLoop. Every ack rearms the RTO timer and
// every quiet interval rearms the keepalive, so at city scale the wheel
// absorbs one cancel+schedule pair per delivered segment: its slot pool,
// per-bucket intrusive lists and fire heap must all be at high water
// after warmup and never touch the heap again. The lossy-transfer pins
// above cover the same path end to end (RudpConnection timers run through
// sim::Simulator's wheel); this one isolates the wheel so a regression
// points at the scheduler, not the transport.
TEST(ZeroAllocTest, TimerWheelRearmChurnDoesNotAllocate) {
  constexpr std::size_t kLive = 10'240;  // CityScale's armed-timer regime
  sim::TimerWheel wheel;
  std::vector<sim::EventId> ids(kLive, 0);
  std::uint64_t fired = 0;
  std::int64_t t = 0;

  // One full churn round: every timer is cancelled and rearmed at an
  // RTO-like horizon (sub-ms spread), a same-ns keepalive batch piles onto
  // one deadline (exercising the FIFO fire heap), then time advances and
  // a slice of the population fires and is immediately rearmed — the
  // retransmission-timer lifecycle, compressed.
  const auto churn_round = [&] {
    for (std::size_t i = 0; i < kLive; ++i) {
      if (ids[i] != 0) wheel.cancel(ids[i]);
      ids[i] = wheel.schedule(
          TimePoint::from_ns(t + 200'000 + static_cast<std::int64_t>(i * 131) %
                                               800'000),
          [&fired] { ++fired; });
    }
    t += 300'000;  // overtake ~1/3 of the deadlines
    while (!wheel.empty() && wheel.next_time().ns() <= t) {
      auto popped = wheel.pop();
      popped.fn();
    }
  };

  // Warmup: grow the slot pool, bucket lists and fire heap to the
  // population's high-water mark while allocation is still allowed.
  for (int round = 0; round < 4; ++round) churn_round();

  const std::uint64_t before = iq::bench::alloc_count();
  for (int round = 0; round < 32; ++round) churn_round();
  const std::uint64_t allocs = iq::bench::alloc_count() - before;

  // ~1/8 of the deadlines land inside each round's 300 us advance, so 36
  // rounds fire the population several times over.
  EXPECT_GT(fired, 4 * kLive);
  EXPECT_EQ(allocs, 0u) << "timer rearm churn touched the heap " << allocs
                        << " times";
}

// Deadlines at or behind the wheel position (legal on the realtime path)
// join the wheel's fire heap, where a cancel leaves a stale reference until
// it surfaces. Rearming such a timer over and over with no pop in between
// must not grow the heap without bound: it drops stale references before
// it would reallocate.
TEST(ZeroAllocTest, TimerWheelLateRearmWithoutPopsDoesNotAllocate) {
  sim::TimerWheel wheel;
  wheel.schedule(TimePoint::from_ns(1'000'000), [] {});
  (void)wheel.pop();  // the wheel now stands at 1 ms
  sim::EventId id = 0;
  const auto rearm = [&](int n) {
    for (int i = 0; i < n; ++i) {
      if (id != 0) {
        EXPECT_TRUE(wheel.cancel(id));
      }
      id = wheel.schedule(TimePoint::from_ns(1'000'000 - i % 1000), [] {});
    }
  };
  rearm(64);  // warmup
  const std::uint64_t before = iq::bench::alloc_count();
  rearm(100'000);
  const std::uint64_t allocs = iq::bench::alloc_count() - before;
  EXPECT_EQ(allocs, 0u) << "late rearms grew the fire heap " << allocs
                        << " times";
  EXPECT_EQ(wheel.size(), 1u);
  EXPECT_EQ(wheel.next_time(), TimePoint::from_ns(1'000'000 - 99'999 % 1000));
}

TEST(ZeroAllocTest, SteadyStateTransferWithCongestionManagerDoesNotAllocate) {
  if (std::getenv("IQ_AUDIT") != nullptr) {
    GTEST_SKIP() << "IQ_AUDIT arms the flight recorder; its bookkeeping "
                    "allocates by design";
  }
  // Same pin with a CongestionManager apportioning the window: the per-ack
  // reapportion must stay inside the scratch arrays reserved at
  // registration, and the share listener must not allocate per call.
  cm::CmConfig mcfg;
  mcfg.aggregate.initial_cwnd = 16.0;
  // Cap the aggregate so the transfer's high-water state (send queue depth,
  // in-flight map, reorder backlog) is fully reached during warmup; an
  // ever-growing window would first hit new depths — and grow pools — in
  // the measured phase.
  mcfg.aggregate.max_cwnd = 24.0;
  cm::CongestionManager mgr(mcfg);
  Transfer t;
  cm::FlowHandle* flow = mgr.register_flow(2.0);
  // A phantom sibling: keeps the apportionment genuinely splitting (shares
  // below the aggregate) rather than degenerating to the single-flow case.
  cm::FlowHandle* sibling = mgr.register_flow(1.0);
  flow->set_share_listener([&t] { t.sender.window_updated(); });
  t.sender.set_external_congestion(flow);

  // Same blackout as the built-in-controller pin, plus a delay spike once
  // the capped aggregate is reached: stretching the pipe's transit time
  // piles up far more simultaneously-live pooled segment bodies (in-transit
  // copies + retransmissions of the same gaps) than the measured phase's
  // 17 ms pipe ever holds, so the body pool's freelist is provisioned past
  // its true high water while allocation is still allowed.
  t.sim.after(Duration::millis(1500), [&t] { t.pipe.set_blackout(true); });
  t.sim.after(Duration::millis(3000), [&t] { t.pipe.set_blackout(false); });
  t.sim.after(Duration::millis(14'000),
              [&t] { t.pipe.set_extra_delay(Duration::millis(300)); });
  t.sim.after(Duration::millis(16'000),
              [&t] { t.pipe.set_extra_delay(Duration::zero()); });
  t.send_and_drain(10'000);
  ASSERT_TRUE(t.sender.established());
  const std::uint64_t warm_delivered = t.delivered;
  ASSERT_GT(warm_delivered, 9900u);

  const std::uint64_t before = iq::bench::alloc_count();
  t.send_and_drain(10'000);
  const std::uint64_t allocs = iq::bench::alloc_count() - before;

  EXPECT_EQ(t.sent, 20'000u);
  EXPECT_GT(t.delivered, warm_delivered + 9900u);
  EXPECT_EQ(allocs, 0u) << "CM-attached steady state touched the heap "
                        << allocs << " times";
  // The CM actually mediated the transfer.
  EXPECT_GT(mgr.stats().reapportions, 1000u);
  EXPECT_LT(flow->share(), mgr.aggregate_cwnd());

  t.sender.set_external_congestion(nullptr);
  mgr.unregister_flow(flow);
  mgr.unregister_flow(sibling);
}

// IQ-FTP in steady state, in wire_ftp's shape: a 32 MB file of 16 KiB
// blocks with FileImage digests, a coordinated pair with a 64-packet
// receive window, here over a lossless 50-us pipe. Each block message
// carries two attributes through the coordinator, the send queue and
// fragment 0, and the path is fast enough that the transport's queue runs
// dry between the sender's 1-ms ticks, so the refill runs from the ack
// path (the drained handler) as well as from the tick.
TEST(ZeroAllocTest, SteadyStateFtpTransferDoesNotAllocate) {
  if (std::getenv("IQ_AUDIT") != nullptr) {
    GTEST_SKIP() << "IQ_AUDIT arms the flight recorder; its bookkeeping "
                    "allocates by design";
  }
  const ftp::FileSpec file{.total_bytes = 32 << 20};
  const ftp::FileImage image(file, 7);
  sim::Simulator sim;
  wire::LossyWirePair pipe(sim, {.one_way_delay = Duration::micros(50)});
  RudpConfig rc;
  rc.recv_window_packets = 64;
  core::CoordinatorConfig cc;
  cc.mode = core::CoordinationMode::Coordinated;
  core::IqRudpConnection snd(pipe.a(), rc, Role::Client, cc);
  core::IqRudpConnection rcv(pipe.b(), rc, Role::Server, cc);
  ftp::IqFtpSender sender(snd, file, [](std::uint64_t) { return true; },
                          &image);
  ftp::IqFtpReceiver receiver(rcv);
  rcv.listen();
  snd.set_established_handler([&sender] { sender.start(); });
  snd.connect();

  const TimePoint limit = TimePoint::zero() + Duration::seconds(10);
  auto run_to_block = [&](std::uint64_t blocks) {
    while (sim.now() < limit && receiver.report().blocks_received < blocks) {
      sim.run_for(Duration::micros(100));
    }
  };
  run_to_block(512);  // warmup: pools, rings and scratch reach high water
  ASSERT_GE(receiver.report().blocks_received, 512u);

  const std::uint64_t before = iq::bench::alloc_count();
  run_to_block(1800);
  const std::uint64_t allocs = iq::bench::alloc_count() - before;

  EXPECT_GE(receiver.report().blocks_received, 1800u);
  EXPECT_EQ(allocs, 0u) << "steady-state FTP transfer touched the heap "
                        << allocs << " times";
  while (sim.now() < limit && !receiver.complete()) {
    sim.run_for(Duration::millis(1));
  }
  EXPECT_TRUE(receiver.matches(image));
  EXPECT_EQ(snd.transport().stats().segments_retransmitted, 0u);
}

}  // namespace
}  // namespace iq::rudp
