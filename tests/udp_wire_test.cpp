// Integration test: the RUDP engine over real UDP sockets on loopback.
//
// Includes the regression tests for the three event-loop/send-path defects
// fixed in the epoll rewrite (docs/WIRE.md): fd-dispatch invalidation when
// callbacks mutate the watch list, the >=1 ms poll timeout floor, and
// silent kernel send drops.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/udp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <thread>
#include <vector>

#include "iq/common/rng.hpp"
#include "iq/rudp/codec.hpp"
#include "iq/rudp/connection.hpp"
#include "iq/wire/udp_wire.hpp"

namespace iq::wire {
namespace {

std::uint16_t pick_port(int offset) {
  // Ports unlikely to collide across test shards.
  return static_cast<std::uint16_t>(39200 + offset);
}

double elapsed_ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// A raw UDP socket posing as a wire's peer. The wire's socket is
/// connected, so the probe must source from the remote port it expects.
int peer_probe(std::uint16_t probe_port, std::uint16_t wire_port) {
  const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (fd < 0) return fd;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(probe_port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  addr.sin_port = htons(wire_port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Send `pieces` back to back as one UDP_SEGMENT message cut every
/// `seg_size` bytes. False when the kernel refuses the message (no GSO).
bool send_coalesced(int fd, const std::vector<Bytes>& pieces,
                    std::uint16_t seg_size) {
  Bytes all;
  for (const Bytes& p : pieces) all.insert(all.end(), p.begin(), p.end());
  iovec iov{all.data(), all.size()};
  alignas(cmsghdr) unsigned char ctrl[CMSG_SPACE(sizeof(seg_size))] = {};
  msghdr h{};
  h.msg_iov = &iov;
  h.msg_iovlen = 1;
  h.msg_control = ctrl;
  h.msg_controllen = sizeof(ctrl);
  cmsghdr* c = CMSG_FIRSTHDR(&h);
  c->cmsg_level = SOL_UDP;
  c->cmsg_type = UDP_SEGMENT;
  c->cmsg_len = CMSG_LEN(sizeof(seg_size));
  std::memcpy(CMSG_DATA(c), &seg_size, sizeof(seg_size));
  return ::sendmsg(fd, &h, 0) == static_cast<ssize_t>(all.size());
}

/// One flush's mixed burst, in send order: three MSS-sized DATA (1452 B
/// encoded), the 984-B-payload tail of a 16-KiB block, three bare ACKs
/// (42 B), a first fragment carrying attrs, then three more MSS-sized DATA.
/// Every segment has its own seq, so arrivals can be matched to sends.
std::vector<rudp::Segment> mixed_burst() {
  using rudp::SegmentType;
  std::vector<rudp::Segment> burst;
  const auto add = [&](SegmentType type, std::int32_t payload) {
    rudp::Segment s;
    s.type = type;
    s.conn_id = 9;
    s.seq = static_cast<rudp::WireSeq>(burst.size() + 1);
    s.payload_bytes = payload;
    burst.push_back(s);
  };
  for (int i = 0; i < 3; ++i) add(SegmentType::Data, 1400);
  add(SegmentType::Data, 984);
  for (int i = 0; i < 3; ++i) add(SegmentType::Ack, 0);
  add(SegmentType::Data, 1400);
  burst.back().attrs.set("label", "frame-7");
  for (int i = 0; i < 3; ++i) add(SegmentType::Data, 1400);
  return burst;
}

TEST(RealtimeLoopTest, TimersFireInOrder) {
  RealtimeLoop loop;
  std::vector<int> order;
  loop.schedule_after(Duration::millis(30), [&] { order.push_back(2); });
  loop.schedule_after(Duration::millis(10), [&] { order.push_back(1); });
  loop.run_until([&] { return order.size() == 2; }, Duration::seconds(5));
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(RealtimeLoopTest, CancelWorks) {
  RealtimeLoop loop;
  bool ran = false;
  auto id = loop.schedule_after(Duration::millis(10), [&] { ran = true; });
  EXPECT_TRUE(loop.cancel_event(id));
  loop.run_for(Duration::millis(50));
  EXPECT_FALSE(ran);
}

// An idle poll_once that finds nothing due refuses the pending timer and
// leaves the wheel's position at it, ahead of the loop's clock. A timer
// armed in between must still fire first, and not before its deadline.
TEST(RealtimeLoopTest, TimerArmedBeforePendingOneAfterIdlePollFiresFirst) {
  RealtimeLoop loop;
  std::vector<int> order;
  loop.schedule_after(Duration::millis(60), [&] { order.push_back(2); });
  loop.poll_once(Duration::zero());
  ASSERT_TRUE(order.empty());
  const TimePoint early = loop.now() + Duration::millis(10);
  TimePoint early_fired_at;
  loop.schedule_at(early, [&] {
    early_fired_at = loop.now();
    order.push_back(1);
  });
  ASSERT_TRUE(loop.run_until([&] { return order.size() == 2; },
                             Duration::seconds(5)));
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_GE(early_fired_at, early);
}

// Regression (poll-loop defect #2): a timer already due must fire without
// any forced sleep. The poll(2) predecessor floored every wait to 1 ms, so
// 50 rounds of schedule-at-now cost >= 50 ms; the timerfd loop passes a
// zero timeout when work is due and finishes in microseconds per round.
TEST(RealtimeLoopTest, DueTimerFiresWithoutForcedSleep) {
  RealtimeLoop loop;
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < 50; ++i) {
    bool fired = false;
    loop.schedule_at(loop.now(), [&] { fired = true; });
    ASSERT_TRUE(loop.run_until([&] { return fired; }, Duration::seconds(5)));
  }
  EXPECT_LT(elapsed_ms_since(t0), 25.0);
}

// Regression (poll-loop defect #2, other half): sub-millisecond waits must
// sleep their actual duration, not a 1 ms floor. 40 chained 200 µs timers
// take ~8 ms here; the old loop took >= 40 ms.
TEST(RealtimeLoopTest, SubMillisecondTimersAreNotFlooredToOneMs) {
  RealtimeLoop loop;
  constexpr int kSteps = 40;
  int fired = 0;
  std::function<void()> chain = [&] {
    if (++fired < kSteps)
      loop.schedule_after(Duration::micros(200), [&] { chain(); });
  };
  const auto t0 = std::chrono::steady_clock::now();
  loop.schedule_after(Duration::micros(200), [&] { chain(); });
  ASSERT_TRUE(loop.run_until([&] { return fired == kSteps; },
                             Duration::seconds(5)));
  const double ms = elapsed_ms_since(t0);
  EXPECT_GE(ms, 7.0);   // timers did sleep, not spin
  EXPECT_LT(ms, 32.0);  // and were not floored to 1 ms each
}

// Regression (poll-loop defect #1): readiness callbacks may mutate the
// watch list, including removing fds that are ready in the same epoll
// round. The old loop dispatched by index into a snapshot of the pollfd
// array and misdispatched (or crashed) after such a removal; the epoll loop
// resolves each event against the live watch list and skips dead watchers.
TEST(RealtimeLoopTest, RemoveFdDuringDispatchIsSafe) {
  RealtimeLoop loop;
  int pairs[3][2];
  for (auto& p : pairs)
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_DGRAM, 0, p), 0);

  int fired = 0;
  int late_fired = 0;
  int extra[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_DGRAM, 0, extra), 0);
  for (auto& p : pairs) {
    loop.add_fd(p[0], [&, fd = p[0]] {
      char c;
      (void)::read(fd, &c, 1);
      ++fired;
      // Tear down every watcher mid-dispatch, then grow the watch list —
      // both mutations the old loop could not survive.
      for (auto& q : pairs) loop.remove_fd(q[0]);
      loop.add_fd(extra[0], [&, efd = extra[0]] {
        char e;
        (void)::read(efd, &e, 1);
        ++late_fired;
      });
    });
  }
  for (auto& p : pairs) ASSERT_EQ(::write(p[1], "x", 1), 1);
  loop.run_for(Duration::millis(20));
  // All three were ready, but the first callback removed the other two:
  // exactly one may run.
  EXPECT_EQ(fired, 1);

  // The watcher added mid-dispatch is live.
  ASSERT_EQ(::write(extra[1], "y", 1), 1);
  ASSERT_TRUE(loop.run_until([&] { return late_fired == 1; },
                             Duration::seconds(5)));
  loop.remove_fd(extra[0]);
  for (auto& p : pairs) {
    ::close(p[0]);
    ::close(p[1]);
  }
  ::close(extra[0]);
  ::close(extra[1]);
}

TEST(RealtimeLoopTest, BeforeWaitHooksRunEveryIterationUntilRemoved) {
  RealtimeLoop loop;
  int runs = 0;
  auto id = loop.add_before_wait([&] { ++runs; });
  loop.poll_once(Duration::zero());
  loop.poll_once(Duration::zero());
  EXPECT_GE(runs, 2);
  const int before = runs;
  loop.remove_before_wait(id);
  loop.poll_once(Duration::zero());
  EXPECT_EQ(runs, before);
}

TEST(UdpWireTest, LoopbackTransfer) {
  RealtimeLoop loop;
  UdpWire wire_a(loop, pick_port(0), pick_port(1));
  UdpWire wire_b(loop, pick_port(1), pick_port(0));

  rudp::RudpConfig cfg;
  rudp::RudpConnection client(wire_a, cfg, rudp::Role::Client);
  rudp::RudpConnection server(wire_b, cfg, rudp::Role::Server);

  std::vector<rudp::DeliveredMessage> delivered;
  server.set_message_handler(
      [&](const rudp::DeliveredMessage& m) { delivered.push_back(m); });
  server.listen();
  client.connect();

  ASSERT_TRUE(loop.run_until([&] { return client.established(); },
                             Duration::seconds(10)));

  for (int i = 0; i < 20; ++i) {
    client.send_message({.bytes = 10'000});  // 8 fragments each
  }
  ASSERT_TRUE(loop.run_until([&] { return delivered.size() == 20; },
                             Duration::seconds(30)));
  for (const auto& m : delivered) EXPECT_EQ(m.bytes, 10'000);
  EXPECT_GT(wire_a.datagrams_sent(), 160u);
  EXPECT_EQ(wire_a.decode_failures(), 0u);
}

TEST(UdpWireTest, AttrsSurviveRealSerialization) {
  RealtimeLoop loop;
  UdpWire wire_a(loop, pick_port(2), pick_port(3));
  UdpWire wire_b(loop, pick_port(3), pick_port(2));

  rudp::RudpConfig cfg;
  rudp::RudpConnection client(wire_a, cfg, rudp::Role::Client);
  rudp::RudpConnection server(wire_b, cfg, rudp::Role::Server);

  std::vector<rudp::DeliveredMessage> delivered;
  server.set_message_handler(
      [&](const rudp::DeliveredMessage& m) { delivered.push_back(m); });
  server.listen();
  client.connect();
  ASSERT_TRUE(loop.run_until([&] { return client.established(); },
                             Duration::seconds(10)));

  rudp::MessageSpec spec;
  spec.bytes = 900;
  spec.attrs.set("ADAPT_PKTSIZE", 0.3);
  spec.attrs.set("label", "frame-7");
  client.send_message(spec);
  ASSERT_TRUE(loop.run_until([&] { return delivered.size() == 1; },
                             Duration::seconds(10)));
  EXPECT_EQ(delivered[0].attrs.get_double("ADAPT_PKTSIZE"), 0.3);
  EXPECT_EQ(delivered[0].attrs.get_string("label"), "frame-7");
}

// Regression (send-path defect #3): a datagram the kernel refuses must not
// vanish silently. An encoded segment above the UDP payload limit fails
// sendmmsg with EMSGSIZE deterministically; the wire counts it and the
// drop handler propagates it into RudpStats::sends_dropped. A refused GSO
// message counts every datagram it carried.
TEST(UdpWireTest, RefusedSendIsCountedAndReachesRudpStats) {
  RealtimeLoop loop;
  UdpWire wire(loop, pick_port(4), pick_port(5));
  rudp::RudpConfig cfg;
  rudp::RudpConnection conn(wire, cfg, rudp::Role::Client);  // installs hook

  rudp::Segment seg;
  seg.type = rudp::SegmentType::Data;
  seg.seq = 1;
  seg.payload_bytes = 70'000;  // encodes past the 65507-byte UDP limit
  wire.send(seg);
  wire.flush_sends();

  EXPECT_EQ(wire.stats().sends_dropped, 1u);
  EXPECT_EQ(wire.stats().datagrams_sent, 0u);
  EXPECT_EQ(conn.stats().sends_dropped, 1u);

  // Nothing listens on the peer port, so the first datagram that leaves
  // draws an ICMP port unreachable and the kernel refuses the next send
  // with ECONNREFUSED. The loop is not polled meanwhile: its read would
  // consume the pending error.
  const std::vector<rudp::Segment> burst = mixed_burst();
  wire.send(burst[4]);
  wire.flush_sends();
  ASSERT_EQ(wire.stats().datagrams_sent, 1u);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  for (int i = 0; i < 4; ++i) wire.send(burst[i]);  // one run: DATA 1–4
  wire.flush_sends();
  const std::uint64_t refused = wire.offload().gso ? 4 : 1;
  EXPECT_EQ(wire.stats().sends_dropped, 1 + refused);
  EXPECT_EQ(conn.stats().sends_dropped, 1 + refused);
  EXPECT_EQ(wire.stats().datagrams_sent, 1 + 4 - refused);
}

// A zero-length datagram is a valid UDP arrival, distinct from "socket
// drained": it must be counted, not fed to the decoder and not looped on.
TEST(UdpWireTest, ZeroLengthDatagramIsCountedNotDecoded) {
  RealtimeLoop loop;
  UdpWire wire(loop, pick_port(6), pick_port(7));
  const int probe = peer_probe(pick_port(7), pick_port(6));
  ASSERT_GE(probe, 0);
  ASSERT_EQ(::send(probe, "", 0, 0), 0);
  ASSERT_TRUE(loop.run_until([&] { return wire.stats().empty_datagrams > 0; },
                             Duration::seconds(5)));
  EXPECT_EQ(wire.stats().empty_datagrams, 1u);
  EXPECT_EQ(wire.stats().decode_failures, 0u);
  EXPECT_EQ(wire.stats().datagrams_received, 0u);

  // Garbage from the same peer is a decode failure, not a checksum reject.
  ASSERT_EQ(::send(probe, "not-iq", 6, 0), 6);
  ASSERT_TRUE(loop.run_until([&] { return wire.stats().decode_failures > 0; },
                             Duration::seconds(5)));
  EXPECT_EQ(wire.stats().checksum_rejects, 0u);
  ::close(probe);
}

// GSO and GRO move a run of equal-size segments through the kernel as one
// message, but every segment is still its own datagram: a mixed burst from
// one flush arrives complete and in order, and the datagram counters count
// segments while send_messages shows the coalescing.
TEST(UdpWireTest, CoalescedRunsArriveAsSeparateSegments) {
  const std::vector<rudp::Segment> burst = mixed_burst();
  ASSERT_EQ(rudp::encode_segment(burst[0]).size(), 1452u);
  ASSERT_EQ(rudp::encode_segment(burst[3]).size(), 1036u);
  ASSERT_EQ(rudp::encode_segment(burst[4]).size(), 42u);
  ASSERT_GT(rudp::encode_segment(burst[7]).size(), 1452u);
  const std::uint64_t n = burst.size();

  {
    RealtimeLoop loop;
    UdpWire wire_a(loop, pick_port(12), pick_port(13));
    UdpWire wire_b(loop, pick_port(13), pick_port(12));
    std::vector<rudp::Segment> got;
    wire_b.set_receiver([&](const rudp::Segment& s) { got.push_back(s); });
    for (const rudp::Segment& s : burst) wire_a.send(s);
    wire_a.flush_sends();
    ASSERT_TRUE(loop.run_until([&] { return got.size() == n; },
                               Duration::seconds(5)));

    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(got[i].seq, burst[i].seq);
      EXPECT_EQ(got[i].type, burst[i].type);
      EXPECT_EQ(got[i].payload_bytes, burst[i].payload_bytes);
    }
    EXPECT_EQ(got[7].attrs.get_string("label"), "frame-7");

    const UdpWireStats& sa = wire_a.stats();
    EXPECT_EQ(sa.datagrams_sent, n);
    EXPECT_EQ(sa.send_batches, 1u);
    EXPECT_EQ(sa.max_send_batch, n);
    // With GSO, 4 messages carry the 11 datagrams. Runs: DATA 1–4 (the
    // tail closes it), the ACKs, the attrs fragment closed by the shorter
    // DATA after it, the last two DATA.
    EXPECT_EQ(sa.send_messages, wire_a.offload().gso ? 4u : n);

    const UdpWireStats& sb = wire_b.stats();
    EXPECT_EQ(sb.datagrams_received, n);
    EXPECT_EQ(sb.decode_failures, 0u);
    if (wire_a.offload().gso && wire_b.offload().gro) {
      EXPECT_EQ(sb.recv_messages, 4u);
    }
  }

  // Receive impairment is drawn per segment, not per buffer: the drops are
  // exactly the seeded RNG's draws over the segments in order.
  constexpr double kDrop = 0.25;
  constexpr std::uint64_t kSeed = 3;
  std::vector<rudp::WireSeq> kept;
  Rng draws(kSeed);
  bool first_run_split = false;
  for (std::size_t i = 0; i < n; ++i) {
    if (!draws.chance(kDrop)) kept.push_back(burst[i].seq);
    // The first run (seqs 1–4) must be partly dropped for this to
    // distinguish per-segment from per-buffer impairment.
    if (i == 3) first_run_split = !kept.empty() && kept.size() < 4;
  }
  ASSERT_TRUE(first_run_split);

  RealtimeLoop loop;
  UdpWireConfig impaired;
  impaired.rx_drop = kDrop;
  impaired.impairment_seed = kSeed;
  UdpWire wire_a(loop, pick_port(14), pick_port(15));
  UdpWire wire_b(loop, pick_port(15), pick_port(14), impaired);
  std::vector<rudp::WireSeq> got;
  wire_b.set_receiver([&](const rudp::Segment& s) { got.push_back(s.seq); });
  for (const rudp::Segment& s : burst) wire_a.send(s);
  wire_a.flush_sends();
  const UdpWireStats& sb = wire_b.stats();
  ASSERT_TRUE(loop.run_until(
      [&] { return sb.impaired_rx_drops + sb.datagrams_received == n; },
      Duration::seconds(5)));
  EXPECT_EQ(got, kept);
  EXPECT_EQ(sb.impaired_rx_drops, n - kept.size());
}

// Hostile peer: a coalesced buffer is validated segment by segment. One
// corrupted piece costs only itself (the pieces around it are delivered),
// and a buffer of garbage counts one decode failure per piece.
TEST(UdpWireTest, CoalescedBufferIsValidatedPerSegment) {
  RealtimeLoop loop;
  UdpWire wire(loop, pick_port(16), pick_port(17));
  const int probe = peer_probe(pick_port(17), pick_port(16));
  ASSERT_GE(probe, 0);
  std::vector<rudp::WireSeq> got;
  int corruptions = 0;
  wire.set_receiver([&](const rudp::Segment& s) { got.push_back(s.seq); });
  wire.set_corruption_handler([&] { ++corruptions; });

  std::vector<Bytes> pieces;
  for (std::uint32_t seq = 1; seq <= 4; ++seq) {
    rudp::Segment s;
    s.type = rudp::SegmentType::Data;
    s.seq = seq;
    s.payload_bytes = seq < 4 ? 1400 : 984;
    pieces.push_back(rudp::encode_segment(s));
  }
  pieces[2][100] ^= 0x01;  // a payload byte: framed as IQ, fails the CRC
  if (!send_coalesced(probe, pieces, 1452)) {
    ::close(probe);
    GTEST_SKIP() << "kernel refused a UDP_SEGMENT send";
  }
  const UdpWireStats& st = wire.stats();
  ASSERT_TRUE(loop.run_until(
      [&] { return st.datagrams_received + st.decode_failures == 4; },
      Duration::seconds(5)));
  EXPECT_EQ(got, (std::vector<rudp::WireSeq>{1, 2, 4}));
  EXPECT_EQ(st.checksum_rejects, 1u);
  EXPECT_EQ(st.decode_failures, 1u);
  EXPECT_EQ(corruptions, 1);

  const std::vector<Bytes> garbage = {Bytes(100, 0xA5), Bytes(100, 0xA5),
                                      Bytes(100, 0xA5), Bytes(60, 0xA5)};
  ASSERT_TRUE(send_coalesced(probe, garbage, 100));
  ASSERT_TRUE(loop.run_until([&] { return st.decode_failures == 5; },
                             Duration::seconds(5)));
  EXPECT_EQ(got.size(), 3u);
  EXPECT_EQ(st.checksum_rejects, 1u);
  EXPECT_EQ(corruptions, 1);
  // With GRO each message arrived as one buffer and the wire cut it apart;
  // without, the kernel did, one datagram per message.
  EXPECT_EQ(st.recv_messages, wire.offload().gro ? 2u : 8u);
  ::close(probe);
}

// Batching engages under load: a fixed-window blast queues many segments
// in one dispatch turn, so sendmmsg pushes multi-datagram batches and
// recvmmsg drains them in kind — far fewer syscalls than datagrams.
TEST(UdpWireTest, BurstTrafficBatchesSendsAndReceives) {
  RealtimeLoop loop;
  UdpWire wire_a(loop, pick_port(8), pick_port(9));
  UdpWire wire_b(loop, pick_port(9), pick_port(8));

  rudp::RudpConfig cfg;
  cfg.cc_kind = rudp::CcKind::Fixed;
  cfg.fixed_cwnd = 64.0;
  rudp::RudpConnection client(wire_a, cfg, rudp::Role::Client);
  rudp::RudpConnection server(wire_b, cfg, rudp::Role::Server);

  std::vector<rudp::DeliveredMessage> delivered;
  server.set_message_handler(
      [&](const rudp::DeliveredMessage& m) { delivered.push_back(m); });
  server.listen();
  client.connect();
  ASSERT_TRUE(loop.run_until([&] { return client.established(); },
                             Duration::seconds(10)));
  for (int i = 0; i < 20; ++i) client.send_message({.bytes = 10'000});
  ASSERT_TRUE(loop.run_until([&] { return delivered.size() == 20; },
                             Duration::seconds(30)));

  EXPECT_GT(wire_a.stats().max_send_batch, 1u);
  EXPECT_GT(wire_b.stats().max_recv_batch, 1u);
  // Batching amortized syscalls: strictly fewer batches than datagrams.
  EXPECT_LT(wire_a.stats().send_batches, wire_a.stats().datagrams_sent);
  EXPECT_LT(wire_b.stats().recv_batches, wire_b.stats().datagrams_received);
}

// Fault-matrix row over the real link: seeded userspace rx impairment on
// the receiver endpoint. The transfer still completes (retransmissions
// recover every drop) and the drops are attributed to impairment, not to
// decode/checksum failures.
TEST(UdpWireTest, ImpairedLoopbackStillDeliversEverything) {
  RealtimeLoop loop;
  UdpWire wire_a(loop, pick_port(10), pick_port(11));
  UdpWireConfig impaired;
  impaired.rx_drop = 0.08;
  impaired.impairment_seed = 7;
  UdpWire wire_b(loop, pick_port(11), pick_port(10), impaired);

  rudp::RudpConfig cfg;
  rudp::RudpConnection client(wire_a, cfg, rudp::Role::Client);
  rudp::RudpConnection server(wire_b, cfg, rudp::Role::Server);

  std::vector<rudp::DeliveredMessage> delivered;
  server.set_message_handler(
      [&](const rudp::DeliveredMessage& m) { delivered.push_back(m); });
  server.listen();
  client.connect();
  ASSERT_TRUE(loop.run_until([&] { return client.established(); },
                             Duration::seconds(10)));
  for (int i = 0; i < 20; ++i) client.send_message({.bytes = 10'000});
  ASSERT_TRUE(loop.run_until([&] { return delivered.size() == 20; },
                             Duration::seconds(60)));
  for (const auto& m : delivered) EXPECT_EQ(m.bytes, 10'000);

  EXPECT_GT(wire_b.stats().impaired_rx_drops, 0u);
  EXPECT_EQ(wire_b.stats().decode_failures, 0u);
  EXPECT_EQ(wire_b.stats().checksum_rejects, 0u);
}

}  // namespace
}  // namespace iq::wire
