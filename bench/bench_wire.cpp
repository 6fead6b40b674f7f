// Real-socket wire bench: throughput and latency of the batched UDP fast
// path, with a machine-readable baseline.
//
// Two UdpWire endpoints on loopback inside one epoll loop. Three sections:
//   - blast: bursts of encoded DATA segments through sendmmsg, drained by
//     recvmmsg on the peer — wire-level packets/second, the delivered
//     ratio (the kernel may shed under overload; the wire may not) and the
//     sendmmsg messages the blast took (with UDP GSO, one per full batch);
//   - echo: sequential ping/pong through the full encode → sendmmsg →
//     epoll → recvmmsg → in-place-decode path, RTT percentiles — the
//     latency cost of one event-loop round trip (timeouts retransmit, so
//     the reply count is deterministic);
//   - steady allocations: the blast window re-run after warmup with the
//     counting allocator armed — the socket send/recv path claims exactly
//     zero heap traffic at steady state.
//
// Deterministic invariants (exact counts, zero allocs, full echo replies,
// forced batch width, one message per batch when GSO is on) are gated by
// scripts/perf_compare.py against the committed BENCH_WIRE.json;
// throughput and RTT swing with the machine and its load — both endpoints
// run in this one process — so they only warn (PERFORMANCE.md discusses
// the caveat).
//
// Usage: bench_wire [output.json]   (default BENCH_WIRE.json in the CWD)

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

// Count every global operator-new in this binary so the steady-state
// allocation metric is exact, not sampled.
#define IQ_COUNT_ALLOCS
#include "bench_util.hpp"
#include "iq/harness/json.hpp"
#include "iq/wire/udp_wire.hpp"

namespace {

using namespace iq;

constexpr std::uint16_t kPortA = 41000;
constexpr std::uint16_t kPortB = 41001;
constexpr std::size_t kBatch = 32;
constexpr std::uint64_t kBlastCount = 100'000;
constexpr std::uint64_t kPingCount = 2'000;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

rudp::Segment data_segment(std::uint32_t seq) {
  rudp::Segment seg;
  seg.type = rudp::SegmentType::Data;
  seg.conn_id = 7;
  seg.seq = seq;
  seg.msg_id = seq;
  seg.payload_bytes = 1400;
  return seg;
}

struct Harness {
  wire::RealtimeLoop loop;
  wire::UdpWire a, b;
  std::uint64_t b_received = 0;
  bool echo = false;          ///< ping phase: b reflects every segment
  std::uint32_t a_last_seq = 0;  ///< ping phase: last reply seen by a
  std::uint64_t a_replies = 0;

  static wire::UdpWireConfig cfg() {
    wire::UdpWireConfig c;
    c.batch = kBatch;
    return c;
  }

  Harness() : a(loop, kPortA, kPortB, cfg()), b(loop, kPortB, kPortA, cfg()) {
    b.set_receiver([this](const rudp::Segment& seg) {
      ++b_received;
      if (echo) b.send(seg);
    });
    a.set_receiver([this](const rudp::Segment& seg) {
      ++a_replies;
      a_last_seq = seg.seq;
    });
  }

  /// Push `count` segments a → b in full sendmmsg bursts, draining the
  /// receiver between bursts, then run until arrivals stop.
  void blast(std::uint64_t count) {
    for (std::uint64_t i = 0; i < count; ++i) {
      a.send(data_segment(static_cast<std::uint32_t>(i + 1)));
      if ((i + 1) % kBatch == 0) loop.poll_once(Duration::zero());
    }
    a.flush_sends();
    // Drain: the kernel holds at most a socket buffer's worth.
    std::uint64_t last = b_received;
    for (int idle = 0; idle < 5;) {
      loop.poll_once(Duration::millis(1));
      idle = b_received == last ? idle + 1 : 0;
      last = b_received;
    }
  }
};

struct BlastResult {
  double pps = 0.0;
  double delivered_ratio = 0.0;
  std::uint64_t received = 0;
  std::uint64_t send_messages = 0;
};

BlastResult bench_blast(Harness& h) {
  const std::uint64_t recv0 = h.b_received;
  const std::uint64_t msgs0 = h.a.stats().send_messages;
  const double t0 = now_s();
  h.blast(kBlastCount);
  const double secs = now_s() - t0;
  BlastResult out;
  out.received = h.b_received - recv0;
  out.send_messages = h.a.stats().send_messages - msgs0;
  out.pps = secs > 0.0 ? static_cast<double>(kBlastCount) / secs : 0.0;
  out.delivered_ratio =
      static_cast<double>(out.received) / static_cast<double>(kBlastCount);
  return out;
}

struct EchoResult {
  double rtt_us_p50 = 0.0;
  double rtt_us_p99 = 0.0;
  std::uint64_t replies = 0;
};

/// Sequential ping/pong: one segment in flight at a time; a ping that gets
/// no reply within 100 ms is retransmitted (loopback does not guarantee
/// delivery under memory pressure), so every sequence eventually completes
/// and `replies` is exactly kPingCount.
EchoResult bench_echo(Harness& h) {
  h.echo = true;
  std::vector<double> rtts;
  rtts.reserve(kPingCount);
  EchoResult out;
  for (std::uint64_t i = 0; i < kPingCount; ++i) {
    const auto seq = static_cast<std::uint32_t>(1'000'000 + i);
    const double t0 = now_s();
    double sent_at = t0;
    h.a.send(data_segment(seq));
    h.a.flush_sends();
    while (h.a_last_seq != seq) {
      h.loop.poll_once(Duration::millis(1));
      const double now = now_s();
      if (now - sent_at > 0.1) {  // lost: retransmit, keep the RTT honest
        h.a.send(data_segment(seq));
        h.a.flush_sends();
        sent_at = now;
      }
    }
    rtts.push_back((now_s() - sent_at) * 1e6);
  }
  h.echo = false;
  out.replies = kPingCount;  // the loop above cannot exit otherwise
  std::sort(rtts.begin(), rtts.end());
  out.rtt_us_p50 = rtts[rtts.size() / 2];
  out.rtt_us_p99 = rtts[rtts.size() * 99 / 100];
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_WIRE.json";
  std::printf("== wire benchmarks (real UDP loopback) ==\n");

  Harness h;

  // Warmup: every arena, pool and kernel buffer reaches high water while
  // allocation is still allowed, covering both the blast and echo shapes.
  h.blast(5'000);
  h.echo = true;
  h.a.send(data_segment(999'999));
  h.a.flush_sends();
  while (h.a_last_seq != 999'999) h.loop.poll_once(Duration::millis(1));
  h.echo = false;

  const BlastResult blast = bench_blast(h);
  std::printf("  blast:        %8.2f k pkts/s, delivered %.3f (%llu/%llu)\n",
              blast.pps / 1e3, blast.delivered_ratio,
              static_cast<unsigned long long>(blast.received),
              static_cast<unsigned long long>(kBlastCount));
  std::printf("  offload:      gso %s, gro %s; blast took %llu messages\n",
              h.a.offload().gso ? "on" : "off",
              h.b.offload().gro ? "on" : "off",
              static_cast<unsigned long long>(blast.send_messages));

  const EchoResult echo = bench_echo(h);
  std::printf("  echo rtt:     p50 %.1f us, p99 %.1f us (%llu replies)\n",
              echo.rtt_us_p50, echo.rtt_us_p99,
              static_cast<unsigned long long>(echo.replies));

  // Steady-state allocations across a full blast window: the fast path —
  // encode into per-slot arenas, sendmmsg, epoll dispatch, recvmmsg,
  // in-place decode — must not touch the heap.
  const std::uint64_t alloc0 = iq::bench::alloc_count();
  h.blast(20'000);
  const std::uint64_t steady_allocs = iq::bench::alloc_count() - alloc0;
  std::printf("  steady allocs: %llu per 20k-segment blast window\n",
              static_cast<unsigned long long>(steady_allocs));

  const auto& sa = h.a.stats();
  const auto& sb = h.b.stats();
  std::printf("  batches:      send max %llu, recv max %llu, drops %llu\n",
              static_cast<unsigned long long>(sa.max_send_batch),
              static_cast<unsigned long long>(sb.max_recv_batch),
              static_cast<unsigned long long>(sa.sends_dropped));

  iq::harness::JsonWriter w;
  w.begin_object()
      .field("wire_blast_count", kBlastCount)
      .field("wire_blast_received", blast.received)
      .field("wire_blast_delivered_ratio", blast.delivered_ratio)
      .field("wire_blast_pps", blast.pps)
      .field("wire_blast_send_messages", blast.send_messages)
      .field("wire_gso", h.a.offload().gso)
      .field("wire_gro", h.b.offload().gro)
      .field("wire_echo_rtt_us_p50", echo.rtt_us_p50)
      .field("wire_echo_rtt_us_p99", echo.rtt_us_p99)
      .field("wire_ping_count", kPingCount)
      .field("wire_ping_replies", echo.replies)
      .field("wire_max_send_batch", sa.max_send_batch)
      .field("wire_max_recv_batch", sb.max_recv_batch)
      .field("wire_steady_allocs", steady_allocs)
      .field("wire_decode_failures", sb.decode_failures)
      .field("wire_sends_dropped", sa.sends_dropped)
      .field("hardware_concurrency",
             static_cast<std::uint64_t>(std::thread::hardware_concurrency()))
      .end_object();
  std::ofstream f(out_path);
  f << w.take() << "\n";
  std::printf("wrote %s\n", out_path.c_str());

  // Invariant failures (not throughput — that is machine-dependent).
  bool ok = true;
  if (steady_allocs != 0) {
    std::fprintf(stderr, "FAIL: socket path allocated at steady state\n");
    ok = false;
  }
  if (sb.decode_failures != 0 || sb.checksum_rejects != 0) {
    std::fprintf(stderr, "FAIL: decode/checksum failures on loopback\n");
    ok = false;
  }
  if (echo.replies != kPingCount) {
    std::fprintf(stderr, "FAIL: echo replies != pings\n");
    ok = false;
  }
  if (sa.max_send_batch != kBatch) {
    std::fprintf(stderr, "FAIL: full send batches never formed\n");
    ok = false;
  }
  if (blast.delivered_ratio < 0.75) {
    std::fprintf(stderr, "FAIL: blast delivered ratio below 0.75\n");
    ok = false;
  }
  return ok ? 0 : 1;
}
