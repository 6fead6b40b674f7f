// Hot-path microbenchmarks with a machine-readable baseline.
//
// Measures the layers the simulator spends its time in — event scheduling,
// packet forwarding, the wire codec, a full Table 1 scenario — plus a
// serial-vs-parallel comparison of the experiment runner, and writes the
// numbers to BENCH_PERF.json so CI can archive a perf baseline per commit.
// Every timed section reports best-of-N to shave scheduler noise; the JSON
// also records the core count so baselines from different machines aren't
// compared blindly.
//
// Usage: bench_perf [output.json]   (default BENCH_PERF.json in the CWD)

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <functional>
#include <string>
#include <thread>
#include <vector>

// Count every global operator-new in this binary so the steady-state
// allocation metrics below are exact, not sampled.
#define IQ_COUNT_ALLOCS
#include "bench_util.hpp"
#include "iq/harness/json.hpp"
#include "iq/net/dumbbell.hpp"
#include "iq/rudp/codec.hpp"
#include "iq/sim/event_queue.hpp"
#include "iq/sim/simulator.hpp"
#include "iq/sim/timer_wheel.hpp"

namespace {

using namespace iq;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Best-of-N wrapper: runs `body` (which returns an ops count) `reps` times
/// and returns the highest observed ops/second.
double best_rate(int reps, const std::function<std::uint64_t()>& body) {
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    const double t0 = now_s();
    const std::uint64_t ops = body();
    const double secs = now_s() - t0;
    if (secs > 0.0) {
      const double rate = static_cast<double>(ops) / secs;
      if (rate > best) best = rate;
    }
  }
  return best;
}

/// Self-rescheduling timer churn: pure schedule+pop throughput through the
/// Simulator, the pattern every protocol timer and link event reduces to.
double bench_event_churn() {
  return best_rate(5, [] {
    sim::Simulator sim;
    constexpr int kTimers = 256;
    constexpr std::uint64_t kTotal = 1'000'000;
    std::uint64_t fired = 0;
    std::function<void()> tick[kTimers];
    for (int i = 0; i < kTimers; ++i) {
      tick[i] = [&, i] {
        if (++fired < kTotal) {
          sim.after(Duration::nanos(1 + (i * 37) % 977), tick[i]);
        }
      };
      sim.after(Duration::nanos(1 + i), tick[i]);
    }
    sim.run();
    return sim.events_executed();
  });
}

/// The retransmission-timer pattern: a standing population of events that
/// are almost always cancelled and rescheduled, almost never fired.
/// Templated so the 4-ary heap baseline and the timing wheel run the exact
/// same op mix — the wheel's O(1) schedule/cancel vs the heap's O(log n)
/// sifts is the whole point of the comparison.
template <typename Queue>
double bench_sched_cancel(std::size_t live) {
  return best_rate(5, [live] {
    Queue q;
    constexpr std::uint64_t kOps = 1'000'000;
    std::vector<sim::EventId> ids(live, 0);
    std::uint64_t ops = 0;
    std::int64_t t = 0;
    while (ops < kOps) {
      for (std::size_t i = 0; i < live; ++i) {
        if (ids[i] != 0) q.cancel(ids[i]);
        ids[i] = q.schedule(
            TimePoint::from_ns(t + static_cast<std::int64_t>(i * 131) % 4093),
            [] {});
        ++ops;
      }
      t += 64;
    }
    while (!q.empty()) q.pop();
    return ops;
  });
}

/// A same-instant burst: 4096 events due at one instant, each of which
/// schedules one zero-delay follow-up when it fires, until 64k events have
/// fired — a tick that thousands of flows share, whose handlers schedule
/// more work for that instant. The wheel must keep pace with the heap here:
/// follow-ups join its fire heap instead of a bucket that every pop
/// rescans. Templated so both schedulers run the identical op mix.
template <typename Queue>
double bench_same_instant_burst() {
  constexpr std::size_t kBurst = 4096;
  constexpr std::uint64_t kTotal = 16 * kBurst;
  struct Burst {
    Queue q;
    std::uint64_t scheduled = 0;
    void add() {
      ++scheduled;
      q.schedule(TimePoint::from_ns(1000), [this] {
        if (scheduled < kTotal) add();
      });
    }
  };
  return best_rate(3, [] {
    Burst b;
    for (std::size_t i = 0; i < kBurst; ++i) b.add();
    std::uint64_t fired = 0;
    while (!b.q.empty()) {
      b.q.pop().fn();
      ++fired;
    }
    return fired;
  });
}

/// Sparse churn, the Table-1 pattern: 16 standing events, each of which
/// schedules one follow-up 1 µs–4 ms ahead when it fires, until 2 M have
/// fired. With so few events spread so far apart, nearly every pop finds
/// the next deadline in a coarse bucket, so this row prices the wheel's
/// cascade, which event_churn's (+1–977 ns) and the burst row's
/// (same-instant) deadlines barely reach. The delays come from one
/// xorshift64 stream with a fixed seed, so both schedulers see identical
/// deadlines. Templated so both run the identical op mix.
template <typename Queue>
std::uint64_t run_sparse_churn() {
  constexpr std::size_t kStanding = 16;
  constexpr std::uint64_t kTotal = 2'000'000;
  Queue q;
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  const auto delay_ns = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return static_cast<std::int64_t>(1'000 + x % 3'999'001);
  };
  for (std::size_t i = 0; i < kStanding; ++i) {
    q.schedule(TimePoint::from_ns(delay_ns()), [] {});
  }
  std::uint64_t fired = 0;
  while (fired < kTotal) {
    auto ev = q.pop();
    ev.fn();
    ++fired;
    q.schedule(ev.at + Duration::nanos(delay_ns()), [] {});
  }
  return fired;
}

struct SparseResult {
  double heap_eps = 0.0;
  double wheel_eps = 0.0;
};

/// Best of 5 per scheduler, the reps alternating between the two so that a
/// slow spell of the host lands on both sides of the ratio.
SparseResult bench_sparse_churn() {
  SparseResult out;
  for (int rep = 0; rep < 5; ++rep) {
    out.heap_eps = std::max(
        out.heap_eps, best_rate(1, run_sparse_churn<sim::EventQueue>));
    out.wheel_eps = std::max(
        out.wheel_eps, best_rate(1, run_sparse_churn<sim::TimerWheel>));
  }
  return out;
}

/// Steady-state allocation count of the wheel's rearm path: after warmup,
/// a full population of standing timers rearming forever must never touch
/// the heap (pooled slots + inline callables + retained fire heap).
std::uint64_t bench_wheel_churn_allocs() {
  sim::TimerWheel q;
  constexpr std::size_t kLive = 1024;
  std::vector<sim::EventId> ids(kLive, 0);
  std::int64_t t = 0;
  const auto cycle = [&] {
    for (std::size_t i = 0; i < kLive; ++i) {
      if (ids[i] != 0) q.cancel(ids[i]);
      ids[i] = q.schedule(
          TimePoint::from_ns(t + static_cast<std::int64_t>(i * 131) % 4093),
          [] {});
    }
    t += 64;
  };
  // Warmup rounds have the exact shape of the measured round, so every pool
  // (slot table, freelist, fire heap) reaches its high-water size first.
  // The first round starts on an idle wheel; from the second on, each
  // round's early schedules land behind the position the previous round's
  // pops left, so they join the fire heap. Two rounds reach that shape.
  const auto round = [&] {
    for (int r = 0; r < 100; ++r) cycle();
    for (int i = 0; i < 256 && !q.empty(); ++i) (void)q.pop();
  };
  round();
  round();
  const std::uint64_t before = iq::bench::alloc_count();
  round();
  return iq::bench::alloc_count() - before;
}

/// Raw packet pump: CBR packets through the dumbbell's four hops, no
/// transport on top — isolates make_packet + node forwarding + link events.
struct PumpResult {
  double events_per_s = 0.0;
  double packets_per_s = 0.0;
};

PumpResult bench_packet_pump() {
  constexpr std::uint64_t kPackets = 100'000;
  struct CountSink final : net::PacketSink {
    std::uint64_t got = 0;
    void deliver(net::PacketPtr) override { ++got; }
  };
  PumpResult out;
  for (int rep = 0; rep < 3; ++rep) {
    sim::Simulator sim;
    net::Network netw(sim);
    net::Dumbbell db(netw, net::DumbbellConfig{.pairs = 1});
    netw.compute_routes();
    CountSink sink;
    db.right(0).bind(7, &sink);
    const net::Endpoint src{db.left(0).id(), 9};
    const net::Endpoint dst{db.right(0).id(), 7};
    std::uint64_t sent = 0;
    // 1000 B every 500 µs = 16 Mb/s, comfortably under the 20 Mb/s
    // bottleneck so nothing queues or drops.
    std::function<void()> pump = [&] {
      netw.node(src.node).send(netw.make_packet(src, dst, 1, 1000));
      if (++sent < kPackets) sim.after(Duration::micros(500), pump);
    };
    sim.after(Duration::micros(1), pump);
    const double t0 = now_s();
    sim.run();
    const double secs = now_s() - t0;
    if (sink.got != kPackets) {
      std::fprintf(stderr, "pump lost packets: %llu/%llu\n",
                   static_cast<unsigned long long>(sink.got),
                   static_cast<unsigned long long>(kPackets));
    }
    if (secs > 0.0) {
      const double eps = static_cast<double>(sim.events_executed()) / secs;
      if (eps > out.events_per_s) {
        out.events_per_s = eps;
        out.packets_per_s = static_cast<double>(kPackets) / secs;
      }
    }
  }
  return out;
}

/// CRC throughput per dispatch tier over a streaming buffer (64 KiB):
/// crc_mb_s is whatever tier crc32_update dispatches to on this machine
/// (pclmul where CPUID allows), and each kernel is also measured directly
/// so the baseline records the pclmul-vs-slice8 speedup explicitly.
struct CrcResult {
  const char* impl = "";      ///< active crc32_update tier
  double dispatch_mb_s = 0.0; ///< through the dispatcher (= wire path)
  double pclmul_mb_s = 0.0;   ///< 0 when the CPU lacks the instructions
  double slice8_mb_s = 0.0;
  double bytewise_mb_s = 0.0;
};

CrcResult bench_crc() {
  constexpr std::size_t kBuf = 64 * 1024;
  constexpr std::uint64_t kPasses = 2'000;
  Bytes buf(kBuf);
  for (std::size_t i = 0; i < kBuf; ++i) {
    buf[i] = static_cast<std::uint8_t>(i * 2654435761u >> 24);
  }
  CrcResult out;
  out.impl = iq::crc32_impl_name();
  std::uint32_t sink = 0;
  const auto tier = [&](std::uint32_t (*kernel)(std::uint32_t, iq::BytesView),
                        std::uint64_t passes, int reps) {
    return best_rate(reps, [&, kernel, passes] {
             for (std::uint64_t p = 0; p < passes; ++p) {
               sink ^= kernel(iq::kCrc32Init, buf);
             }
             return passes * kBuf;
           }) /
           1e6;
  };
  out.dispatch_mb_s = tier(&iq::crc32_update, kPasses, 5);
  if (iq::crc32_pclmul_supported()) {
    out.pclmul_mb_s = tier(&iq::crc32_update_pclmul, kPasses * 4, 5);
  }
  out.slice8_mb_s = tier(&iq::crc32_update_slice8, kPasses, 5);
  // Fewer passes: the reference path is an order of magnitude slower.
  out.bytewise_mb_s = tier(&iq::crc32_update_bytewise, kPasses / 10, 3);
  if (sink == 0xdeadbeef) std::fprintf(stderr, "impossible\n");
  return out;
}

/// Codec round trip on a representative DATA segment (attrs + payload).
struct CodecResult {
  double encode_per_s = 0.0;
  double decode_per_s = 0.0;
  double arena_encode_per_s = 0.0;
  double inplace_decode_per_s = 0.0;
  /// operator-new calls across 10k arena-encode + in-place-decode round
  /// trips after warmup. The zero-allocation fast path claims exactly 0.
  std::uint64_t steady_roundtrip_allocs = 0;
};

CodecResult bench_codec() {
  rudp::Segment seg;
  seg.type = rudp::SegmentType::Data;
  seg.conn_id = 7;
  seg.seq = 123456;
  seg.cum_ack = 123400;
  seg.rwnd_packets = 4096;
  seg.ts_us = 1'000'000;
  seg.ts_echo_us = 999'000;
  seg.msg_id = 42;
  seg.frag_index = 1;
  seg.frag_count = 3;
  seg.payload_bytes = 1400;
  seg.marked = true;
  seg.attrs.set("IQ_ERROR_RATIO", 0.034);
  seg.attrs.set("IQ_RATE_CHG", -0.2);
  Bytes payload(1400, 0xab);

  constexpr std::uint64_t kIters = 200'000;
  CodecResult out;
  out.encode_per_s = best_rate(3, [&] {
    std::uint64_t bytes = 0;
    for (std::uint64_t i = 0; i < kIters; ++i) {
      bytes += rudp::encode_segment(seg, payload).size();
    }
    // Defeat dead-code elimination with a side effect the optimizer keeps.
    if (bytes == 0) std::fprintf(stderr, "impossible\n");
    return kIters;
  });
  const Bytes wire = rudp::encode_segment(seg, payload);
  out.decode_per_s = best_rate(3, [&] {
    std::uint64_t ok = 0;
    for (std::uint64_t i = 0; i < kIters; ++i) {
      ok += rudp::decode_segment(wire).has_value() ? 1 : 0;
    }
    if (ok != kIters) std::fprintf(stderr, "decode failures: %llu\n",
                                   static_cast<unsigned long long>(kIters - ok));
    return kIters;
  });

  // Zero-allocation fast path: encode into a reused arena, decode in place.
  ByteWriter arena;
  out.arena_encode_per_s = best_rate(3, [&] {
    std::uint64_t bytes = 0;
    for (std::uint64_t i = 0; i < kIters; ++i) {
      bytes += rudp::encode_segment_into(arena, seg, payload).size();
    }
    if (bytes == 0) std::fprintf(stderr, "impossible\n");
    return kIters;
  });
  out.inplace_decode_per_s = best_rate(3, [&] {
    std::uint64_t ok = 0;
    for (std::uint64_t i = 0; i < kIters; ++i) {
      ok += rudp::decode_segment_view(wire).has_value() ? 1 : 0;
    }
    if (ok != kIters) std::fprintf(stderr, "inplace decode failures: %llu\n",
                                   static_cast<unsigned long long>(kIters - ok));
    return kIters;
  });

  // Steady-state allocation count: after one warmup round trip the arena is
  // at its high-water size and every container stays inline/pooled.
  {
    const BytesView warm = rudp::encode_segment_into(arena, seg, payload);
    (void)rudp::decode_segment_view(warm);
    const std::uint64_t before = iq::bench::alloc_count();
    for (int i = 0; i < 10'000; ++i) {
      const BytesView v = rudp::encode_segment_into(arena, seg, payload);
      auto d = rudp::decode_segment_view(v);
      if (!d) std::fprintf(stderr, "steady decode failed\n");
    }
    out.steady_roundtrip_allocs = iq::bench::alloc_count() - before;
  }
  return out;
}

/// The acceptance metric: events/second on the full Table 1 IQ-RUDP
/// scenario (transport + FEC + adaptation + coordination all live).
struct ScenarioResult {
  double events_per_s = 0.0;
  std::uint64_t events = 0;
};

ScenarioResult bench_table1_scenario() {
  ScenarioResult out;
  for (int rep = 0; rep < 5; ++rep) {
    auto cfg = harness::scenarios::table1(harness::SchemeSpec::iq_rudp(), true);
    const double t0 = now_s();
    auto r = harness::run_experiment(cfg);
    const double secs = now_s() - t0;
    out.events = r.events_executed;
    if (secs > 0.0) {
      const double eps = static_cast<double>(r.events_executed) / secs;
      if (eps > out.events_per_s) out.events_per_s = eps;
    }
  }
  return out;
}

/// Serial vs pooled execution of a multi-scheme table; verifies the rows
/// are bit-identical before trusting the wall-clock comparison.
struct RunnerResult {
  double serial_s = 0.0;
  double parallel_s = 0.0;
  std::size_t threads = 0;
  bool identical = false;
};

RunnerResult bench_runner() {
  using namespace iq::harness;
  const std::vector<ExperimentConfig> cfgs = {
      scenarios::table1(SchemeSpec::tcp(), false),
      scenarios::table1(SchemeSpec::rudp(), false),
      scenarios::table1(SchemeSpec::app_only(), true),
      scenarios::table1(SchemeSpec::iq_rudp(), true),
  };
  RunnerResult out;
  out.threads = runner_threads(cfgs.size());

  double t0 = now_s();
  const auto serial = run_experiments(cfgs, 1);
  out.serial_s = now_s() - t0;

  t0 = now_s();
  const auto parallel = run_experiments(cfgs, 0);
  out.parallel_s = now_s() - t0;

  out.identical = serial.size() == parallel.size();
  for (std::size_t i = 0; out.identical && i < serial.size(); ++i) {
    const auto& a = serial[i].result;
    const auto& b = parallel[i].result;
    out.identical = a.events_executed == b.events_executed &&
                    a.summary.duration_s == b.summary.duration_s &&
                    a.summary.throughput_kBps == b.summary.throughput_kBps &&
                    a.summary.jitter_s == b.summary.jitter_s;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_PERF.json";
  std::printf("== perf microbenchmarks ==\n");

  const double churn = bench_event_churn();
  std::printf("  event churn:        %8.2f M events/s\n", churn / 1e6);
  const double sc_heap = bench_sched_cancel<sim::EventQueue>(1024);
  std::printf("  heap sched+cancel:  %8.2f M ops/s (1k live)\n",
              sc_heap / 1e6);
  const double sc_wheel_1k = bench_sched_cancel<sim::TimerWheel>(1024);
  const double sc_wheel_10k = bench_sched_cancel<sim::TimerWheel>(10240);
  std::printf("  wheel sched+cancel: %8.2f M ops/s (1k live), %.2f M (10k)\n",
              sc_wheel_1k / 1e6, sc_wheel_10k / 1e6);
  const double burst_heap = bench_same_instant_burst<sim::EventQueue>();
  const double burst_wheel = bench_same_instant_burst<sim::TimerWheel>();
  const double burst_ratio = burst_heap > 0 ? burst_wheel / burst_heap : 0.0;
  std::printf("  same-instant burst: %8.2f M events/s wheel, %.2f M heap "
              "(%.2fx)\n",
              burst_wheel / 1e6, burst_heap / 1e6, burst_ratio);
  const SparseResult sparse = bench_sparse_churn();
  const double sparse_ratio =
      sparse.heap_eps > 0 ? sparse.wheel_eps / sparse.heap_eps : 0.0;
  std::printf("  sparse churn:       %8.2f M events/s wheel, %.2f M heap "
              "(%.2fx)\n",
              sparse.wheel_eps / 1e6, sparse.heap_eps / 1e6, sparse_ratio);
  const std::uint64_t wheel_allocs = bench_wheel_churn_allocs();
  std::printf("  wheel churn allocs: %8llu per 100 rearm rounds\n",
              static_cast<unsigned long long>(wheel_allocs));
  const PumpResult pump = bench_packet_pump();
  std::printf("  packet pump:        %8.2f M events/s (%.0f pkts/s)\n",
              pump.events_per_s / 1e6, pump.packets_per_s);
  const CrcResult crc = bench_crc();
  std::printf("  crc32 dispatch:     %8.1f MB/s (impl=%s)\n",
              crc.dispatch_mb_s, crc.impl);
  if (crc.pclmul_mb_s > 0) {
    std::printf("  crc32 pclmul:       %8.1f MB/s (%.1fx slice8)\n",
                crc.pclmul_mb_s,
                crc.slice8_mb_s > 0 ? crc.pclmul_mb_s / crc.slice8_mb_s : 0.0);
  }
  std::printf("  crc32 slice-by-8:   %8.1f MB/s\n", crc.slice8_mb_s);
  std::printf("  crc32 bytewise:     %8.1f MB/s\n", crc.bytewise_mb_s);
  const CodecResult codec = bench_codec();
  std::printf("  codec encode:       %8.2f M segs/s\n",
              codec.encode_per_s / 1e6);
  std::printf("  codec decode:       %8.2f M segs/s\n",
              codec.decode_per_s / 1e6);
  std::printf("  codec arena encode: %8.2f M segs/s\n",
              codec.arena_encode_per_s / 1e6);
  std::printf("  codec view decode:  %8.2f M segs/s (%.1fx owning)\n",
              codec.inplace_decode_per_s / 1e6,
              codec.decode_per_s > 0
                  ? codec.inplace_decode_per_s / codec.decode_per_s
                  : 0.0);
  std::printf("  steady-state allocs: %llu per 10k codec round trips\n",
              static_cast<unsigned long long>(codec.steady_roundtrip_allocs));
  const ScenarioResult t1 = bench_table1_scenario();
  std::printf("  table1 scenario:    %8.2f M events/s (%llu events/run)\n",
              t1.events_per_s / 1e6,
              static_cast<unsigned long long>(t1.events));
  const RunnerResult runner = bench_runner();
  std::printf(
      "  runner (4 configs): serial %.2fs, parallel %.2fs (%zu threads), "
      "rows %s\n",
      runner.serial_s, runner.parallel_s, runner.threads,
      runner.identical ? "identical" : "** DIVERGED **");

  iq::harness::JsonWriter w;
  w.begin_object()
      .field("event_churn_eps", churn)
      .field("sched_cancel_ops", sc_heap)
      .field("wheel_sched_cancel_ops_1k", sc_wheel_1k)
      .field("wheel_sched_cancel_ops_10k", sc_wheel_10k)
      .field("wheel_burst_vs_heap", burst_ratio)
      .field("wheel_sparse_vs_heap", sparse_ratio)
      .field("wheel_churn_steady_allocs", wheel_allocs)
      .field("packet_pump_eps", pump.events_per_s)
      .field("packet_pump_pps", pump.packets_per_s)
      .field("crc_impl", crc.impl)
      .field("crc_mb_s", crc.dispatch_mb_s)
      .field("crc_pclmul_mb_s", crc.pclmul_mb_s)
      .field("crc_slice8_mb_s", crc.slice8_mb_s)
      .field("crc_pclmul_speedup",
             crc.slice8_mb_s > 0 ? crc.pclmul_mb_s / crc.slice8_mb_s : 0.0)
      .field("crc_bytewise_mb_s", crc.bytewise_mb_s)
      .field("codec_encode_per_s", codec.encode_per_s)
      .field("codec_decode_per_s", codec.decode_per_s)
      .field("codec_arena_encode_per_s", codec.arena_encode_per_s)
      .field("codec_inplace_decode_per_s", codec.inplace_decode_per_s)
      .field("codec_steady_roundtrip_allocs", codec.steady_roundtrip_allocs)
      .field("table1_eps", t1.events_per_s)
      .field("table1_events", t1.events)
      .field("runner_serial_s", runner.serial_s)
      .field("runner_parallel_s", runner.parallel_s)
      .field("runner_threads", static_cast<std::uint64_t>(runner.threads))
      .field("runner_rows_identical", runner.identical)
      .field("hardware_concurrency",
             static_cast<std::uint64_t>(std::thread::hardware_concurrency()))
      .end_object();
  std::ofstream f(out_path);
  f << w.take() << "\n";
  std::printf("wrote %s\n", out_path.c_str());

  // Invariant failures (not throughput — that is machine-dependent): the
  // parallel runner must reproduce serial rows, and both zero-alloc fast
  // paths (codec round trip, wheel rearm churn) must stay allocation-free.
  const bool ok = runner.identical && codec.steady_roundtrip_allocs == 0 &&
                  wheel_allocs == 0;
  return ok ? 0 : 1;
}
