// End-to-end benchmark: runs one workload through the library's
// public API and prints its metrics.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// The untraced run (--trace 0) measures the end-to-end metrics; the traced
// run (--trace 1) adds the per-layer metrics: spans timed from outside
// (trace.hpp) and counters read from public stats. The last line of stdout
// is one JSON object {correct, attempted, failed, metrics} holding every
// metric the run measured; run.py keeps the ones BENCHMARK.json declares.
// The lines before it give sample counts and the run's context. Exit
// status is nonzero when a correctness check fails.
//
// Workloads, and why each is here:
//   wire_stream  The paper's use case: a latency-bound adaptive stream. A
//                Coordinated IqRudpConnection pair over two UdpWires in one
//                RealtimeLoop, open loop at a fixed frame rate, frames of
//                1-5 segments from the seeded MboneTrace, every Nth frame
//                announcing its size change through send_with_attrs. The
//                cost per frame is loop wake-ups, timers, small sendmmsg
//                batches and the coordinator/attrs path, not bytes.
//   wire_ftp     IQ-FTP transfers of a seeded FileImage over the same
//                stack, all blocks critical, closed loop. MTU-sized
//                fragments back to back, so codec/CRC, full sendmmsg/
//                recvmmsg batches, ack processing and the send/recv buffers
//                dominate and the loop rarely sleeps. A batching or buffer
//                change that helps here can cost wire_stream latency. It
//                never enters the coordinator's attrs path.
//   sim_table1   harness::run_experiment on the Table-1 IQ-RUDP scenario,
//                back to back, 464832 events each. Few flows whose state
//                fits in cache: time goes to the timer wheel, the net
//                link/queue model, the RUDP engine and the coordinator, with
//                no codec or syscalls. The golden the ROADMAP pins, and the
//                one simulated workload that can be traced from outside.
//   sim_city     CityScale at bench_cityscale's configuration (10240 flows,
//                1 shard inline). The per-flow working set far exceeds the
//                caches, so per-flow-state changes show here and barely in
//                sim_table1. It cannot be traced from outside: the harness
//                builds its flows.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

// Count every global operator-new in this binary (alloc.per_msg).
#define IQ_COUNT_ALLOCS
#include "bench.hpp"
#include "bench_util.hpp"
#include "iq/common/bytes.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace {

double g_baseline_rss_kb = 0.0;

void usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <wire_stream|wire_ftp|sim_table1|"
               "sim_city> --seed <n> --seconds <s> --trace <0|1>\n");
}

bool parse(int argc, char** argv, Options& opt) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") {
      opt.workload = v;
    } else if (k == "--seed") {
      opt.seed = std::strtoull(v, &end, 10);
    } else if (k == "--seconds") {
      opt.seconds = std::strtod(v, &end);
    } else if (k == "--trace") {
      opt.trace = std::strtol(v, &end, 10) != 0;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return argc % 2 == 1 && !opt.workload.empty() && opt.seconds > 0.0;
}

}  // namespace

CpuTime process_cpu() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return CpuTime{secs(ru.ru_utime), secs(ru.ru_stime)};
}

double peak_rss_kb() {
  // VmHWM, not ru_maxrss: the latter keeps the high-water mark of the
  // forked parent across exec, so a small process launched from a larger
  // one reports the parent's size.
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kb = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kb;
}

double percentile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank > 0 ? rank - 1 : 0)];
}

double median(std::vector<double> v) { return percentile(v, 0.5); }

std::uint64_t alloc_count() { return iq::bench::alloc_count(); }

std::string format(const char* fmt, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  return buf;
}

void add_rss_per_flow(Result& r, double flows) {
  r.set("harness.rss_kb_per_flow",
        (peak_rss_kb() - g_baseline_rss_kb) / flows, "kB");
}

void record_peak_rss(Result& r) {
  r.set("peak_rss_mb", peak_rss_kb() / 1024.0, "MB");
}

void add_latency_metrics(Result& r, std::vector<double> samples_us,
                         double tail_q, const char* what) {
  const std::size_t n = samples_us.size();
  r.set("latency_p50_us", percentile(samples_us, 0.5), "us");
  r.set("latency_tail_us", percentile(samples_us, tail_q), "us");
  r.note(format("latency: %zu samples of %s; latency_tail_us is p%g "
                "(%zu samples beyond it); p10/p25/p75/p90 %.6g/%.6g/%.6g/%.6g us",
                n, what, 100.0 * tail_q,
                n - std::min(n, static_cast<std::size_t>(
                                    std::ceil(tail_q * static_cast<double>(n)))),
                percentile(samples_us, 0.10), percentile(samples_us, 0.25),
                percentile(samples_us, 0.75), percentile(samples_us, 0.90)));
}

double SetupTimes::median(Result& r, const char* what) const {
  std::vector<double> t = times_s_;
  const double p50 = percentile(t, 0.5);
  r.note(format("setup: %zu of %s, in %d batches; p25/p50/p75 %.6g/%.6g/%.6g s",
                t.size(), what, batches_, percentile(t, 0.25), p50,
                percentile(t, 0.75)));
  return p50;
}

void add_span_metrics(Result& r, const Tracer& tracer,
                      std::int64_t measured_ns) {
  const auto wall = static_cast<double>(measured_ns);
  for (std::size_t i = 0; i < kSpanCount; ++i) {
    const std::string name = kSpanNames[i];
    const Tracer::Totals& t = tracer.totals(static_cast<Span>(i));
    const auto calls = static_cast<double>(t.calls);
    const auto self = static_cast<double>(t.self_ns);
    r.set(name + ".calls", calls, "count");
    r.set(name + ".self_ns", calls > 0 ? self / calls : 0.0, "ns");
    r.set(name + ".share", self / wall, "ratio");
  }
  r.set("bench.share", (wall - static_cast<double>(tracer.outer_ns())) / wall,
        "ratio");
}

StackCounts StackCounts::of(const iq::rudp::RudpStats& snd,
                            const iq::rudp::RudpStats& rcv,
                            const iq::core::CoordinatorStats& coord) {
  StackCounts c;
  c.segments_sent = snd.segments_sent;
  c.retransmits = snd.segments_retransmitted;
  c.timeouts = snd.timeouts;
  c.acks_sent = rcv.acks_sent;
  c.messages = rcv.messages_delivered;
  c.payload_sent = snd.payload_bytes_sent;
  c.payload_delivered = rcv.payload_bytes_delivered;
  c.records_seen = coord.records_seen;
  c.window_rescales = coord.window_rescales;
  return c;
}

StackCounts& StackCounts::operator+=(const StackCounts& o) {
  segments_sent += o.segments_sent;
  retransmits += o.retransmits;
  timeouts += o.timeouts;
  acks_sent += o.acks_sent;
  messages += o.messages;
  payload_sent += o.payload_sent;
  payload_delivered += o.payload_delivered;
  records_seen += o.records_seen;
  window_rescales += o.window_rescales;
  return *this;
}

StackCounts StackCounts::operator-(const StackCounts& o) const {
  StackCounts c = *this;
  c.segments_sent -= o.segments_sent;
  c.retransmits -= o.retransmits;
  c.timeouts -= o.timeouts;
  c.acks_sent -= o.acks_sent;
  c.messages -= o.messages;
  c.payload_sent -= o.payload_sent;
  c.payload_delivered -= o.payload_delivered;
  c.records_seen -= o.records_seen;
  c.window_rescales -= o.window_rescales;
  return c;
}

void add_stack_metrics(Result& r, const StackCounts& c) {
  const auto segs = static_cast<double>(c.segments_sent);
  r.set("rudp.segments_per_msg", ratio(segs, static_cast<double>(c.messages)),
        "seg/msg");
  r.set("rudp.acks_per_segment", ratio(static_cast<double>(c.acks_sent), segs),
        "ratio");
  r.set("rudp.retransmit_ratio", ratio(static_cast<double>(c.retransmits), segs),
        "ratio");
  r.set("rudp.useful_ratio",
        ratio(static_cast<double>(c.payload_delivered),
            static_cast<double>(c.payload_sent)),
        "ratio");
  r.set("rudp.timeouts", static_cast<double>(c.timeouts), "count");
  r.set("core.records_seen", static_cast<double>(c.records_seen), "count");
  r.set("core.window_rescales", static_cast<double>(c.window_rescales),
        "count");
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  if (!parse(argc, argv, opt)) {
    usage();
    return 2;
  }
  g_baseline_rss_kb = peak_rss_kb();

  Result r;
  if (opt.workload == "wire_stream") {
    r = run_wire_stream(opt);
  } else if (opt.workload == "wire_ftp") {
    r = run_wire_ftp(opt);
  } else if (opt.workload == "sim_table1") {
    r = run_sim_table1(opt);
  } else if (opt.workload == "sim_city") {
    r = run_sim_city(opt);
  } else {
    usage();
    return 2;
  }

  std::printf("# context: workload=%s seed=%llu seconds=%g trace=%d nproc=%ld "
              "hardware_concurrency=%u crc=%s build=%s%s\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0, sysconf(_SC_NPROCESSORS_ONLN),
              std::thread::hardware_concurrency(), iq::crc32_impl_name(),
              PERFBENCH_BUILD_TYPE,
              opt.workload.rfind("wire_", 0) == 0
                  ? " link=loopback(127.0.0.1, kernel path, no real link)"
                  : " link=simulated");
  for (const std::string& line : r.report) std::printf("# %s\n", line.c_str());
  std::string metrics;
  for (const auto& [name, m] : r.metrics) {
    std::printf("# %-26s %.6g %s\n", name.c_str(), m.value, m.unit.c_str());
    if (!metrics.empty()) metrics += ", ";
    metrics += format("\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("# fail_ratio %.6g (%llu of %llu)\n",
              r.attempted > 0 ? static_cast<double>(r.failed) /
                                    static_cast<double>(r.attempted)
                              : 1.0,
              static_cast<unsigned long long>(r.failed),
              static_cast<unsigned long long>(r.attempted));

  if (r.attempted == 0) r.check(false, "no work attempted");
  for (const std::string& e : r.errors) {
    std::printf("# FAIL: %s\n", e.c_str());
  }
  const bool correct = r.errors.empty() && r.failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(std::max<std::uint64_t>(r.attempted, 1)),
              static_cast<unsigned long long>(r.failed), metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
