#pragma once
// Shared pieces of the benchmark program: run options, the result record a
// workload fills, and process-level measurements.

#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "iq/core/coordinator.hpp"
#include "iq/rudp/connection.hpp"
#include "trace.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< length of the measured phase
  bool trace = false;     ///< traced run: per-layer metrics only
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one workload run measured. `metrics` holds every end-to-end and
/// per-layer value the workload produced; main() prints them all and run.py
/// picks the ones BENCHMARK.json declares. `report` lines add sample counts
/// and context for a reader.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  ///< failed correctness checks
  std::map<std::string, Metric> metrics;
  std::vector<std::string> report;

  void set(const std::string& name, double value, const char* unit) {
    const bool finite = std::isfinite(value);
    check(finite, name + " is not finite");
    metrics[name] = Metric{finite ? value : 0.0, unit};
  }
  void check(bool ok, const std::string& what) {
    if (!ok) errors.push_back(what);
  }
  void note(const std::string& line) { report.push_back(line); }
};

/// Process CPU time (user + system) in seconds, and the system part.
struct CpuTime {
  double user_s = 0.0;
  double sys_s = 0.0;
  double total() const { return user_s + sys_s; }
  CpuTime operator-(const CpuTime& o) const {
    return CpuTime{user_s - o.user_s, sys_s - o.sys_s};
  }
  CpuTime& operator+=(const CpuTime& o) {
    user_s += o.user_s;
    sys_s += o.sys_s;
    return *this;
  }
};
CpuTime process_cpu();
/// Peak resident set size of this process (VmHWM), in kB.
double peak_rss_kb();

/// num / den, or 0 when nothing was counted.
inline double ratio(double num, double den) {
  return den > 0.0 ? num / den : 0.0;
}

/// Nearest-rank percentile of `v` (sorted in place); 0 for an empty set.
double percentile(std::vector<double>& v, double q);
double median(std::vector<double> v);

/// Global operator-new calls since process start (counting allocator).
std::uint64_t alloc_count();

/// harness.rss_kb_per_flow: peak RSS growth over the process's start, per
/// flow the workload carries.
void add_rss_per_flow(Result& r, double flows);
/// peak_rss_mb as of now: workloads record it at the end of their measured
/// phase, before any checks that build other scenarios.
void record_peak_rss(Result& r);

/// latency_p50_us and latency_tail_us over `samples_us`, one sample per
/// request (`what` names it for the report). The tail is percentile
/// `tail_q`, fixed per workload so that runs of different speed, which
/// complete different numbers of requests, are read at the same percentile.
void add_latency_metrics(Result& r, std::vector<double> samples_us,
                         double tail_q, const char* what);

/// The set-up timings behind setup_s. A shared host's CPU speed changes by
/// up to 1.6x for seconds at a time, so one burst of set-ups reads the host
/// at one moment and its median jumps between runs. Untraced runs therefore
/// take their set-ups in batches spread over the run, as the run's other
/// medians are, and keep the batches' CPU time out of their own metrics.
class SetupTimes {
 public:
  /// Time one set-up. `build` returns what it set up, which is destroyed
  /// after the timing.
  template <typename Build>
  auto time(Build&& build) {
    const std::int64_t t0 = now_ns();
    auto built = build();
    times_s_.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    return built;
  }
  /// `reps` set-ups in a row; returns the process CPU time they took.
  template <typename Build>
  CpuTime batch(int reps, Build&& build) {
    ++batches_;
    const CpuTime c0 = process_cpu();
    for (int i = 0; i < reps; ++i) time(build);
    return process_cpu() - c0;
  }
  /// The median, noting the count and quartiles (`what` names one set-up).
  double median(Result& r, const char* what) const;

 private:
  std::vector<double> times_s_;
  int batches_ = 0;
};

/// printf into a std::string (report lines).
std::string format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Span metrics (<span>.calls, .self_ns per call, .share of `measured_ns`)
/// for every span, plus bench.share: the measured time no span covers.
void add_span_metrics(Result& r, const Tracer& tracer,
                      std::int64_t measured_ns);

/// Transport and coordinator counters of one sender/receiver pair, summed
/// or differenced across snapshots.
struct StackCounts {
  std::uint64_t segments_sent = 0;  ///< sender data transmissions
  std::uint64_t retransmits = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t acks_sent = 0;      ///< by the receiver
  std::uint64_t messages = 0;       ///< delivered by the receiver
  std::int64_t payload_sent = 0;
  std::int64_t payload_delivered = 0;
  std::uint64_t records_seen = 0;   ///< coordinator (sender side)
  std::uint64_t window_rescales = 0;

  static StackCounts of(const iq::rudp::RudpStats& snd,
                        const iq::rudp::RudpStats& rcv,
                        const iq::core::CoordinatorStats& coord);
  StackCounts& operator+=(const StackCounts& o);
  StackCounts operator-(const StackCounts& o) const;
};
/// rudp.* and core.* per-layer metrics from `c`.
void add_stack_metrics(Result& r, const StackCounts& c);

Result run_wire_stream(const Options& opt);
Result run_wire_ftp(const Options& opt);
Result run_sim_table1(const Options& opt);
Result run_sim_city(const Options& opt);

}  // namespace perfbench
