#pragma once
// Shared helpers for the table/figure reproduction benches.
//
// Each bench binary reproduces one table or figure: it runs every scheme of
// the scenario on the simulated testbed, prints the paper's published rows
// next to the measured ones, and exits nonzero if the scenario failed to
// complete (so bench runs catch regressions).

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "iq/harness/paper.hpp"
#include "iq/harness/runner.hpp"
#include "iq/harness/scenarios.hpp"

namespace iq::bench {

inline harness::ExperimentResult run_and_report(
    const harness::ExperimentConfig& cfg) {
  const auto wall0 = std::chrono::steady_clock::now();
  harness::ExperimentResult r = harness::run_experiment(cfg);
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall0)
          .count();
  std::fprintf(stderr, "  [%-24s] sim %.1fs, wall %.2fs, events %.2fM%s\n",
               cfg.scheme.label.c_str(), r.sim_seconds, wall,
               static_cast<double>(r.events_executed) / 1e6,
               r.completed ? "" : "  ** DID NOT COMPLETE **");
  return r;
}

/// Run a whole table's configurations at once — across a thread pool unless
/// IQ_BENCH_SERIAL is set — and print one report line per run, in input
/// order. Each run owns its simulator and network, so the results (and the
/// tables built from them) are bit-identical to running serially; only the
/// wall-clock time changes.
inline std::vector<harness::ExperimentResult> run_all(
    const std::vector<harness::ExperimentConfig>& cfgs) {
  std::size_t threads = 0;
  if (const char* v = std::getenv("IQ_BENCH_SERIAL");
      v != nullptr && *v != '\0' && *v != '0') {
    threads = 1;
  }
  auto timed = harness::run_experiments(cfgs, threads);
  std::vector<harness::ExperimentResult> out;
  out.reserve(timed.size());
  for (std::size_t i = 0; i < timed.size(); ++i) {
    // Progress lines carry wall-clock time, so they go to stderr: stdout is
    // reserved for the bench's bit-reproducible table/JSON output.
    std::fprintf(stderr, "  [%-24s] sim %.1fs, wall %.2fs, events %.2fM%s\n",
                 cfgs[i].scheme.label.c_str(), timed[i].result.sim_seconds,
                 timed[i].wall_seconds,
                 static_cast<double>(timed[i].result.events_executed) / 1e6,
                 timed[i].result.completed ? "" : "  ** DID NOT COMPLETE **");
    out.push_back(std::move(timed[i].result));
  }
  return out;
}

/// Standard 4-metric row most tables use: duration, throughput,
/// inter-arrival, jitter.
inline std::vector<double> row4(const harness::ExperimentResult& r) {
  return {r.summary.duration_s, r.summary.throughput_kBps,
          r.summary.interarrival_s, r.summary.jitter_s};
}

/// Table 1/2 style: the paper reports *packet* inter-arrival there.
inline std::vector<double> row4_pkt(const harness::ExperimentResult& r) {
  return {r.summary.duration_s, r.summary.throughput_kBps,
          r.pkt_interarrival_s, r.pkt_jitter_s};
}

/// Table 3/4 style row: duration, %delivered, tagged delay/jitter,
/// overall delay/jitter (all delays in ms).
inline std::vector<double> conflict_row(const harness::ExperimentResult& r) {
  return {r.summary.duration_s,     r.summary.delivered_pct,
          r.summary.tagged_delay_ms, r.summary.tagged_jitter_ms,
          r.summary.delay_ms,        r.summary.jitter_ms};
}

/// Table 5-8 style row: throughput, duration, delay, jitter (ms).
inline std::vector<double> overreaction_row(
    const harness::ExperimentResult& r) {
  return {r.summary.throughput_kBps, r.summary.duration_s,
          r.summary.delay_ms, r.summary.jitter_ms};
}

}  // namespace iq::bench

// ---------------------------------------------------------------------------
// Counting allocator (opt-in).
//
// A binary that defines IQ_COUNT_ALLOCS before including this header (in
// exactly ONE translation unit — these are replacements of the global
// allocation functions) gets process-wide allocation counting:
// iq::bench::alloc_count() returns the number of operator-new calls since
// process start, and iq::bench::alloc_bytes() the bytes they requested.
// The zero-allocation steady-state benches and tests snapshot the count
// around a hot loop and assert the delta; bench_cityscale gates both
// around one scenario construction.
//
// All forms route through malloc/aligned_alloc so the matching deletes can
// free uniformly; only allocations are counted (frees are not interesting
// for the steady-state claim).
#ifdef IQ_COUNT_ALLOCS

#include <atomic>
#include <new>

namespace iq::bench {

inline std::atomic<std::uint64_t> g_alloc_calls{0};
inline std::atomic<std::uint64_t> g_alloc_bytes{0};

/// Global operator-new calls since process start.
inline std::uint64_t alloc_count() {
  return g_alloc_calls.load(std::memory_order_relaxed);
}

/// Bytes requested by those calls (before any alignment rounding).
inline std::uint64_t alloc_bytes() {
  return g_alloc_bytes.load(std::memory_order_relaxed);
}

inline void count_alloc(std::size_t n) {
  g_alloc_calls.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(n, std::memory_order_relaxed);
}

inline void* counted_alloc(std::size_t n) {
  count_alloc(n);
  if (n == 0) n = 1;
  void* p = std::malloc(n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

inline void* counted_alloc(std::size_t n, std::size_t align) {
  count_alloc(n);
  if (n == 0) n = align;
  // aligned_alloc requires the size to be a multiple of the alignment.
  n = (n + align - 1) / align * align;
  void* p = std::aligned_alloc(align, n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace iq::bench

void* operator new(std::size_t n) { return iq::bench::counted_alloc(n); }
void* operator new[](std::size_t n) { return iq::bench::counted_alloc(n); }
void* operator new(std::size_t n, std::align_val_t a) {
  return iq::bench::counted_alloc(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return iq::bench::counted_alloc(n, static_cast<std::size_t>(a));
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return iq::bench::counted_alloc(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return iq::bench::counted_alloc(n);
  } catch (...) {
    return nullptr;
  }
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

#endif  // IQ_COUNT_ALLOCS
