// City-scale fan-out bench: the 10k-flow pub/sub scenario on the sharded
// simulator, with a machine-readable baseline.
//
// Four claims are pinned to BENCH_SCALE.json (gated by perf_compare.py):
//
//   1. Determinism: the full-scale scenario produces bit-identical results
//      (digest, event count, parcel count) at shard counts 1, 2 and 4 —
//      threaded for the multi-shard runs (scale_rows_identical).
//   2. The cross-shard mailbox adds no steady-state allocations: after
//      warm-up, parcel exchange runs malloc-free (scale_mailbox_steady_allocs).
//   3. Aggregate behavior of the coordinated city: on-time ratio, delivery
//      ratio, Jain utilization index, mean resolution scale — deterministic
//      simulated results, so drift means a behavior change, not noise.
//   4. Construction cost: the operator-new calls and bytes requested while
//      building the 1-shard scenario (scale_build_allocs,
//      scale_build_bytes). Both are deterministic for a given toolchain and
//      may not rise above the committed values.
//
// Event throughput (scale_events_per_s_*) is recorded but only warns: it
// swings with the machine. On a single-core container the multi-shard
// threaded run is *slower* than 1 shard (lockstep barriers, no parallel
// hardware) — the per-core scaling story lives in docs/PERFORMANCE.md; the
// verifiable local claim is bit-identical output.
//
// Usage: bench_cityscale [output.json]   (default BENCH_SCALE.json in CWD)
// Env:   IQ_SCALE_SIM_S=N   override simulated seconds (CI's audit pass
//                           uses a short run; the committed baseline must
//                           be produced with the default).

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

// Count every global operator-new in this binary so the mailbox alloc
// metric is exact, not sampled.
#define IQ_COUNT_ALLOCS
#include "bench_util.hpp"
#include "iq/harness/cityscale.hpp"
#include "iq/harness/json.hpp"
#include "iq/sim/sharded.hpp"

namespace {

using namespace iq;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int64_t scale_sim_seconds() {
  const char* v = std::getenv("IQ_SCALE_SIM_S");
  if (v == nullptr || v[0] == '\0') return 6;
  const long n = std::strtol(v, nullptr, 10);
  return n >= 1 ? n : 6;
}

harness::CityScaleConfig full_cfg() {
  harness::CityScaleConfig cfg;  // 64 sites x 160 subs = 10240 flows
  cfg.sim_time = Duration::seconds(scale_sim_seconds());
  cfg.drain_time = Duration::seconds(2);
  // Heavy enough that the slow access classes saturate and the resolution
  // policies actually shrink — the adaptation path is part of the digest.
  cfg.bytes_per_member = 400;
  return cfg;
}

struct TimedRun {
  harness::CityScaleResult r;
  double wall_s = 0.0;
  std::uint64_t build_allocs = 0;  ///< operator-new calls constructing it
  std::uint64_t build_bytes = 0;   ///< bytes those calls requested
};

TimedRun run_one(std::size_t shards, bool threaded,
                 core::CoordinationMode mode) {
  harness::CityScaleConfig cfg = full_cfg();
  cfg.shards = shards;
  cfg.threaded = threaded;
  cfg.mode = mode;
  const double t0 = now_s();
  TimedRun t;
  const std::uint64_t allocs0 = iq::bench::alloc_count();
  const std::uint64_t bytes0 = iq::bench::alloc_bytes();
  harness::CityScale scenario(cfg);
  t.build_allocs = iq::bench::alloc_count() - allocs0;
  t.build_bytes = iq::bench::alloc_bytes() - bytes0;
  t.r = scenario.run();
  t.wall_s = now_s() - t0;
  std::fprintf(stderr,
               "  [shards=%zu%s %s] %.2fM events, %llu parcels, wall %.1fs "
               "(%.2fM ev/s), digest %016llx\n",
               shards, threaded ? " threaded" : "",
               mode == core::CoordinationMode::Coordinated ? "coord" : "unc",
               static_cast<double>(t.r.events_executed) / 1e6,
               static_cast<unsigned long long>(t.r.parcels_delivered),
               t.wall_s,
               static_cast<double>(t.r.events_executed) / t.wall_s / 1e6,
               static_cast<unsigned long long>(t.r.digest));
  return t;
}

/// Steady-state allocation count of the cross-shard mailbox: two groups
/// bounce self-reposting parcels for `measure` windows after a warm-up.
/// The parcels stay inline in ParcelFn and the mailbox vectors reuse their
/// capacity, so the delta must be zero.
std::uint64_t mailbox_steady_allocs() {
  sim::ShardedSim::Config cfg;
  cfg.shards = 2;
  cfg.lookahead = Duration::millis(10);
  cfg.threaded = false;  // worker startup would be counted; inline is the
                         // same code path through post/collect
  sim::ShardedSim ss(cfg);
  const auto a = ss.add_group();
  const auto b = ss.add_group();

  struct Bounce {
    sim::ShardedSim* ss;
    std::uint32_t from, to;
    void operator()() const {
      Bounce next{ss, to, from};
      ss->post(to, from, ss->group_sim(to).now() + Duration::millis(10),
               sim::ParcelFn(next));
    }
  };
  // Seed 32 tokens each way so the mailbox vectors see real occupancy.
  for (int i = 0; i < 32; ++i) {
    ss.post(a, b, TimePoint::zero() + Duration::millis(10), // due next window
            sim::ParcelFn(Bounce{&ss, b, a}));
    ss.post(b, a, TimePoint::zero() + Duration::millis(10),
            sim::ParcelFn(Bounce{&ss, a, b}));
  }
  ss.run_for(Duration::seconds(1));  // warm-up: vectors reach capacity
  const std::uint64_t before = iq::bench::alloc_count();
  ss.run_for(Duration::seconds(10));
  return iq::bench::alloc_count() - before;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_SCALE.json";
  std::printf("== city-scale fan-out (%d sites x %d subs = %d flows) ==\n", 64,
              160, 64 * 160);

  const std::uint64_t mailbox_allocs = mailbox_steady_allocs();
  std::printf("  mailbox steady-state allocs: %llu (must be 0)\n",
              static_cast<unsigned long long>(mailbox_allocs));

  const TimedRun s1 = run_one(1, false, core::CoordinationMode::Coordinated);
  const TimedRun s2 = run_one(2, true, core::CoordinationMode::Coordinated);
  const TimedRun s4 = run_one(4, true, core::CoordinationMode::Coordinated);
  const bool rows_identical =
      s1.r.digest == s2.r.digest && s1.r.digest == s4.r.digest &&
      s1.r.events_executed == s2.r.events_executed &&
      s1.r.events_executed == s4.r.events_executed &&
      s1.r.parcels_delivered == s2.r.parcels_delivered &&
      s1.r.parcels_delivered == s4.r.parcels_delivered;
  std::printf("  shard determinism (1 vs 2 vs 4): %s\n",
              rows_identical ? "bit-identical" : "** DIVERGED **");
  std::printf("  1-shard construction: %llu allocations, %.1f MB requested\n",
              static_cast<unsigned long long>(s1.build_allocs),
              static_cast<double>(s1.build_bytes) / 1e6);

  const TimedRun unc = run_one(1, false, core::CoordinationMode::Uncoordinated);

  const harness::CityScaleResult& r = s1.r;
  std::printf("  coordinated:   on-time %.3f, delivery %.3f, jain %.3f, "
              "mean scale %.3f, goodput %.1f Mbps\n",
              r.on_time_ratio, r.delivery_ratio, r.jain_utilization,
              r.mean_scale, r.goodput_mbps);
  std::printf("  uncoordinated: on-time %.3f, delivery %.3f, jain %.3f\n",
              unc.r.on_time_ratio, unc.r.delivery_ratio,
              unc.r.jain_utilization);

  iq::harness::JsonWriter w;
  w.begin_object()
      .field("scale_flows", r.flows)
      .field("scale_frames", r.frames_published)
      .field("scale_events", r.events_executed)
      .field("scale_parcels", r.parcels_delivered)
      .field("scale_epochs", r.epochs)
      .field("scale_joins", r.joins)
      .field("scale_leaves", r.leaves)
      .field("scale_rows_identical", rows_identical)
      .field("scale_mailbox_steady_allocs", mailbox_allocs)
      .field("scale_build_allocs", s1.build_allocs)
      .field("scale_build_bytes", s1.build_bytes)
      .field("scale_on_time_ratio", r.on_time_ratio)
      .field("scale_delivery_ratio", r.delivery_ratio)
      .field("scale_jain", r.jain_utilization)
      .field("scale_mean_scale", r.mean_scale)
      .field("scale_goodput_mbps", r.goodput_mbps)
      .field("scale_unc_on_time_ratio", unc.r.on_time_ratio)
      .field("scale_unc_delivery_ratio", unc.r.delivery_ratio)
      .field("scale_unc_jain", unc.r.jain_utilization)
      .field("scale_events_per_s_1shard",
             static_cast<double>(s1.r.events_executed) / s1.wall_s)
      .field("scale_events_per_s_2shard",
             static_cast<double>(s2.r.events_executed) / s2.wall_s)
      .field("scale_events_per_s_4shard",
             static_cast<double>(s4.r.events_executed) / s4.wall_s)
      .field("scale_sim_seconds",
             static_cast<std::uint64_t>(scale_sim_seconds()))
      .field("hardware_concurrency",
             static_cast<std::uint64_t>(std::thread::hardware_concurrency()))
      .end_object();
  std::ofstream out(out_path);
  out << w.take() << "\n";
  std::printf("  wrote %s\n", out_path.c_str());

  return rows_identical && mailbox_allocs == 0 ? 0 : 1;
}
