// Simulated workloads: the Table-1 golden and the 10240-flow CityScale.

#include <functional>
#include <memory>
#include <vector>

#include "bench.hpp"
#include "iq/harness/cityscale.hpp"
#include "iq/harness/experiment.hpp"
#include "iq/harness/scenarios.hpp"
#include "iq/sim/sharded.hpp"
#include "table1.hpp"

namespace perfbench {

using namespace iq;

namespace {

/// Set-up batches (SetupTimes). Building the Table-1 scenario takes about
/// 0.2 ms: a batch before the run and a small one after each untraced
/// Table-1 run. A CityScale takes about 0.2 s (0.3 s for the first, which
/// faults its memory in), and no second one fits beside the running one: a
/// batch before the run and one after it.
constexpr int kTable1SetupBatch = 100;
constexpr int kTable1SetupsPerRun = 5;
constexpr int kCitySetupBatch = 4;
/// latency_tail_us percentile: ~200 Table-1 runs in 20 s leave ten beyond
/// p95. (sim_city times a single run, so its tail is that run.)
constexpr double kTable1TailQ = 0.95;

// CityScale at bench_cityscale's configuration (BENCH_SCALE.json): its
// event and parcel counts, and the digest over every per-subscriber record.
constexpr std::uint64_t kCityEvents = 13665045;
constexpr std::uint64_t kCityParcels = 47872;
constexpr std::uint64_t kCityDigest = 0xa28667d09572b261;

harness::ExperimentConfig table1_config() {
  return harness::scenarios::table1(harness::SchemeSpec::iq_rudp(), true);
}

struct Table1Phase {
  std::vector<double> wall_us;
  std::uint64_t reps = 0;
  std::uint64_t bad_reps = 0;
  std::uint64_t messages = 0;
  CpuTime cpu;
  StackCounts counts;  ///< traced phase only
  std::int64_t wall_ns = 0;
};

/// Back-to-back Table-1 runs until `seconds` have passed. Untraced runs go
/// through harness::run_experiment; traced runs through Table1Run with a
/// TracedWire on each connection. With `set_up` given, it runs after each
/// run (a batch of set-ups, whose CPU time it returns) and its time is
/// added to the phase.
Table1Phase run_table1_phase(double seconds, Tracer* tracer,
                             const std::function<CpuTime()>& set_up) {
  const harness::ExperimentConfig cfg = table1_config();
  Table1Phase ph;
  const CpuTime c0 = process_cpu();
  CpuTime excluded;
  const std::int64_t t0 = now_ns();
  std::int64_t end = t0 + static_cast<std::int64_t>(seconds * 1e9);
  do {
    const std::int64_t r0 = now_ns();
    std::uint64_t events = 0;
    bool completed = false;
    if (tracer == nullptr) {
      const harness::ExperimentResult res = harness::run_experiment(cfg);
      events = res.events_executed;
      completed = res.completed;
      ph.messages += res.rudp.messages_delivered;
    } else {
      Table1Run run(cfg, tracer);
      completed = run.run();
      events = run.events();
      ph.messages += run.messages_delivered();
      ph.counts += StackCounts::of(run.sender_stats(), run.receiver_stats(),
                                   run.coordinator_stats());
    }
    ph.wall_us.push_back(static_cast<double>(now_ns() - r0) / 1e3);
    ++ph.reps;
    if (events != kTable1Events || !completed) ++ph.bad_reps;
    if (set_up) {
      const std::int64_t s0 = now_ns();
      excluded += set_up();
      end += now_ns() - s0;
    }
  } while (now_ns() < end);
  ph.wall_ns = now_ns() - t0;
  ph.cpu = process_cpu() - c0 - excluded;
  return ph;
}

}  // namespace

Result run_sim_table1(const Options& opt) {
  Result r;
  const harness::ExperimentConfig cfg = table1_config();

  // Set-up: building the scenario (network, trace, connections, app).
  SetupTimes setup;
  auto build = [&] { return std::make_unique<Table1Run>(cfg, nullptr); };
  setup.batch(kTable1SetupBatch, build);

  const double phase_s = opt.trace ? opt.seconds / 2 : opt.seconds;
  std::function<CpuTime()> set_up_batch;
  if (!opt.trace) {
    set_up_batch = [&] { return setup.batch(kTable1SetupsPerRun, build); };
  }
  Table1Phase ph = run_table1_phase(phase_s, nullptr, set_up_batch);
  r.attempted = ph.reps;
  r.failed = ph.bad_reps;
  r.check(ph.bad_reps == 0,
          format("%llu of %llu Table-1 runs did not execute %llu events",
                 static_cast<unsigned long long>(ph.bad_reps),
                 static_cast<unsigned long long>(ph.reps),
                 static_cast<unsigned long long>(kTable1Events)));

  const double run_us = median(ph.wall_us);
  r.set("setup_s", setup.median(r, "Table-1 scenario build"), "s");
  add_latency_metrics(r, ph.wall_us, kTable1TailQ,
                      "one whole run_experiment call");
  record_peak_rss(r);
  r.set("cpu_us_per_msg",
        ratio(ph.cpu.total() * 1e6, static_cast<double>(ph.messages)), "us");
  r.set("sim.events", static_cast<double>(kTable1Events), "count");
  r.set("sim.ns_per_event", run_us * 1e3 / static_cast<double>(kTable1Events),
        "ns");
  r.note(format("sim_table1: run_s p50 %.6f s", run_us / 1e6));

  // The goldens hold at the default trace seed, which every timed run uses
  // so that each does the same work. At the run's own seed the simulation
  // must still repeat exactly.
  harness::ExperimentConfig seeded = cfg;
  seeded.trace_seed = opt.seed;
  const harness::ExperimentResult a = harness::run_experiment(seeded);
  const harness::ExperimentResult b = harness::run_experiment(seeded);
  r.check(a.events_executed == b.events_executed &&
              a.rudp.messages_delivered == b.rudp.messages_delivered &&
              a.rudp.segments_sent == b.rudp.segments_sent,
          format("trace seed %llu: two runs differ",
                 static_cast<unsigned long long>(opt.seed)));

  if (opt.trace) {
    Tracer tracer;
    Table1Phase tph = run_table1_phase(phase_s, &tracer, {});
    r.check(tph.bad_reps == 0,
            "traced Table-1 run did not execute the golden event count");
    add_span_metrics(r, tracer, tph.wall_ns);
    add_stack_metrics(r, tph.counts);
    r.set("trace.overhead_ratio",
          ratio(tph.cpu.total() / static_cast<double>(tph.reps),
                ph.cpu.total() / static_cast<double>(ph.reps)),
          "ratio");
    add_rss_per_flow(r, 1.0);
  }
  return r;
}

Result run_sim_city(const Options& opt) {
  Result r;
  harness::CityScaleConfig cfg;  // 64 sites x 160 subscribers
  cfg.sim_time = Duration::seconds(6);
  cfg.drain_time = Duration::seconds(2);
  cfg.bytes_per_member = 400;
  cfg.shards = 1;
  cfg.threaded = false;

  SetupTimes setup;
  auto build = [&] { return std::make_unique<harness::CityScale>(cfg); };
  setup.batch(kCitySetupBatch, build);
  auto city = setup.time(build);

  const CpuTime c0 = process_cpu();
  const std::int64_t t0 = now_ns();
  const harness::CityScaleResult res = city->run();
  const double wall_s = static_cast<double>(now_ns() - t0) / 1e9;
  const CpuTime c1 = process_cpu();
  const double cpu_s = c1.total() - c0.total();

  r.attempted = 1;
  const bool golden = res.events_executed == kCityEvents &&
                      res.parcels_delivered == kCityParcels &&
                      res.digest == kCityDigest;
  r.failed = golden ? 0 : 1;
  r.check(golden,
          format("CityScale diverged: events %llu parcels %llu digest %016llx",
                 static_cast<unsigned long long>(res.events_executed),
                 static_cast<unsigned long long>(res.parcels_delivered),
                 static_cast<unsigned long long>(res.digest)));

  add_latency_metrics(r, {wall_s * 1e6}, 1.0, "one whole CityScale::run");
  record_peak_rss(r);
  r.set("cpu_us_per_msg",
        ratio(cpu_s * 1e6, static_cast<double>(res.fanout_delivered)), "us");
  r.note(format("sim_city: %llu flows, run_s %.3f s, on_time_ratio %.6f, "
                "%.0f events/s",
                static_cast<unsigned long long>(res.flows), wall_s,
                ratio(static_cast<double>(res.fanout_on_time),
                      static_cast<double>(res.fanout_forwarded)),
                static_cast<double>(res.events_executed) / wall_s));

  if (opt.trace) {
    // CityScale builds its flows inside the harness: counts only, and
    // run.py reads the spans as 0.
    r.set("sim.events", static_cast<double>(res.events_executed), "count");
    r.set("sim.ns_per_event",
          wall_s * 1e9 / static_cast<double>(res.events_executed), "ns");
    r.set("sim.parcels", static_cast<double>(res.parcels_delivered), "count");
    r.set("sim.windows", static_cast<double>(city->sharded().epochs()),
          "count");
    r.set("trace.overhead_ratio", 1.0, "ratio");
    add_rss_per_flow(r, static_cast<double>(res.flows));
  }

  // The second set-up batch reads the host a run's length after the first.
  city.reset();
  setup.batch(kCitySetupBatch, build);
  r.set("setup_s", setup.median(r, "CityScale construction"), "s");
  return r;
}

}  // namespace perfbench
