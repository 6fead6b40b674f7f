#!/usr/bin/env bash
# CI entry point: build and run the full test suite twice, then smoke the
# perf baseline —
#   1. the default RelWithDebInfo build (the tier-1 verify), preceded by
#      the orphan-header check (scripts/check_orphan_headers.py: every
#      src/iq header needs an includer outside its own .cpp and tests/),
#   2. an ASan+UBSan build (IQ_SANITIZE=ON) to catch memory and UB errors
#      that pass silently in the default build (this build also runs the
#      randomized event-queue and timer-wheel property tests under the
#      sanitizers, then reruns the CRC/codec golden suites once per forced
#      IQ_CRC_IMPL tier so every dispatchable kernel — pclmul's unaligned
#      SIMD loads included — is sanitizer-clean and wire-identical), and
#   3. a Release build of bench_perf whose BENCH_PERF.json is archived so
#      every commit carries a hot-path perf baseline (docs/PERFORMANCE.md).
# `--chaos` instead runs the deterministic fault-matrix sweep — fixed seeds
# across {blackout, burst loss, corruption, ack-path loss} plus the failure
# detectors and chaos soaks (docs/ROBUSTNESS.md) — in both the default and
# the sanitized build.
# `--perf-compare` builds the Release bench_perf, runs it, and compares the
# fresh numbers against the committed BENCH_PERF.json baseline
# (scripts/perf_compare.py): deterministic invariants — table1_events,
# runner_rows_identical, codec_steady_roundtrip_allocs — fail on any drift,
# and so do the ratio floors that hold on any machine (pclmul CRC >= 5x
# slice8, wheel_burst_vs_heap >= 0.5, wheel_sparse_vs_heap >= 0.75);
# throughput deltas only warn, because wall-clock swings with the machine.
# `--audit` runs the full suite plus the chaos matrix with the protocol
# invariant auditor armed process-wide (IQ_AUDIT=1, docs/AUDIT.md): every
# RudpConnection records its event stream into a flight recorder and a
# tripped invariant aborts the run after writing a JSON dump whose path is
# in the abort message. Default and ASan+UBSan builds.
# `--scale` runs the sharded determinism matrix (docs/SCALE.md): the
# ShardedSim, city-scale, membership-churn, pool-affinity and runner-env
# suites in the default build — plainly and with the invariant auditor
# armed (IQ_AUDIT=1, small ring so 20k connections fit) — then the same
# suites in a ThreadSanitizer build (IQ_TSAN=ON) to prove the lockstep
# worker protocol race-free, and finally the Release bench_cityscale
# (64 x 160 = 10240 subscriber flows at shard counts 1/2/4) gated against
# the committed BENCH_SCALE.json (rows bit-identical, mailbox allocs zero,
# <= 5% drift on behavioral aggregates) plus a short audited full-scale run.
# `--cm` runs the congestion-manager suites (docs/CM.md) — unit, property,
# auditor, integration, shared-destination fault matrix, zero-alloc and
# metrics-export pins — plainly and under IQ_AUDIT=1, in default and
# sanitized builds, then runs the bench_multiflow CM ablation and gates the
# fresh numbers against the committed BENCH_CM.json (Jain >= 0.95 floor,
# 2:1 priority split within 10%, <= 5% drift on any cm_* key).
# `--scenarios` runs the hostile-network scenario matrix (docs/SCENARIOS.md):
# the survivable-FTP, fault-precedence, failure-detector and scenario suites
# in the default build — plainly and under IQ_AUDIT=1 — then the same sweep
# in an ASan+UBSan build, and finally the Release bench_scenarios (three
# path profiles x coordinated/uncoordinated) gated against the committed
# BENCH_SCENARIOS.json (never wedge, byte-identical completion, recovery and
# deadline floors, <= 5% drift) plus an audited run of the same bench.
# `--wire` runs the real-socket matrix (docs/WIRE.md): the epoll event
# loop's regression suite (fd-dispatch mutation, no forced-sleep timers,
# sub-ms precision), the loopback integration tests (batching, send-drop
# accounting, impairment row), the two-process survivable-FTP soak and the
# socket-path zero-allocation pin — plainly and in an ASan+UBSan build —
# then the Release bench_wire gated against the committed BENCH_WIRE.json
# (exact counts and zero-alloc/decode invariants hard-fail; throughput and
# RTT warn only, single-CPU containers run both endpoints on one core).
# `--full` chains every mode above: the default+sanitize+perf smoke, then
# chaos, audit, cm, scale, scenarios and wire.
# Usage: scripts/ci.sh [--default-only|--sanitize-only|--perf-only|--perf-compare|--chaos|--audit|--cm|--scale|--scenarios|--wire|--full]
set -euo pipefail

cd "$(dirname "$0")/.."

# The chaos/fault matrix: every suite that drives a FaultPlan or a failure
# detector. Kept as one regex so the default and sanitized runs sweep the
# identical set.
chaos_filter='^(GilbertElliottTest|FaultPlanTest|FaultInjectorTest|FailureTest|FaultMatrixTest|Seeds/Chaos)'

# The congestion-manager matrix: apportionment unit + property suites, the
# CM auditor, facade integration, the shared-destination fault rows, and
# the CM-attached zero-allocation / metrics-export pins.
cm_filter='^(ApportionTest|CongestionManagerTest|CmAuditorTest|CmIntegrationTest|Seeds/CmApportionProperty|FaultMatrixTest\.SharedDestination|ZeroAllocTest|MetricsExportTest|JainIndexTest)'

# The sharded-determinism matrix: engine lockstep/ordering units, the
# city-scale scenario (shard counts 1/2/4/7, serial and threaded, inside
# the tests), membership churn edges, pool affinity, runner env overrides,
# and the timing-wheel property suite (the scheduler every shard now runs
# on — its fire order is what keeps the cross-shard digests bit-identical).
scale_filter='^(ShardedSimTest|CityScaleTest|GroupMembershipTest|MboneTraceTest|ObjectPoolTest|RunnerThreadsTest|TimerWheelPropertyTest)'

# The hostile-network scenario matrix: the survivable file transfer and its
# resume bookkeeping, the fault-plan precedence rows, the failure detectors
# (incl. the high-RTT false-trip regressions), and the profile runs.
scenarios_filter='^(FileSpecTest|FileImageTest|IqFtpTest|FtpResumeTest|ScenarioTest|RateScoreTest|FaultInjectorTest|FaultPlanTest|FailureTest)'

# The real-socket matrix: the epoll loop regression suite, the loopback
# integration tests, the two-process soak and the socket zero-alloc pin.
wire_filter='^(RealtimeLoopTest|UdpWireTest|WireSoakTest|WireAllocTest)'

run_suite() {
  local build_dir="$1"; shift
  cmake -B "$build_dir" -S . "$@"
  cmake --build "$build_dir" -j
  ctest --test-dir "$build_dir" --output-on-failure -j "$(nproc)"
}

chaos_suite() {
  local build_dir="$1"; shift
  cmake -B "$build_dir" -S . "$@"
  cmake --build "$build_dir" -j
  ctest --test-dir "$build_dir" --output-on-failure -j "$(nproc)" \
        -R "$chaos_filter"
}

perf_smoke() {
  local build_dir=build-perf
  cmake -B "$build_dir" -S . -DCMAKE_BUILD_TYPE=Release
  cmake --build "$build_dir" -j --target bench_perf
  local out_dir="${CI_ARTIFACTS_DIR:-$build_dir}"
  mkdir -p "$out_dir"
  "$build_dir/bench/bench_perf" "$out_dir/BENCH_PERF.json"
  echo "perf baseline archived at $out_dir/BENCH_PERF.json"
}

perf_compare() {
  local build_dir=build-perf
  cmake -B "$build_dir" -S . -DCMAKE_BUILD_TYPE=Release
  cmake --build "$build_dir" -j --target bench_perf
  local fresh="$build_dir/BENCH_PERF.fresh.json"
  "$build_dir/bench/bench_perf" "$fresh"
  python3 scripts/perf_compare.py BENCH_PERF.json "$fresh"
}

cm_suite() {
  local build_dir="$1"; shift
  cmake -B "$build_dir" -S . "$@"
  cmake --build "$build_dir" -j
  ctest --test-dir "$build_dir" --output-on-failure -j "$(nproc)" \
        -R "$cm_filter"
  # Same sweep with the invariant auditor armed: the CM's share-conservation
  # / anti-starvation / loss-dedup checks abort on violation. (The
  # zero-alloc pins skip themselves under IQ_AUDIT — recording allocates.)
  IQ_AUDIT=1 IQ_AUDIT_DUMP_DIR="${CI_ARTIFACTS_DIR:-$build_dir}" \
    ctest --test-dir "$build_dir" --output-on-failure -j "$(nproc)" \
          -R "$cm_filter"
}

scale_suite() {
  local build_dir="$1"; shift
  cmake -B "$build_dir" -S . "$@"
  cmake --build "$build_dir" -j
  ctest --test-dir "$build_dir" --output-on-failure -j "$(nproc)" \
        -R "$scale_filter"
  # Same matrix with the protocol auditor armed; the small ring keeps the
  # per-connection flight recorders affordable at city scale.
  IQ_AUDIT=1 IQ_AUDIT_RING=64 \
  IQ_AUDIT_DUMP_DIR="${CI_ARTIFACTS_DIR:-$build_dir}" \
    ctest --test-dir "$build_dir" --output-on-failure -j "$(nproc)" \
          -R "$scale_filter" -E 'ObjectPoolTest'
}

scale_bench() {
  local build_dir=build-perf
  cmake -B "$build_dir" -S . -DCMAKE_BUILD_TYPE=Release
  cmake --build "$build_dir" -j --target bench_cityscale
  local fresh="$build_dir/BENCH_SCALE.fresh.json"
  "$build_dir/bench/bench_cityscale" "$fresh"
  python3 scripts/perf_compare.py BENCH_SCALE.json "$fresh"
  # Audit-clean at full fan-out: 10240 subscriber flows with the invariant
  # auditor armed (short simulated run; any tripped invariant aborts).
  IQ_AUDIT=1 IQ_AUDIT_RING=64 IQ_SCALE_SIM_S=2 \
  IQ_AUDIT_DUMP_DIR="${CI_ARTIFACTS_DIR:-$build_dir}" \
    "$build_dir/bench/bench_cityscale" "$build_dir/BENCH_SCALE.audited.json"
}

scenarios_suite() {
  local build_dir="$1"; shift
  cmake -B "$build_dir" -S . "$@"
  cmake --build "$build_dir" -j
  ctest --test-dir "$build_dir" --output-on-failure -j "$(nproc)" \
        -R "$scenarios_filter"
  # Same sweep with the protocol invariant auditor armed (fatal on trip).
  IQ_AUDIT=1 IQ_AUDIT_DUMP_DIR="${CI_ARTIFACTS_DIR:-$build_dir}" \
    ctest --test-dir "$build_dir" --output-on-failure -j "$(nproc)" \
          -R "$scenarios_filter"
}

scenarios_bench() {
  local build_dir=build-perf
  cmake -B "$build_dir" -S . -DCMAKE_BUILD_TYPE=Release
  cmake --build "$build_dir" -j --target bench_scenarios
  local fresh="$build_dir/BENCH_SCENARIOS.fresh.json"
  "$build_dir/bench/bench_scenarios" "$fresh"
  python3 scripts/perf_compare.py BENCH_SCENARIOS.json "$fresh"
  # The matrix is deterministic and audit-clean: an armed run must produce
  # the identical JSON (any tripped invariant aborts the bench).
  IQ_AUDIT=1 IQ_AUDIT_DUMP_DIR="${CI_ARTIFACTS_DIR:-$build_dir}" \
    "$build_dir/bench/bench_scenarios" "$build_dir/BENCH_SCENARIOS.audited.json"
  cmp "$fresh" "$build_dir/BENCH_SCENARIOS.audited.json"
}

wire_suite() {
  local build_dir="$1"; shift
  cmake -B "$build_dir" -S . "$@"
  cmake --build "$build_dir" -j
  ctest --test-dir "$build_dir" --output-on-failure -j "$(nproc)" \
        -R "$wire_filter"
}

wire_bench() {
  local build_dir=build-perf
  cmake -B "$build_dir" -S . -DCMAKE_BUILD_TYPE=Release
  cmake --build "$build_dir" -j --target bench_wire
  local fresh="$build_dir/BENCH_WIRE.fresh.json"
  "$build_dir/bench/bench_wire" "$fresh"
  python3 scripts/perf_compare.py BENCH_WIRE.json "$fresh"
}

cm_ablation() {
  local build_dir=build-perf
  cmake -B "$build_dir" -S . -DCMAKE_BUILD_TYPE=Release
  cmake --build "$build_dir" -j --target bench_multiflow
  local fresh="$build_dir/BENCH_CM.fresh.json"
  "$build_dir/bench/bench_multiflow" "$fresh"
  python3 scripts/perf_compare.py BENCH_CM.json "$fresh"
}

mode="${1:-all}"
case "$mode" in
  all|--default-only|--sanitize-only|--perf-only|--perf-compare|--chaos|--audit|--cm|--scale|--scenarios|--wire|--full) ;;
  *) echo "usage: scripts/ci.sh [--default-only|--sanitize-only|--perf-only|--perf-compare|--chaos|--audit|--cm|--scale|--scenarios|--wire|--full]" >&2
     exit 2 ;;
esac

if [[ "$mode" == "--full" ]]; then
  # The umbrella: every gate in sequence, each in its own process so the
  # audit modes' exported env never leaks across.
  for sub in all --chaos --audit --cm --scale --scenarios --wire; do
    echo "==== CI full: $sub ===="
    "$0" "$sub"
  done
  echo "== CI: full matrix passed =="
  exit 0
fi

if [[ "$mode" == "--scenarios" ]]; then
  echo "== CI: scenario matrix suites, default build (plain + IQ_AUDIT=1) =="
  scenarios_suite build
  echo "== CI: scenario matrix suites, sanitized build (ASan+UBSan) =="
  scenarios_suite build-sanitize -DIQ_SANITIZE=ON
  echo "== CI: scenario bench vs committed BENCH_SCENARIOS.json =="
  scenarios_bench
  echo "== CI: scenario matrix passed =="
  exit 0
fi

if [[ "$mode" == "--wire" ]]; then
  echo "== CI: real-socket wire suites, default build =="
  wire_suite build
  echo "== CI: real-socket wire suites, sanitized build (ASan+UBSan) =="
  wire_suite build-sanitize -DIQ_SANITIZE=ON
  echo "== CI: wire bench vs committed BENCH_WIRE.json =="
  wire_bench
  echo "== CI: real-socket wire matrix passed =="
  exit 0
fi

if [[ "$mode" == "--perf-compare" ]]; then
  echo "== CI: perf compare vs committed BENCH_PERF.json =="
  perf_compare
  echo "== CI: perf compare passed =="
  exit 0
fi

if [[ "$mode" == "--scale" ]]; then
  echo "== CI: sharded determinism matrix, default build =="
  scale_suite build
  echo "== CI: sharded determinism matrix, TSan build (IQ_TSAN=ON) =="
  scale_suite build-tsan -DIQ_TSAN=ON
  echo "== CI: city-scale bench vs committed BENCH_SCALE.json =="
  scale_bench
  echo "== CI: sharded determinism matrix passed =="
  exit 0
fi

if [[ "$mode" == "--cm" ]]; then
  echo "== CI: congestion-manager suites, default build =="
  cm_suite build
  echo "== CI: congestion-manager suites, sanitized build (ASan+UBSan) =="
  cm_suite build-sanitize -DIQ_SANITIZE=ON
  echo "== CI: CM ablation vs committed BENCH_CM.json =="
  cm_ablation
  echo "== CI: congestion-manager suites passed =="
  exit 0
fi

if [[ "$mode" == "--chaos" ]]; then
  echo "== CI: chaos fault matrix, default build =="
  chaos_suite build
  echo "== CI: chaos fault matrix, sanitized build (ASan+UBSan) =="
  chaos_suite build-sanitize -DIQ_SANITIZE=ON
  echo "== CI: chaos fault matrix passed =="
  exit 0
fi

if [[ "$mode" == "--audit" ]]; then
  export IQ_AUDIT=1
  export IQ_AUDIT_DUMP_DIR="${CI_ARTIFACTS_DIR:-build}"
  echo "== CI: audited full suite, default build (IQ_AUDIT=1) =="
  run_suite build
  echo "== CI: audited chaos fault matrix, default build =="
  chaos_suite build
  echo "== CI: audited full suite, sanitized build (ASan+UBSan) =="
  run_suite build-sanitize -DIQ_SANITIZE=ON
  echo "== CI: audited chaos fault matrix, sanitized build =="
  chaos_suite build-sanitize -DIQ_SANITIZE=ON
  echo "== CI: audited suites passed =="
  exit 0
fi

if [[ "$mode" == "all" || "$mode" == "--default-only" ]]; then
  echo "== CI: orphan-header check =="
  python3 scripts/check_orphan_headers.py
  echo "== CI: default build =="
  run_suite build
fi

if [[ "$mode" == "all" || "$mode" == "--sanitize-only" ]]; then
  echo "== CI: sanitized build (ASan+UBSan) =="
  run_suite build-sanitize -DIQ_SANITIZE=ON
  # CRC dispatch tiers under sanitizers: force each kernel the dispatcher
  # can select and rerun the tier-identity and wire-freeze suites, so the
  # pclmul path's unaligned SIMD loads and the table kernels' indexing are
  # sanitizer-clean AND seal identical bytes. On CPUs without pclmul the
  # env override falls back (with a warning) and the forced-tier tests
  # skip that kernel internally — the loop stays green everywhere.
  for impl in pclmul slice8 bytewise; do
    echo "== CI: CRC tier $impl, sanitized build =="
    IQ_CRC_IMPL="$impl" ctest --test-dir build-sanitize --output-on-failure \
      -j "$(nproc)" -R '^(CrcDispatchTest|CodecGoldenTest)'
  done
fi

if [[ "$mode" == "all" || "$mode" == "--perf-only" ]]; then
  echo "== CI: perf smoke (Release bench_perf) =="
  perf_smoke
fi

echo "== CI: all suites passed =="
