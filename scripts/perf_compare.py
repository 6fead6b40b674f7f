#!/usr/bin/env python3
"""Compare a fresh bench run against its committed baseline JSON.

Works for BENCH_PERF.json (bench_perf), BENCH_CM.json (bench_multiflow's
congestion-manager ablation), BENCH_SCALE.json (bench_cityscale's sharded
10k-flow fan-out), BENCH_SCENARIOS.json (bench_scenarios' hostile-network
scenario matrix, docs/SCENARIOS.md) and BENCH_WIRE.json (bench_wire's
real-socket loopback throughput/latency, docs/WIRE.md). Three classes of
metric:
  - deterministic invariants (event counts, row-identity, allocation
    counts): identical inputs must produce identical values, so any drift
    fails the run; construction costs (scale_build_*) are deterministic
    for a given toolchain and fail only when they rise above the baseline;
  - simulated results (cm_* and behavioral scale_* keys): the testbed is
    deterministic, so these get a tight drift gate (fail beyond 5%) plus
    hard acceptance floors (CM-on 4-flow Jain >= 0.95; 2:1 priority ratio
    within 10%; sharded rows bit-identical; mailbox allocs zero);
  - throughput (events/s, MB/s, wall-clock): swings with the machine and
    its load, so drift beyond the threshold only warns.
"""
import json
import sys

THROUGHPUT_WARN_PCT = 30.0
CM_FAIL_PCT = 5.0

# Hard acceptance floors for the CM ablation (present only when comparing
# BENCH_CM.json): the shared manager must actually deliver fair shares and
# honor the priority split, not merely reproduce whatever it did last time.
CM_JAIN_FLOOR = 0.95
CM_PRIO_RANGE = (1.8, 2.2)

# The PCLMUL CRC kernel must actually pay for its dispatch machinery: when
# the fresh run selected it (crc_impl == "pclmul"), its measured throughput
# must beat slice-by-8 by at least this factor (measured ~14x on the CI
# container; 5x is the acceptance floor from the hot-path-v3 issue).
CRC_PCLMUL_SPEEDUP_FLOOR = 5.0

# The wheel must keep pace with the 4-ary heap on a same-instant burst
# (wheel_burst_vs_heap: wheel events/s / heap events/s, 4096 events due at
# one instant, each scheduling a zero-delay follow-up). A ratio of two rates
# from one run, so the floor holds on any machine. A wheel that rescans its
# current bucket on every pop read 0.01-0.04 here; the fire-heap wheel
# reads 0.75-1.1.
WHEEL_BURST_FLOOR = 0.5

# The wheel must also keep pace with the heap on a sparse churn
# (wheel_sparse_vs_heap: 16 standing events, each firing one follow-up
# 1 us-4 ms ahead, the Table-1 pattern). A ratio of two rates from one run,
# so the floor holds on any machine. A wheel that walks its position down
# one level per cascade until the next event lands read 0.50-0.60 here;
# one cascade per pop reads 0.80-1.05.
WHEEL_SPARSE_FLOOR = 0.75

# Construction cost of the 1-shard 10240-flow CityScale: operator-new calls
# and bytes requested while building it. Deterministic for a given
# toolchain, so a rise is a real regression; a fall is an improvement to
# commit.
BUILD_COST_KEYS = ("scale_build_allocs", "scale_build_bytes")

# Non-throughput scalars: excluded from the warn pass (each is either an
# invariant checked exactly below or a machine property).
EXACT_KEYS = {
    *BUILD_COST_KEYS,
    "table1_events",
    "runner_threads",
    "hardware_concurrency",
    "codec_steady_roundtrip_allocs",
    "wheel_churn_steady_allocs",
    "scale_mailbox_steady_allocs",
    "scale_sim_seconds",
    "wire_blast_count",
    "wire_blast_received",
    "wire_blast_delivered_ratio",
    "wire_blast_send_messages",
    "wire_ping_count",
    "wire_ping_replies",
    "wire_max_send_batch",
    "wire_max_recv_batch",
    "wire_steady_allocs",
    "wire_decode_failures",
    "wire_sends_dropped",
}

# Deterministic-count invariants: the scenario is seeded and simulated, so
# identical sources must produce identical integers. Any drift fails.
EXACT_MATCH_KEYS = {
    "table1_events",
    "wire_blast_count",
    "wire_ping_count",
    "wire_max_send_batch",
    "scale_flows",
    "scale_frames",
    "scale_events",
    "scale_parcels",
    "scale_epochs",
    "scale_joins",
    "scale_leaves",
}

# Throughput-class scale_* keys (wall-clock dependent): warn only.
SCALE_THROUGHPUT_KEYS = {
    "scale_events_per_s_1shard",
    "scale_events_per_s_2shard",
    "scale_events_per_s_4shard",
}

# Hostile-network scenario matrix (scn_* keys): survivability is gated on
# the FRESH run absolutely — these hold regardless of what the baseline
# says, so a bad baseline cannot grandfather a regression in.
#   - no scenario may wedge, in either coordination mode;
#   - every transfer ends complete and byte-identical with all critical
#     blocks delivered, and every connection audit-clean;
#   - coordinated blackout recovery reaches >= 80% of the pre-fault
#     delivered-byte rate (within the profile's recovery horizon);
#   - per-profile floors on the coordinated critical-block deadline-hit
#     ratio (the coordination claim), pinned below the measured values.
SCN_TRUE_SUFFIXES = ("_completed", "_crc_ok", "_critical_complete",
                     "_audits_clean")
SCN_RECOVERY_FLOOR = 0.8
SCN_CRITICAL_DEADLINE_FLOORS = {
    "satellite": 0.60,  # measured 0.6875: AIMD ramp at 500 ms RTT
    "cellular": 0.95,   # measured 1.0 across the tunnel + reconnect
    "incast": 0.95,     # measured 1.0 through the fan-in collapse
}

# Real-socket wire bench (wire_* keys, BENCH_WIRE.json): packets/second and
# RTT swing with the machine (both endpoints share one process and the
# host's cores) and only warn, but the fresh run is gated absolutely on the
# fast path's invariants — zero steady-state allocations, zero decode
# failures on loopback, a reply for every ping, batching actually engaged,
# and a sane delivered ratio under the blast.
WIRE_DELIVERED_FLOOR = 0.75

# UDP GSO in the wire bench's blast: every segment is the same size and
# the sender flushes in full batches of this width, so when the fresh run's
# sender had UDP_SEGMENT accepted (wire_gso) each batch must leave as one
# sendmmsg message: exactly wire_blast_count / 32 = 3125. A host whose
# kernel refused the option sends one message per datagram and is not
# gated, the way the pclmul floor applies only when pclmul was picked.
WIRE_BLAST_BATCH = 32


def main() -> int:
    if len(sys.argv) != 3:
        print(f"usage: {sys.argv[0]} baseline.json fresh.json", file=sys.stderr)
        return 2
    with open(sys.argv[1]) as f:
        base = json.load(f)
    with open(sys.argv[2]) as f:
        fresh = json.load(f)

    failures = []
    if "cm_on_jain4" in fresh and fresh["cm_on_jain4"] < CM_JAIN_FLOOR:
        failures.append(
            f"cm_on_jain4 = {fresh['cm_on_jain4']:.4f} below the"
            f" {CM_JAIN_FLOOR} acceptance floor: four equal-priority flows"
            " under the congestion manager are not sharing fairly"
        )
    if "cm_prio_ratio" in fresh and not (
        CM_PRIO_RANGE[0] <= fresh["cm_prio_ratio"] <= CM_PRIO_RANGE[1]
    ):
        failures.append(
            f"cm_prio_ratio = {fresh['cm_prio_ratio']:.3f} outside"
            f" {CM_PRIO_RANGE}: the 2:1 priority split drifted beyond 10%"
        )
    for key in sorted(EXACT_MATCH_KEYS):
        if key in base and base.get(key) != fresh.get(key):
            failures.append(
                f"{key} drifted: baseline {base.get(key)} vs fresh"
                f" {fresh.get(key)} (the scenario is deterministic; this is"
                " a behavior change, not noise)"
            )
    for key in ("runner_rows_identical", "scale_rows_identical"):
        if key in base and fresh.get(key) is not True:
            failures.append(
                f"{key} is not true: parallel/sharded output diverged from"
                " the serial reference"
            )
    for key in (
        "codec_steady_roundtrip_allocs",
        "scale_mailbox_steady_allocs",
        "wheel_churn_steady_allocs",
    ):
        if key in base and fresh.get(key) != 0:
            failures.append(
                f"{key} = {fresh.get(key)} (expected 0: this path must not"
                " allocate in steady state)"
            )

    for key in BUILD_COST_KEYS:
        if key in base and fresh.get(key, float("inf")) > base[key]:
            failures.append(
                f"{key} rose: baseline {base[key]} vs fresh {fresh.get(key)}"
                " (building the 1-shard CityScale is deterministic; it must"
                " not cost more than the committed value)"
            )

    # CRC dispatch: absolute gates on the fresh run. The pclmul kernel must
    # clear its speedup floor whenever the dispatcher picked it, and a tier
    # change between baseline and fresh (different machine, or IQ_CRC_IMPL
    # leaked into the bench environment) makes crc_mb_s incomparable.
    if fresh.get("crc_impl") == "pclmul":
        speedup = fresh.get("crc_pclmul_speedup", 0.0)
        if speedup < CRC_PCLMUL_SPEEDUP_FLOOR:
            failures.append(
                f"crc_pclmul_speedup = {speedup:.2f} below the"
                f" {CRC_PCLMUL_SPEEDUP_FLOOR}x floor over slice-by-8: the"
                " folding kernel is not earning its dispatch"
            )
    if "wheel_burst_vs_heap" in base or "wheel_burst_vs_heap" in fresh:
        ratio = fresh.get("wheel_burst_vs_heap", 0.0)
        if ratio < WHEEL_BURST_FLOOR:
            failures.append(
                f"wheel_burst_vs_heap = {ratio:.3f} below the"
                f" {WHEEL_BURST_FLOOR} floor: a same-instant burst runs at"
                " under half the heap's rate, so the wheel is rescanning"
                " its pileups"
            )
    if "wheel_sparse_vs_heap" in base or "wheel_sparse_vs_heap" in fresh:
        ratio = fresh.get("wheel_sparse_vs_heap", 0.0)
        if ratio < WHEEL_SPARSE_FLOOR:
            failures.append(
                f"wheel_sparse_vs_heap = {ratio:.3f} below the"
                f" {WHEEL_SPARSE_FLOOR} floor: a sparse churn runs at under"
                " three quarters of the heap's rate, so each pop is paying"
                " for more than one cascade"
            )
    if "crc_impl" in base and base["crc_impl"] != fresh.get("crc_impl"):
        print(
            f"warn: crc_impl changed ({base['crc_impl']} ->"
            f" {fresh.get('crc_impl')}); dispatch-tier throughput rows are"
            " not comparable across this pair"
        )

    # Scenario-matrix survivability: absolute gates on the fresh run.
    for key in sorted(fresh):
        if not key.startswith("scn_"):
            continue
        v = fresh[key]
        if key.endswith("_wedged") and v is not False:
            failures.append(
                f"{key} is true: the scenario stalled without finishing"
                " or shedding — the transfer wedged"
            )
        elif key.endswith(SCN_TRUE_SUFFIXES) and v is not True:
            failures.append(
                f"{key} is {v}: survivability floor violated (transfer must"
                " end complete, byte-identical, critical-complete and"
                " audit-clean)"
            )
    for profile, floor in sorted(SCN_CRITICAL_DEADLINE_FLOORS.items()):
        key = f"scn_{profile}_coord_recovery_ratio"
        if key in fresh and fresh[key] < SCN_RECOVERY_FLOOR:
            failures.append(
                f"{key} = {fresh[key]:.3f} below the {SCN_RECOVERY_FLOOR}"
                " floor: the coordinated run did not recover its pre-fault"
                " delivered-byte rate after the blackout"
            )
        key = f"scn_{profile}_coord_critical_deadline_hit"
        if key in fresh and fresh[key] < floor:
            failures.append(
                f"{key} = {fresh[key]:.3f} below the {floor} floor:"
                " coordinated critical blocks are missing their deadlines"
            )

    # Wire-bench fast-path invariants: absolute gates on the fresh run.
    for key in ("wire_steady_allocs", "wire_decode_failures"):
        if key in fresh and fresh[key] != 0:
            failures.append(
                f"{key} = {fresh[key]} (expected 0: the batched socket path"
                " must not allocate or mis-decode at steady state)"
            )
    if "wire_ping_replies" in fresh and fresh["wire_ping_replies"] != fresh.get(
        "wire_ping_count"
    ):
        failures.append(
            f"wire_ping_replies = {fresh['wire_ping_replies']} !="
            f" wire_ping_count = {fresh.get('wire_ping_count')}: the echo"
            " loop lost pings it was required to retransmit"
        )
    if "wire_max_recv_batch" in fresh and fresh["wire_max_recv_batch"] < 2:
        failures.append(
            f"wire_max_recv_batch = {fresh['wire_max_recv_batch']}: recvmmsg"
            " never drained more than one datagram per syscall — receive"
            " batching is not engaging"
        )
    if fresh.get("wire_gso") is True:
        expected = fresh.get("wire_blast_count", 0) // WIRE_BLAST_BATCH
        got = fresh.get("wire_blast_send_messages")
        if got != expected:
            failures.append(
                f"wire_blast_send_messages = {got}, expected {expected}:"
                " GSO was accepted but the blast's equal-size batches did"
                " not each leave as one sendmmsg message"
            )
    if (
        "wire_blast_delivered_ratio" in fresh
        and fresh["wire_blast_delivered_ratio"] < WIRE_DELIVERED_FLOOR
    ):
        failures.append(
            f"wire_blast_delivered_ratio ="
            f" {fresh['wire_blast_delivered_ratio']:.3f} below the"
            f" {WIRE_DELIVERED_FLOOR} floor: the loopback blast shed too"
            " much to be a meaningful throughput measurement"
        )

    for key in sorted(base):
        b = base[key]
        if not isinstance(b, (int, float)) or isinstance(b, bool):
            continue
        if key in EXACT_KEYS or key in EXACT_MATCH_KEYS:
            continue
        f_ = fresh.get(key)
        if f_ is None:
            print(f"warn: {key} missing from fresh run")
            continue
        if key.startswith("scn_") and isinstance(b, int):
            # Deterministic simulated counts (blocks, sheds, reconnects,
            # event totals): identical sources must match exactly.
            if f_ != b:
                failures.append(
                    f"{key} drifted: baseline {b} vs fresh {f_} (the"
                    " scenario matrix is deterministic; this is a behavior"
                    " change, not noise)"
                )
            continue
        if b == 0:
            continue
        delta = (f_ - b) / b * 100.0
        if key.startswith("scale_") and key not in SCALE_THROUGHPUT_KEYS:
            # Behavioral aggregate of the deterministic city-scale scenario.
            if abs(delta) > CM_FAIL_PCT:
                failures.append(
                    f"{key} drifted {delta:+.1f}% vs baseline"
                    f" ({b:.4g} -> {f_:.4g}); the city-scale scenario is"
                    " deterministic, so regenerate BENCH_SCALE.json only"
                    " for an intentional behavior change"
                )
        elif key.startswith("scn_"):
            # Deterministic simulated ratios (deadline hit, recovery score,
            # coordination delta): small drift is a behavior change.
            if abs(delta) > CM_FAIL_PCT:
                failures.append(
                    f"{key} drifted {delta:+.1f}% vs baseline"
                    f" ({b:.4g} -> {f_:.4g}); the scenario matrix is"
                    " deterministic, so regenerate BENCH_SCENARIOS.json only"
                    " for an intentional behavior change"
                )
        elif key.startswith("cm_"):
            # Simulated, deterministic testbed: anything beyond a small
            # drift is a behavior change in the CM or transport, not noise.
            if abs(delta) > CM_FAIL_PCT:
                failures.append(
                    f"{key} drifted {delta:+.1f}% vs baseline"
                    f" ({b:.4g} -> {f_:.4g}); the CM ablation is"
                    " deterministic, so regenerate BENCH_CM.json only for"
                    " an intentional behavior change"
                )
        elif abs(delta) > THROUGHPUT_WARN_PCT:
            print(f"warn: {key} {delta:+.1f}% vs baseline ({b:.4g} -> {f_:.4g})")

    for key in sorted(set(fresh) - set(base)):
        print(f"note: new metric {key} = {fresh[key]} (not in baseline)")

    if failures:
        for msg in failures:
            print(f"FAIL: {msg}", file=sys.stderr)
        return 1
    print("perf-compare: invariants hold (throughput deltas warn only)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
