#!/usr/bin/env bash
# Profile the simulator hot path.
#
#   scripts/profile.sh [perf.data-output-path]
#     With perf(1) available: build Release with IQ_PROFILE=ON (frame
#     pointers + DWARF symbols, see CMakeLists.txt) so stacks unwind
#     cleanly, `perf record -g` the deterministic Table-1 scenario sweep
#     (event loop, codec, RUDP state machines) and print the top of the
#     report. Without perf, run the gprof mode below on sim_table1.
#
#   scripts/profile.sh --gprof [workload]
#     Build the benchmark (perfbench/, see BENCHMARK.json) with -pg into
#     build-gprof/, its own build directory (perfbench/run.py keeps reusing
#     .bench_build/, which must stay an unprofiled build), run one workload
#     (default sim_city) for 20 s and print the top of gprof's flat profile.
#     No perf or root needed; the flat profile is what located the timer
#     wheel's same-instant rescans in the 10240-flow CityScale run
#     (docs/PERFORMANCE.md).
set -euo pipefail

cd "$(dirname "$0")/.."

gprof_workload() {
  local workload="$1"
  local build_dir=build-gprof
  cmake -S perfbench -B "$build_dir" -DCMAKE_BUILD_TYPE=Release \
        -DCMAKE_CXX_FLAGS=-pg -DCMAKE_EXE_LINKER_FLAGS=-pg
  cmake --build "$build_dir" -j "$(nproc)" --target perfbench
  # gmon.out lands in the working directory when the program exits.
  rm -f "$build_dir/gmon.out"
  (cd "$build_dir" && ./perfbench --workload "$workload" --seed 1 \
                                  --seconds 20 --trace 0 \
                                  > "$workload.json")
  local flat="$build_dir/$workload.flat.txt"
  gprof -b -p "$build_dir/perfbench" "$build_dir/gmon.out" > "$flat"
  head -n 30 "$flat"
  echo "full flat profile: $flat; call graph: gprof -b -q $build_dir/perfbench $build_dir/gmon.out"
}

if [[ "${1:-}" == "--gprof" ]]; then
  gprof_workload "${2:-sim_city}"
  exit 0
fi

if ! command -v perf >/dev/null 2>&1; then
  echo "perf(1) not found; taking a gprof flat profile of sim_table1" >&2
  gprof_workload sim_table1
  exit 0
fi

build_dir=build-profile
cmake -B "$build_dir" -S . -DCMAKE_BUILD_TYPE=Release -DIQ_PROFILE=ON
cmake --build "$build_dir" -j "$(nproc)" --target bench_table1_basic
out="${1:-$build_dir/perf.data}"
perf record -g --output "$out" -- "$build_dir/bench/bench_table1_basic"
perf report --stdio --input "$out" | head -n 40
echo "full profile: perf report --input $out"
