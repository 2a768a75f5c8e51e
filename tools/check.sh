#!/usr/bin/env bash
#===- tools/check.sh - build + test driver --------------------------------===#
#
# The repo's CI-style check flow.
#
#   tools/check.sh                 # tier-1: configure, build, ctest -L tier1
#   tools/check.sh --stress        # ... then also run ctest -L stress
#   tools/check.sh --tsan          # ... then a -DREN_SANITIZE=thread build
#                                  #     and the runtime, fork/join, actor,
#                                  #     netsim and stress tests under it
#   tools/check.sh --asan          # ... a -DREN_SANITIZE=address build and
#                                  #     the allocation-substrate tests
#                                  #     under it (ctest -L alloc:
#                                  #     test_runtime incl. HeapTest, and
#                                  #     the stress_alloc races)
#   tools/check.sh --trace         # ... the ren::trace tier: ctest -L trace
#                                  #     in the tier-1 build, then the same
#                                  #     label (incl. stress_trace) under TSan
#   tools/check.sh --stress --tsan # everything
#   tools/check.sh --bench-smoke   # Release build, run the substrate
#                                  #     benchmarks briefly, and merge each
#                                  #     family into BENCH_<name>.json with
#                                  #     tools/bench_merge.py, which gates
#                                  #     it against bench/BASELINE_<name>.json
#                                  #     (per-file cells and gates: the
#                                  #     TABLE in that script)
#
# Options:
#   --build-dir DIR   tier-1 build tree            (default: build)
#   --tsan-dir DIR    TSan build tree              (default: build-tsan)
#   --asan-dir DIR    ASan build tree              (default: build-asan)
#   --bench-dir DIR   Release bench build tree     (default: build-bench)
#   --jobs N          parallel build/test jobs     (default: nproc)
#
#===------------------------------------------------------------------------===#

set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR=build
TSAN_DIR=build-tsan
ASAN_DIR=build-asan
BENCH_DIR=build-bench
JOBS="$(nproc 2>/dev/null || echo 4)"
RUN_STRESS=0
RUN_TSAN=0
RUN_ASAN=0
RUN_TRACE=0
RUN_BENCH=0

while [[ $# -gt 0 ]]; do
  case "$1" in
    --stress) RUN_STRESS=1 ;;
    --tsan) RUN_TSAN=1 ;;
    --asan) RUN_ASAN=1 ;;
    --trace) RUN_TRACE=1 ;;
    --bench-smoke) RUN_BENCH=1 ;;
    --build-dir|--tsan-dir|--asan-dir|--bench-dir|--jobs)
      if [[ $# -lt 2 ]]; then
        echo "missing value for $1 (try --help)" >&2
        exit 2
      fi
      case "$1" in
        --build-dir) BUILD_DIR="$2" ;;
        --tsan-dir) TSAN_DIR="$2" ;;
        --asan-dir) ASAN_DIR="$2" ;;
        --bench-dir) BENCH_DIR="$2" ;;
        --jobs) JOBS="$2" ;;
      esac
      shift
      ;;
    -h|--help)
      sed -n '2,/^#===/p' "$0" | sed '$d; s/^#//'
      exit 0
      ;;
    *)
      echo "unknown option: $1 (try --help)" >&2
      exit 2
      ;;
  esac
  shift
done

step() { echo; echo "=== $* ==="; }

step "tier-1: configure ($BUILD_DIR)"
cmake -B "$BUILD_DIR" -S .

step "tier-1: build"
cmake --build "$BUILD_DIR" -j "$JOBS"

step "tier-1: ctest -L tier1"
ctest --test-dir "$BUILD_DIR" -L tier1 --output-on-failure -j "$JOBS"

if [[ "$RUN_STRESS" == 1 ]]; then
  step "stress: ctest -L stress"
  ctest --test-dir "$BUILD_DIR" -L stress --output-on-failure -j "$JOBS"
fi

if [[ "$RUN_TRACE" == 1 ]]; then
  step "trace: ctest -L trace"
  ctest --test-dir "$BUILD_DIR" -L trace --output-on-failure -j "$JOBS"

  step "trace: configure ($TSAN_DIR, -DREN_SANITIZE=thread)"
  cmake -B "$TSAN_DIR" -S . -DREN_SANITIZE=thread

  step "trace: build"
  cmake --build "$TSAN_DIR" -j "$JOBS"

  step "trace: ctest -L trace under TSan (incl. stress_trace)"
  ctest --test-dir "$TSAN_DIR" -L trace --output-on-failure -j "$JOBS"
fi

if [[ "$RUN_TSAN" == 1 ]]; then
  step "tsan: configure ($TSAN_DIR, -DREN_SANITIZE=thread)"
  cmake -B "$TSAN_DIR" -S . -DREN_SANITIZE=thread

  step "tsan: build"
  cmake --build "$TSAN_DIR" -j "$JOBS"

  step "tsan: runtime, fork/join, actor and netsim tests under TSan"
  ctest --test-dir "$TSAN_DIR" -R '^test_(runtime|forkjoin|actors|netsim)$' \
    --output-on-failure

  step "tsan: stress label under TSan"
  ctest --test-dir "$TSAN_DIR" -L stress --output-on-failure -j "$JOBS"
fi

if [[ "$RUN_ASAN" == 1 ]]; then
  step "asan: configure ($ASAN_DIR, -DREN_SANITIZE=address)"
  cmake -B "$ASAN_DIR" -S . -DREN_SANITIZE=address

  step "asan: build test_runtime + stress_alloc"
  cmake --build "$ASAN_DIR" -j "$JOBS" \
    --target test_runtime --target stress_alloc

  step "asan: allocation-substrate tests under ASan (ctest -L alloc)"
  ctest --test-dir "$ASAN_DIR" -L alloc -E bench_alloc_smoke \
    --output-on-failure -j "$JOBS"
fi

if [[ "$RUN_BENCH" == 1 ]]; then
  step "bench-smoke: configure ($BENCH_DIR, Release)"
  cmake -B "$BENCH_DIR" -S . -DCMAKE_BUILD_TYPE=Release

  step "bench-smoke: build bench_micro_substrates + bench_scaling_matrix + bench_netsim + bench_alloc + bench_jit_tiered"
  cmake --build "$BENCH_DIR" -j "$JOBS" \
    --target bench_micro_substrates --target bench_scaling_matrix \
    --target bench_netsim --target bench_alloc --target bench_jit_tiered

  step "bench-smoke: fork/join microbenchmarks"
  RAW_JSON="$BENCH_DIR/bench_forkjoin_raw.json"
  # ~2s cap per case: min_time 0.3s x 3 repetition-free cases plus
  # warmup stays well under it; the outer timeout is the hard stop.
  # (This Google Benchmark build wants min_time as a plain double.)
  timeout 120 "$BENCH_DIR/bench/bench_micro_substrates" \
    --benchmark_filter='BM_ForkJoin(Ping|ParallelFor|StealHeavyFib)' \
    --benchmark_min_time=0.3 \
    --benchmark_out="$RAW_JSON" --benchmark_out_format=json

  step "bench-smoke: write BENCH_forkjoin.json"
  python3 tools/bench_merge.py forkjoin "$RAW_JSON"

  step "bench-smoke: monitor microbenchmarks"
  RAW_MON="$BENCH_DIR/bench_monitor_raw.json"
  timeout 120 "$BENCH_DIR/bench/bench_micro_substrates" \
    --benchmark_filter='BM_MonitorUncontended$|BM_MonitorContendedEnterExit|BM_MonitorWaitNotifyPing' \
    --benchmark_min_time=0.3 \
    --benchmark_out="$RAW_MON" --benchmark_out_format=json

  step "bench-smoke: write BENCH_monitor.json"
  python3 tools/bench_merge.py monitor "$RAW_MON"

  step "bench-smoke: streams/dispatch microbenchmarks"
  RAW_STREAMS="$BENCH_DIR/bench_streams_raw.json"
  timeout 120 "$BENCH_DIR/bench/bench_micro_substrates" \
    --benchmark_filter='BM_MethodHandleInvoke|BM_StreamSerialPipeline|BM_StreamParallelScrabble' \
    --benchmark_min_time=0.3 \
    --benchmark_out="$RAW_STREAMS" --benchmark_out_format=json

  step "bench-smoke: stream scaling matrix"
  RAW_MATRIX="$BENCH_DIR/bench_matrix_raw.json"
  timeout 300 "$BENCH_DIR/bench/bench_scaling_matrix" \
    --min-time=0.2 --out="$RAW_MATRIX"

  step "bench-smoke: write BENCH_streams.json (micro + matrix, gated)"
  python3 tools/bench_merge.py streams "$RAW_STREAMS" "$RAW_MATRIX"

  step "bench-smoke: netsim reactor connection-scaling matrix"
  RAW_NETSIM="$BENCH_DIR/bench_netsim_raw.json"
  timeout 300 "$BENCH_DIR/bench/bench_netsim" \
    --min-time=0.2 --out="$RAW_NETSIM"

  step "bench-smoke: write BENCH_netsim.json (gated)"
  python3 tools/bench_merge.py netsim "$RAW_NETSIM"

  step "bench-smoke: managed-heap substrate cells (substrate vs malloc twins)"
  RAW_ALLOC="$BENCH_DIR/bench_alloc_raw.json"
  timeout 300 "$BENCH_DIR/bench/bench_alloc" \
    --benchmark_min_time=0.3 \
    --benchmark_out="$RAW_ALLOC" --benchmark_out_format=json

  step "bench-smoke: write BENCH_alloc.json (gated)"
  python3 tools/bench_merge.py alloc "$RAW_ALLOC"

  step "bench-smoke: tiered-execution cells (warmup / steady / PIC / deopt)"
  RAW_JIT="$BENCH_DIR/bench_jit_raw.json"
  # Full mode, not --quick: the committed baseline is pinned from the full
  # schedules. The binary self-asserts the tier-up invariants and exits
  # non-zero on any gate failure before we even reach the merge.
  timeout 120 "$BENCH_DIR/bench/bench_jit_tiered" --out="$RAW_JIT"

  step "bench-smoke: write BENCH_jit.json (gated)"
  python3 tools/bench_merge.py jit "$RAW_JIT"
fi

step "all requested checks passed"
