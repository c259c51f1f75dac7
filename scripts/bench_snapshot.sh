#!/usr/bin/env sh
# Snapshot the benchmark suites (K-BLAS, K-COMM, K-KERN, K-SOLVE) as JSON.
#
# Builds the bench targets if needed, runs bench_cpu_blas, bench_comm,
# bench_kernels and bench_solver, and leaves BENCH_{blas,comm,kernels,
# solver}.json in the chosen output directory. Use it to record
# before/after numbers for a perf PR:
#
#   scripts/bench_snapshot.sh              # -> ./BENCH_*.json
#   scripts/bench_snapshot.sh out/after    # -> out/after/BENCH_*.json
#   MIN_TIME=0.5 scripts/bench_snapshot.sh # longer, steadier runs
set -eu

repo=$(cd "$(dirname "$0")/.." && pwd)
build="${BUILD_DIR:-$repo/build}"
out="${1:-$repo}"
min_time="${MIN_TIME:-0.2}"

mkdir -p "$out"
out=$(cd "$out" && pwd)

cmake -B "$build" -S "$repo" >/dev/null
cmake --build "$build" --target bench_cpu_blas bench_comm bench_kernels \
  bench_solver -j >/dev/null

cd "$out"
"$build/bench/bench_cpu_blas" \
  --benchmark_min_time="$min_time" \
  --benchmark_out="$out/BENCH_blas.json" \
  --benchmark_out_format=json
"$build/bench/bench_comm" \
  --benchmark_min_time="$min_time" \
  --benchmark_out="$out/BENCH_comm.json" \
  --benchmark_out_format=json
"$build/bench/bench_kernels" \
  --benchmark_min_time="$min_time" \
  --benchmark_out="$out/BENCH_kernels.json" \
  --benchmark_out_format=json
"$build/bench/bench_solver" \
  --benchmark_filter='BM_Solver/' \
  --benchmark_min_time="$min_time" \
  --benchmark_out="$out/BENCH_solver.json" \
  --benchmark_out_format=json
"$build/bench/bench_solver" \
  --benchmark_filter='BM_SolverStreams/' \
  --benchmark_min_time="$min_time" \
  --benchmark_out="$out/BENCH_streams.json" \
  --benchmark_out_format=json
"$build/bench/bench_solver" \
  --benchmark_filter='BM_SolverMxp/' \
  --benchmark_min_time="$min_time" \
  --benchmark_out="$out/BENCH_mxp.json" \
  --benchmark_out_format=json
"$build/bench/bench_solver" \
  --benchmark_filter='BM_SolverVariants/' \
  --benchmark_min_time="$min_time" \
  --benchmark_out="$out/BENCH_variants.json" \
  --benchmark_out_format=json
"$build/bench/bench_solver" \
  --benchmark_filter='BM_SolverAlloc/' \
  --benchmark_min_time="$min_time" \
  --benchmark_out="$out/BENCH_alloc.json" \
  --benchmark_out_format=json
"$build/bench/bench_solver" \
  --benchmark_filter='BM_SolverCommcheck/' \
  --benchmark_min_time="$min_time" \
  --benchmark_out="$out/BENCH_commcheck.json" \
  --benchmark_out_format=json

echo "wrote $out/BENCH_{blas,comm,kernels,solver,streams,mxp,variants,alloc,commcheck}.json"
