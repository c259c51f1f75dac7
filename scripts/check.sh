#!/usr/bin/env sh
# One-command tier-1 gate: configure + build + full ctest in the default
# build (warnings-as-errors for src/) and a check that no ctest name embeds
# a parameter struct's raw bytes, then rebuild the concurrency-heavy
# suites (ctest label "tsan": util/blas/comm/device + the allgatherv
# transport, solver integration and mixed-precision suites) under
# ThreadSanitizer, then the allocation-heavy suites (ctest label "asan":
# grid/rng/trace + the hazard-checker, allgatherv transport, solver
# integration, simulator, mixed-precision and core suites — the last holds
# the HPL.dat parser, which reads outside input) under
# AddressSanitizer+LeakSanitizer+UBSan. The mixed-precision suite also
# carries the "mxp" label, surfaced as its own tier-1 step so a red MxP
# gate is visible at a glance (ctest -L mxp re-runs only those tests); the
# solver-variant matrix (pfact variants × pivoting × nrhs × precision)
# likewise carries "variants" and gets its own step and both sanitizer
# legs, as does the unified-allocator suite ("alloc": size-class/stats
# unit tests plus the zero-steady-state-allocation solve gates) and the
# comm-verifier suite ("commcheck": adversarial injection tests for the
# collective-matching/deadlock/leak checker plus clean solver sweeps).
# The BLAS ISA gate follows: the x86-64-v4 copy of the BLAS-3 engine must
# export no symbol outside its own namespace (so no code built for AVX-512
# can be linked into the baseline path) and must run dgemm and sgemm at
# least 1.2x the baseline copy (bench/blas_isa_gate.cpp).
# The benchmark harness's own smoke tests (hplbench/test_hplbench.py: tiny
# solves of every workload, metric sets, trace output) and the A/B script's
# verdict tests (scripts/test_bench_compare.py) run next. A minimal
# configure follows: the libraries alone, in a scratch build-minimal/, with
# tests, benches and examples off and GTest and google-benchmark hidden,
# which is how hplbench builds them. A gcc -fanalyzer pass over the
# transport layer (scripts/analyze.sh, baseline-gated) closes out the
# default build's steps.
# This is what CI runs and what a perf PR must keep green.
#
#   scripts/check.sh             # build/ + build-tsan/ + build-asan/
#   SKIP_TSAN=1 scripts/check.sh # skip the TSan leg (e.g. no TSan runtime)
#   SKIP_ASAN=1 scripts/check.sh # skip the ASan leg
#   SKIP_ANALYZE=1 scripts/check.sh # skip the gcc -fanalyzer pass
#   JOBS=4 scripts/check.sh
set -eu

repo=$(cd "$(dirname "$0")/.." && pwd)
build="${BUILD_DIR:-$repo/build}"
build_tsan="${TSAN_BUILD_DIR:-$repo/build-tsan}"
build_asan="${ASAN_BUILD_DIR:-$repo/build-asan}"
jobs="${JOBS:-2}"

echo "== tier-1: build + ctest ($build)"
cmake -B "$build" -S "$repo" -DHPLX_WERROR=ON >/dev/null
cmake --build "$build" -j "$jobs"
ctest --test-dir "$build" --output-on-failure -j "$jobs"

echo "== stable test names: no parameter printed as raw struct bytes"
# gtest prints a parameter struct without a PrintTo as its raw bytes,
# padding included, so such a test's name changes from build to build.
dumped=$(ctest --test-dir "$build" -N | grep -E '[0-9][0-9]+-byte object <' || true)
if [ -n "$dumped" ]; then
  echo "tests named by a raw struct dump (give the struct a PrintTo):"
  echo "$dumped"
  exit 1
fi

echo "== mxp gate: ctest -L mxp ($build)"
ctest --test-dir "$build" --output-on-failure -j "$jobs" -L mxp

echo "== variants gate: ctest -L variants ($build)"
ctest --test-dir "$build" --output-on-failure -j "$jobs" -L variants

echo "== alloc gate: ctest -L alloc ($build)"
ctest --test-dir "$build" --output-on-failure -j "$jobs" -L alloc

echo "== commcheck gate: ctest -L commcheck ($build)"
ctest --test-dir "$build" --output-on-failure -j "$jobs" -L commcheck

echo "== isa gate: x86-64-v4 BLAS copy isolated and >= 1.2x baseline"
v4_obj=$(find "$build/src/blas" -path '*hplx_blas_x86_64_v4.dir/level3.cpp.o')
if [ -n "$v4_obj" ]; then
  strays=$(nm -C --defined-only --extern-only "$v4_obj" |
    grep -v -e ' hplx::blas::x86_64_v4::' -e ' DW\.ref\.' || true)
  if [ -n "$strays" ]; then
    echo "x86-64-v4 BLAS copy defines symbols outside its namespace:"
    echo "$strays"
    exit 1
  fi
fi
"$build/bench/blas_isa_gate"

echo "== benchmark harness: python3 hplbench/test_hplbench.py"
(cd "$repo" && python3 hplbench/test_hplbench.py)

echo "== A/B verdicts: python3 scripts/test_bench_compare.py"
python3 "$repo/scripts/test_bench_compare.py"

echo "== minimal configure: libraries without GTest or google-benchmark"
minimal="$repo/build-minimal"
rm -rf "$minimal"
cmake -B "$minimal" -S "$repo" -DHPLX_WERROR=ON -DHPLX_BUILD_TESTS=OFF \
  -DHPLX_BUILD_BENCH=OFF -DHPLX_BUILD_EXAMPLES=OFF \
  -DCMAKE_DISABLE_FIND_PACKAGE_GTest=ON \
  -DCMAKE_DISABLE_FIND_PACKAGE_benchmark=ON >/dev/null
cmake --build "$minimal" -j "$jobs"
rm -rf "$minimal"

if [ "${SKIP_ANALYZE:-0}" = "1" ]; then
  echo "== skipping static-analyzer pass (SKIP_ANALYZE=1)"
else
  echo "== static analysis: gcc -fanalyzer over the transport layer"
  "$repo/scripts/analyze.sh"
fi

if [ "${SKIP_TSAN:-0}" = "1" ]; then
  echo "== skipping TSan pass (SKIP_TSAN=1)"
else
  echo "== tsan: build + ctest -L tsan ($build_tsan)"
  cmake -B "$build_tsan" -S "$repo" -DHPLX_SANITIZE=thread \
    -DHPLX_WERROR=ON >/dev/null
  cmake --build "$build_tsan" -j "$jobs" \
    --target test_util test_blas test_blas_isa test_comm \
             test_comm_allgatherv test_device test_hpl test_alloc test_mxp \
             test_variants test_commcheck
  ctest --test-dir "$build_tsan" --output-on-failure -j "$jobs" -L tsan
fi

if [ "${SKIP_ASAN:-0}" = "1" ]; then
  echo "== skipping ASan pass (SKIP_ASAN=1)"
else
  echo "== asan: build + ctest -L asan ($build_asan)"
  cmake -B "$build_asan" -S "$repo" -DHPLX_SANITIZE=address,undefined \
    -DHPLX_WERROR=ON >/dev/null
  cmake --build "$build_asan" -j "$jobs" \
    --target test_grid test_rng test_trace test_hazard test_comm_allgatherv \
             test_hpl test_sim test_alloc test_mxp test_variants \
             test_commcheck test_core test_blas_isa
  # LSan rides along with ASan by default on Linux; halt_on_error keeps UB
  # findings fatal so the leg cannot silently pass over them.
  UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1:print_stacktrace=1}" \
    ctest --test-dir "$build_asan" --output-on-failure -j "$jobs" -L asan
fi

echo "== check.sh: all green"
