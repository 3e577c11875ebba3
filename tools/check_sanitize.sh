#!/usr/bin/env bash
# Configure, build, and run the test suite under ASan, UBSan, and TSan.
#
#   $ tools/check_sanitize.sh             # all three sanitizers + scalar leg
#   $ tools/check_sanitize.sh address     # just one
#   $ tools/check_sanitize.sh thread      # just the data-race leg
#   $ tools/check_sanitize.sh scalar      # just the -DFASTFT_SIMD=OFF leg
#
# Each leg gets its own build tree (build-address / build-undefined /
# build-thread / build-scalar). Benchmarks and examples are skipped: the
# test suite exercises every library path and the sanitized benches would
# only add minutes.
#
# FASTFT_SIMD defaults ON, so the three sanitizer legs exercise the vector
# kernels (AVX2/NEON) where this host supports them. The extra `scalar`
# leg rebuilds with -DFASTFT_SIMD=OFF (no sanitizer) and re-runs the
# suite, proving the always-available scalar fallback passes the exact
# same bit-identity tests — the configuration a non-x86/non-ARM host or a
# FASTFT_SIMD=0 environment veto would run.
#
# The address leg additionally builds with -DFASTFT_WERROR=ON: Status and
# Result carry [[nodiscard]], so a dropped error return fails that leg at
# compile time instead of surfacing (maybe) as a leak at runtime.
#
# The thread leg runs the full suite — the parallel-evaluation tests
# (threadpool_test, parallel_determinism_test, and the evaluator/engine
# tests with num_threads > 1) are the ones that put real concurrency under
# TSan — and then re-runs estimation_path_test's EngineEstimation suite by
# name, whose multi-threaded engine runs keep estimation on the engine
# thread while downstream folds fan out over the shared pool. It finishes with
# tools/check_trace.sh against the sanitized CLI, so a full traced engine
# run (span rings + pool metrics) executes under the race detector,
# tools/check_crash.sh, so kill-and-resume checkpointing (atomic writes,
# restore paths, threaded resume) is exercised under TSan too, and
# tools/check_record.sh, so a recorded run (per-episode event buffering,
# stream flushes, fastft_inspect decode) sees the race detector as well.
# (Every leg's ctest pass already includes the `check_crash`,
# `check_record` and `check_trace` cases against that tree's sanitized CLI.)
#
# Every step of every leg runs even when an earlier one fails, so one known
# test failure cannot hide the race checks behind it. Failed steps are
# listed at the end and the script exits non-zero if there are any. A leg
# whose build fails skips its remaining steps, which are reported as
# failed.
set -uo pipefail
cd "$(dirname "$0")/.."

if [[ $# -gt 0 ]]; then SANITIZERS=("$@"); else SANITIZERS=(address undefined thread scalar); fi

JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"
FAILED=()

# step NAME COMMAND...: runs one step and records its failure.
step() {
  local name="$1"
  shift
  echo "=== ${name} ==="
  if "$@"; then return 0; fi
  echo "=== FAILED: ${name} ==="
  FAILED+=("${name}")
  return 1
}

# in_dir DIR COMMAND...: runs COMMAND from DIR.
in_dir() {
  local dir="$1"
  shift
  (cd "${dir}" && "$@")
}

# Static analysis first: the thread-safety annotation build + clang-tidy +
# the analyzer (error discipline, include-layer DAG, FP-determinism audit,
# project invariants) catch whole-program discipline violations the
# sanitizers can only hit dynamically (and only on exercised
# interleavings). Cheap, so it runs before every sanitizer run.
step "static checks (check_static.sh)" tools/check_static.sh

for SAN in "${SANITIZERS[@]}"; do
  BUILD_DIR="build-${SAN}"
  CONFIGURE=(cmake -B "${BUILD_DIR}" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo
             -DFASTFT_BUILD_BENCHMARKS=OFF -DFASTFT_BUILD_EXAMPLES=OFF)
  if [[ "${SAN}" == "scalar" ]]; then
    # Scalar-fallback leg: no sanitizer, vector kernels compiled out. The
    # suite's bit-identity tests must pass with the scalar reference alone.
    echo "=== scalar fallback: FASTFT_SIMD=OFF -> ${BUILD_DIR} ==="
    CONFIGURE+=(-DFASTFT_SIMD=OFF)
  elif [[ "${SAN}" == "address" ]]; then
    # The ASan leg doubles as the warnings-as-errors build: with
    # [[nodiscard]] on Status/Result and the factory entry points, a
    # silently dropped error fails this leg at compile time, before the
    # leak checker even runs.
    echo "=== sanitizer: ${SAN} (FASTFT_WERROR=ON) -> ${BUILD_DIR} ==="
    CONFIGURE+=(-DFASTFT_SANITIZE="${SAN}" -DFASTFT_WERROR=ON)
  else
    echo "=== sanitizer: ${SAN} -> ${BUILD_DIR} ==="
    CONFIGURE+=(-DFASTFT_SANITIZE="${SAN}")
  fi
  if ! step "${SAN}: configure" "${CONFIGURE[@]}" ||
     ! step "${SAN}: build" cmake --build "${BUILD_DIR}" -j "${JOBS}"; then
    FAILED+=("${SAN}: remaining steps (not run: no build)")
    continue
  fi
  step "${SAN}: ctest" in_dir "${BUILD_DIR}" \
       ctest --output-on-failure -j "${JOBS}"
  if [[ "${SAN}" == "thread" ]]; then
    step "thread: engine estimation tests" in_dir "${BUILD_DIR}" \
         ctest --output-on-failure -R 'EngineEstimation'
    step "thread: traced CLI run (check_trace.sh)" \
         tools/check_trace.sh "${BUILD_DIR}/tools/fastft"
    step "thread: kill-and-resume chaos harness (check_crash.sh)" \
         tools/check_crash.sh "${BUILD_DIR}/tools/fastft"
    step "thread: recorded CLI run (check_record.sh)" \
         tools/check_record.sh "${BUILD_DIR}/tools/fastft" \
                               "${BUILD_DIR}/tools/fastft_inspect"
  fi
done

if [[ ${#FAILED[@]} -gt 0 ]]; then
  echo "check_sanitize: ${#FAILED[@]} step(s) failed:"
  printf '  %s\n' "${FAILED[@]}"
  exit 1
fi
echo "all sanitizer runs passed"
