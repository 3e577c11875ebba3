#!/usr/bin/env bash
# Static-analysis gate: the compile-time complement to check_sanitize.sh.
#
# Three layers, strongest available toolchain wins:
#   1. FASTFT_THREAD_SAFETY build  — Clang -Wthread-safety -Werror over the
#      annotated Mutex/MutexLock sites, plus the negative-compile assertion
#      in tools/check_annotations.sh (both skip without a Clang toolchain)
#   2. clang-tidy                  — curated .clang-tidy profile over src/
#      via the exported compilation database (skips without clang-tidy)
#   3. tools/fastft_analyze.py     — tokenizer-backed passes: error
#      discipline over the Status/Result index, the include-layer DAG, the
#      FP-determinism audit and the project invariants (always runs)
#
#   $ tools/check_static.sh           # all layers
#   $ tools/check_static.sh analyze   # just the analyzer
#
# Layers that cannot run on this machine print SKIP and do not fail the
# gate; the Python layer (3) has no toolchain dependency and is never
# skipped; layers that run must pass.
set -uo pipefail
cd "$(dirname "$0")/.."

ONLY="${1:-all}"
JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"
FAIL=0

if [[ "${ONLY}" == "analyze" ]]; then
  echo "=== static layer 3: fastft_analyze.py ==="
  if python3 tools/fastft_analyze.py; then
    echo "fastft_analyze: clean"
    exit 0
  fi
  exit 1
fi

CLANGXX="${CLANGXX:-}"
if [[ -z "${CLANGXX}" ]]; then
  for candidate in clang++ clang++-19 clang++-18 clang++-17 clang++-16 \
                   clang++-15 clang++-14; do
    if command -v "${candidate}" > /dev/null 2>&1; then
      CLANGXX="${candidate}"
      break
    fi
  done
fi

echo "=== static layer 1: thread-safety annotations ==="
if [[ -n "${CLANGXX}" ]]; then
  BUILD_DIR="build-static"
  if cmake -B "${BUILD_DIR}" -S . \
           -DCMAKE_CXX_COMPILER="${CLANGXX}" \
           -DFASTFT_THREAD_SAFETY=ON \
           -DFASTFT_BUILD_BENCHMARKS=OFF \
           -DFASTFT_BUILD_EXAMPLES=OFF \
      && cmake --build "${BUILD_DIR}" -j "${JOBS}"; then
    echo "thread-safety build: clean"
  else
    echo "thread-safety build: FAIL"
    FAIL=1
  fi
else
  echo "thread-safety build: SKIP (no clang++; annotations compile away)"
fi
if ! tools/check_annotations.sh; then
  FAIL=1
fi

echo "=== static layer 2: clang-tidy ==="
CLANG_TIDY="${CLANG_TIDY:-}"
if [[ -z "${CLANG_TIDY}" ]]; then
  for candidate in clang-tidy clang-tidy-19 clang-tidy-18 clang-tidy-17 \
                   clang-tidy-16 clang-tidy-15 clang-tidy-14; do
    if command -v "${candidate}" > /dev/null 2>&1; then
      CLANG_TIDY="${candidate}"
      break
    fi
  done
fi
if [[ -n "${CLANG_TIDY}" ]]; then
  # Prefer the thread-safety build's database (clang flags), else the
  # default build tree's.
  TIDY_DB=""
  for dir in build-static build; do
    [[ -f "${dir}/compile_commands.json" ]] && TIDY_DB="${dir}" && break
  done
  if [[ -z "${TIDY_DB}" ]]; then
    cmake -B build -S . > /dev/null && TIDY_DB="build"
  fi
  mapfile -t TIDY_SOURCES < <(find src -name '*.cc' | sort)
  if "${CLANG_TIDY}" -p "${TIDY_DB}" --quiet "${TIDY_SOURCES[@]}"; then
    echo "clang-tidy: clean"
  else
    echo "clang-tidy: FAIL"
    FAIL=1
  fi
else
  echo "clang-tidy: SKIP (not installed)"
fi

echo "=== static layer 3: fastft_analyze.py ==="
if python3 tools/fastft_analyze.py; then
  echo "fastft_analyze: clean"
else
  FAIL=1
fi

if [[ "${FAIL}" == 0 ]]; then
  echo "all static checks passed (unavailable layers skipped)"
fi
exit "${FAIL}"
