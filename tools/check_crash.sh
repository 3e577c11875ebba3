#!/usr/bin/env bash
# Kill-and-resume chaos harness for the checkpoint subsystem.
#
# Establishes an uninterrupted baseline run report, then repeatedly runs the
# same configuration with --checkpoint-dir while arming --chaos-kill at
# checkpoint-adjacent fault sites (the process dies with exit 137 or SIGABRT
# at a deterministic hit of the site), resuming with --resume 1 after every
# death until the run completes. The final report must match the baseline on
# every deterministic field — only the runtime section (wall-clock times,
# pool counters, latency histograms), the process-local metrics delta, and
# prefix-cache hit rates are allowed to differ.
#
#   $ tools/check_crash.sh                        # uses build/tools/fastft
#   $ tools/check_crash.sh build-asan/tools/fastft
#
# Wired into tools/check_sanitize.sh and registered as the `check_crash`
# ctest case.
set -euo pipefail
cd "$(dirname "$0")/.."
# The SIGABRT scenario must not litter the tree with core dumps.
ulimit -c 0 2>/dev/null || true

FASTFT_BIN="${1:-build/tools/fastft}"
if [[ ! -x "${FASTFT_BIN}" ]]; then
  echo "check_crash: binary not found: ${FASTFT_BIN} (build first)" >&2
  exit 2
fi

WORK_DIR="$(mktemp -d)"
trap 'rm -rf "${WORK_DIR}"' EXIT

DATASET="Pima Indian"
RUN_ARGS=(benchmark --dataset "${DATASET}" --episodes 8 --steps 6 --seed 17)

# Strips the fields that legitimately vary across processes (wall-clock
# buckets, the per-process metrics delta, cache hit counters) and
# canonicalizes the rest for byte comparison.
normalize() {
  python3 - "$1" "$2" <<'PY'
import json
import sys

with open(sys.argv[1]) as f:
    report = json.load(f)
for volatile in ("runtime", "metrics", "estimation_cache"):
    report.pop(volatile, None)
with open(sys.argv[2], "w") as f:
    json.dump(report, f, indent=1, sort_keys=True)
PY
}

echo "=== check_crash: uninterrupted baseline (${FASTFT_BIN}) ==="
"${FASTFT_BIN}" "${RUN_ARGS[@]}" --report "${WORK_DIR}/baseline.json" \
  > "${WORK_DIR}/baseline.log"
normalize "${WORK_DIR}/baseline.json" "${WORK_DIR}/baseline.norm.json"

# One chaos scenario: run with the given kill spec, expect the process to
# die with the given code, then resume (no kill) to completion and compare.
run_scenario() {
  local name="$1" kill_spec="$2" expect_code="$3"
  local ckpt_dir="${WORK_DIR}/${name}"
  mkdir -p "${ckpt_dir}"
  echo "=== check_crash: scenario '${name}' (kill ${kill_spec}) ==="

  set +e
  "${FASTFT_BIN}" "${RUN_ARGS[@]}" \
    --checkpoint-dir "${ckpt_dir}" --chaos-kill "${kill_spec}" \
    > "${ckpt_dir}/killed.log" 2>&1
  local code=$?
  set -e
  if [[ "${code}" -ne "${expect_code}" ]]; then
    echo "check_crash: '${name}' expected exit ${expect_code}," \
         "got ${code}" >&2
    cat "${ckpt_dir}/killed.log" >&2
    exit 1
  fi
  if [[ ! -s "${ckpt_dir}/fastft.ckpt" ]]; then
    echo "check_crash: '${name}' left no checkpoint behind" >&2
    exit 1
  fi

  "${FASTFT_BIN}" "${RUN_ARGS[@]}" \
    --checkpoint-dir "${ckpt_dir}" --resume 1 \
    --report "${ckpt_dir}/final.json" > "${ckpt_dir}/resumed.log"
  grep -q "resumed from checkpoint" "${ckpt_dir}/resumed.log" || {
    echo "check_crash: '${name}' resume did not restore the checkpoint" >&2
    cat "${ckpt_dir}/resumed.log" >&2
    exit 1
  }

  normalize "${ckpt_dir}/final.json" "${ckpt_dir}/final.norm.json"
  if ! cmp -s "${WORK_DIR}/baseline.norm.json" "${ckpt_dir}/final.norm.json"
  then
    echo "check_crash: '${name}' final report diverges from baseline:" >&2
    diff "${WORK_DIR}/baseline.norm.json" "${ckpt_dir}/final.norm.json" >&2 \
      || true
    exit 1
  fi
  echo "check_crash: '${name}' OK (died with ${code}, resumed, identical)"
}

# Kill right after the very first checkpoint write (earliest resumable
# state), in the middle of the run, and right *before* a later write — the
# resume must then fall back to the previous episode's checkpoint and replay
# further. SIGABRT (134) covers the crash-not-exit path.
run_scenario "after-first-write"  "checkpoint/after_write:0"  137
run_scenario "mid-run"            "checkpoint/after_write:4"  137
run_scenario "before-late-write"  "checkpoint/before_write:6" 137
run_scenario "abort-mid-run"      "checkpoint/after_write:3:abort" 134

# Double-kill: die, resume, die again later, resume again. Exercises
# checkpoint-of-a-resumed-run.
DK_DIR="${WORK_DIR}/double-kill"
mkdir -p "${DK_DIR}"
echo "=== check_crash: scenario 'double-kill' ==="
set +e
"${FASTFT_BIN}" "${RUN_ARGS[@]}" --checkpoint-dir "${DK_DIR}" \
  --chaos-kill "checkpoint/after_write:1" > "${DK_DIR}/k1.log" 2>&1
code1=$?
"${FASTFT_BIN}" "${RUN_ARGS[@]}" --checkpoint-dir "${DK_DIR}" --resume 1 \
  --chaos-kill "checkpoint/after_write:3" > "${DK_DIR}/k2.log" 2>&1
code2=$?
set -e
if [[ "${code1}" -ne 137 || "${code2}" -ne 137 ]]; then
  echo "check_crash: double-kill expected 137/137, got ${code1}/${code2}" >&2
  exit 1
fi
"${FASTFT_BIN}" "${RUN_ARGS[@]}" --checkpoint-dir "${DK_DIR}" --resume 1 \
  --report "${DK_DIR}/final.json" > "${DK_DIR}/resumed.log"
normalize "${DK_DIR}/final.json" "${DK_DIR}/final.norm.json"
if ! cmp -s "${WORK_DIR}/baseline.norm.json" "${DK_DIR}/final.norm.json"; then
  echo "check_crash: double-kill final report diverges from baseline:" >&2
  diff "${WORK_DIR}/baseline.norm.json" "${DK_DIR}/final.norm.json" >&2 || true
  exit 1
fi
echo "check_crash: 'double-kill' OK"

# Threaded determinism: kill and resume at --threads 4; the final report
# must still match the *serial* baseline byte for byte.
TH_DIR="${WORK_DIR}/threads-4"
mkdir -p "${TH_DIR}"
echo "=== check_crash: scenario 'threads-4' ==="
set +e
"${FASTFT_BIN}" "${RUN_ARGS[@]}" --threads 4 --checkpoint-dir "${TH_DIR}" \
  --chaos-kill "checkpoint/after_write:2" > "${TH_DIR}/killed.log" 2>&1
code=$?
set -e
[[ "${code}" -eq 137 ]] || {
  echo "check_crash: threads-4 expected exit 137, got ${code}" >&2; exit 1; }
"${FASTFT_BIN}" "${RUN_ARGS[@]}" --threads 4 --checkpoint-dir "${TH_DIR}" \
  --resume 1 --report "${TH_DIR}/final.json" > "${TH_DIR}/resumed.log"
normalize "${TH_DIR}/final.json" "${TH_DIR}/final.norm.json"
if ! cmp -s "${WORK_DIR}/baseline.norm.json" "${TH_DIR}/final.norm.json"; then
  echo "check_crash: threads-4 final report diverges from serial baseline:" >&2
  diff "${WORK_DIR}/baseline.norm.json" "${TH_DIR}/final.norm.json" >&2 || true
  exit 1
fi
echo "check_crash: 'threads-4' OK"

# Corruption fallback: truncate the checkpoint; --resume 1 must warn and
# run fresh, still converging to the baseline report.
CR_DIR="${WORK_DIR}/corrupt"
mkdir -p "${CR_DIR}"
echo "=== check_crash: scenario 'corrupt-fallback' ==="
set +e
"${FASTFT_BIN}" "${RUN_ARGS[@]}" --checkpoint-dir "${CR_DIR}" \
  --chaos-kill "checkpoint/after_write:2" > "${CR_DIR}/killed.log" 2>&1
set -e
head -c 100 "${CR_DIR}/fastft.ckpt" > "${CR_DIR}/fastft.ckpt.tmp"
mv "${CR_DIR}/fastft.ckpt.tmp" "${CR_DIR}/fastft.ckpt"
"${FASTFT_BIN}" "${RUN_ARGS[@]}" --checkpoint-dir "${CR_DIR}" --resume 1 \
  --report "${CR_DIR}/final.json" > "${CR_DIR}/resumed.log" 2>&1
grep -q "starting fresh" "${CR_DIR}/resumed.log" || {
  echo "check_crash: corrupt checkpoint did not trigger fresh-run fallback" >&2
  cat "${CR_DIR}/resumed.log" >&2
  exit 1
}
normalize "${CR_DIR}/final.json" "${CR_DIR}/final.norm.json"
cmp -s "${WORK_DIR}/baseline.norm.json" "${CR_DIR}/final.norm.json" || {
  echo "check_crash: corrupt-fallback report diverges from baseline" >&2
  exit 1
}
echo "check_crash: 'corrupt-fallback' OK"

echo "check_crash passed"
