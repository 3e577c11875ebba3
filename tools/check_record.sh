#!/usr/bin/env bash
# Smoke-check the flight-recorder pipeline end to end: run the CLI with
# --record-out on a small zoo dataset, decode the stream offline with
# fastft_inspect, and validate the diagnostics JSON. Then verify the two
# observability guarantees the recorder documents:
#
#   1. Recording never steers — the run report is identical (modulo
#      wall-clock fields) with recording on or off, and the record stream
#      is byte-identical at 1 and 4 worker threads.
#   2. Kill -> resume yields ONE coherent stream — a run killed mid-flight
#      and resumed from its checkpoint produces a record stream
#      byte-identical to an uninterrupted run's, every episode exactly once.
#
#   $ tools/check_record.sh                  # build/tools/{fastft,fastft_inspect}
#   $ tools/check_record.sh build-thread/tools/fastft build-thread/tools/fastft_inspect
#
# Registered as the `check_record` ctest case and wired into the TSan leg
# of tools/check_sanitize.sh so a recorded run executes under the race
# detector.
set -euo pipefail
cd "$(dirname "$0")/.."
ulimit -c 0 2>/dev/null || true

FASTFT_BIN="${1:-build/tools/fastft}"
INSPECT_BIN="${2:-build/tools/fastft_inspect}"
for bin in "${FASTFT_BIN}" "${INSPECT_BIN}"; do
  if [[ ! -x "${bin}" ]]; then
    echo "check_record: binary not found: ${bin} (build first)" >&2
    exit 2
  fi
done

WORK_DIR="$(mktemp -d)"
trap 'rm -rf "${WORK_DIR}"' EXIT

DATASET="Pima Indian"
EPISODES=6
STEPS=4
RUN_ARGS=(benchmark --dataset "${DATASET}" --episodes "${EPISODES}" \
          --steps "${STEPS}" --seed 11)

# Strips the fields that legitimately vary across processes (wall-clock
# buckets, metrics delta, cache counters); same normalization as
# check_crash.sh.
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

echo "=== check_record: recorded run at 4 threads (${FASTFT_BIN}) ==="
"${FASTFT_BIN}" "${RUN_ARGS[@]}" --threads 4 \
  --record-out "${WORK_DIR}/run.ffr" --trace-out "${WORK_DIR}/trace.json" \
  --report "${WORK_DIR}/report_on.json" > "${WORK_DIR}/run.log"
[[ -s "${WORK_DIR}/run.ffr" ]] || {
  echo "check_record: no record stream written" >&2; exit 1; }

echo "=== check_record: recording never steers (report on vs. off) ==="
"${FASTFT_BIN}" "${RUN_ARGS[@]}" --threads 4 \
  --report "${WORK_DIR}/report_off.json" > /dev/null
normalize "${WORK_DIR}/report_on.json" "${WORK_DIR}/report_on.norm.json"
normalize "${WORK_DIR}/report_off.json" "${WORK_DIR}/report_off.norm.json"
cmp -s "${WORK_DIR}/report_on.norm.json" "${WORK_DIR}/report_off.norm.json" || {
  echo "check_record: run report differs with recording on vs. off:" >&2
  diff "${WORK_DIR}/report_on.norm.json" "${WORK_DIR}/report_off.norm.json" >&2 || true
  exit 1
}

echo "=== check_record: stream is thread-count invariant (1 vs 4) ==="
"${FASTFT_BIN}" "${RUN_ARGS[@]}" --threads 1 \
  --record-out "${WORK_DIR}/run_t1.ffr" > /dev/null
cmp -s "${WORK_DIR}/run.ffr" "${WORK_DIR}/run_t1.ffr" || {
  echo "check_record: record stream differs between 1 and 4 threads" >&2
  exit 1
}

echo "=== check_record: offline inspection (${INSPECT_BIN}) ==="
"${INSPECT_BIN}" --record "${WORK_DIR}/run.ffr" \
  --trace "${WORK_DIR}/trace.json" --out "${WORK_DIR}/diag.json"
[[ -s "${WORK_DIR}/diag.json" ]] || {
  echo "check_record: inspector wrote no diagnostics" >&2; exit 1; }

python3 - "${WORK_DIR}/diag.json" "${EPISODES}" "${STEPS}" <<'PY'
import json
import sys

diag_path, episodes, steps = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
with open(diag_path) as f:
    diag = json.load(f)

stream = diag["stream"]
assert stream["version"] == 1, f"unexpected stream version {stream['version']}"
assert stream["blocks"] == episodes, (
    f"expected {episodes} episode blocks, got {stream['blocks']}")
assert stream["episode_marks"] == episodes, (
    f"expected {episodes} episode marks, got {stream['episode_marks']}")
assert stream["decisions"] == episodes * steps, (
    f"expected {episodes * steps} decisions, got {stream['decisions']}")
assert stream["total_dropped"] == 0, (
    f"the writer drops nothing, yet droppedEvents is {stream['droppedEvents']}")

eps = diag["episodes"]
assert len(eps) == episodes, f"expected {episodes} episodes, got {len(eps)}"
seen = [e["episode"] for e in eps]
assert seen == sorted(set(seen)), f"episodes duplicated or unordered: {seen}"
for e in eps:
    assert e["decisions"] == steps, (
        f"episode {e['episode']}: {e['decisions']} decisions, want {steps}")
    for agent in ("head", "op"):
        assert agent in e["agents"], f"episode {e['episode']} missing {agent}"
        assert e["agents"][agent]["distinct_actions"] >= 1
    # The annealed exploration rate must not increase within an episode.
    assert e["epsilon_last"] <= e["epsilon_first"] + 1e-12, (
        f"episode {e['episode']}: epsilon rose "
        f"{e['epsilon_first']} -> {e['epsilon_last']}")

priorities = diag["replay_priorities"]
assert priorities["added"]["count"] > 0, "no replay priorities recorded"
assert priorities["added"]["max"] >= priorities["added"]["min"]

# The per-phase join against the Chrome trace: engine/step must appear with
# a per-decision attribution once a trace is supplied.
phases = {p["phase"]: p for p in diag.get("phase_times", [])}
assert "engine/step" in phases, f"phase_times missing engine/step: {sorted(phases)}"
assert phases["engine/step"].get("ms_per_decision", 0) > 0, (
    "engine/step lacks ms_per_decision attribution")

print(f"check_record: OK — {stream['events']} events, "
      f"{stream['decisions']} decisions across {stream['blocks']} episodes, "
      f"0 dropped")
PY

echo "=== check_record: kill -> resume yields one coherent stream ==="
CK_DIR="${WORK_DIR}/chaos"
mkdir -p "${CK_DIR}"
set +e
"${FASTFT_BIN}" "${RUN_ARGS[@]}" --threads 1 \
  --checkpoint-dir "${CK_DIR}" --record-out "${CK_DIR}/rec.ffr" \
  --chaos-kill "checkpoint/after_write:1" > "${CK_DIR}/killed.log" 2>&1
code=$?
set -e
[[ "${code}" -eq 137 ]] || {
  echo "check_record: chaos run expected exit 137, got ${code}" >&2
  cat "${CK_DIR}/killed.log" >&2
  exit 1
}
[[ -s "${CK_DIR}/rec.ffr" ]] || {
  echo "check_record: killed run left no record stream" >&2; exit 1; }

"${FASTFT_BIN}" "${RUN_ARGS[@]}" --threads 1 \
  --checkpoint-dir "${CK_DIR}" --resume 1 --record-out "${CK_DIR}/rec.ffr" \
  > "${CK_DIR}/resumed.log"
grep -q "resumed from checkpoint" "${CK_DIR}/resumed.log" || {
  echo "check_record: resume did not restore the checkpoint" >&2
  cat "${CK_DIR}/resumed.log" >&2
  exit 1
}

# The resumed stream must be byte-identical to the uninterrupted serial
# run's: every episode exactly once, no duplicated or lost blocks.
cmp -s "${WORK_DIR}/run_t1.ffr" "${CK_DIR}/rec.ffr" || {
  echo "check_record: resumed stream differs from uninterrupted stream" >&2
  "${INSPECT_BIN}" --record "${CK_DIR}/rec.ffr" >&2 || true
  exit 1
}
"${INSPECT_BIN}" --record "${CK_DIR}/rec.ffr" --out "${CK_DIR}/diag.json"
python3 - "${CK_DIR}/diag.json" "${EPISODES}" <<'PY'
import json
import sys

with open(sys.argv[1]) as f:
    diag = json.load(f)
episodes = [e["episode"] for e in diag["episodes"]]
want = list(range(int(sys.argv[2])))
assert episodes == want, (
    f"resumed stream does not cover every episode exactly once: {episodes}")
print(f"check_record: OK — resumed stream covers episodes {episodes}")
PY

echo "check_record passed"
