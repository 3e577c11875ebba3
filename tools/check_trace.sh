#!/usr/bin/env bash
# Smoke-check the observability pipeline end to end: run the CLI with
# --trace-out and --metrics-out on a small zoo dataset, then validate that
# the exported Chrome-trace JSON parses, has the required trace-event
# fields, contains spans from every core subsystem, and that the pool/task
# spans agree with the pool.task_run_us histogram.
#
#   $ tools/check_trace.sh                        # uses build/tools/fastft
#   $ tools/check_trace.sh build-thread/tools/fastft
#
# Registered as the `check_trace` ctest case, and re-run by the TSan leg of
# tools/check_sanitize.sh so a traced run is also exercised under the race
# detector.
set -euo pipefail
cd "$(dirname "$0")/.."

FASTFT_BIN="${1:-build/tools/fastft}"
if [[ ! -x "${FASTFT_BIN}" ]]; then
  echo "check_trace: binary not found: ${FASTFT_BIN} (build first)" >&2
  exit 2
fi

WORK_DIR="$(mktemp -d)"
trap 'rm -rf "${WORK_DIR}"' EXIT
TRACE_JSON="${WORK_DIR}/trace.json"
METRICS_JSON="${WORK_DIR}/metrics.json"

echo "=== check_trace: traced benchmark run (${FASTFT_BIN}) ==="
"${FASTFT_BIN}" benchmark --dataset "Pima Indian" \
  --episodes 4 --steps 4 --seed 11 --threads 4 \
  --trace-out "${TRACE_JSON}" --metrics-out "${METRICS_JSON}"

[[ -s "${TRACE_JSON}" ]] || { echo "check_trace: no trace written" >&2; exit 1; }
[[ -s "${METRICS_JSON}" ]] || { echo "check_trace: no metrics written" >&2; exit 1; }

python3 - "${TRACE_JSON}" "${METRICS_JSON}" <<'PY'
import json
import sys

trace_path, metrics_path = sys.argv[1], sys.argv[2]
with open(trace_path) as f:
    trace = json.load(f)

events = trace.get("traceEvents")
assert isinstance(events, list) and events, "traceEvents missing or empty"

spans = [e for e in events if e.get("ph") == "X"]
assert spans, "no complete ('ph': 'X') span events"
for event in spans:
    for field in ("name", "ph", "ts", "dur", "pid", "tid"):
        assert field in event, f"span event missing '{field}': {event}"

metadata = [e for e in events if e.get("ph") == "M"]
names = {e.get("name") for e in metadata}
assert "thread_name" in names, "no thread_name metadata"
assert "process_name" in names, "no process_name metadata"

# Spans from every core subsystem a default engine run must touch. The
# thread pool is checked separately: a single-core host runs the shared
# pool with zero workers, so pool/task spans legitimately vanish there.
prefixes = {e["name"].split("/")[0] for e in spans}
required = {"engine", "evaluator", "replay", "predictor", "novelty",
            "encode_cache"}
missing = required - prefixes
assert not missing, f"trace missing subsystem spans: {sorted(missing)}"
if "pool" not in prefixes:
    print("check_trace: note: no pool/task spans (single-core host?)")

# Worker attribution: every tid that recorded spans must carry a
# thread_name metadata entry, and pool spans must sit on pool workers.
tid_names = {e["tid"]: e["args"]["name"] for e in metadata
             if e.get("name") == "thread_name"}
for event in spans:
    assert event["tid"] in tid_names, f"span on unnamed tid {event['tid']}"
    if event["name"] == "pool/task":
        assert tid_names[event["tid"]].startswith("pool-worker-"), (
            f"pool/task span attributed to '{tid_names[event['tid']]}'")

assert "spanSummary" in trace, "spanSummary section missing"
assert "droppedSpans" in trace, "droppedSpans section missing"

with open(metrics_path) as f:
    metrics = json.load(f)
counters = metrics.get("counters", {})
assert counters.get("evaluator.evaluations", 0) > 0, \
    "evaluator.evaluations counter missing"
assert counters.get("evaluator.folds", 0) > 0, "evaluator.folds counter missing"

# One start/end pair per pool task feeds both its pool/task span and the
# pool.task_run_us histogram: the counts match, and so do the sums within
# the two files' print precision (%.3f us per span, %.6g for the sum).
pool_spans = [e for e in spans if e["name"] == "pool/task"]
if pool_spans:
    run_us = metrics["histograms"]["pool.task_run_us"]
    span_count = {s["name"]: s["count"]
                  for s in trace["spanSummary"]}["pool/task"]
    assert span_count == run_us["count"], (
        f"{span_count} pool/task spans vs {run_us['count']} "
        "pool.task_run_us observations")
    span_sum = sum(e["dur"] for e in pool_spans)
    tolerance = 0.0005 * len(pool_spans) + 5e-6 * abs(run_us["sum"])
    assert abs(span_sum - run_us["sum"]) <= tolerance, (
        f"pool/task spans sum to {span_sum:.3f} us, pool.task_run_us to "
        f"{run_us['sum']} us")

print(f"check_trace: OK — {len(spans)} spans across "
      f"{len({e['tid'] for e in spans})} thread(s), "
      f"{len(prefixes)} subsystems: {sorted(prefixes)}")
PY

echo "check_trace passed"
