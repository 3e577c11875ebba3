#!/usr/bin/env python3
"""ctest driver for tools/fastft_analyze.py.

Builds a scratch tree from tests/analyze_fixtures/ (each fixture names its
destination path in a `// fixture-dest:` header — `# fixture-dest:` for the
CMake fixture; rules are path- and layer-scoped), runs the analyzer over
it, and asserts:

  * every trigger_* fixture fires its expected rule (and only that rule),
  * the clean fixtures and the suppression fixtures fire nothing,
  * an explicitly named clean file exits 0,
  * the real repository tree analyzes clean (exit 0),
  * the include cycle is reported exactly once (on its first member),
  * --list-rules names every rule and --dump-graph/--dump-index emit JSON.

Run directly or via `ctest -R fastft_analyze`.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ANALYZE = os.path.join(REPO_ROOT, "tools", "fastft_analyze.py")
FIXTURES = os.path.join(REPO_ROOT, "tests", "analyze_fixtures")

DEST_RE = re.compile(r"(?://|#)\s*fixture-dest:\s*(\S+)")
FINDING_RE = re.compile(r"^(?P<path>[^:]+):(?P<line>\d+): \[(?P<rule>[a-z-]+)\]")

# fixture file -> expected rule (None = must fire nothing)
EXPECTATIONS = {
    "trigger_discarded_status.cc": "discarded-status",
    "trigger_unchecked_value.cc": "unchecked-value",
    "trigger_layer_violation.cc": "layer-violation",
    "trigger_cycle_a.h": "include-cycle",
    "trigger_cycle_b.h": None,
    "trigger_fp_reduction.cc": "fp-reduction",
    "trigger_reasonless_allow.cc": "fp-reduction",
    "trigger_fp_unordered.cc": "fp-unordered-accumulate",
    "trigger_fp_flag_drift.cmake": "fp-flag-drift",
    "trigger_nondeterminism.cc": "nondeterminism",
    "trigger_unordered_iteration.cc": "unordered-iteration",
    "trigger_unordered_multiline_for.cc": "unordered-iteration",
    "trigger_raw_mutex.cc": "raw-mutex",
    "trigger_pool_fanout.cc": "pool-fanout",
    "trigger_raw_intrinsics.cc": "raw-intrinsics",
    "trigger_check_user_input.cc": "check-user-input",
    "trigger_pragma_once.h": "pragma-once",
    "stub_core_header.h": None,
    "clean.cc": None,
    "clean_block_comment.cc": None,
    "clean_raw_string.cc": None,
    "suppressed.cc": None,
    "suppressed_common.cc": None,
}

ALL_RULES = (
    "discarded-status", "unchecked-value", "layer-violation",
    "include-cycle", "fp-reduction", "unordered-iteration",
    "fp-unordered-accumulate", "fp-flag-drift", "nondeterminism",
    "raw-mutex", "pool-fanout", "raw-intrinsics", "check-user-input",
    "pragma-once",
)

failures = []


def check(condition, message):
    if not condition:
        failures.append(message)
        print(f"FAIL: {message}")
    else:
        print(f"ok:   {message}")


def run_analyze(*args):
    return subprocess.run(
        [sys.executable, ANALYZE, *args], capture_output=True, text=True)


def main():
    # --- scratch tree from the fixtures -------------------------------
    with tempfile.TemporaryDirectory(prefix="fastft_analyze_test") as scratch:
        dest_of = {}
        for name in sorted(EXPECTATIONS):
            src = os.path.join(FIXTURES, name)
            with open(src, encoding="utf-8") as f:
                header = f.readline()
            match = DEST_RE.search(header)
            check(match is not None, f"{name} declares a fixture-dest header")
            if not match:
                continue
            dest = match.group(1)
            dest_of[name] = dest
            target = os.path.join(scratch, dest)
            os.makedirs(os.path.dirname(target) or scratch, exist_ok=True)
            shutil.copyfile(src, target)

        proc = run_analyze("--root", scratch)
        check(proc.returncode == 1,
              f"scratch tree exits 1 (findings), got {proc.returncode}")

        fired = {}  # dest path -> set of rules
        for line in proc.stdout.splitlines():
            match = FINDING_RE.match(line)
            if match:
                fired.setdefault(match.group("path"), set()).add(
                    match.group("rule"))

        for name, rule in sorted(EXPECTATIONS.items()):
            dest = dest_of.get(name)
            if dest is None:
                continue
            rules = fired.get(dest, set())
            if rule is None:
                check(not rules,
                      f"{name}: no findings expected, got {sorted(rules)}")
            else:
                check(rule in rules, f"{name}: triggers [{rule}]")
                check(rules == {rule},
                      f"{name}: triggers only [{rule}], got {sorted(rules)}")

        cycle_count = proc.stdout.count("[include-cycle]")
        check(cycle_count == 1,
              f"the include cycle is reported exactly once, got {cycle_count}")

    # --- per-file invocation: clean file exits 0 ----------------------
    proc = run_analyze("--root", FIXTURES, os.path.join(FIXTURES, "clean.cc"))
    check(proc.returncode == 0,
          f"explicit clean file exits 0, got {proc.returncode}:\n{proc.stdout}")

    # --- the real tree must be clean ----------------------------------
    proc = run_analyze("--root", REPO_ROOT)
    check(proc.returncode == 0,
          "repository tree analyzes clean "
          f"(exit {proc.returncode}):\n{proc.stdout}")

    # --- --list-rules names every rule --------------------------------
    proc = run_analyze("--list-rules")
    for rule in ALL_RULES:
        check(rule in proc.stdout, f"--list-rules mentions {rule}")

    # --- machine-readable dumps parse as JSON -------------------------
    proc = run_analyze("--root", REPO_ROOT, "--dump-graph")
    try:
        graph = json.loads(proc.stdout)
        check(any(info["layer"] == "core" for info in graph.values()),
              "--dump-graph labels core-layer files")
    except json.JSONDecodeError:
        check(False, "--dump-graph emits valid JSON")

    proc = run_analyze("--root", REPO_ROOT, "--dump-index")
    try:
        index = json.loads(proc.stdout)
        check("AtomicWriteFile" in index["status"],
              "--dump-index indexes AtomicWriteFile as Status-returning")
        check(any("Run" == k or k.startswith("Read")
                  for k in index["result"]),
              "--dump-index indexes Result-returning entry points")
    except json.JSONDecodeError:
        check(False, "--dump-index emits valid JSON")

    if failures:
        print(f"\n{len(failures)} assertion(s) failed")
        return 1
    print("\nall fastft_analyze assertions passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
