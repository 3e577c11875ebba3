#!/usr/bin/env python3
"""Cross-run perf ledger for the BENCH_*.json snapshots.

Every bench binary persists its results wrapped in a common provenance
envelope (see bench/bench_util.h):

    {
      "ledger_version": 1,
      "bench": "<bench name>",
      "backend": "<simd backend>",
      "threads": <worker threads>,
      "commit": "<git sha>",        # "-dirty" suffix, or "unstamped"
      "payload": { ...bench-specific metrics... }
    }

Commands:

    check FILE...
        Validate that each file carries a well-formed envelope. Exit 1 on
        the first malformed file.

    diff BASELINE CANDIDATE
        Print every numeric metric that changed between two snapshots of
        the same bench, with absolute and relative deltas.

    regress BASELINE CANDIDATE [--max-regress-pct N]
        Like diff, but exit 1 when any metric regressed by more than N%
        (default 10). Direction is inferred from the metric name: times
        (*_ms, *_s, *_seconds, *_pct for overhead/bucket metrics) regress
        upward; speedups/scores/means regress downward. Spread leaves
        (quartiles and IQR: q1_*, q3_*, iqr_*, *_q1, *_q3) and
        unrecognized metrics are reported but never gated.
"""

import argparse
import json
import sys

LEDGER_VERSION = 1

ENVELOPE_KEYS = {"ledger_version": int, "bench": str, "backend": str,
                 "threads": int, "payload": dict}

# Name suffixes/substrings that mark a metric where SMALLER is better.
LOWER_IS_BETTER = ("_ms", "_s", "_seconds", "seconds_", "overhead_pct",
                   "bucket_pct", "_bytes", "latency")
# Marks where LARGER is better.
HIGHER_IS_BETTER = ("speedup", "score", "_mean", "mean_", "auc", "f1",
                    "events_per_run")
# Underscore-separated name parts that mark a spread leaf. Spread is noise
# around the gated median, so a wider spread alone is not a regression.
SPREAD_PARTS = {"q1", "q3", "iqr"}


def fail(message):
    print(f"bench_ledger: error: {message}", file=sys.stderr)
    sys.exit(1)


def load_envelope(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"{path}: {e}")
    if not isinstance(doc, dict):
        fail(f"{path}: top level must be an object")
    for key, kind in ENVELOPE_KEYS.items():
        if key not in doc:
            fail(f"{path}: missing envelope key '{key}'")
        if not isinstance(doc[key], kind):
            fail(f"{path}: envelope key '{key}' must be {kind.__name__}")
    if doc["ledger_version"] != LEDGER_VERSION:
        fail(f"{path}: ledger_version {doc['ledger_version']} unsupported "
             f"(this tool reads version {LEDGER_VERSION})")
    if "commit" in doc and not isinstance(doc["commit"], str):
        fail(f"{path}: envelope key 'commit' must be str")
    return doc


def flatten(value, prefix=""):
    """Yields (dotted.path, number) for every numeric leaf of the payload."""
    if isinstance(value, bool):
        return  # booleans are shape gates, not perf metrics
    if isinstance(value, (int, float)):
        yield prefix, float(value)
    elif isinstance(value, dict):
        for key, child in value.items():
            yield from flatten(child, f"{prefix}.{key}" if prefix else key)
    elif isinstance(value, list):
        for i, child in enumerate(value):
            yield from flatten(child, f"{prefix}[{i}]")


def direction(name):
    """'down' = smaller is better, 'up' = larger is better, None = ungated."""
    leaf = name.rsplit(".", 1)[-1].lower()
    if SPREAD_PARTS & set(leaf.split("_")):
        return None
    for marker in LOWER_IS_BETTER:
        if marker in leaf:
            return "down"
    for marker in HIGHER_IS_BETTER:
        if marker in leaf:
            return "up"
    return None


def cmd_check(args):
    for path in args.files:
        doc = load_envelope(path)
        commit = doc.get("commit", "unstamped")
        metrics = sum(1 for _ in flatten(doc["payload"]))
        print(f"{path}: ok  bench={doc['bench']} backend={doc['backend']} "
              f"threads={doc['threads']} commit={commit} "
              f"numeric_metrics={metrics}")
    return 0


def compare(baseline_path, candidate_path, max_regress_pct, gate):
    base = load_envelope(baseline_path)
    cand = load_envelope(candidate_path)
    if base["bench"] != cand["bench"]:
        fail(f"bench mismatch: '{base['bench']}' vs '{cand['bench']}'")
    if base["backend"] != cand["backend"] or base["threads"] != cand["threads"]:
        print(f"note: comparing backend={base['backend']}/t{base['threads']} "
              f"against backend={cand['backend']}/t{cand['threads']} — "
              "perf deltas include the environment change")

    base_metrics = dict(flatten(base["payload"]))
    cand_metrics = dict(flatten(cand["payload"]))
    regressions = []
    rows = []
    for name in sorted(set(base_metrics) | set(cand_metrics)):
        if name not in base_metrics:
            rows.append((name, None, cand_metrics[name], None, "added"))
            continue
        if name not in cand_metrics:
            rows.append((name, base_metrics[name], None, None, "removed"))
            continue
        b, c = base_metrics[name], cand_metrics[name]
        if b == c:
            continue
        rel = (c - b) / abs(b) * 100.0 if b != 0 else float("inf")
        dirn = direction(name)
        verdict = ""
        if dirn == "down" and rel > max_regress_pct:
            verdict = "REGRESSION"
        elif dirn == "up" and rel < -max_regress_pct:
            verdict = "REGRESSION"
        elif dirn is None:
            verdict = "ungated"
        if verdict == "REGRESSION":
            regressions.append((name, b, c, rel))
        rows.append((name, b, c, rel, verdict))

    if not rows:
        print(f"{base['bench']}: no numeric metric changed")
    else:
        width = max(len(r[0]) for r in rows)
        for name, b, c, rel, verdict in rows:
            if b is None:
                print(f"  {name:<{width}}  (new) -> {c:g}")
            elif c is None:
                print(f"  {name:<{width}}  {b:g} -> (gone)")
            else:
                print(f"  {name:<{width}}  {b:g} -> {c:g}  ({rel:+.2f}%)"
                      f"  {verdict}")
    if gate and regressions:
        print(f"\n{len(regressions)} metric(s) regressed beyond "
              f"{max_regress_pct}%:", file=sys.stderr)
        for name, b, c, rel in regressions:
            print(f"  {name}: {b:g} -> {c:g} ({rel:+.2f}%)", file=sys.stderr)
        return 1
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate envelope(s)")
    p.add_argument("files", nargs="+")

    p = sub.add_parser("diff", help="print metric deltas between snapshots")
    p.add_argument("baseline")
    p.add_argument("candidate")
    p.add_argument("--max-regress-pct", type=float, default=10.0)

    p = sub.add_parser("regress",
                       help="exit 1 on metric regressions beyond the bound")
    p.add_argument("baseline")
    p.add_argument("candidate")
    p.add_argument("--max-regress-pct", type=float, default=10.0)

    args = parser.parse_args()
    if args.command == "check":
        return cmd_check(args)
    if args.command == "diff":
        return compare(args.baseline, args.candidate, args.max_regress_pct,
                       gate=False)
    if args.command == "regress":
        return compare(args.baseline, args.candidate, args.max_regress_pct,
                       gate=True)
    return 2


if __name__ == "__main__":
    sys.exit(main())
