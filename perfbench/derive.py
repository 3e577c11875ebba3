"""Turns engine_bench span records into the benchmark's metrics.

engine_bench prints one JSON record per timed call into a layer (a "span");
this module holds every rule that turns those records into numbers: which
runs pass the correctness gate, how timings are summarised, how the traced
run's spans are split into phases, and the per-layer metric table. It has no
side effects, so perfbench/test_derive.py can test it without a build.
"""

import collections
import math
import statistics

# End-to-end metrics, measured on untraced runs: name -> unit.
END_TO_END = {
    "run_s": "s",
    "cpu_s": "s",
    "steps_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Engine spans on the thread that called Run() -> the phase they belong to.
# engine/run, engine/episode and engine/step only contain phases; the time
# they hold outside every phase is the unattributed remainder.
PHASE_OF_SPAN = {
    "engine/select_action": "core.select",
    "engine/estimate": "core.estimate",
    "engine/evaluate": "ml.evaluator",
    "engine/optimize": "core.optimize",
    "engine/coldstart_train": "nn.train",
    "engine/finetune": "nn.train",
    "engine/checkpoint_serialize": "core.checkpoint",
    "engine/checkpoint_write": "core.checkpoint",
}
PHASES = sorted(set(PHASE_OF_SPAN.values()))

# Per-layer metrics, from the traced runs, the probes and the host readings:
# name -> unit. Ratios are listed next to the base they are taken over.
PER_LAYER = {
    "core.select.busy_s": "s",
    "core.select.calls": "count",
    "core.estimate.busy_s": "s",
    "core.predictor.predict_s": "s",
    "core.novelty.estimate_s": "s",
    "core.optimize.busy_s": "s",
    "core.checkpoint.busy_s": "s",
    "core.checkpoint.bytes": "bytes",
    "core.engine.unattributed_s": "s",
    "core.engine.traced_run_s": "s",
    "core.engine.evals_per_step": "1/step",
    "core.engine.score_gain": "score",
    "nn.train.busy_s": "s",
    "nn.train.calls": "count",
    "nn.encode_cache.hit_ratio": "ratio",
    "nn.encode_cache.lookups": "count",
    "nn.encode_cache.reuse_ratio": "ratio",
    "nn.encode_cache.tokens_requested": "count",
    "ml.evaluator.busy_s": "s",
    "ml.evaluator.evaluations": "count",
    "ml.evaluator.folds": "count",
    "ml.evaluator.folds_skipped": "count",
    "ml.forest.fit_tree_s": "s",
    "ml.forest.trees_fit": "count",
    "common.pool.tasks": "count",
    "common.pool.queue_wait_us.p50": "us",
    "common.pool.queue_wait_us.p99": "us",
    "common.pool.task_run_us.p50": "us",
    "common.pool.parallel_eff": "ratio",
    "common.pool.threads": "count",
    "common.recorder.events": "count",
    "common.recorder.dropped": "count",
    "data.generate_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.untraced_run_s": "s",
    "ml.evaluate_call_ms": "ms",
    "core.cluster_call_us": "us",
    "nn.predict_call_us": "us",
    "host.spin_ms": "ms",
    "bench.failed_ratio": "ratio",
    "bench.attempted": "count",
}

Summary = collections.namedtuple("Summary", "median q1 q3 n")
Ratio = collections.namedtuple("Ratio", "value numerator base")


class AccountingError(Exception):
    """The traced run's phases do not fit inside its wall time."""


def summarize(values):
    """Median and quartiles (statistics.quantiles, n=4) with sample count."""
    values = list(values)
    if not values:
        raise ValueError("no samples to summarize")
    median = statistics.median(values)
    if len(values) == 1:
        return Summary(median, median, median, 1)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return Summary(median, q1, q3, len(values))


def ratio(numerator, base):
    """numerator / base, kept with both operands; 0 when the base is 0."""
    return Ratio(numerator / base if base else 0.0, numerator, base)


def reference_digest(digests):
    """The digest most runs produced (the earliest one on a tie)."""
    counts = collections.Counter(digests)
    if not counts:
        return None
    top = max(counts.values())
    return next(d for d in digests if counts[d] == top)


def finite(value):
    return isinstance(value, (int, float)) and math.isfinite(value)


def run_failures(run, reference):
    """Names of the correctness checks one core/run record fails."""
    if not run.get("ok"):
        return ["status: " + run.get("error", "unknown error")]
    failures = []
    if run["interrupted"] or run["episodes_completed"] != run["episodes_expected"]:
        failures.append("incomplete run")
    if not (finite(run["base_score"]) and finite(run["best_score"])):
        failures.append("non-finite score")
    elif run["best_score"] < run["base_score"]:
        failures.append("best score below base score")
    if run["digest"] != reference:
        failures.append("digest %s != %s" % (run["digest"], reference))
    return failures


def probe_failures(calls):
    """Checks of one probe's repeated calls: finite, identical outputs, and
    (for clustering) a partition that covers every column."""
    failures = []
    outputs = [c.get("output") for c in calls]
    if not all(finite(o) for o in outputs):
        failures.append("non-finite output")
    elif len(set(outputs)) > 1:
        failures.append("outputs differ between identical calls")
    if any(c.get("covered", c.get("columns")) != c.get("columns") for c in calls):
        failures.append("clusters do not cover every column")
    return failures


def phase_self_times(spans):
    """Self time and call count per phase from one thread's spans.

    `spans` are (name, start_ns, duration_ns). Spans whose name is not a
    phase are ignored; a phase span nested inside another gives its time to
    the inner phase only, so the phase self times never overlap.
    """
    busy = {phase: 0.0 for phase in PHASES}
    calls = {phase: 0 for phase in PHASES}
    phased = sorted(
        ((s, d, PHASE_OF_SPAN[n]) for n, s, d in spans if n in PHASE_OF_SPAN),
        key=lambda span: (span[0], -span[1]))
    open_spans = []  # (end_ns, phase) of the enclosing phase spans
    for start, duration, phase in phased:
        while open_spans and open_spans[-1][0] <= start:
            open_spans.pop()
        if open_spans:
            busy[open_spans[-1][1]] -= duration / 1e9
        busy[phase] += duration / 1e9
        calls[phase] += 1
        open_spans.append((start + duration, phase))
    return busy, calls


def phase_accounting(spans, traced_run_s):
    """Phase self times plus the unattributed remainder of the traced run.

    By construction the phases and the remainder sum to traced_run_s; the
    check is that the phases fit inside it (remainder >= 0).
    """
    busy, calls = phase_self_times(spans)
    unattributed = traced_run_s - sum(busy.values())
    if unattributed < -1e-6:
        raise AccountingError(
            "phases sum to %.6f s, more than the traced run's %.6f s"
            % (sum(busy.values()), traced_run_s))
    return busy, calls, unattributed


def histogram_quantile(histogram, q):
    """Upper bound of the bucket holding the q-quantile (0 when empty; the
    last finite bound when it falls in the overflow bucket)."""
    if not histogram:
        return 0.0
    bounds, counts = histogram["bounds"], histogram["counts"]
    total = sum(counts)
    if total == 0:
        return 0.0
    rank = max(1, math.ceil(q * total))
    seen = 0
    for bound, count in zip(bounds, counts):
        seen += count
        if seen >= rank:
            return bound
    return bounds[-1]


class Invocation:
    """The records of one engine_bench invocation, with the gate applied.

    Runs of the same rota input must agree on their digest, warm-up, timed
    and traced alike; the reference is the digest most of them produced.
    """

    def __init__(self, records):
        self.spans = collections.defaultdict(list)
        for record in records:
            self.spans[record["span"]].append(record)
        runs = self.spans["core/run"]
        digests = collections.defaultdict(list)
        for run in runs:
            if run.get("ok"):
                digests[run["input"]].append(run["digest"])
        self.references = {i: reference_digest(d) for i, d in digests.items()}
        self.reference = self.references.get(0)
        self.failures = []  # (operation, check) pairs
        self.passed = []
        for index, run in enumerate(runs):
            label = "run %d (%s, input %d)" % (index, run["role"], run["input"])
            found = run_failures(run, self.references.get(run["input"]))
            self.failures += [(label, f) for f in found]
            if not found:
                self.passed.append(run)
        self.attempted = len(runs)
        self.failed = len({label for label, _ in self.failures})
        for probe in ("ml/evaluate_call", "core/cluster_call", "nn/predict_call"):
            calls = self.spans.get(probe, [])
            self.attempted += len(calls)
            found = probe_failures(calls)
            self.failures += [(probe, f) for f in found]
            self.failed += len(calls) if found else 0

    def timed(self):
        return [r for r in self.passed if r["role"] == "timed"]

    def traced(self):
        return [r for r in self.passed if r["role"] == "traced"]

    def end_to_end(self):
        """name -> (value, Summary) over the passing untraced runs, or None.

        run_s and cpu_s are means over the rota: the expected cost of one
        Run. Per-input times are far from normal (a run whose agents keep
        generating deep expressions trains on long sequences), and the rota
        mean moves less from seed to seed than the rota median.
        """
        timed = self.timed()
        if not timed:
            return None
        durations = [r["dur_s"] for r in timed]
        cpu = [r["cpu_s"] for r in timed]
        steps = sum(r["total_steps"] for r in timed)
        setup = summarize(s["dur_s"] for s in self.spans["setup"])
        rss = summarize([self.spans["process"][0]["peak_rss_mb"]])
        return {
            "run_s": (statistics.mean(durations), summarize(durations)),
            "cpu_s": (statistics.mean(cpu), summarize(cpu)),
            "steps_per_s": (steps / sum(durations), summarize(
                r["total_steps"] / r["dur_s"] for r in timed)),
            "setup_s": (setup.median, setup),
            "peak_rss_mb": (rss.median, rss),
        }

    def per_layer(self):
        """name -> value for every PER_LAYER metric, summed over the traced
        inputs, plus the phase table; (None, None) without a passing traced
        run."""
        traced = self.traced()
        timed = self.timed()
        if not traced or not timed:
            return None, None
        threads = self.spans["process"][0]["threads"]
        busy = collections.Counter()
        calls = collections.Counter()
        totals = collections.Counter()
        counters = collections.Counter()
        histograms = {}
        cache = collections.Counter()
        for run in traced:
            trace = run["trace"]
            if trace["dropped_spans"]:
                raise AccountingError(
                    "%d spans dropped from the trace rings"
                    % trace["dropped_spans"])
            run_busy, run_calls, _ = phase_accounting(
                trace["main_spans"], run["dur_s"])
            busy.update(run_busy)
            calls.update(run_calls)
            totals.update({n: t[1] for n, t in trace["span_totals"].items()})
            counters.update(trace["counters"])
            cache.update(trace["cache"])
            for name, h in trace["histograms"].items():
                merged = histograms.setdefault(
                    name, {"bounds": h["bounds"], "counts": [0] * len(h["counts"])})
                merged["counts"] = [a + b for a, b in zip(merged["counts"], h["counts"])]
        traced_run_s = sum(r["dur_s"] for r in traced)
        unattributed = traced_run_s - sum(busy[p] for p in PHASES)

        def probe_median(name, scale):
            return summarize(c["dur_s"] * scale for c in self.spans[name]).median

        # Each traced run repeats a timed input; those timed runs are the base.
        traced_inputs = {r["input"] for r in traced}
        untraced_run_s = sum(r["dur_s"] for r in timed if r["input"] in traced_inputs)
        overhead = ratio(traced_run_s - untraced_run_s, untraced_run_s)
        hit = ratio(cache["hits"], cache["lookups"])
        reuse = ratio(cache["tokens_reused"],
                      cache["tokens_reused"] + cache["tokens_encoded"])
        parallel = ratio(sum(r["cpu_s"] for r in timed),
                         sum(r["dur_s"] for r in timed) * threads)
        failed = ratio(self.failed, self.attempted)
        values = {
            "core.select.busy_s": busy["core.select"],
            "core.select.calls": calls["core.select"],
            "core.estimate.busy_s": busy["core.estimate"],
            "core.predictor.predict_s": totals["predictor/predict"] / 1e9,
            "core.novelty.estimate_s": totals["novelty/estimate"] / 1e9,
            "core.optimize.busy_s": busy["core.optimize"],
            "core.checkpoint.busy_s": busy["core.checkpoint"],
            "core.checkpoint.bytes": max(
                r["trace"]["checkpoint_bytes"] for r in traced),
            "core.engine.unattributed_s": unattributed,
            "core.engine.traced_run_s": traced_run_s,
            "core.engine.evals_per_step":
                sum(r["downstream_evaluations"] for r in traced)
                / sum(r["total_steps"] for r in traced),
            "core.engine.score_gain": statistics.mean(
                r["best_score"] - r["base_score"] for r in traced),
            "nn.train.busy_s": busy["nn.train"],
            "nn.train.calls": calls["nn.train"],
            "nn.encode_cache.hit_ratio": hit.value,
            "nn.encode_cache.lookups": hit.base,
            "nn.encode_cache.reuse_ratio": reuse.value,
            "nn.encode_cache.tokens_requested": reuse.base,
            "ml.evaluator.busy_s": busy["ml.evaluator"],
            "ml.evaluator.evaluations": counters["evaluator.evaluations"],
            "ml.evaluator.folds": counters["evaluator.folds"],
            "ml.evaluator.folds_skipped": counters["evaluator.folds_skipped"],
            "ml.forest.fit_tree_s": totals["forest/fit_tree"] / 1e9,
            "ml.forest.trees_fit": counters["forest.trees_fit"],
            "common.pool.tasks": counters["pool.tasks"],
            "common.pool.queue_wait_us.p50": histogram_quantile(
                histograms.get("pool.queue_wait_us"), 0.50),
            "common.pool.queue_wait_us.p99": histogram_quantile(
                histograms.get("pool.queue_wait_us"), 0.99),
            "common.pool.task_run_us.p50": histogram_quantile(
                histograms.get("pool.task_run_us"), 0.50),
            "common.pool.parallel_eff": parallel.value,
            "common.pool.threads": threads,
            "common.recorder.events": sum(
                r["trace"]["recorded_events"] for r in traced),
            "common.recorder.dropped": sum(
                r["trace"]["recorded_dropped"] for r in traced),
            "data.generate_s": probe_median("data/generate", 1.0),
            "trace.overhead_ratio": overhead.value,
            "trace.untraced_run_s": overhead.base,
            "ml.evaluate_call_ms": probe_median("ml/evaluate_call", 1e3),
            "core.cluster_call_us": probe_median("core/cluster_call", 1e6),
            "nn.predict_call_us": probe_median("nn/predict_call", 1e6),
            "host.spin_ms": summarize(
                r["spin_ms"] for r in self.spans["core/run"]).median,
            "bench.failed_ratio": failed.value,
            "bench.attempted": failed.base,
        }
        phases = {p: (busy[p], calls[p]) for p in PHASES}
        phases["unattributed"] = (unattributed, 0)
        return values, phases
