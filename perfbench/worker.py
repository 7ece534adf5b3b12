"""One workload process; ``run.py`` starts each in a fresh interpreter.

    worker.py setup --workload W --seed S --seconds N
        time ``import einstat.cli`` and the first pass with empty caches
        (N is not used; ``run.py`` passes its own to every mode)
    worker.py measure --workload W --seed S --seconds N
        the same, then later passes for N seconds: verdict latencies,
        throughput and peak resident memory
    worker.py trace --workload W --seed S --seconds N
        untraced and traced passes in alternation for N seconds, then the
        per-layer probes; spans go to .perfbench/trace-W-S.json

The result is one JSON object on the last line of stdout.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import clock
import probes
import tracing
import workloads

#: Failing inputs reported back in full; the rest are only counted.
MAX_LISTED_FAILURES = 20

#: Traced runs make at least this many rounds, however short --seconds is.
MIN_TRACE_ROUNDS = 3


class Tally:
    """Verdicts checked against their known answers."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self._next_id = 0

    def run_pass(self, items, tr) -> list[float]:
        """Run every item once; returns the per-verdict latencies."""
        latencies = []
        for item in items:
            self._next_id += 1
            error = None
            start = perf_counter()
            try:
                got = tr.verdict(self._next_id, item.run, tr)
            except Exception as exc:  # a verdict that raises is a failed verdict
                got, error = None, f"{type(exc).__name__}: {exc}"
            latencies.append(perf_counter() - start)
            self.attempted += 1
            if error is not None or got != item.expected:
                self.failed += 1
                if len(self.failures) < MAX_LISTED_FAILURES:
                    want = "PASS" if item.expected else "FAIL"
                    seen = error or ("PASS" if got else "FAIL")
                    self.failures.append(f"{item.label}: expected {want}, got {seen}")
        return latencies

    def as_dict(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed, "failures": self.failures}


class CacheStats:
    """Hits and misses of the geometry caches, kept across cache clears."""

    def __init__(self):
        self.hits = self.misses = 0

    def _caches(self):
        from einstat import geometry

        return [
            obj
            for obj in vars(geometry).values()
            if hasattr(obj, "cache_info") and getattr(obj, "__module__", None) == geometry.__name__
        ]

    def clear(self):
        for cache in self._caches():
            info = cache.cache_info()
            self.hits += info.hits
            self.misses += info.misses
        workloads.clear_caches()

    def ratio(self) -> float:
        self.clear()
        return self.hits / max(self.hits + self.misses, 1)


def _timed_pass(workload, seed, index, tally, tr, cold: bool, caches: CacheStats):
    """One pass; returns (raw seconds, reference-speed factor, raw latencies)."""
    items = workload.inputs(seed, index)
    if cold:
        caches.clear()
    latencies, raw, factor = clock.timed(tally.run_pass, items, tr)
    return raw, factor, latencies


def setup(workload, seed, setup_s) -> dict:
    """Set-up and first-pass times, each as (raw seconds, factor)."""
    tally = Tally()
    raw, factor, _ = _timed_pass(workload, seed, 0, tally, tracing.Untraced(), False, CacheStats())
    return {"setup_s": setup_s, "first_pass_s": (raw, factor), **tally.as_dict()}


def measure(workload, seed, seconds, setup_s) -> dict:
    """``setup`` plus later passes for ``seconds``; latencies are in
    reference-speed seconds, ``later_s`` in both scales."""
    result = setup(workload, seed, setup_s)
    tally = Tally()
    caches = CacheStats()
    tr = tracing.Untraced()
    raw_total = scaled_total = 0.0
    latencies, index = [], 1
    while raw_total < seconds:
        raw, factor, lat = _timed_pass(workload, seed, index, tally, tr, workload.cold_every_pass, caches)
        raw_total += raw
        scaled_total += raw * factor
        latencies += [v * factor for v in lat]
        index += 1
    later = tally.as_dict()
    return {
        **result,
        "attempted": result["attempted"] + later["attempted"],
        "failed": result["failed"] + later["failed"],
        "failures": (result["failures"] + later["failures"])[:MAX_LISTED_FAILURES],
        "later_s": (raw_total, scaled_total),
        "latencies": latencies,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sizes": workload.sizes,
        "tail_percentile": workload.tail_percentile,
    }


def trace(workload, seed, seconds) -> dict:
    tally = Tally()
    caches = CacheStats()
    tracer = tracing.Tracer()
    untraced = tracing.Untraced()
    # (untraced_s, traced_s, first span, end span, traced factor) per round,
    # pass times in reference-speed seconds
    rounds = []
    elapsed, index = 0.0, 0
    while elapsed < seconds or index < MIN_TRACE_ROUNDS:
        cold = index == 0 or workload.cold_every_pass
        times = {}
        # alternate which side runs first; both see the same items and caches
        for side in ("untraced", "traced") if index % 2 == 0 else ("traced", "untraced"):
            if side == "traced":
                first_span = len(tracer.spans)
                undo = tracing.interpose(tracer)
                try:
                    raw, factor, _ = _timed_pass(workload, seed, index, tally, tracer, cold, caches)
                finally:
                    undo()
                span_range = (first_span, len(tracer.spans))
            else:
                raw, factor, _ = _timed_pass(workload, seed, index, tally, untraced, cold, caches)
            times[side] = (raw, factor)
            elapsed += raw
        (u_raw, u_factor), (t_raw, t_factor) = times["untraced"], times["traced"]
        rounds.append((u_raw * u_factor, t_raw * t_factor, *span_range, t_factor))
        index += 1

    spans = tracer.export()
    out_dir = Path(".perfbench")
    out_dir.mkdir(exist_ok=True)
    with open(out_dir / f"trace-{workload.name}-{seed}.json", "w") as handle:
        json.dump(
            {
                "workload": workload.name,
                "seed": seed,
                "rounds": [
                    {"untraced_s": u, "traced_s": t, "spans": [lo, hi], "traced_factor": f}
                    for u, t, lo, hi, f in rounds
                ],
                "spans": spans,
            },
            handle,
        )
    metrics = trace_metrics(spans, rounds)
    del spans, tracer

    metrics.update(probes.expression_probe(workload.name, seed))
    metrics.update(probes.planar_probe(seed))
    metrics.update(probes.jets_probe(seed))
    metrics.update(probes.catalog_cli_probe(seed))
    metrics.update(probes.geometry_probe(seed, caches.clear))
    metrics["geometry.cache_hit_ratio"] = (caches.ratio(), "ratio")
    return {"metrics": metrics, **tally.as_dict()}


def trace_metrics(spans: list[list], rounds: list[tuple]) -> dict:
    """Per-pass accounting of the traced rounds, in reference-speed
    seconds.  Every value is measured on every workload: the layers a
    workload never enters are summed into ``other_layers`` rather than
    reported as a constant zero."""
    # round 0 starts from empty caches; the medians describe the later rounds
    steady = rounds[1:]
    self_s = {"bench": [], "expressions": [], "other_layers": []}
    evaluate_calls, evaluate_s = [], []
    for _u, _t, lo, hi, factor in steady:
        own = tracing.self_times_ns(spans, lo, hi)
        self_s["bench"].append(own.pop(tracing.BENCH_LAYER) * factor / 1e9)
        self_s["expressions"].append(own.pop(tracing.LEAF_LAYER) * factor / 1e9)
        self_s["other_layers"].append(sum(own.values()) * factor / 1e9)
        calls, ns = tracing.leaf_totals(spans[lo:hi], ("expressions.evaluate",))
        evaluate_calls.append(calls)
        evaluate_s.append(ns * factor / 1e9)
    _u, _t, lo, hi, factor = rounds[0]
    _calls, cold_derive_ns = tracing.leaf_totals(
        spans[lo:hi], ("expressions.differentiate", "expressions.simplify")
    )
    cold_derive_ns *= factor
    untraced_s = statistics.median(r[0] for r in steady)
    traced_s = statistics.median(r[1] for r in steady)
    metrics = {
        "trace.pass_untraced_s": (untraced_s, "s"),
        "trace.pass_traced_s": (traced_s, "s"),
        "trace.overhead_s": (traced_s - untraced_s, "s"),
    }
    for key, values in self_s.items():
        metrics[f"trace.self_s.{key}"] = (statistics.median(values), "s")
    metrics["trace.evaluate_calls"] = (statistics.median(evaluate_calls), "count")
    metrics["trace.evaluate_s"] = (statistics.median(evaluate_s), "s")
    metrics["trace.cold_derive_s"] = (cold_derive_ns / 1e9, "s")
    metrics["trace.spans"] = (statistics.median(r[3] - r[2] for r in steady), "count")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "measure", "trace"))
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)

    _module, raw, factor = clock.timed(importlib.import_module, "einstat.cli")
    setup_s = (raw, factor)
    source = Path(sys.modules["einstat"].__file__).resolve()
    if Path.cwd().resolve() / "src" not in source.parents:
        print(f"einstat was imported from {source}, not from ./src", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload]
    if args.mode == "setup":
        result = setup(workload, args.seed, setup_s)
    elif args.mode == "measure":
        result = measure(workload, args.seed, args.seconds, setup_s)
    else:
        result = trace(workload, args.seed, args.seconds)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
