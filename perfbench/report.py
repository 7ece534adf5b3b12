"""Run the benchmark and print every metric with its unit, its spread
across seeds against the bound in BENCHMARK.json, and every failing input.

    python3 perfbench/report.py                      # one run per workload, traced too
    python3 perfbench/report.py --runs 10 --no-trace # steadiness: 10 seeds per workload
    python3 perfbench/report.py --runs 10 --no-trace --save perfbench/baseline.json
    python3 perfbench/report.py --runs 10 --no-trace --against perfbench/baseline.json

Run it from the root of a checkout.  It runs every workload in
BENCHMARK.json for its ``run_seconds``, the run length the bounds were
set by.  Runs are made one at a time, each with its own seed
(``--seed``, ``--seed`` + 1, ...).  The spread of a
metric is the distance between the first and third quartiles of its
values as a share of their median, as ``statistics.quantiles(values,
n=4)`` gives them; ``steady`` means the spread is under a third of the
bound.  With ``--against`` the medians are compared with a saved run and
each is marked ``within`` or ``WORSE`` by the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent


def run_once(workload: str, seed: int, seconds: int, trace: int):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True,
        text=True,
    )
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited with {done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def spread(values: list[float]) -> tuple[float, float, float, float]:
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / abs(median) if median else float("inf")


def worse_by(metric: dict, new: float, old: float) -> float:
    """How much worse ``new`` is than ``old``, as a share of ``old``."""
    change = (new - old) / abs(old)
    return change if metric["better"] == "lower" else -change


def print_self_times(workload: str, seed: int, metrics: dict) -> None:
    """Per-layer self time of the later traced passes, from the span file."""
    trace = json.loads((Path(".perfbench") / f"trace-{workload}-{seed}.json").read_text())
    rounds = trace["rounds"][1:]
    per_round = [
        {k: v * r["traced_factor"] for k, v in tracing.self_times_ns(trace["spans"], *r["spans"]).items()}
        for r in rounds
    ]
    print(f"  self time per later traced pass, median of {len(rounds)} rounds:")
    total = 0.0
    for layer in tracing.LAYERS:
        value = statistics.median(own[layer] for own in per_round) / 1e9
        total += value
        print(f"    {layer:12s} {value:10.4f} s")
    untraced = metrics["trace.pass_untraced_s"]["value"]
    traced = metrics["trace.pass_traced_s"]["value"]
    print(f"  self times sum to {total:.4f} s against a traced pass of {traced:.4f} s; the "
          f"untraced pass takes {untraced:.4f} s, so tracing costs {traced - untraced:+.4f} s "
          f"({(traced - untraced) / untraced:+.1%})")


def main(argv=None) -> int:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--no-trace", dest="trace", action="store_false")
    parser.add_argument("--save", type=Path, help="write the medians and values here")
    parser.add_argument("--against", type=Path, help="compare medians with a saved run")
    args = parser.parse_args(argv)

    previous = json.loads(args.against.read_text()) if args.against else {}
    saved = {}
    all_steady = True
    for workload in (w["name"] for w in bench["workloads"]):
        values: dict[str, list[float]] = {m["name"]: [] for m in bench["end_to_end"]}
        attempted = failed = 0
        failing = []
        seeds = list(range(args.seed, args.seed + args.runs))
        for seed in seeds:
            result, lines = run_once(workload, seed, seconds, 0)
            attempted += result["attempted"]
            failed += result["failed"]
            failing += [line for line in lines if line.startswith("failing input:")]
            for name, metric in result["metrics"].items():
                values[name].append(metric["value"])
        print(f"\n== {workload}: {args.runs} run(s), seeds {seeds[0]}..{seeds[-1]}, "
              f"{seconds} s each")
        print(f"verdicts: {attempted} attempted, {failed} failed, failed_frac {failed / attempted:.4g}")
        for line in failing:
            print(f"  {line}")
        print(f"  {'metric':18s} {'unit':5s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>7s} {'bound':>6s}")
        saved[workload] = {}
        for metric in bench["end_to_end"]:
            name = metric["name"]
            median, q1, q3, share = spread(values[name])
            steady = share < metric["bound"] / 3
            all_steady &= steady
            line = (f"  {name:18s} {metric['unit']:5s} {median:12.6g} {q1:12.6g} {q3:12.6g} "
                    f"{share:7.2%} {metric['bound']:6.2f} {'steady' if steady else 'NOISY'}")
            old = previous.get(workload, {}).get(name)
            if old:
                change = worse_by(metric, median, old["median"])
                line += (f"  vs {old['median']:.6g}: {change:+.2%} "
                         f"{'within' if change <= metric['bound'] else 'WORSE'}")
            print(line)
            saved[workload][name] = {"median": median, "q1": q1, "q3": q3, "values": values[name]}

        if args.trace:
            result, lines = run_once(workload, args.seed, seconds, 1)
            metrics = result["metrics"]
            print(f"traced run, seed {args.seed}: {result['attempted']} verdicts, "
                  f"{result['failed']} failed")
            for line in lines:
                if line.startswith("failing input:"):
                    print(f"  {line}")
            for metric in bench["per_layer"]:
                value = metrics[metric["name"]]["value"]
                print(f"  {metric['name']:50s} {value:14.6g} {metric['unit']}")
            print_self_times(workload, args.seed, metrics)

    if args.save:
        args.save.write_text(json.dumps(saved, indent=1) + "\n")
    if args.runs > 1:
        print(f"\nall end-to-end spreads under a third of their bound: {all_steady}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
