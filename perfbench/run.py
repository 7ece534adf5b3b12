"""Benchmark entry point; run it from the root of a checkout:

    python3 perfbench/run.py --workload catalog|symmetry|unseen \\
        --seed N --seconds S --trace 0|1

With ``--trace 0`` it prints the end-to-end metrics, with ``--trace 1``
the per-layer ones, as the last line of stdout: one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  Every verdict
is checked against its known answer; failing inputs are listed on the
lines before the JSON.

Each workload process is a fresh interpreter with one BLAS/OpenMP thread,
a fixed ``PYTHONHASHSEED`` and ``./src`` on its path.  An untraced run
starts ``SETUP_RUNS`` processes that each time ``import einstat.cli`` and
a first pass with empty caches, half before and half after one process
that does the same and goes on with later passes for ``--seconds``
seconds; set-up and first-pass times are the medians over all of them.
End-to-end times are reference-speed seconds (see ``clock.py``); the
unscaled values are printed on the line before the result.  A traced run
starts one process that alternates untraced and traced passes, then
probes every layer; its pass and self times are scaled the same way, its
probe times are not.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

HERE = Path(__file__).resolve().parent
WORKLOADS = ("catalog", "symmetry", "unseen")

#: Fresh processes timing set-up and the first pass, besides the measuring one.
SETUP_RUNS = 6

#: A run fails unless at least this many later verdicts lie beyond the
#: workload's tail percentile.
MIN_BEYOND_TAIL = 10

#: A run ends within this many seconds or fails.
DEADLINE_S = 175.0

THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


class RunError(Exception):
    pass


def worker_env(root: Path) -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARIABLES})
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(root / "src")
    return env


def run_worker(root: Path, mode: str, args, deadline: float) -> dict:
    command = [
        sys.executable,
        str(HERE / "worker.py"),
        mode,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
    ]
    try:
        done = subprocess.run(
            command,
            cwd=root,
            env=worker_env(root),
            capture_output=True,
            text=True,
            timeout=max(deadline - monotonic(), 1.0),
        )
    except subprocess.TimeoutExpired:
        raise RunError(f"{mode} worker did not finish before the deadline") from None
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        raise RunError(f"{mode} worker exited with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def end_to_end(root: Path, args, deadline: float) -> tuple[dict, list[dict]]:
    # set-up samples before and after the measuring process, so that they
    # span the whole run
    results = [run_worker(root, "setup", args, deadline) for _ in range(SETUP_RUNS // 2)]
    main = run_worker(root, "measure", args, deadline)
    results += [run_worker(root, "setup", args, deadline) for _ in range(SETUP_RUNS - SETUP_RUNS // 2)]
    results.append(main)
    latencies = main["latencies"]
    later_raw, later = main["later_s"]
    percentile = main["tail_percentile"]
    tail = statistics.quantiles(latencies, n=100)[percentile - 1]
    beyond = sum(1 for v in latencies if v > tail)
    print(f"input sizes per pass: {json.dumps(main['sizes'])}")
    print(
        f"verdict_s: {len(latencies)} later verdicts in {later_raw:.2f} s; "
        f"tail is p{percentile} with {beyond} beyond it"
    )
    if beyond < MIN_BEYOND_TAIL:
        raise RunError(
            f"only {beyond} later verdicts beyond p{percentile}, fewer than "
            f"{MIN_BEYOND_TAIL}: verdict_s.tail is not defined for this run"
        )
    pairs = {key: [r[key] for r in results] for key in ("setup_s", "first_pass_s")}
    factors = [factor for values in pairs.values() for _raw, factor in values]
    print(
        "unscaled: setup_s {:.6g} s, first_pass_s {:.6g} s, verdicts_per_s {:.6g} 1/s; "
        "reference-speed factors {:.3f}..{:.3f}, later passes {:.3f}".format(
            statistics.median(raw for raw, _f in pairs["setup_s"]),
            statistics.median(raw for raw, _f in pairs["first_pass_s"]),
            len(latencies) / later_raw,
            min(factors),
            max(factors),
            later / later_raw,
        )
    )
    metrics = {
        "setup_s": (statistics.median(raw * f for raw, f in pairs["setup_s"]), "s"),
        "first_pass_s": (statistics.median(raw * f for raw, f in pairs["first_pass_s"]), "s"),
        "verdicts_per_s": (len(latencies) / later, "1/s"),
        "verdict_s.p50": (statistics.median(latencies), "s"),
        "verdict_s.tail": (tail, "s"),
        "peak_rss_mb": (main["peak_rss_mb"], "MB"),
    }
    return metrics, results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="einstat benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    root = Path.cwd()
    if not (root / "src" / "einstat" / "__init__.py").is_file():
        print("error: run from the root of an einstat checkout (no src/einstat here)", file=sys.stderr)
        return 2
    deadline = monotonic() + DEADLINE_S
    try:
        if args.trace:
            result = run_worker(root, "trace", args, deadline)
            metrics, results = result["metrics"], [result]
        else:
            metrics, results = end_to_end(root, args, deadline)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    for r in results:
        for line in r["failures"]:
            print(f"failing input: {line}")
    print(f"verdicts: {attempted} attempted, {failed} failed (failed_frac {failed / attempted:.4g})")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
