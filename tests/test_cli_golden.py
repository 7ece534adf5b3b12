"""Byte-for-byte CLI output against a recorded fixture.

``data/cli_golden.json`` holds the stdout and exit code of every argv in
:func:`golden_argvs`: the symmetry and invariant checks of the benchmark's
``symmetry`` workload at three seeds, ``catalog verify --seed 42`` and
``catalog export``.  A change to how these commands compute (compiled
tapes, caching, sampling) must leave every byte of their output as it is.

To re-record after a deliberate output change::

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
import pathlib

import pytest

from einstat.cli import main

FIXTURE = pathlib.Path(__file__).parent / "data" / "cli_golden.json"

SEEDS = ("42", "7", "977")

SYMMETRY_CASES = (
    *[("heat", f"H{i}") for i in range(1, 7)],
    *[("txpeq", f"X{i}") for i in range(1, 10)],
    ("txpeq", "eta = u"),
    ("txpeq", "xi_t = t^2"),
    ("heat", "xi_t = t^2"),
    ("txpeq", "xi_t = t + 0.1*x"),
    ("txpeq", "xi_t = x + t"),
)

INVARIANT_CASES = (
    ("H4", "x/sqrt(t)"),
    ("xi_t = 2*t; xi_x = x; eta = 3*u", "u/t^1.5"),
    ("xi_t = 2*t; xi_x = x; eta = 3*u", "u/t^3"),
)


def golden_argvs() -> list[list[str]]:
    argvs = []
    for seed in SEEDS:
        for pde, gen in SYMMETRY_CASES:
            argvs.append(["symmetry", "verify", "--pde", pde, "--gen", gen, "--seed", seed])
        for gen, expr in INVARIANT_CASES:
            argvs.append(["invariant", "check", "--gen", gen, "--expr", expr, "--seed", seed])
    argvs.append(["catalog", "verify", "--seed", "42"])
    argvs.append(["catalog", "export"])
    return argvs


def run_cli(argv: list[str]) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return {"argv": argv, "exit": code, "stdout": out.getvalue()}


def load_fixture() -> dict[tuple[str, ...], dict]:
    records = json.loads(FIXTURE.read_text())
    return {tuple(r["argv"]): r for r in records}


def test_fixture_covers_every_argv():
    assert sorted(load_fixture()) == sorted(tuple(a) for a in golden_argvs())


@pytest.mark.parametrize("argv", golden_argvs(), ids=" ".join)
def test_output_matches_fixture(argv):
    expected = load_fixture()[tuple(argv)]
    actual = run_cli(argv)
    assert actual["exit"] == expected["exit"]
    assert actual["stdout"] == expected["stdout"]


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps([run_cli(a) for a in golden_argvs()], indent=1) + "\n")
