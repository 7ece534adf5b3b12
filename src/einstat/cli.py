"""Command-line front-end.

Subcommands::

    parse                echo the normalized form of an expression
    curvature            curvature quantities at sampled points or on a grid
    check                Einstein / constant-curvature residual suite
    convexity            convexity scan over a box (JSON summary or CSV grid)
    symmetry verify      on-shell symmetry check of a generator against a PDE
    invariant check      X(f) = 0 check for a candidate invariant
    catalog list|verify|export

Exit codes: 0 success or verification pass, 1 verification fail, 2 usage
error, 3 domain or evaluation error.  Reports go to stdout (or ``--out``);
all error text goes to stderr.  Output for a fixed argv and seed is
byte-identical across runs.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys

from . import __version__
from .catalog import (
    PDE_RESIDUAL_TOL,
    entry_to_dict,
    export_catalog,
    get_entry,
    list_entries,
    verify_all,
    verify_entry,
)
from .expressions import (
    ExpressionError,
    ParseError,
    parse as parse_expression,
    to_text,
    worst_residual,
)
from .geometry import (
    PotentialSpec,
    SingularMetricError,
    alpha_curvature,
    ricci_from_metric,
)
from .jets import (
    GENERATORS,
    equation_for,
    generator_by_name,
    invariance_check,
    lsc_check,
    parse_generator,
)
from .planar import (
    DEFAULT_SEED,
    convexity_scan,
    evaluate_points,
    grid_centers,
    sample_points,
)

LSC_TOLERANCES = {"heat": 1e-9, "txpeq": 1e-7}
#: ``check --expr`` defaults; ``check --catalog`` takes its entry's own.
CHECK_BOX = "-1,1,-1,1"
CHECK_SAMPLES = 100
#: Sampled points of ``curvature`` without ``--grid``.
CURVATURE_SAMPLES = 20


class UsageError(Exception):
    pass


def _parse_box(text: str) -> tuple[float, float, float, float]:
    parts = text.split(",")
    if len(parts) != 4:
        raise UsageError(f"--box needs t0,t1,x0,x1 (got {text!r})")
    try:
        box = tuple(float(p) for p in parts)
    except ValueError:
        raise UsageError(f"--box values must be numbers (got {text!r})") from None
    if not all(map(math.isfinite, box)):
        raise UsageError(f"--box values must be finite (got {text!r})")
    return box  # type: ignore[return-value]


def _parse_grid(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise UsageError(f"--grid needs rows,cols (got {text!r})")
    try:
        rows, cols = int(parts[0]), int(parts[1])
    except ValueError:
        raise UsageError(f"--grid values must be integers (got {text!r})") from None
    if rows < 1 or cols < 1:
        raise UsageError(f"--grid needs at least one row and one column (got {text!r})")
    return rows, cols


def _positive_int(text: str) -> int:
    """argparse type of every ``--samples`` flag; a check over no samples
    would have no residual to fail and so would pass vacuously."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer (got {text!r})")
    return value


def _resolve_potential(args) -> tuple[PotentialSpec, dict]:
    """Exactly one of --expr / --catalog selects the input."""
    has_expr = args.expr is not None
    has_catalog = args.catalog is not None
    if has_expr == has_catalog:
        raise UsageError("provide exactly one of --expr or --catalog")
    if has_expr:
        spec = PotentialSpec.create("inline", 2, args.expr)
        return spec, {"expr": args.expr}
    entry = get_entry(args.catalog)
    if entry.kind != "potential":
        raise UsageError(f"catalog entry '{args.catalog}' is not a potential")
    return entry.potential, {"catalog": args.catalog}


def _resolve_generator(text: str):
    if text in GENERATORS:
        return generator_by_name(text)
    if "=" in text:
        return parse_generator(text)
    raise UsageError(
        f"unknown generator '{text}'; use H1..H6, X1..X9, or 'xi_t = ...; xi_x = ...; eta = ...'"
    )


def _finite(value):
    """``value`` with every non-finite float replaced by ``None``: JSON has
    no NaN or infinity, so they print as ``null``."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _finite(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite(v) for v in value]
    return value


def _emit(args, input_desc, results, passed, csv_rows=None, csv_header=None) -> int:
    """Write the report in ``args.format`` to ``args.out`` or stdout and
    return the exit code of its verdict: 0 on pass, 1 on fail."""
    payload = _finite({
        "tool_version": __version__,
        "seed": args.seed,
        "input": input_desc,
        "results": results,
        "pass": passed,
    })
    if args.format == "json":
        text = json.dumps(payload, indent=2, allow_nan=False) + "\n"
    elif args.format == "text":
        lines = [f"pass: {payload['pass']}"]
        lines.extend(json.dumps(item, allow_nan=False) for item in payload["results"])
        text = "\n".join(lines) + "\n"
    elif csv_rows is None:
        raise UsageError("csv output is only available for grid results")
    else:
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(csv_header)
        writer.writerows(csv_rows)
        text = buffer.getvalue()
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_parse(args) -> int:
    tree = parse_expression(args.expr)
    return _emit(args, {"expr": args.expr}, [{"normalized": to_text(tree)}], True)


def _curvature_record(pt, bundle) -> dict:
    return {
        "point": list(pt),
        "kappa": bundle.sectional[(0, 1)],
        "scalar": bundle.scalar,
        "r1212": bundle.riemann[0, 1, 0, 1],
        "ricci": bundle.ricci.tolist(),
    }


def _cmd_curvature(args) -> int:
    if args.grid and args.samples is not None:
        raise UsageError("--samples cannot be used with --grid: the grid sets the points")
    box = _parse_box(args.box)
    results = []
    csv_rows = []
    entry = get_entry(args.catalog) if args.catalog is not None and args.expr is None else None
    if entry is not None and entry.kind == "direct-metric":
        if args.alpha != 0:
            raise UsageError(f"--alpha needs a potential; '{args.catalog}' is a direct metric")
        source = entry.metric
        input_desc = {"catalog": args.catalog, "alpha": 0.0}

        def bundle_at(pt):
            return ricci_from_metric(source, pt)
    else:
        source, input_desc = _resolve_potential(args)
        input_desc["alpha"] = args.alpha

        def bundle_at(pt):
            return alpha_curvature(source, args.alpha, pt)

    if args.grid:
        grid = _parse_grid(args.grid)
        for r, c, pt in grid_centers(box, grid):
            if not source.in_domain(pt):
                csv_rows.append((r, c, pt[0], pt[1], "", "", ""))
                results.append({"point": list(pt), "error": "domain"})
                continue
            record = _curvature_record(pt, bundle_at(pt))
            csv_rows.append(
                (r, c, pt[0], pt[1], repr(record["kappa"]), repr(record["scalar"]),
                 repr(record["r1212"]))
            )
            results.append(record)
        input_desc["grid"] = list(grid)
    else:
        samples = CURVATURE_SAMPLES if args.samples is None else args.samples
        for pt in sample_points(source, box, samples, args.seed):
            results.append(_curvature_record(pt, bundle_at(pt)))
    input_desc["box"] = list(box)
    header = ("row", "col", "t", "x", "kappa", "scalar", "r1212")
    return _emit(args, input_desc, results, True, csv_rows, header)


def _cmd_check(args) -> int:
    if args.catalog is not None and args.expr is None:
        given = [flag for flag, value in (
            ("--lambda", args.lam), ("--samples", args.samples), ("--box", args.box),
        ) if value is not None]
        if given:
            raise UsageError(
                f"{', '.join(given)} cannot be used with --catalog: the entry is checked"
                " at its own lambda, samples and box"
            )
        report = verify_entry(args.catalog, seed=args.seed)
        input_desc = {"catalog": args.catalog, "lambda": report.expected_lambda}
        return _emit(args, input_desc, [report.to_dict()], report.passed)

    spec, input_desc = _resolve_potential(args)
    if args.lam is None:
        raise UsageError("--lambda is required with --expr")
    box = _parse_box(CHECK_BOX if args.box is None else args.box)
    samples = CHECK_SAMPLES if args.samples is None else args.samples
    points = sample_points(spec, box, samples, seed=args.seed)
    values = evaluate_points(spec, points)
    residuals = values.pde_residuals(args.lam, relative=True).tolist()
    results = [
        {"point": list(pt), "relative_residual": residual}
        for pt, residual in zip(points, residuals)
    ]
    worst = worst_residual(map(abs, residuals))
    passed = worst < PDE_RESIDUAL_TOL
    summary = {"max_relative_residual": worst}
    try:
        est = values.lambda_estimate()
        summary.update(lambda_estimate=est.estimate, lambda_deviation=est.deviation)
    except SingularMetricError as exc:
        # without a Fisher metric the residual is 0 - 0 for every lambda
        summary["lambda_error"] = str(exc)
        passed = False
    except (ExpressionError, ValueError):
        pass
    input_desc.update({"lambda": args.lam, "box": list(box), "samples": samples})
    return _emit(args, input_desc, [summary] + results, passed)


def _cmd_convexity(args) -> int:
    spec, input_desc = _resolve_potential(args)
    box = _parse_box(args.box)
    grid = _parse_grid(args.grid)
    report = convexity_scan(spec, box, grid)
    _emit(
        args,
        {**input_desc, "box": list(box), "grid": list(grid)},
        [report.to_dict()],
        report.counts["convex"] > 0,
        list(report.csv_rows()),
        ("row", "col", "t", "x", "verdict"),
    )
    return 0  # a scan reports; it does not verify


def _cmd_symmetry_verify(args) -> int:
    if args.pde == "heat" and args.lam is not None:
        raise UsageError("--lambda cannot be used with --pde heat: the heat equation has no lambda")
    gen = _resolve_generator(args.gen)
    equation, leading = equation_for(args.pde, args.lam if args.lam is not None else 1.0)
    report = lsc_check(
        gen, equation, leading, samples=args.samples, seed=args.seed,
        tolerance=LSC_TOLERANCES[args.pde],
    )
    return _emit(
        args,
        {"pde": args.pde, "lambda": args.lam, "gen": args.gen, "samples": args.samples},
        [
            {
                "generator": report.generator,
                "max_residual": report.max_residual,
                "tolerance": report.tolerance,
                "pass": report.passed,
            }
        ],
        report.passed,
    )


def _cmd_invariant_check(args) -> int:
    gen = _resolve_generator(args.gen)
    function = parse_expression(args.expr)
    report = invariance_check(gen, function, samples=args.samples, seed=args.seed)
    return _emit(
        args,
        {"gen": args.gen, "expr": args.expr, "samples": args.samples},
        [
            {
                "generator": report.generator,
                "evaluated": report.evaluated,
                "skipped": report.skipped,
                "max_residual": report.max_residual,
                "tolerance": report.tolerance,
                "pass": report.passed,
            }
        ],
        report.passed,
    )


def _cmd_catalog(args) -> int:
    if args.action == "list":
        return _emit(args, {}, list_entries(), True)
    if args.action == "export":
        results = [entry_to_dict(get_entry(args.name))] if args.name else export_catalog()
        return _emit(args, {"name": args.name}, results, True)
    # verify
    if args.name:
        reports = [verify_entry(args.name, seed=args.seed)]
    else:
        reports = verify_all(seed=args.seed)
    passed = all(r.passed for r in reports)
    return _emit(args, {"name": args.name}, [r.to_dict() for r in reports], passed)


# ---------------------------------------------------------------------------
# Parser assembly
# ---------------------------------------------------------------------------

def _add_common(sub, box_default=None):
    sub.add_argument("--seed", type=int, default=DEFAULT_SEED, help="PRNG seed (default 42)")
    sub.add_argument(
        "--format", choices=("json", "csv", "text"), default="json",
        help="output format (default json; csv for grids only)",
    )
    sub.add_argument("--out", default=None, help="write the report to this path")
    if box_default is not None:
        sub.add_argument(
            "--box", default=box_default,
            help=f"t0,t1,x0,x1 sampling box (default {box_default})",
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="einstat",
        description="Constant-curvature verification toolkit for potential functions",
    )
    parser.add_argument("--version", action="version", version=f"einstat {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("parse", help="echo the normalized form of an expression")
    p.add_argument("--expr", required=True, help="expression text")
    _add_common(p)
    p.set_defaults(handler=_cmd_parse)

    p = commands.add_parser("curvature", help="curvature quantities at points or on a grid")
    p.add_argument("--expr", help="inline potential in t, x")
    p.add_argument("--catalog", help="catalog entry name")
    p.add_argument("--alpha", type=float, default=0.0, help="connection parameter (default 0)")
    p.add_argument("--grid", default=None, help="rows,cols grid instead of sampling")
    p.add_argument("--samples", type=_positive_int,
                   help=f"sample count without --grid (default {CURVATURE_SAMPLES})")
    _add_common(p, box_default="-1,1,-2,-0.1")
    p.set_defaults(handler=_cmd_curvature)

    p = commands.add_parser("check", help="Einstein / constant-curvature residual suite")
    p.add_argument("--expr", help="inline potential in t, x")
    p.add_argument("--catalog", help="catalog entry name")
    p.add_argument("--lambda", dest="lam", type=float, default=None, help="curvature parameter")
    p.add_argument("--samples", type=_positive_int, help=f"sample count (default {CHECK_SAMPLES})")
    _add_common(p, box_default=CHECK_BOX)
    # None marks a flag the user did not give; _cmd_check fills in the defaults
    p.set_defaults(handler=_cmd_check, box=None)

    p = commands.add_parser("convexity", help="convexity scan over a box")
    p.add_argument("--expr", help="inline potential in t, x")
    p.add_argument("--catalog", help="catalog entry name")
    p.add_argument("--grid", default="20,20", help="rows,cols (default 20,20)")
    _add_common(p, box_default="-1,1,-1,1")
    p.set_defaults(handler=_cmd_convexity)

    p = commands.add_parser("symmetry", help="symmetry checks")
    symmetry_sub = p.add_subparsers(dest="action", required=True)
    v = symmetry_sub.add_parser("verify", help="on-shell symmetry check of a generator")
    v.add_argument("--pde", choices=("heat", "txpeq"), required=True, help="equation to test")
    v.add_argument("--lambda", dest="lam", type=float, default=None,
                   help="curvature parameter for txpeq (default 1)")
    v.add_argument("--gen", required=True,
                   help="generator name (H1..H6, X1..X9) or 'xi_t = ...; xi_x = ...; eta = ...'")
    v.add_argument("--samples", type=_positive_int, default=200, help="on-shell samples (default 200)")
    _add_common(v)
    v.set_defaults(handler=_cmd_symmetry_verify)

    p = commands.add_parser("invariant", help="invariant-function checks")
    invariant_sub = p.add_subparsers(dest="action", required=True)
    c = invariant_sub.add_parser("check", help="verify X(f) = 0 at random points")
    c.add_argument("--gen", required=True, help="generator name or inline definition")
    c.add_argument("--expr", required=True, help="candidate invariant in t, x, u")
    c.add_argument("--samples", type=_positive_int, default=200, help="sample count (default 200)")
    _add_common(c)
    c.set_defaults(handler=_cmd_invariant_check)

    p = commands.add_parser("catalog", help="built-in entry operations")
    catalog_sub = p.add_subparsers(dest="action", required=True)
    for action, help_text in (
        ("list", "summaries of every entry"),
        ("verify", "re-run stored checks"),
        ("export", "JSON export of entries"),
    ):
        a = catalog_sub.add_parser(action, help=help_text)
        if action in ("verify", "export"):
            a.add_argument("name", nargs="?", default=None, help="entry name (default: all)")
        _add_common(a)
        a.set_defaults(handler=_cmd_catalog, action=action)

    return parser


def _normalize_argv(argv):
    """Join value-taking flags with values that begin with a minus sign,
    so ``--box -1,1,-1,1`` parses as intended."""
    merged = []
    skip = False
    for i, token in enumerate(argv):
        if skip:
            skip = False
            continue
        if token in ("--box", "--grid") and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            merged.append(f"{token}={argv[i + 1]}")
            skip = True
        else:
            merged.append(token)
    return merged


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of :func:`main`, built on its first call and then reused."""
    return build_parser()


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    argv = _normalize_argv(list(argv))
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors, 0 for --help
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except (UsageError, ParseError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: expression is nested too deeply", file=sys.stderr)
        return 2
    # DomainError, SingularMetricError, SamplingError, ..., and Python's float
    # errors (a planar formula's square that underflows, a box too wide to sample)
    except (ExpressionError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
