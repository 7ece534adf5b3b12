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
import io
import json
import sys

import numpy as np

from . import __version__
from .catalog import (
    entry_to_dict,
    export_catalog,
    get_entry,
    list_entries,
    verify_all,
    verify_entry,
)
from .expressions import (
    DomainError,
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
    SamplingError,
    convexity_scan,
    lambda_estimate,
    pde_residual,
    sample_points,
)

PDE_TOLERANCE = 1e-7
LSC_TOLERANCES = {"heat": 1e-9, "txpeq": 1e-7}


class UsageError(Exception):
    pass


def _parse_box(text: str) -> tuple[float, float, float, float]:
    parts = text.split(",")
    if len(parts) != 4:
        raise UsageError(f"--box needs t0,t1,x0,x1 (got {text!r})")
    try:
        return tuple(float(p) for p in parts)  # type: ignore[return-value]
    except ValueError:
        raise UsageError(f"--box values must be numbers (got {text!r})") from None


def _parse_grid(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise UsageError(f"--grid needs rows,cols (got {text!r})")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise UsageError(f"--grid values must be integers (got {text!r})") from None


def _resolve_potential(args) -> tuple[PotentialSpec, dict]:
    """Exactly one of --expr / --catalog selects the input."""
    has_expr = getattr(args, "expr", None) is not None
    has_catalog = getattr(args, "catalog", None) is not None
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


def _report(seed, input_desc, results, passed) -> dict:
    return {
        "tool_version": __version__,
        "seed": seed,
        "input": input_desc,
        "results": results,
        "pass": passed,
    }


def _render_text(payload: dict) -> str:
    lines = [f"pass: {payload['pass']}"]
    for item in payload["results"]:
        lines.append(json.dumps(item))
    return "\n".join(lines) + "\n"


def _emit(args, payload: dict, csv_rows=None, csv_header=None) -> None:
    fmt = getattr(args, "format", "json")
    if fmt == "json":
        text = json.dumps(payload, indent=2) + "\n"
    elif fmt == "text":
        text = _render_text(payload)
    elif fmt == "csv":
        if csv_rows is None:
            raise UsageError("csv output is only available for grid results")
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(csv_header)
        writer.writerows(csv_rows)
        text = buffer.getvalue()
    else:  # pragma: no cover
        raise UsageError(f"unknown format '{fmt}'")
    out = getattr(args, "out", None)
    if out:
        with open(out, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_parse(args) -> int:
    tree = parse_expression(args.expr)
    payload = _report(
        args.seed, {"expr": args.expr}, [{"normalized": to_text(tree)}], True
    )
    _emit(args, payload)
    return 0


def _grid_centers(box, grid):
    t0, t1, x0, x1 = box
    rows, cols = grid
    dt, dx = (t1 - t0) / rows, (x1 - x0) / cols
    for r in range(rows):
        for c in range(cols):
            yield r, c, (t0 + (r + 0.5) * dt, x0 + (c + 0.5) * dx)


def _cmd_curvature(args) -> int:
    box = _parse_box(args.box)
    results = []
    csv_rows = []
    if getattr(args, "catalog", None) is not None and get_entry(args.catalog).kind == "direct-metric":
        metric = get_entry(args.catalog).metric
        input_desc = {"catalog": args.catalog, "alpha": 0.0}

        def bundle_at(pt):
            return ricci_from_metric(metric, pt)

        in_domain = metric.in_domain
    else:
        spec, input_desc = _resolve_potential(args)
        input_desc["alpha"] = args.alpha

        def bundle_at(pt):
            return alpha_curvature(spec, args.alpha, pt)

        in_domain = spec.in_domain

    if args.grid:
        grid = _parse_grid(args.grid)
        for r, c, pt in _grid_centers(box, grid):
            if not in_domain(pt):
                csv_rows.append((r, c, pt[0], pt[1], "", "", ""))
                results.append({"point": list(pt), "error": "domain"})
                continue
            bundle = bundle_at(pt)
            kappa = bundle.sectional[(0, 1)]
            csv_rows.append(
                (r, c, pt[0], pt[1], repr(kappa), repr(bundle.scalar),
                 repr(bundle.riemann[0, 1, 0, 1]))
            )
            results.append(
                {
                    "point": list(pt),
                    "kappa": kappa,
                    "scalar": bundle.scalar,
                    "r1212": bundle.riemann[0, 1, 0, 1],
                    "ricci": bundle.ricci.tolist(),
                }
            )
        input_desc["grid"] = list(grid)
    else:
        rng = np.random.default_rng(args.seed)
        drawn = 0
        attempts = 0
        while drawn < args.samples and attempts < 100_000:
            attempts += 1
            pt = (float(rng.uniform(box[0], box[1])), float(rng.uniform(box[2], box[3])))
            if not in_domain(pt):
                continue
            drawn += 1
            bundle = bundle_at(pt)
            results.append(
                {
                    "point": list(pt),
                    "kappa": bundle.sectional[(0, 1)],
                    "scalar": bundle.scalar,
                    "r1212": bundle.riemann[0, 1, 0, 1],
                    "ricci": bundle.ricci.tolist(),
                }
            )
        if drawn < args.samples:
            raise SamplingError(f"could not draw {args.samples} in-domain points")
    input_desc["box"] = list(box)
    payload = _report(args.seed, input_desc, results, True)
    _emit(args, payload, csv_rows, ("row", "col", "t", "x", "kappa", "scalar", "r1212"))
    return 0


def _cmd_check(args) -> int:
    if getattr(args, "catalog", None) is not None and getattr(args, "expr", None) is None:
        report = verify_entry(args.catalog, seed=args.seed)
        payload = _report(
            args.seed,
            {"catalog": args.catalog, "lambda": report.expected_lambda},
            [report.to_dict()],
            report.passed,
        )
        _emit(args, payload)
        return 0 if report.passed else 1

    spec, input_desc = _resolve_potential(args)
    if args.lam is None:
        raise UsageError("--lambda is required with --expr")
    lam = args.lam
    box = _parse_box(args.box)
    points = sample_points(spec, box, args.samples, seed=args.seed)
    results = []
    for pt in points:
        residual = pde_residual(spec, lam, pt, relative=True)
        results.append({"point": list(pt), "relative_residual": residual})
    worst = worst_residual(abs(r["relative_residual"]) for r in results)
    passed = worst < PDE_TOLERANCE
    est = None
    try:
        est = lambda_estimate(spec, points)
        summary = {
            "max_relative_residual": worst,
            "lambda_estimate": est.estimate,
            "lambda_deviation": est.deviation,
        }
    except (ExpressionError, ValueError):
        summary = {"max_relative_residual": worst}
    input_desc.update({"lambda": lam, "box": list(box), "samples": args.samples})
    payload = _report(args.seed, input_desc, [summary] + results, passed)
    _emit(args, payload)
    return 0 if passed else 1


def _cmd_convexity(args) -> int:
    spec, input_desc = _resolve_potential(args)
    box = _parse_box(args.box)
    grid = _parse_grid(args.grid)
    report = convexity_scan(spec, box, grid)
    payload = _report(
        args.seed,
        {**input_desc, "box": list(box), "grid": list(grid)},
        [report.to_dict()],
        report.counts["convex"] > 0,
    )
    rows = list(report.csv_rows())
    _emit(args, payload, rows, ("row", "col", "t", "x", "verdict"))
    return 0


def _cmd_symmetry_verify(args) -> int:
    gen = _resolve_generator(args.gen)
    equation, leading = equation_for(args.pde, args.lam if args.lam is not None else 1.0)
    tolerance = LSC_TOLERANCES[args.pde]
    report = lsc_check(
        gen, equation, leading, samples=args.samples, seed=args.seed,
        tolerance=tolerance, label=args.pde,
    )
    payload = _report(
        args.seed,
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
    _emit(args, payload)
    return 0 if report.passed else 1


def _cmd_invariant_check(args) -> int:
    gen = _resolve_generator(args.gen)
    function = parse_expression(args.expr)
    report = invariance_check(gen, function, samples=args.samples, seed=args.seed)
    payload = _report(
        args.seed,
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
    _emit(args, payload)
    return 0 if report.passed else 1


def _cmd_catalog(args) -> int:
    if args.action == "list":
        payload = _report(args.seed, {}, list_entries(), True)
        _emit(args, payload)
        return 0
    if args.action == "export":
        if args.name:
            results = [entry_to_dict(get_entry(args.name))]
        else:
            results = export_catalog()
        payload = _report(args.seed, {"name": args.name}, results, True)
        _emit(args, payload)
        return 0
    # verify
    if args.name:
        reports = [verify_entry(args.name, seed=args.seed)]
    else:
        reports = verify_all(seed=args.seed)
    passed = all(r.passed for r in reports)
    payload = _report(
        args.seed, {"name": args.name}, [r.to_dict() for r in reports], passed
    )
    _emit(args, payload)
    return 0 if passed else 1


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
    p.add_argument("--samples", type=int, default=20, help="sample count (default 20)")
    _add_common(p, box_default="-1,1,-2,-0.1")
    p.set_defaults(handler=_cmd_curvature)

    p = commands.add_parser("check", help="Einstein / constant-curvature residual suite")
    p.add_argument("--expr", help="inline potential in t, x")
    p.add_argument("--catalog", help="catalog entry name")
    p.add_argument("--lambda", dest="lam", type=float, default=None, help="curvature parameter")
    p.add_argument("--samples", type=int, default=100, help="sample count (default 100)")
    _add_common(p, box_default="-1,1,-1,1")
    p.set_defaults(handler=_cmd_check)

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
    v.add_argument("--samples", type=int, default=200, help="on-shell samples (default 200)")
    _add_common(v)
    v.set_defaults(handler=_cmd_symmetry_verify)

    p = commands.add_parser("invariant", help="invariant-function checks")
    invariant_sub = p.add_subparsers(dest="action", required=True)
    c = invariant_sub.add_parser("check", help="verify X(f) = 0 at random points")
    c.add_argument("--gen", required=True, help="generator name or inline definition")
    c.add_argument("--expr", required=True, help="candidate invariant in t, x, u")
    c.add_argument("--samples", type=int, default=200, help="sample count (default 200)")
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


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    argv = _normalize_argv(list(argv))
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors, 0 for --help
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ParseError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, SingularMetricError, SamplingError, ExpressionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
