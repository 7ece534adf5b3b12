"""The three workloads, their seeded inputs and their known answers.

Every input is generated here from the run's seed; the package receives
only texts, names and points.  Each item carries its known answer, and a
verdict that raises or disagrees with it counts as failed.  Negative items
(known non-symmetries, perturbed potentials, a curvature route compared
at the wrong alpha) stay in every pass so that a checker that always says
PASS is caught.

Why each workload exists, and its size per pass (the base of
``verdicts_per_s``):

``catalog``
    ``einstat catalog verify <entry> --seed s`` through ``cli.main`` for
    all 15 entries, one seed per pass, cycling through 3 seeds derived
    from the run seed; 100 sample points per entry.  The first pass has
    empty caches, later passes are warm.  About 90 % of a warm pass is
    ``expressions.evaluate`` walking large derivative trees (a 16-node
    potential grows to a 2 647-node cubic-tensor component), so batched
    or compiled evaluation shows here.  15 verdicts per pass.
``symmetry``
    ``symmetry verify`` of H1..H6 on ``heat`` and X1..X9 on ``txpeq``,
    three known non-symmetries, two generators whose computed answer is
    PASS (``X4 + 0.1 x d/dt`` and ``xi_t = x + t``), and three
    ``invariant check`` runs (two PASS, one FAIL), all through
    ``cli.main``; 200 on-shell samples each, at each of 3 seeds derived
    from the run seed.  Many small prolonged-coefficient trees with a
    fresh RNG per sample: per-call overhead, not tree size.  69 verdicts
    per pass.
``unseen``
    A stream of potentials the process has never seen, new in every pass,
    with the package's caches cleared between passes: every 2-D catalog
    potential entry (14, the degenerate ``product-exponential`` too)
    under a random invertible affine map, a positive scale ``c`` and an
    added linear term, checked with the checks its entry declares at 8
    mapped points (known answer PASS, with lambda/c); every other entry
    again, alternating halves between passes, with a small added cubic
    term (known answer FAIL, 7 per pass); and four potentials
    ``sum exp(theta_i) - ln(linear form)``, n = 3, 3, 4, 5, on which
    ``alpha_curvature`` and ``ricci_from_metric`` are compared at 3
    points, at alpha = 0 (agree) and, for one n = 3 potential, at
    alpha = 1/2 (disagree).  Parse, differentiate and simplify dominate;
    any per-expression compile cost shows here as a loss.  25 verdicts
    per pass.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import re
import sys
from dataclasses import dataclass
from functools import partial
from typing import Callable

CATALOG_SEEDS = 3
SYMMETRY_SEEDS = 3
UNSEEN_POINTS = 8
UNSEEN_PERTURBED = 7
#: (dimension, alpha) of the route comparisons; only alpha = 0 agrees.
UNSEEN_ROUTE_CASES = ((3, 0.0), (3, 0.5), (4, 0.0), (5, 0.0))
UNSEEN_ND_POINTS = 3

#: Relative perturbation added as ``eps * c * t^3`` to the negative copies.
PERTURBATION = 0.05

#: Routes agree when max |Ric_a - Ric_b| <= ROUTE_TOL * max |Ric_b|.
ROUTE_TOL = 1e-8

#: Absolute tolerance on the lambda estimate, as in ``catalog.verify_entry``.
LAMBDA_TOL = 1e-6


@dataclass
class Item:
    """One verdict: what to run and the answer it must give."""

    label: str
    expected: bool
    run: Callable  # run(tracer) -> bool, the program's verdict


@dataclass
class Workload:
    """A workload; why each exists is in the module docstring."""

    name: str
    sizes: dict  # input sizes per pass, the base of verdicts_per_s
    inputs: Callable  # inputs(seed, pass_index) -> list[Item]
    cold_every_pass: bool
    #: Percentile reported as ``verdict_s.tail``.  Fixed per workload, so
    #: that a faster commit, which makes more verdicts in a run, is not
    #: measured at a higher percentile; chosen inside the share of the
    #: workload's slowest kind of verdict and so that a 25 s run leaves at
    #: least 10 verdicts beyond it down to about half the reference speed
    #: of ``clock.py``.  ``run.py`` fails a run that leaves fewer.
    tail_percentile: int


def derived_seeds(name: str, seed: int, count: int) -> list[int]:
    rng = random.Random(f"{name}:{seed}")
    return [rng.randrange(2**31) for _ in range(count)]


def _num(value: float) -> str:
    return repr(float(value)) if value >= 0 else f"({float(value)!r})"


# ---------------------------------------------------------------------------
# CLI verdicts
# ---------------------------------------------------------------------------

class VerdictError(Exception):
    """The program gave no usable verdict."""


def cli_verdict(tr, argv: list[str]) -> bool:
    """Run ``cli.main`` with stdout and stderr captured in memory; the
    verdict is the report's ``pass`` field, which the exit code must match."""
    from einstat import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = tr.call("cli.main", cli.main, argv)
    if code not in (0, 1):
        raise VerdictError(f"exit code {code}: {err.getvalue().strip()}")
    passed = json.loads(out.getvalue())["pass"]
    if code != (0 if passed else 1):
        raise VerdictError(f"exit code {code} disagrees with pass={passed}")
    return passed


def _catalog_inputs(seed: int, index: int) -> list[Item]:
    from einstat import catalog

    pass_seed = derived_seeds("catalog", seed, CATALOG_SEEDS)[index % CATALOG_SEEDS]
    return [
        Item(
            f"catalog verify {name} --seed {pass_seed}",
            True,
            partial(cli_verdict, argv=["catalog", "verify", name, "--seed", str(pass_seed)]),
        )
        for name in catalog.entry_names()
    ]


#: (pde, generator, known answer).  The README's computed answers are used
#: where they contradict the pinned acceptance claims.
SYMMETRY_CASES = (
    *[("heat", f"H{i}", True) for i in range(1, 7)],
    *[("txpeq", f"X{i}", True) for i in range(1, 10)],
    ("txpeq", "eta = u", False),
    ("txpeq", "xi_t = t^2", False),
    ("heat", "xi_t = t^2", False),
    ("txpeq", "xi_t = t + 0.1*x", True),
    ("txpeq", "xi_t = x + t", True),
)

#: (generator, candidate invariant, known answer).
INVARIANT_CASES = (
    ("H4", "x/sqrt(t)", True),
    ("xi_t = 2*t; xi_x = x; eta = 3*u", "u/t^1.5", True),
    ("xi_t = 2*t; xi_x = x; eta = 3*u", "u/t^3", False),
)


def _symmetry_inputs(seed: int, index: int) -> list[Item]:
    # every pass covers all derived seeds: the sample points, and with them
    # the work of a check, vary by seed, and a one-seed pass is short
    items = []
    for pass_seed in map(str, derived_seeds("symmetry", seed, SYMMETRY_SEEDS)):
        for pde, gen, expected in SYMMETRY_CASES:
            argv = ["symmetry", "verify", "--pde", pde, "--gen", gen, "--seed", pass_seed]
            items.append(Item(" ".join(argv), expected, partial(cli_verdict, argv=argv)))
        for gen, expr, expected in INVARIANT_CASES:
            argv = ["invariant", "check", "--gen", gen, "--expr", expr, "--seed", pass_seed]
            items.append(Item(" ".join(argv), expected, partial(cli_verdict, argv=argv)))
    return items


# ---------------------------------------------------------------------------
# Unseen potentials
# ---------------------------------------------------------------------------

# an identifier not glued to a preceding digit, so "1e-05" stays a number
_IDENT = re.compile(r"(?<![\w.])[A-Za-z_]\w*")


def substitute_names(text: str, mapping: dict[str, str]) -> str:
    return _IDENT.sub(lambda m: mapping.get(m.group(0), m.group(0)), text)


@dataclass
class PlanarCopy:
    """A 2-D potential ``c psi(A theta + b) + l . theta [+ eps c t^3]``."""

    source: str
    psi: str
    constraints: list[str]
    lam: float
    checks: list[str]
    points: list[tuple[float, float]]
    perturbed: bool


@dataclass
class ScalingPotential:
    """``sum exp(theta_i) - ln(a . theta + a0)`` on ``[-1/2, 1/2]^n``."""

    psi: str
    constraint: str
    dimension: int
    points: list[tuple[float, ...]]
    alpha: float


def _random_map(rng: random.Random):
    """An invertible 2x2 map with |det| >= 1/2 and condition number <= 4."""
    while True:
        a = [[rng.uniform(-1.5, 1.5) for _ in range(2)] for _ in range(2)]
        det = a[0][0] * a[1][1] - a[0][1] * a[1][0]
        frob2 = sum(v * v for row in a for v in row)
        # sigma_max/sigma_min from the Frobenius norm and |det| = s1 s2
        disc = math.sqrt(max(frob2 * frob2 - 4 * det * det, 0.0))
        if abs(det) >= 0.5 and (frob2 + disc) / (frob2 - disc) <= 16.0:
            return a, det


def planar_copy(entry: dict, rng: random.Random, perturbed: bool) -> PlanarCopy:
    a, det = _random_map(rng)
    b = [rng.uniform(-1.0, 1.0) for _ in range(2)]
    c = rng.uniform(0.5, 2.0)
    linear = [rng.uniform(-1.0, 1.0) for _ in range(2)]
    mapping = {name: _num(value) for name, value in entry["constants"].items()}
    for i, name in enumerate(("theta1", "theta2")):
        mapping[name] = f"({_num(a[i][0])}*t + {_num(a[i][1])}*x + {_num(b[i])})"
    psi = (
        f"{_num(c)}*({substitute_names(entry['expression'], mapping)})"
        f" + {_num(linear[0])}*t + {_num(linear[1])}*x"
    )
    if perturbed:
        psi += f" + {_num(PERTURBATION * c)}*t^3"
    t0, t1, x0, x1 = entry["box"]
    points = []
    for _ in range(UNSEEN_POINTS):
        p = (rng.uniform(t0, t1) - b[0], rng.uniform(x0, x1) - b[1])
        points.append(
            ((a[1][1] * p[0] - a[0][1] * p[1]) / det, (a[0][0] * p[1] - a[1][0] * p[0]) / det)
        )
    return PlanarCopy(
        entry["name"],
        psi,
        [substitute_names(text, mapping) for text in entry["constraints"]],
        entry["lambda"] / c,
        list(entry["checks"]),
        points,
        perturbed,
    )


def scaling_potential(n: int, rng: random.Random, alpha: float, points: int) -> ScalingPotential:
    coeffs = [rng.uniform(0.5, 1.5) for _ in range(n)]
    offset = 0.5 * sum(coeffs) + rng.uniform(0.2, 1.0)
    form = " + ".join(f"{_num(v)}*theta{i + 1}" for i, v in enumerate(coeffs))
    form += f" + {_num(offset)}"
    psi = " + ".join(f"exp(theta{i + 1})" for i in range(n)) + f" - ln({form})"
    pts = [tuple(rng.uniform(-0.5, 0.5) for _ in range(n)) for _ in range(points)]
    return ScalingPotential(psi, form, n, pts, alpha)


def potential_entries() -> list[dict]:
    from einstat import catalog

    return [e for e in catalog.export_catalog() if e["kind"] == "potential"]


def unseen_stream(seed: int, index: int) -> list:
    """Pass ``index`` of the stream: planar copies, then scaling potentials."""
    rng = random.Random(f"unseen:{seed}:{index}")
    entries = potential_entries()
    out: list = [planar_copy(e, rng, False) for e in entries]
    # alternate halves, so that every seed perturbs the same entries in a pass
    out += [planar_copy(e, rng, True) for e in entries[index % 2 :: 2][:UNSEEN_PERTURBED]]
    for n, alpha in UNSEEN_ROUTE_CASES:
        out.append(scaling_potential(n, rng, alpha, UNSEEN_ND_POINTS))
    return out


def planar_verdict(tr, copy: PlanarCopy) -> bool:
    """The checks ``catalog.verify_entry`` runs for the source entry, with
    its tolerances, applied to the copy through the public functions."""
    from einstat import catalog, geometry, planar
    import numpy as np

    spec = tr.call(
        "geometry.PotentialSpec.create",
        geometry.PotentialSpec.create,
        f"copy-of-{copy.source}",
        2,
        copy.psi,
        constraints=copy.constraints,
    )
    pts = copy.points
    for check in copy.checks:
        if check == catalog.CHECK_CONVEXITY:
            ok = all(
                tr.call("planar.convexity_check", planar.convexity_check, spec, p) == planar.CONVEX
                for p in pts
            )
        elif check == catalog.CHECK_PDE_RESIDUAL:
            ok = all(
                abs(tr.call("planar.pde_residual", planar.pde_residual, spec, copy.lam, p, relative=True))
                < catalog.PDE_RESIDUAL_TOL
                for p in pts
            )
        elif check == catalog.CHECK_LAMBDA:
            est = tr.call("planar.lambda_estimate", planar.lambda_estimate, spec, pts)
            ok = est.deviation < catalog.LAMBDA_DEVIATION_TOL and abs(est.estimate - copy.lam) < LAMBDA_TOL
        elif check == catalog.CHECK_FLATNESS:
            ok = all(abs(tr.call("planar.r1212", planar.r1212, spec, p)) < catalog.FLATNESS_TOL for p in pts)
        elif check == catalog.CHECK_DEGENERATE:
            metric = tr.call("geometry.fisher_metric", geometry.fisher_metric, spec)
            ok = True
            for p in pts:
                g = tr.call("geometry.MetricField.evaluate", metric.evaluate, p)
                scale = float(np.max(np.abs(g)))
                ok = ok and scale > 0 and abs(float(np.linalg.det(g))) / scale**2 < catalog.DEGENERACY_TOL
        else:
            raise VerdictError(f"unknown check {check!r}")
        if not ok:
            return False
    return True


def routes_verdict(tr, item: ScalingPotential) -> bool:
    """Whether the cubic-tensor route at ``alpha`` and the Levi-Civita route
    give the same Ricci tensor at every point."""
    from einstat import geometry
    import numpy as np

    spec = tr.call(
        "geometry.PotentialSpec.create",
        geometry.PotentialSpec.create,
        f"scaling-n{item.dimension}",
        item.dimension,
        item.psi,
        constraints=[item.constraint],
    )
    metric = tr.call("geometry.fisher_metric", geometry.fisher_metric, spec)
    for p in item.points:
        cubic = tr.call("geometry.alpha_curvature", geometry.alpha_curvature, spec, item.alpha, p).ricci
        levi = tr.call("geometry.ricci_from_metric", geometry.ricci_from_metric, metric, p).ricci
        if not np.max(np.abs(cubic - levi)) <= ROUTE_TOL * np.max(np.abs(levi)):
            return False
    return True


def _unseen_inputs(seed: int, index: int) -> list[Item]:
    items = []
    for k, thing in enumerate(unseen_stream(seed, index)):
        if isinstance(thing, PlanarCopy):
            kind = "perturbed copy" if thing.perturbed else "copy"
            label = f"unseen {seed}/{index}/{k}: {kind} of {thing.source}"
            items.append(Item(label, not thing.perturbed, partial(planar_verdict, copy=thing)))
        else:
            label = (
                f"unseen {seed}/{index}/{k}: routes at alpha={thing.alpha}"
                f" on n={thing.dimension} scaling potential"
            )
            items.append(Item(label, thing.alpha == 0.0, partial(routes_verdict, item=thing)))
    return items


WORKLOADS = {
    "catalog": Workload(
        "catalog",
        {"entries": 15, "seeds": CATALOG_SEEDS, "points_per_entry": 100, "verdicts_per_pass": 15},
        _catalog_inputs,
        False,
        # the slowest entry is 1/15 of the verdicts: top 4 % lies inside it
        96,
    ),
    "symmetry": Workload(
        "symmetry",
        {
            "generators": len(SYMMETRY_CASES),
            "invariants": len(INVARIANT_CASES),
            "seeds": SYMMETRY_SEEDS,
            "samples_per_check": 200,
            "verdicts_per_pass": SYMMETRY_SEEDS * (len(SYMMETRY_CASES) + len(INVARIANT_CASES)),
        },
        _symmetry_inputs,
        False,
        # the slowest case is 3/69 of the verdicts: top 3 % lies inside it
        97,
    ),
    "unseen": Workload(
        "unseen",
        {
            "copies": 14,
            "perturbed": UNSEEN_PERTURBED,
            "points_per_copy": UNSEEN_POINTS,
            "route_checks": [n for n, _ in UNSEEN_ROUTE_CASES],
            "points_per_route_check": UNSEEN_ND_POINTS,
            "verdicts_per_pass": 14 + UNSEEN_PERTURBED + len(UNSEEN_ROUTE_CASES),
        },
        _unseen_inputs,
        True,
        # the n = 5 route check is the top 4 %, too few verdicts to be the
        # tail; top 7 % lies inside the n = 4 check, the next 4 %
        93,
    ),
}


def clear_caches() -> None:
    """Empty every ``functools`` cache defined in the einstat package."""
    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("einstat.") and module is not None:
            for obj in vars(module).values():
                if hasattr(obj, "cache_clear") and getattr(obj, "__module__", None) == module_name:
                    obj.cache_clear()
