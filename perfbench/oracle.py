"""Self-test of the ``unseen`` known answers with sympy, not einstat.

    python3 perfbench/oracle.py [--seeds 1 2 3] [--passes 1]

For every item of the first ``--passes`` passes of each seed it checks,
with exact derivatives from sympy evaluated at 30 significant digits:

* every generated point lies inside the domain (every constraint > 0);
* a clean copy satisfies each check its entry declares, with the stated
  lambda / c: convex Hessian, relative PDE residual below 1e-12, constant
  curvature, zero R1212 for flat entries, a singular Hessian for the
  degenerate entry;
* a perturbed copy fails at least one declared check by a wide margin
  (convexity lost, PDE residual above 1e-4, or Hessian far from
  singular), so its known answer FAIL is not an accident of tolerance;
* a scaling potential is convex at its points and has a Ricci tensor far
  from zero, so comparing the routes at alpha = 1/2 must disagree.

Exits 0 when every item holds, 1 otherwise.  The items are generated by
``workloads.py`` from the catalog export; the checks here use sympy only.
"""

from __future__ import annotations

import argparse
import sys
from itertools import product
from pathlib import Path

import numpy as np
import sympy
from sympy.parsing.sympy_parser import convert_xor, parse_expr, standard_transformations

DIGITS = 30
CLEAN_RESIDUAL = 1e-12
PERTURBED_RESIDUAL = 1e-4
SINGULAR = 1e-15
NONSINGULAR = 1e-6
RICCI_FLOOR = 1e-3


def to_sympy(text: str, names: list[str]):
    local = {name: sympy.Symbol(name) for name in names}
    local.update(ln=sympy.log, exp=sympy.exp, sqrt=sympy.sqrt, pi=sympy.pi, euler_gamma=sympy.EulerGamma)
    return parse_expr(text, local_dict=local, transformations=standard_transformations + (convert_xor,))


def at(expr, symbols, point) -> sympy.Float:
    return sympy.N(expr.subs(dict(zip(symbols, point))), DIGITS)


def planar_findings(copy) -> dict:
    """Which declared checks hold at every point, and by what margin."""
    t, x = sympy.symbols("t x")
    psi = to_sympy(copy.psi, ["t", "x"])
    constraints = [to_sympy(c, ["t", "x"]) for c in copy.constraints]
    d = {
        key: sympy.diff(psi, *key)
        for key in [(t, t), (t, x), (x, x), (t, t, t), (t, t, x), (t, x, x), (x, x, x)]
    }
    found = {"in_domain": True, "convex": True, "residual": 0.0, "flat": 0.0, "relative_det": 0.0}
    for p in copy.points:
        found["in_domain"] &= all(at(c, (t, x), p) > 0 for c in constraints)
        v = {key: at(e, (t, x), p) for key, e in d.items()}
        ptt, ptx, pxx = v[(t, t)], v[(t, x)], v[(x, x)]
        pttt, pttx, ptxx, pxxx = v[(t, t, t)], v[(t, t, x)], v[(t, x, x)], v[(x, x, x)]
        det = ptt * pxx - ptx**2
        scale = max(abs(ptt), abs(ptx), abs(pxx))
        found["convex"] &= bool(ptt + pxx > 0 and det > 0)
        lhs = (
            ptt * (pttx * pxxx - ptxx**2)
            - ptx * (pttt * pxxx - pttx * ptxx)
            + pxx * (pttt * ptxx - pttx**2)
        )
        rhs = 4 * sympy.Float(copy.lam, DIGITS) * det**2
        residual = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1)
        found["residual"] = max(found["residual"], float(residual))
        found["flat"] = max(found["flat"], float(abs(lhs)))
        found["relative_det"] = max(found["relative_det"], float(abs(det) / scale**2))
    return found


def planar_verdict(copy) -> list[str]:
    f = planar_findings(copy)
    problems = [] if f["in_domain"] else ["a point is outside the domain"]
    checks = set(copy.checks)
    if not copy.perturbed:
        if "convexity" in checks and not f["convex"]:
            problems.append("not convex")
        if checks & {"pde-residual", "lambda-estimate"} and f["residual"] > CLEAN_RESIDUAL:
            problems.append(f"PDE residual {f['residual']:.2e} with lambda/c")
        if "flatness" in checks and f["flat"] > CLEAN_RESIDUAL:
            problems.append(f"curvature numerator {f['flat']:.2e} on a flat entry")
        if "degenerate-metric" in checks and f["relative_det"] > SINGULAR:
            problems.append(f"relative det {f['relative_det']:.2e} on the degenerate entry")
    else:
        decisive = (
            ("convexity" in checks and not f["convex"])
            or (checks & {"pde-residual", "lambda-estimate", "flatness"} and f["residual"] > PERTURBED_RESIDUAL)
            or ("degenerate-metric" in checks and f["relative_det"] > NONSINGULAR)
        )
        if not decisive:
            problems.append(f"perturbation fails no check decisively: {f}")
    return problems


def scaling_verdict(item) -> list[str]:
    n = item.dimension
    names = [f"theta{i + 1}" for i in range(n)]
    symbols = sympy.symbols(names)
    psi = to_sympy(item.psi, names)
    form = to_sympy(item.constraint, names)
    problems = []
    for p in item.points:
        if not at(form, symbols, p) > 0:
            problems.append(f"point {p} outside the domain")
        g = np.array([[float(at(sympy.diff(psi, a, b), symbols, p)) for b in symbols] for a in symbols])
        if np.min(np.linalg.eigvalsh(g)) <= 0:
            problems.append(f"not convex at {p}")
        tens = np.empty((n, n, n))
        for i, j, k in product(range(n), repeat=3):
            tens[i, j, k] = float(at(sympy.diff(psi, symbols[i], symbols[j], symbols[k]), symbols, p))
        ginv = np.linalg.inv(g)
        riemann = 0.25 * (
            np.einsum("kmi,jln,mn->ijkl", tens, tens, ginv)
            - np.einsum("kmj,iln,mn->ijkl", tens, tens, ginv)
        )
        ricci = np.einsum("iklj,kl->ij", riemann, ginv)
        if np.max(np.abs(ricci)) < RICCI_FLOOR:
            problems.append(f"Ricci tensor nearly zero at {p}: alpha = 1/2 could agree")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="sympy self-test of the unseen known answers")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    parser.add_argument("--passes", type=int, default=1)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(Path.cwd() / "src"))
    import workloads

    checked = bad = 0
    for seed in args.seeds:
        for index in range(args.passes):
            for k, item in enumerate(workloads.unseen_stream(seed, index)):
                if isinstance(item, workloads.PlanarCopy):
                    label = f"{'perturbed ' if item.perturbed else ''}copy of {item.source}"
                    problems = planar_verdict(item)
                else:
                    label = f"n={item.dimension} scaling potential (alpha={item.alpha})"
                    problems = scaling_verdict(item)
                checked += 1
                if problems:
                    bad += 1
                    print(f"seed {seed} pass {index} item {k} ({label}): {'; '.join(problems)}")
    print(f"oracle: {checked} items checked, {bad} with problems")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
