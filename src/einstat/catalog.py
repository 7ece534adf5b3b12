"""Built-in library of verified constant-curvature potential families.

Each entry fixes a potential (or a direct metric matrix), its constants,
its domain constraints, the curvature parameter it realizes, and a box
on which convexity was established by scanning.  ``verify_entry`` reruns
the checks an entry declares; the whole catalog doubles as a regression
suite.

Stored constants deviate from the naive choice wherever convexity forces
it: every log-family entry needs a positive curvature parameter, the
four logarithm-of-exponential families need ``c1 = -1``, and the two
families with a ``t ln x`` style cross term need ``a = -1``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

from .expressions import ExpressionError, to_text, worst_residual
from .geometry import (
    MetricField,
    PotentialSpec,
    metric_as_text,
    ricci_over_points,
)
from .planar import CONVEX, DEFAULT_SEED, evaluate_points, sample_points

# check identifiers an entry may declare
CHECK_CONVEXITY = "convexity"
CHECK_PDE_RESIDUAL = "pde-residual"
CHECK_LAMBDA = "lambda-estimate"
CHECK_FLATNESS = "flatness"
CHECK_EINSTEIN = "einstein-residual"
CHECK_DEGENERATE = "degenerate-metric"

PDE_RESIDUAL_TOL = 1e-7
LAMBDA_DEVIATION_TOL = 1e-7
FLATNESS_TOL = 1e-9
EINSTEIN_TOL = 1e-9
DEGENERACY_TOL = 1e-12


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    kind: str                       # "potential" | "direct-metric"
    potential: PotentialSpec | None
    metric: MetricField | None
    expected_lambda: float
    flat: bool
    box: tuple[float, float, float, float]
    samples: int
    checks: tuple[str, ...]
    note: str

    def source(self):
        return self.potential if self.kind == "potential" else self.metric


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: dict


@dataclass
class VerificationReport:
    entry: str
    passed: bool
    expected_lambda: float
    checks: list[CheckResult]

    def to_dict(self) -> dict:
        return {
            "entry": self.entry,
            "pass": self.passed,
            "lambda": self.expected_lambda,
            "checks": [
                {"name": c.name, "pass": c.passed, **c.detail} for c in self.checks
            ],
        }


def _potential_entry(
    name: str,
    psi: str,
    box,
    lam: float,
    constants=None,
    constraints=(),
    flat=False,
    checks=None,
    samples=100,
    note="",
) -> CatalogEntry:
    spec = PotentialSpec.create(name, 2, psi, constants=constants, constraints=constraints)
    if checks is None:
        checks = [CHECK_CONVEXITY, CHECK_PDE_RESIDUAL, CHECK_LAMBDA]
        if flat:
            checks.append(CHECK_FLATNESS)
    return CatalogEntry(
        name, "potential", spec, None, lam, flat, tuple(box), samples, tuple(checks), note
    )


def _build_entries() -> dict[str, CatalogEntry]:
    entries: list[CatalogEntry] = []

    entries.append(
        _potential_entry(
            "normal-natural",
            "-(t^2)/(4*x) - ln(-x)/2 + ln(pi)/2",
            box=(-1.0, 1.0, -2.0, -0.1),
            lam=0.5,
            constraints=["-x"],
            note="normal distribution in natural coordinates; constant sectional curvature -1/2",
        )
    )

    weibull = MetricField.create(
        [
            ["x^2/t^2", "-(1 - euler_gamma)/t"],
            ["-(1 - euler_gamma)/t", "(euler_gamma^2 - 2*euler_gamma + pi^2/6 + 1)/x^2"],
        ],
        constraints=["t", "x"],
        name="weibull-metric",
    )
    entries.append(
        CatalogEntry(
            "weibull-metric",
            "direct-metric",
            None,
            weibull,
            # computed curvature: Ric = -(6/pi^2) g, so the residual
            # Ric + lambda g vanishes at lambda = +6/pi^2
            6.0 / math.pi ** 2,
            False,
            (0.5, 3.0, 0.5, 3.0),
            100,
            (CHECK_EINSTEIN,),
            "scale/shape-parameter metric of the Weibull family; "
            "constant sectional curvature -6/pi^2",
        )
    )

    entries.append(
        _potential_entry(
            "flat-additive",
            "exp(t) + exp(x)",
            box=(-1.0, 1.0, -1.0, 1.0),
            lam=0.0,
            flat=True,
            note="separated sum of convex exponentials; curvature vanishes identically",
        )
    )
    entries.append(
        _potential_entry(
            "flat-additive-travelingwave",
            "exp(t) + exp(t - c*x)",
            box=(-1.0, 1.0, -1.0, 1.0),
            lam=0.0,
            constants={"c": 1.0},
            flat=True,
            note="convex sum of an exponential and a traveling exponential; flat",
        )
    )
    entries.append(
        _potential_entry(
            "product-exponential",
            "exp(t) * (c3*exp(c2*x))",
            box=(-1.0, 1.0, -1.0, 1.0),
            lam=0.0,
            constants={"c2": 1.0, "c3": 1.0},
            flat=True,
            checks=[CHECK_PDE_RESIDUAL, CHECK_DEGENERATE],
            note="product of exponentials; solves the flatness equation but its "
            "Hessian is everywhere singular (a traveling wave in disguise), so "
            "no metric quantities exist",
        )
    )
    entries.append(
        _potential_entry(
            "product-power",
            "(t - c5)^c4 * (x - c3)^2",
            box=(0.5, 3.0, 0.5, 3.0),
            lam=0.0,
            constants={"c4": -0.5, "c5": 0.0, "c3": 0.0},
            constraints=["t", "x^2"],
            flat=True,
            note="power-function product, convex for t > 0 with exponent -1/2; flat",
        )
    )
    entries.append(
        _potential_entry(
            "product-cosh",
            "(c1^2*exp(c3*t) + c2^2*exp(-(c3*t))) * (c4^2*exp(c6*x) + c5^2*exp(-(c6*x)))",
            box=(-1.0, 1.0, -1.0, 1.0),
            lam=0.0,
            constants={"c1": 1.0, "c2": 1.0, "c3": 1.0, "c4": 1.0, "c5": 1.0, "c6": 1.0},
            flat=True,
            note="product of symmetric exponential pairs (cosh-type); convex everywhere, flat",
        )
    )

    # group-invariant families; all need a positive curvature parameter to
    # admit a convexity domain, and the log families need c1 = -1
    log_constants = {"a": 1.0, "c1": -1.0, "c2": 2.0, "c3": 0.0, "lam": 1.0}
    entries.append(
        _potential_entry(
            "invariant-X4aX2",
            "-1/(4*lam) * ln(c2*exp(c1*x - c1*a*ln(t)) - 1) + c3",
            box=(0.5, 2.0, -2.0, -0.5),
            lam=1.0,
            constants=log_constants,
            constraints=["t", "c2*exp(c1*x - c1*a*ln(t)) - 1"],
            note="invariant under t-dilation joined with x-translation",
        )
    )
    entries.append(
        _potential_entry(
            "invariant-X5aX1",
            "-1/(4*lam) * ln(c2*exp(c1*t - c1*a*ln(x)) - 1) + c3",
            box=(-2.0, -0.5, 0.5, 2.0),
            lam=1.0,
            constants=log_constants,
            constraints=["x", "c2*exp(c1*t - c1*a*ln(x)) - 1"],
            note="invariant under x-dilation joined with t-translation",
        )
    )
    entries.append(
        _potential_entry(
            "invariant-X6aX2",
            "-1/(4*lam) * ln(c2*exp(c1*x^2 - 2*c1*a*t) - 1) + c3",
            box=(0.5, 2.0, -1.0, 1.0),
            lam=1.0,
            constants=log_constants,
            constraints=["c2*exp(c1*x^2 - 2*c1*a*t) - 1"],
            note="invariant under the x-into-t shear joined with x-translation",
        )
    )
    entries.append(
        _potential_entry(
            "invariant-X7aX1",
            "-1/(4*lam) * ln(c2*exp(c1*t^2 - 2*c1*a*x) - 1) + c3",
            box=(-1.0, 1.0, 0.5, 2.0),
            lam=1.0,
            constants=log_constants,
            constraints=["c2*exp(c1*t^2 - 2*c1*a*x) - 1"],
            note="invariant under the t-into-x shear joined with t-translation",
        )
    )
    # cross-term families; the t ln x coefficient is 1/a (solving the reduced
    # equation requires it), and convexity forces a < 0
    cross_constants = {"a": -1.0, "c1": 1.0, "c2": 2.0, "c3": 0.0, "lam": 1.0}
    entries.append(
        _potential_entry(
            "invariant-X8aX5",
            "((t - c1*a)*ln(t - c1*a) - (1 + 4*c1*lam)*t*ln(t))/(4*a*c1*lam)"
            " + t*ln(x)/a + c2*t + c3",
            box=(0.5, 3.0, 0.5, 3.0),
            lam=1.0,
            constants=cross_constants,
            constraints=["t", "x", "t - c1*a"],
            note="invariant under vertical t-shift joined with x-dilation",
        )
    )
    entries.append(
        _potential_entry(
            "invariant-X8aX6",
            "((x - c1)*ln(x - c1) - x*ln(x))/(4*c1*lam) + t^2/(2*a*x) + c2*x + c3",
            box=(-2.0, 2.0, 1.5, 4.0),
            lam=1.0,
            constants={"a": 1.0, "c1": 1.0, "c2": 2.0, "c3": 0.0, "lam": 1.0},
            constraints=["x", "x - c1"],
            note="invariant under vertical t-shift joined with the x-into-t shear",
        )
    )
    entries.append(
        _potential_entry(
            "invariant-X9aX4",
            "((x - c1*a)*ln(x - c1*a) - (1 + 4*c1*lam)*x*ln(x))/(4*a*c1*lam)"
            " + x*ln(t)/a + c2*x + c3",
            box=(0.5, 3.0, 0.5, 3.0),
            lam=1.0,
            constants=cross_constants,
            constraints=["t", "x", "x - c1*a"],
            note="invariant under vertical x-shift joined with t-dilation",
        )
    )
    entries.append(
        _potential_entry(
            "invariant-X9aX7",
            "((t - c1)*ln(t - c1) - t*ln(t))/(4*c1*lam) + x^2/(2*a*t) + c2*t + c3",
            box=(1.5, 4.0, -2.0, 2.0),
            lam=1.0,
            constants={"a": 1.0, "c1": 1.0, "c2": 2.0, "c3": 0.0, "lam": 1.0},
            constraints=["t", "t - c1"],
            note="invariant under vertical x-shift joined with the t-into-x shear",
        )
    )

    return {entry.name: entry for entry in entries}


_ENTRIES = _build_entries()


def traveling_wave(c: float) -> PotentialSpec:
    """Pure traveling-wave potential; its Hessian is singular for every c."""
    return PotentialSpec.create(
        f"traveling-wave-c{c:g}", 2, "exp(t - c*x)", constants={"c": float(c)}
    )


def entry_names() -> list[str]:
    return list(_ENTRIES)


def get_entry(name: str) -> CatalogEntry:
    try:
        return _ENTRIES[name]
    except KeyError:
        raise KeyError(f"unknown catalog entry '{name}'") from None


def _summary(entry: CatalogEntry) -> dict:
    return {
        "name": entry.name,
        "kind": entry.kind,
        "lambda": entry.expected_lambda,
        "flat": entry.flat,
        "box": list(entry.box),
        "samples": entry.samples,
        "checks": list(entry.checks),
        "note": entry.note,
    }


def list_entries() -> list[dict]:
    """Deterministic summary of every entry."""
    return [_summary(e) for e in _ENTRIES.values()]


def entry_to_dict(entry: CatalogEntry) -> dict:
    """JSON-ready export of one entry: its summary plus its expressions."""
    out = _summary(entry)
    if entry.potential is not None:
        out["expression"] = to_text(entry.potential.psi)
        out["constants"] = dict(entry.potential.constants)
        out["constraints"] = [to_text(c) for c in entry.potential.constraints]
    if entry.metric is not None:
        out["metric"] = metric_as_text(entry.metric)
        out["constraints"] = [to_text(c) for c in entry.metric.constraints]
    return out


def export_catalog() -> list[dict]:
    return [entry_to_dict(e) for e in _ENTRIES.values()]


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------

def verify_entry(name: str, seed: int = DEFAULT_SEED) -> VerificationReport:
    """Re-run the stored checks of one entry; never raises on check failure.

    A potential entry is evaluated once at its sample points, and every
    check reduces those values; a direct metric's curvature is contracted
    once over its sample points.
    """
    entry = get_entry(name)
    results: list[CheckResult] = []

    if entry.kind == "potential":
        points = sample_points(entry.potential, entry.box, entry.samples, seed=seed)
        values = evaluate_points(entry.potential, points)
        for check in entry.checks:
            if check == CHECK_CONVEXITY:
                bad = sum(1 for verdict in values.convexity() if verdict != CONVEX)
                results.append(
                    CheckResult(check, bad == 0, {"points": len(points), "failures": bad})
                )
            elif check == CHECK_PDE_RESIDUAL:
                residuals = values.pde_residuals(entry.expected_lambda, relative=True)
                worst = worst_residual(np.abs(residuals).tolist())
                results.append(
                    CheckResult(check, worst < PDE_RESIDUAL_TOL, {"max_residual": worst})
                )
            elif check == CHECK_LAMBDA:
                est = values.lambda_estimate()
                ok = (
                    est.deviation < LAMBDA_DEVIATION_TOL
                    and abs(est.estimate - entry.expected_lambda) < 1e-6
                )
                results.append(
                    CheckResult(
                        check,
                        ok,
                        {"estimate": est.estimate, "deviation": est.deviation},
                    )
                )
            elif check == CHECK_FLATNESS:
                worst = worst_residual(np.abs(values.curvature()[0]).tolist())
                results.append(CheckResult(check, worst < FLATNESS_TOL, {"max_r1212": worst}))
            elif check == CHECK_DEGENERATE:
                worst = worst_residual(values.relative_determinants())
                results.append(
                    CheckResult(check, worst < DEGENERACY_TOL, {"max_relative_det": worst})
                )
            else:  # pragma: no cover
                results.append(CheckResult(check, False, {"error": "unknown check"}))
    else:
        metric = entry.metric
        for check in entry.checks:
            if check == CHECK_EINSTEIN:
                residuals = []
                failure = None
                try:
                    # a box short of in-domain points fails the check with its SamplingError
                    points = sample_points(metric, entry.box, entry.samples, seed=seed)
                except ExpressionError as exc:
                    failure = str(exc)
                else:
                    # Ric + lam g at the points before the first that fails
                    g, _, ricci, error = ricci_over_points(metric, points)
                    res = np.abs(ricci + entry.expected_lambda * g)
                    residuals = res.max(axis=(1, 2)).tolist()
                    if error is not None:
                        failure = str(error)
                worst = worst_residual(residuals)
                detail = {"max_residual": worst}
                if failure:
                    detail["error"] = failure
                results.append(
                    CheckResult(check, failure is None and worst < EINSTEIN_TOL, detail)
                )
            else:  # pragma: no cover
                results.append(CheckResult(check, False, {"error": "unknown check"}))

    passed = all(c.passed for c in results)
    return VerificationReport(entry.name, passed, entry.expected_lambda, results)


def verify_all(seed: int = DEFAULT_SEED) -> list[VerificationReport]:
    return [verify_entry(name, seed=seed) for name in _ENTRIES]
