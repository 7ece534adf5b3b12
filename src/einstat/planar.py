"""Two-dimensional constant-curvature checks.

With ``t = theta1`` and ``x = theta2`` the single curvature component of a
Hessian metric is

    R1212 = ( psi_tt (psi_ttx psi_xxx - psi_txx^2)
            - psi_tx (psi_ttt psi_xxx - psi_ttx psi_txx)
            + psi_xx (psi_ttt psi_txx - psi_ttx^2) ) / (4 det g)

and a potential has constant sectional curvature ``-lam`` exactly when

    4 det(g) * (R1212 - lam * det(g)) = 0

whose left side, expanded, is the cubic third-order expression minus
``4 lam det(g)^2``.  Convexity (positive definiteness of the Hessian) is
the admissibility condition throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .expressions import (
    Expr,
    ExpressionError,
    compile_family,
    differentiate,
    simplify,
)
from .geometry import (
    MetricField,
    PotentialSpec,
    SINGULARITY_THRESHOLD,
    SingularMetricError,
    _require_in_domain,
    resolved_potential,
)

DEFAULT_SEED = 42
CONVEXITY_MARGIN = 1e-12
MAX_SAMPLING_ATTEMPTS = 100_000

CONVEX = "convex"
NOT_CONVEX = "not-convex"
DOMAIN_ERROR = "domain-error"

Box = Sequence[float]  # (t_min, t_max, x_min, x_max)


class SamplingError(ExpressionError):
    """Rejection sampling exhausted its attempt budget."""


def _require_planar(spec: PotentialSpec) -> None:
    if spec.dimension != 2:
        raise ValueError(f"'{spec.name}' is {spec.dimension}-dimensional, need 2")


@lru_cache(maxsize=None)
def _second_partials(spec: PotentialSpec) -> tuple[Expr, Expr, Expr]:
    psi = resolved_potential(spec)
    dt = simplify(differentiate(psi, "theta1"))
    dx = simplify(differentiate(psi, "theta2"))
    return (
        simplify(differentiate(dt, "theta1")),
        simplify(differentiate(dt, "theta2")),
        simplify(differentiate(dx, "theta2")),
    )


@lru_cache(maxsize=None)
def _third_partials(spec: PotentialSpec) -> tuple[Expr, Expr, Expr, Expr]:
    ptt, ptx, pxx = _second_partials(spec)
    return (
        simplify(differentiate(ptt, "theta1")),
        simplify(differentiate(ptt, "theta2")),
        simplify(differentiate(ptx, "theta2")),
        simplify(differentiate(pxx, "theta2")),
    )


@lru_cache(maxsize=None)
def _hessian_tape(spec: PotentialSpec):
    return compile_family(_second_partials(spec))


@lru_cache(maxsize=None)
def _third_tape(spec: PotentialSpec):
    return compile_family(_third_partials(spec))


def _hessian_values(spec: PotentialSpec, point) -> tuple[float, float, float]:
    return _hessian_tape(spec)(spec.bindings(point))


def _third_values(spec: PotentialSpec, point) -> tuple[float, float, float, float]:
    return _third_tape(spec)(spec.bindings(point))


def _curvature_numerator(h2, h3) -> float:
    ptt, ptx, pxx = h2
    pttt, pttx, ptxx, pxxx = h3
    return (
        ptt * (pttx * pxxx - ptxx * ptxx)
        - ptx * (pttt * pxxx - pttx * ptxx)
        + pxx * (pttt * ptxx - pttx * pttx)
    )


def _checked_curvature(spec: PotentialSpec, point) -> tuple[float, float]:
    """R1212 and det(g) at an in-domain point where the metric is not singular."""
    _require_planar(spec)
    _require_in_domain(spec, point)
    h2 = _hessian_values(spec, point)
    det = h2[0] * h2[2] - h2[1] ** 2
    scale = max(abs(v) for v in h2)
    if scale == 0.0 or abs(det) <= SINGULARITY_THRESHOLD * scale ** 2:
        raise SingularMetricError(f"metric is numerically singular (det={det:.3e})")
    return _curvature_numerator(h2, _third_values(spec, point)) / (4.0 * det), det


def r1212(spec: PotentialSpec, point) -> float:
    """The single curvature component of the Hessian metric at a point."""
    return _checked_curvature(spec, point)[0]


def pde_residual(spec: PotentialSpec, lam: float, point, relative: bool = False) -> float:
    """Residual of the constant-curvature equation at a point.

    Returns ``LHS - 4 lam det(g)^2`` where LHS is the third-order cubic
    expression above.  With ``relative=True`` the residual is divided by
    ``max(|LHS|, |4 lam det^2|, 1)`` so tolerances compare across
    potentials of very different magnitude.  A singular metric is allowed;
    a point outside the domain raises :class:`DomainError`.
    """
    _require_planar(spec)
    _require_in_domain(spec, point)
    h2 = _hessian_values(spec, point)
    det = h2[0] * h2[2] - h2[1] ** 2
    lhs = _curvature_numerator(h2, _third_values(spec, point))
    rhs = 4.0 * lam * det * det
    residual = lhs - rhs
    if relative:
        return residual / max(abs(lhs), abs(rhs), 1.0)
    return residual


def convexity_check(spec: PotentialSpec, point) -> str:
    """Classify a point as convex, not-convex, or domain-error.

    Convexity holds when trace and determinant of the Hessian both exceed
    the margin after normalization by the largest Hessian entry.
    """
    _require_planar(spec)
    try:
        if not spec.in_domain(point):
            return DOMAIN_ERROR
        ptt, ptx, pxx = _hessian_values(spec, point)
    except ExpressionError:
        return DOMAIN_ERROR
    scale = max(abs(ptt), abs(ptx), abs(pxx))
    if scale == 0.0:
        return NOT_CONVEX
    trace = (ptt + pxx) / scale
    det = (ptt * pxx - ptx * ptx) / (scale * scale)
    if trace > CONVEXITY_MARGIN and det > CONVEXITY_MARGIN:
        return CONVEX
    return NOT_CONVEX


@dataclass
class ConvexityReport:
    box: tuple[float, float, float, float]
    grid: tuple[int, int]
    verdicts: tuple[tuple[str, ...], ...]   # [row][col], rows along t
    counts: dict
    largest_convex_box: tuple[float, float, float, float] | None
    largest_convex_cells: int

    def cell_center(self, row: int, col: int) -> tuple[float, float]:
        t0, t1, x0, x1 = self.box
        rows, cols = self.grid
        dt, dx = (t1 - t0) / rows, (x1 - x0) / cols
        return (t0 + (row + 0.5) * dt, x0 + (col + 0.5) * dx)

    def csv_rows(self):
        for row in range(self.grid[0]):
            for col in range(self.grid[1]):
                t, x = self.cell_center(row, col)
                yield row, col, t, x, self.verdicts[row][col]

    def to_dict(self) -> dict:
        return {
            "box": list(self.box),
            "grid": list(self.grid),
            "counts": dict(self.counts),
            "largest_convex_box": (
                list(self.largest_convex_box) if self.largest_convex_box else None
            ),
            "largest_convex_cells": self.largest_convex_cells,
        }


def _largest_true_rectangle(mask: np.ndarray) -> tuple[int, tuple[int, int, int, int] | None]:
    """Largest axis-aligned all-true rectangle, histogram method."""
    rows, cols = mask.shape
    heights = np.zeros(cols, dtype=int)
    best_area, best = 0, None
    for r in range(rows):
        heights = np.where(mask[r], heights + 1, 0)
        stack: list[int] = []
        c = 0
        while c <= cols:
            height = heights[c] if c < cols else 0
            if not stack or heights[stack[-1]] <= height:
                stack.append(c)
                c += 1
            else:
                top = stack.pop()
                width = c if not stack else c - stack[-1] - 1
                area = int(heights[top]) * width
                if area > best_area:
                    left = 0 if not stack else stack[-1] + 1
                    best_area = area
                    best = (r - int(heights[top]) + 1, left, r, c - 1)
    return best_area, best


def convexity_scan(spec: PotentialSpec, box: Box, grid: tuple[int, int]) -> ConvexityReport:
    """Classify every cell center of a grid over the box."""
    _require_planar(spec)
    rows, cols = grid
    if rows < 2 or cols < 2:
        raise ValueError("grid dimensions must be at least 2x2")
    t0, t1, x0, x1 = map(float, box)
    dt, dx = (t1 - t0) / rows, (x1 - x0) / cols
    verdicts = []
    counts = {CONVEX: 0, NOT_CONVEX: 0, DOMAIN_ERROR: 0}
    for r in range(rows):
        line = []
        for c in range(cols):
            verdict = convexity_check(spec, (t0 + (r + 0.5) * dt, x0 + (c + 0.5) * dx))
            counts[verdict] += 1
            line.append(verdict)
        verdicts.append(tuple(line))
    mask = np.array([[v == CONVEX for v in line] for line in verdicts])
    area, rect = _largest_true_rectangle(mask)
    sub_box = None
    if rect is not None:
        r0, c0, r1, c1 = rect
        sub_box = (t0 + r0 * dt, t0 + (r1 + 1) * dt, x0 + c0 * dx, x0 + (c1 + 1) * dx)
    return ConvexityReport((t0, t1, x0, x1), (rows, cols), tuple(verdicts), counts, sub_box, area)


@dataclass
class LambdaEstimate:
    estimate: float
    deviation: float
    samples: int


def lambda_estimate(spec: PotentialSpec, points) -> LambdaEstimate:
    """Mean and spread of ``-kappa`` over the sample points.

    A small deviation certifies constant sectional curvature on the
    sample, with the constant equal to the estimate.  Like :func:`r1212`,
    it raises :class:`DomainError` outside the domain and
    :class:`SingularMetricError` where the metric is singular.
    """
    values = [curv / det for curv, det in (_checked_curvature(spec, pt) for pt in points)]
    if len(values) < 2:
        raise ValueError("need at least two valid sample points")
    estimate = math.fsum(values) / len(values)
    deviation = max(abs(v - estimate) for v in values)
    return LambdaEstimate(estimate, deviation, len(values))


def sample_points(
    spec: PotentialSpec | MetricField, box: Box, count: int, seed: int = DEFAULT_SEED
) -> list[tuple[float, float]]:
    """Draw in-domain points uniformly from the box by rejection.

    Raises :class:`SamplingError` when fewer than ``count`` points are
    found within the attempt budget.
    """
    _require_planar(spec)
    t0, t1, x0, x1 = map(float, box)
    rng = np.random.default_rng(seed)
    points: list[tuple[float, float]] = []
    attempts = 0
    while len(points) < count:
        if attempts >= MAX_SAMPLING_ATTEMPTS:
            raise SamplingError(
                f"could not draw {count} in-domain points from {tuple(box)}"
            )
        attempts += 1
        pt = (float(rng.uniform(t0, t1)), float(rng.uniform(x0, x1)))
        if spec.in_domain(pt):
            points.append(pt)
    return points
