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

import functools
import math
from dataclasses import dataclass
from typing import Callable, Mapping, MutableMapping, Sequence

import numpy as np

from .expressions import ExpressionError
from .geometry import (
    MetricField,
    PotentialSpec,
    SINGULARITY_THRESHOLD,
    SingularMetricError,
    _cubic_tape,
    _entry_tape,
    _in_domain,
    _outside_domain,
    fisher_metric,
)

DEFAULT_SEED = 42
CONVEXITY_MARGIN = 1e-12
MAX_SAMPLING_ATTEMPTS = 100_000
#: Largest block of candidates :func:`sample_points` draws and tests at once.
SAMPLING_BLOCK = 4096

CONVEX = "convex"
NOT_CONVEX = "not-convex"
DOMAIN_ERROR = "domain-error"

_SMALLEST_SUBNORMAL = np.finfo(float).smallest_subnormal

Box = Sequence[float]  # (t_min, t_max, x_min, x_max)


class SamplingError(ExpressionError):
    """Rejection sampling exhausted its attempt budget."""


def _require_planar(spec: PotentialSpec) -> None:
    if spec.dimension != 2:
        raise ValueError(f"'{spec.name}' is {spec.dimension}-dimensional, need 2")


def _curvature_numerator(h2, h3) -> float:
    ptt, ptx, pxx = h2
    pttt, pttx, ptxx, pxxx = h3
    return (
        ptt * (pttx * pxxx - ptxx * ptxx)
        - ptx * (pttt * pxxx - pttx * ptxx)
        + pxx * (pttt * ptxx - pttx * pttx)
    )


def _squares(values) -> np.ndarray:
    """``v ** 2`` at every point as Python computes it: the C library's
    pow, which is not always ``v * v`` in the last bit.  It raises on
    overflow, which no finite entry of a :meth:`PointValues._normalized`
    Hessian reaches: their finite scales square to finite doubles."""
    listed = values.tolist()
    if not isinstance(listed, list):
        return listed ** 2
    return np.array([v ** 2 for v in listed])


def _first(mask, error: Callable[[int], Exception]) -> dict[int, Exception]:
    """The first point the mask flags, mapped to its error."""
    if not np.count_nonzero(mask):
        return {}
    row = int(np.flatnonzero(mask)[0])
    return {row: error(row)}


def _division_by_zero(row: int) -> ZeroDivisionError:
    # what Python raises where a float divisor underflowed to zero
    return ZeroDivisionError("float division by zero")


def _raise_first(*failures: Mapping[int, Exception]) -> None:
    """Raise the error of the first failed point; at one point, the maps'
    errors rank in the order they are given.  No other error is read."""
    rows = [min(failed) for failed in failures if failed]
    if rows:
        row = min(rows)
        raise next(failed[row] for failed in failures if row in failed)


def _quietly(method):
    """Run with numpy's floating-point warnings off: where a value overflows
    or is NaN, the reductions check for it as the scalar formulas do."""

    @functools.wraps(method)
    def quiet(*args, **kwargs):
        with np.errstate(all="ignore"):
            return method(*args, **kwargs)

    return quiet


def _inside(spec: PotentialSpec | MetricField, points: np.ndarray) -> np.ndarray:
    """``spec.in_domain`` at each row of the points: the stock test as one
    column run, a replaced one (a subclass's, or a test double's) point by
    point."""
    if type(spec).in_domain is _in_domain:
        return spec.in_domain_columns(spec.column_bindings(points))
    return np.array([spec.in_domain(pt) for pt in map(tuple, points.tolist())], dtype=bool)


@dataclass
class PointValues:
    """The Hessian and cubic-tensor values of a potential at a set of points,
    or at one point.

    ``hessian`` holds ``psi_tt, psi_tx, psi_xx`` and ``cubic`` holds
    ``psi_ttt, psi_ttx, psi_txx, psi_xxx``: as rows with one column per
    point (from :func:`evaluate_points`) or as one value each (at one
    point), NaN where the point failed.  ``failed`` maps a point to the
    error met before its Hessian exists (outside the domain, or the Hessian
    tape's), ``cubic_failed`` to the cubic tape's; a column run builds a
    proved failure's error, the scalar tape's at that point, only when it
    is read (``expressions.RowErrors``).  Each method
    reduces the values to one check's, in the same shape, and raises the
    error the check meets first, point by point and at each point in the
    order of the scalar formulas (Python's own float errors included).
    Where the Hessian scale's square overflows, the formulas run on the
    values divided by the scale (:meth:`_normalized`).
    """

    hessian: np.ndarray
    cubic: np.ndarray | None
    failed: MutableMapping[int, ExpressionError]
    cubic_failed: Mapping[int, ExpressionError]

    def _scale(self) -> np.ndarray:
        return np.abs(self.hessian).max(axis=0)

    def _normalized(self) -> tuple["PointValues", np.ndarray | float]:
        """These values with the Hessian and cubic values divided by the
        Hessian scale at each point where that scale is finite and its
        square overflows, and that divisor: 1.0 at every other point, where
        each reduction stays bit for bit.

        Each reduction is homogeneous in the divisor ``s``: ``det`` and
        ``R1212`` scale by ``s**2`` and ``s``, and the PDE's two sides by
        ``s**3`` once ``lam`` is taken times ``s``.  Where the square
        underflows, nothing is divided: the metric reads as singular there,
        and the PDE's floor 1, ``1 / s**3`` in rescaled units, would be
        infinite and hide every residual.
        """
        scale = self._scale()
        rescale = (scale * scale == math.inf) & (scale < math.inf)
        if not np.count_nonzero(rescale):
            return self, 1.0
        divisor = np.where(rescale, scale, 1.0)
        cubic = None if self.cubic is None else self.cubic / divisor
        return PointValues(self.hessian / divisor, cubic, self.failed, self.cubic_failed), divisor

    def _determinant(self) -> np.ndarray:
        ptt, ptx, pxx = self.hessian
        return ptt * pxx - _squares(ptx)

    @_quietly
    def convexity(self) -> list[str]:
        """Convexity holds when trace and determinant of the Hessian both
        exceed the margin after normalization by the largest Hessian entry;
        an all-zero Hessian is not convex."""
        ptt, ptx, pxx = self.hessian
        scale = self._scale()
        square = scale * scale
        trace = (ptt + pxx) / scale
        det = (ptt * pxx - ptx * ptx) / square
        # where the scale squared under- or overflows, normalize the entries first
        normal = (square >= np.finfo(float).smallest_normal) & (square < math.inf)
        rescale = (scale > 0.0) & ~normal
        if np.any(rescale):
            ntt, ntx, nxx = self.hessian / scale
            trace = np.where(rescale, ntt + nxx, trace)
            det = np.where(rescale, ntt * nxx - ntx * ntx, det)
        convex = ((trace > CONVEXITY_MARGIN) & (det > CONVEXITY_MARGIN)).tolist()
        return [
            DOMAIN_ERROR if row in self.failed else CONVEX if ok else NOT_CONVEX
            for row, ok in enumerate(convex if isinstance(convex, list) else [convex])
        ]

    @_quietly
    def pde_residuals(self, lam: float, relative: bool = False) -> np.ndarray:
        """:func:`pde_residual` at every point."""
        values, s = self._normalized()
        det = values._determinant()
        _raise_first(self.failed, self.cubic_failed)
        lhs = _curvature_numerator(values.hessian, values.cubic)
        rhs = 4.0 * lam * det * s * det
        residual = lhs - rhs
        if relative:
            # the floor 1 is 1 / s**3 in these units; kept positive where
            # that underflows (s > 1e154), so that 0 / 0 stays 0
            floor = np.maximum(1.0 / s / s / s, _SMALLEST_SUBNORMAL)
            return residual / np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), floor)
        return residual * s * s * s

    def _normalized_curvature(self) -> tuple[np.ndarray, np.ndarray, np.ndarray | float]:
        """R1212, det(g) and their divisor, as :meth:`_normalized` gives
        them, each in the domain and with a metric that is not singular."""
        values, s = self._normalized()
        det = values._determinant()
        # a zero Hessian has det 0 and is singular too
        singular = _first(
            np.abs(det) <= SINGULARITY_THRESHOLD * _squares(values._scale()),
            lambda row: SingularMetricError(
                f"metric is numerically singular (det={np.ravel(det * s * s)[row]:.3e})"
            ),
        )
        _raise_first(self.failed, singular, self.cubic_failed)
        return _curvature_numerator(values.hessian, values.cubic) / (4.0 * det), det, s

    @_quietly
    def curvature(self) -> tuple[np.ndarray, np.ndarray]:
        """R1212 and det(g) at every point, each in the domain and with a
        metric that is not singular."""
        r, det, s = self._normalized_curvature()
        return r * s, det * s * s

    @_quietly
    def relative_determinants(self) -> list[float]:
        """``|det g| / max|g_ij|^2`` at every point (0 for a zero Hessian),
        with ``np.linalg.det`` of each 2x2 metric: stacked, it returns the
        same floats."""
        values, _ = self._normalized()
        ptt, ptx, pxx = values.hessian
        scale = values._scale()
        squares = _squares(scale)
        zero = _first((scale != 0.0) & (squares == 0.0), _division_by_zero)
        _raise_first(self.failed, zero)
        det = np.linalg.det(np.stack([ptt, ptx, ptx, pxx], axis=-1).reshape(-1, 2, 2))
        return np.where(scale != 0.0, np.abs(det) / squares, 0.0).tolist()

    @_quietly
    def lambda_estimate(self) -> "LambdaEstimate":
        """:func:`lambda_estimate` over a set of points."""
        r, det, s = self._normalized_curvature()
        values = (r / det / s).tolist()
        if len(values) < 2:
            raise ValueError("need at least two valid sample points")
        estimate = math.fsum(values) / len(values)
        deviation = max(abs(v - estimate) for v in values)
        return LambdaEstimate(estimate, deviation, len(values))


def evaluate_points(
    spec: PotentialSpec, points: Sequence, cubic: bool = True
) -> PointValues:
    """The Hessian (and, with ``cubic``, the cubic tensor) of the potential
    at every point, from one column run of the domain test and of each tape:
    the floats and errors :func:`_at_point` gives point by point.
    """
    _require_planar(spec)
    block = np.array(list(points), dtype=float)
    columns = spec.column_bindings(block)
    hessian, failed = _entry_tape(fisher_metric(spec)).columns(columns)
    outside = np.flatnonzero(~_inside(spec, block)).tolist()
    failed.update((row, _outside_domain(spec)) for row in outside)
    hessian[:, list(failed)] = np.nan
    third, cubic_failed = _cubic_tape(spec).columns(columns) if cubic else (None, {})
    return PointValues(hessian, third, failed, cubic_failed)


def _at_point(spec: PotentialSpec, point, cubic: bool = True) -> PointValues:
    """The :class:`PointValues` of one point, from the scalar tapes."""
    _require_planar(spec)
    failed, cubic_failed = {}, {}
    hessian, third = (math.nan,) * 3, (math.nan,) * 4
    if not spec.in_domain(point):
        failed[0] = _outside_domain(spec)
    else:
        bindings = spec.bindings(point)
        try:
            hessian = _entry_tape(fisher_metric(spec))(bindings)
        except ExpressionError as exc:
            failed[0] = exc
        else:
            try:
                if cubic:
                    third = _cubic_tape(spec)(bindings)
            except ExpressionError as exc:
                cubic_failed[0] = exc
    return PointValues(
        np.array(hessian), np.array(third) if cubic else None, failed, cubic_failed
    )


def r1212(spec: PotentialSpec, point) -> float:
    """The single curvature component of the Hessian metric at a point."""
    return float(_at_point(spec, point).curvature()[0])


def pde_residual(spec: PotentialSpec, lam: float, point, relative: bool = False) -> float:
    """Residual of the constant-curvature equation at a point.

    Returns ``LHS - 4 lam det(g)^2`` where LHS is the third-order cubic
    expression above.  With ``relative=True`` the residual is divided by
    ``max(|LHS|, |4 lam det^2|, 1)`` so tolerances compare across
    potentials of very different magnitude.  A singular metric is allowed;
    a point outside the domain raises :class:`DomainError`.
    """
    return float(_at_point(spec, point).pde_residuals(lam, relative))


def convexity_check(spec: PotentialSpec, point) -> str:
    """Classify a point as convex, not-convex, or domain-error
    (see :meth:`PointValues.convexity`)."""
    return _at_point(spec, point, cubic=False).convexity()[0]


@dataclass
class ConvexityReport:
    box: tuple[float, float, float, float]
    grid: tuple[int, int]
    verdicts: tuple[tuple[str, ...], ...]   # [row][col], rows along t
    counts: dict
    largest_convex_box: tuple[float, float, float, float] | None
    largest_convex_cells: int

    def csv_rows(self):
        for row, col, (t, x) in grid_centers(self.box, self.grid):
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


def grid_centers(box: Box, grid: tuple[int, int]):
    """Yield ``(row, col, (t, x))`` for the center of every grid cell, row by row."""
    t0, t1, x0, x1 = map(float, box)
    rows, cols = grid
    dt, dx = (t1 - t0) / rows, (x1 - x0) / cols
    for r in range(rows):
        for c in range(cols):
            yield r, c, (t0 + (r + 0.5) * dt, x0 + (c + 0.5) * dx)


def convexity_scan(spec: PotentialSpec, box: Box, grid: tuple[int, int]) -> ConvexityReport:
    """Classify every cell center of a grid over the box."""
    _require_planar(spec)
    rows, cols = grid
    if rows < 2 or cols < 2:
        raise ValueError("grid dimensions must be at least 2x2")
    t0, t1, x0, x1 = map(float, box)
    dt, dx = (t1 - t0) / rows, (x1 - x0) / cols
    centers = [pt for _, _, pt in grid_centers(box, grid)]
    cells = evaluate_points(spec, centers, cubic=False).convexity()
    verdicts = tuple(tuple(cells[r * cols:(r + 1) * cols]) for r in range(rows))
    counts = {v: cells.count(v) for v in (CONVEX, NOT_CONVEX, DOMAIN_ERROR)}
    mask = np.array([v == CONVEX for v in cells]).reshape(rows, cols)
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
    return evaluate_points(spec, points).lambda_estimate()


def sample_points(
    spec: PotentialSpec | MetricField, box: Box, count: int, seed: int = DEFAULT_SEED
) -> list[tuple[float, float]]:
    """Draw in-domain points uniformly from the box by rejection.

    Candidates are the stream of ``(uniform(t0, t1), uniform(x0, x1))``
    pairs of the seeded generator, drawn and domain-tested in blocks and
    accepted in order.  Raises :class:`SamplingError` when fewer than
    ``count`` of the first ``MAX_SAMPLING_ATTEMPTS`` candidates are in the
    domain.
    """
    _require_planar(spec)
    t0, t1, x0, x1 = map(float, box)
    rng = np.random.default_rng(seed)
    points: list[tuple[float, float]] = []
    attempts = 0
    block = min(max(count, 1), SAMPLING_BLOCK)
    while len(points) < count:
        if attempts >= MAX_SAMPLING_ATTEMPTS:
            raise SamplingError(
                f"could not draw {count} in-domain points from {tuple(box)}"
            )
        if not (math.isfinite(t1 - t0) and math.isfinite(x1 - x0)):
            # as a draw of one coordinate raises it
            raise OverflowError("high - low range exceeds valid bounds")
        size = min(block, MAX_SAMPLING_ATTEMPTS - attempts)
        candidates = rng.uniform((t0, x0), (t1, x1), size=(size, 2))
        attempts += size
        accepted = candidates[_inside(spec, candidates)][: count - len(points)]
        points += map(tuple, accepted.tolist())
        block = min(2 * block, SAMPLING_BLOCK)
    return points
