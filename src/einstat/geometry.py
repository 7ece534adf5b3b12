"""Metric, cubic tensor, connection, and curvature assembly.

For a convex potential ``psi(theta1..thetaN)`` the metric is the Hessian
``g_ij = d_i d_j psi``, the cubic tensor is ``T_ijk = d_i d_j d_k psi``,
the one-parameter connection family is ``(1-alpha)/2 * T``, and the
curvature tensor is

    R_ijkl = (1 - alpha^2)/4 * (T_kmi T_jln - T_kmj T_iln) g^mn.

Contractions with the inverse metric are performed numerically at the
evaluation point.  A second, independent route computes curvature from an
arbitrary symmetric metric via Levi-Civita Christoffel symbols; both
routes must agree for metrics that come from a potential.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, fields
from functools import lru_cache
from typing import Mapping, Sequence, Union

import numpy as np

from .expressions import (
    DomainError,
    Expr,
    ExpressionError,
    Num,
    Var,
    compile_family,
    differentiate,
    evaluate,
    free_variables,
    parse,
    simplify,
    substitute,
    to_text,
)

#: Determinant floor, relative to max |g_ij| ** n.
SINGULARITY_THRESHOLD = 1e-12

#: Margin for positive definiteness of leading principal minors.
DEFINITENESS_MARGIN = 1e-12


class SingularMetricError(ExpressionError):
    """Metric determinant too small for a trustworthy inversion."""


Point = Sequence[float]


@lru_cache(maxsize=None)
def _theta_names(dimension: int) -> tuple[str, ...]:
    return tuple(f"theta{i + 1}" for i in range(dimension))


def _normalize_aliases(e: Expr, dimension: int) -> Expr:
    # t and x are accepted spellings of theta1 and theta2 in two dimensions
    if dimension == 2:
        e = substitute(e, "t", Var("theta1"))
        e = substitute(e, "x", Var("theta2"))
    return e


def _as_expr(source: Union[str, Expr]) -> Expr:
    return parse(source) if isinstance(source, str) else source


@dataclass(frozen=True)
class PotentialSpec:
    """A potential function with fixed constants and domain constraints.

    ``psi`` is an expression in ``theta1..thetaN`` plus the names listed in
    ``constants``.  Each constraint expression must evaluate to a strictly
    positive value for a point to count as in-domain.
    """

    name: str
    dimension: int
    psi: Expr
    constants: tuple[tuple[str, float], ...] = ()
    constraints: tuple[Expr, ...] = ()
    expected_lambda: float | None = None

    def __hash__(self) -> int:
        # specs key every derivative cache: hash their trees once, not per lookup
        try:
            return self._hash
        except AttributeError:
            value = hash(tuple(getattr(self, f.name) for f in fields(self)))
            object.__setattr__(self, "_hash", value)
            return value

    def __getstate__(self) -> dict:
        # string hashes differ between processes, so never pickle the cache
        return {k: v for k, v in self.__dict__.items() if k != "_hash"}

    @classmethod
    def create(
        cls,
        name: str,
        dimension: int,
        psi: Union[str, Expr],
        constants: Mapping[str, float] | None = None,
        constraints: Sequence[Union[str, Expr]] = (),
        expected_lambda: float | None = None,
    ) -> "PotentialSpec":
        consts = tuple(sorted((k, float(v)) for k, v in (constants or {}).items()))
        psi_expr = _normalize_aliases(_as_expr(psi), dimension)
        constraint_exprs = tuple(
            _normalize_aliases(_as_expr(c), dimension) for c in constraints
        )
        spec = cls(name, dimension, psi_expr, consts, constraint_exprs, expected_lambda)
        allowed = set(_theta_names(dimension))
        unknown = free_variables(resolved_potential(spec)) - allowed
        if unknown:
            raise ValueError(f"potential '{name}' has unbound names: {sorted(unknown)}")
        return spec

    @property
    def variables(self) -> tuple[str, ...]:
        return _theta_names(self.dimension)

    def constants_map(self) -> dict[str, float]:
        return dict(self.constants)

    def bindings(self, point: Point) -> dict[str, float]:
        if len(point) != self.dimension:
            raise ValueError(f"expected a {self.dimension}-dimensional point")
        return dict(zip(self.variables, map(float, point)))

    def in_domain(self, point: Point) -> bool:
        b = self.bindings(point)
        try:
            values = _constraint_tape(self)(b)
        except Exception:
            # the tree walk stops at the first failing constraint
            for constraint in resolved_constraints(self):
                try:
                    if evaluate(constraint, b) <= 0.0:
                        return False
                except ExpressionError:
                    return False
            return True
        return not any(value <= 0.0 for value in values)


def _resolve(e: Expr, constants: tuple[tuple[str, float], ...]) -> Expr:
    for cname, cvalue in constants:
        e = substitute(e, cname, Num(cvalue))
    return simplify(e)


@lru_cache(maxsize=None)
def resolved_potential(spec: PotentialSpec) -> Expr:
    return _resolve(spec.psi, spec.constants)


@lru_cache(maxsize=None)
def resolved_constraints(spec: PotentialSpec) -> tuple[Expr, ...]:
    return tuple(_resolve(c, spec.constants) for c in spec.constraints)


@lru_cache(maxsize=None)
def _constraint_tape(spec: PotentialSpec):
    return compile_family(resolved_constraints(spec))


@dataclass(frozen=True)
class MetricField:
    """Symmetric matrix of expressions in ``theta1..thetaN``."""

    entries: tuple[tuple[Expr, ...], ...]
    provenance: str = "direct"
    constraints: tuple[Expr, ...] = ()
    name: str = ""

    @classmethod
    def create(
        cls,
        entries: Sequence[Sequence[Union[str, Expr]]],
        provenance: str = "direct",
        constraints: Sequence[Union[str, Expr]] = (),
        name: str = "",
    ) -> "MetricField":
        n = len(entries)
        parsed = tuple(
            tuple(_normalize_aliases(_as_expr(entries[i][j]), n) for j in range(n))
            for i in range(n)
        )
        for i in range(n):
            if len(parsed[i]) != n:
                raise ValueError("metric entries must form a square matrix")
            for j in range(i + 1, n):
                if parsed[i][j] != parsed[j][i]:
                    raise ValueError(f"metric entry ({i},{j}) is not symmetric")
        constraint_exprs = tuple(_normalize_aliases(_as_expr(c), n) for c in constraints)
        return cls(parsed, provenance, constraint_exprs, name)

    @property
    def dimension(self) -> int:
        return len(self.entries)

    def bindings(self, point: Point) -> dict[str, float]:
        return dict(zip(_theta_names(self.dimension), map(float, point)))

    def in_domain(self, point: Point) -> bool:
        b = self.bindings(point)
        for constraint in self.constraints:
            try:
                if evaluate(constraint, b) <= 0.0:
                    return False
            except ExpressionError:
                return False
        return True

    def evaluate(self, point: Point) -> np.ndarray:
        b = self.bindings(point)
        n = self.dimension
        g = np.empty((n, n))
        for i in range(n):
            for j in range(i, n):
                g[i, j] = g[j, i] = evaluate(self.entries[i][j], b)
        return g

    def positive_definite_at(self, point: Point) -> bool:
        g = self.evaluate(point)
        scale = float(np.max(np.abs(g)))
        if scale == 0.0:
            return False
        for k in range(1, self.dimension + 1):
            minor = float(np.linalg.det(g[:k, :k]))
            if minor / scale ** k <= DEFINITENESS_MARGIN:
                return False
        return True


@dataclass(frozen=True)
class CubicTensor:
    """Totally symmetric third-derivative tensor of a potential."""

    components: tuple[tuple[tuple[Expr, ...], ...], ...]

    @property
    def dimension(self) -> int:
        return len(self.components)

    def evaluate(self, bindings: Mapping[str, float]) -> np.ndarray:
        n = self.dimension
        out = np.empty((n, n, n))
        for i, j, k in itertools.product(range(n), repeat=3):
            if i <= j <= k:
                out[i, j, k] = evaluate(self.components[i][j][k], bindings)
        for i, j, k in itertools.product(range(n), repeat=3):
            si, sj, sk = sorted((i, j, k))
            out[i, j, k] = out[si, sj, sk]
        return out


@dataclass(frozen=True)
class ConnectionCoeffs:
    """Connection coefficients, symmetric in the first index pair."""

    components: tuple[tuple[tuple[Expr, ...], ...], ...]
    alpha: float

    @property
    def dimension(self) -> int:
        return len(self.components)


@dataclass(eq=False)
class CurvatureBundle:
    """All curvature data evaluated at one point."""

    point: tuple[float, ...]
    alpha: float
    riemann: np.ndarray              # R_ijkl
    ricci: np.ndarray                # Ric_ij = R_iklj g^kl
    scalar: float                    # Ric_ij g^ij
    sectional: dict = field(default_factory=dict)   # (i, j) -> kappa_ij, i < j


# ---------------------------------------------------------------------------
# Assembly from a potential
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def fisher_metric(spec: PotentialSpec) -> MetricField:
    """Hessian of the potential as a symbolic metric."""
    psi = resolved_potential(spec)
    names = spec.variables
    n = spec.dimension
    firsts = [simplify(differentiate(psi, v)) for v in names]
    upper: dict[tuple[int, int], Expr] = {}
    for i in range(n):
        for j in range(i, n):
            upper[(i, j)] = simplify(differentiate(firsts[i], names[j]))
    entries = tuple(
        tuple(upper[(min(i, j), max(i, j))] for j in range(n)) for i in range(n)
    )
    return MetricField(entries, "from-potential", resolved_constraints(spec), spec.name)


@lru_cache(maxsize=None)
def cubic_tensor(spec: PotentialSpec) -> CubicTensor:
    """Third mixed partials of the potential, shared across permutations."""
    metric = fisher_metric(spec)
    names = spec.variables
    n = spec.dimension
    by_sorted_index: dict[tuple[int, int, int], Expr] = {}
    for i in range(n):
        for j in range(i, n):
            for k in range(j, n):
                by_sorted_index[(i, j, k)] = simplify(
                    differentiate(metric.entries[i][j], names[k])
                )
    comps = tuple(
        tuple(
            tuple(by_sorted_index[tuple(sorted((i, j, k)))] for k in range(n))
            for j in range(n)
        )
        for i in range(n)
    )
    return CubicTensor(comps)


def alpha_connection(spec: PotentialSpec, alpha: float) -> ConnectionCoeffs:
    """Connection coefficients ``(1 - alpha)/2 * T_ijk``."""
    tensor = cubic_tensor(spec)
    n = tensor.dimension
    factor = Num((1.0 - alpha) / 2.0)
    comps = tuple(
        tuple(
            tuple(simplify(factor * tensor.components[i][j][k]) for k in range(n))
            for j in range(n)
        )
        for i in range(n)
    )
    return ConnectionCoeffs(comps, alpha)


def _checked_inverse(g: np.ndarray) -> np.ndarray:
    n = g.shape[0]
    scale = float(np.max(np.abs(g)))
    det = float(np.linalg.det(g))
    if scale == 0.0 or abs(det) <= SINGULARITY_THRESHOLD * scale ** n:
        raise SingularMetricError(
            f"metric is numerically singular (det={det:.3e}, scale={scale:.3e})"
        )
    return np.linalg.inv(g)


def _require_in_domain(spec: PotentialSpec, point: Point) -> None:
    if not spec.in_domain(point):
        raise DomainError("point violates the domain constraints", resolved_potential(spec))


def alpha_curvature(spec: PotentialSpec, alpha: float, point: Point) -> CurvatureBundle:
    """Curvature tensors of the alpha-connection family at one point.

    The prefactor ``(1 - alpha^2)/4`` kills the whole tensor at
    ``alpha = +-1``.  All contractions use the numeric inverse metric.
    """
    _require_in_domain(spec, point)
    b = spec.bindings(point)
    g = fisher_metric(spec).evaluate(point)
    ginv = _checked_inverse(g)
    tens = cubic_tensor(spec).evaluate(b)
    prefactor = (1.0 - alpha * alpha) / 4.0
    riemann = prefactor * (
        np.einsum("kmi,jln,mn->ijkl", tens, tens, ginv)
        - np.einsum("kmj,iln,mn->ijkl", tens, tens, ginv)
    )
    return _bundle_from_riemann(point, alpha, riemann, g, ginv)


def _bundle_from_riemann(
    point: Point, alpha: float, riemann: np.ndarray, g: np.ndarray, ginv: np.ndarray
) -> CurvatureBundle:
    ricci = np.einsum("iklj,kl->ij", riemann, ginv)
    scalar = float(np.einsum("ij,ij->", ricci, ginv))
    n = g.shape[0]
    sectional = {}
    for i in range(n):
        for j in range(i + 1, n):
            denom = g[i, i] * g[j, j] - g[i, j] ** 2
            sectional[(i, j)] = float(-riemann[i, j, i, j] / denom)
    return CurvatureBundle(tuple(map(float, point)), alpha, riemann, ricci, scalar, sectional)


# ---------------------------------------------------------------------------
# Levi-Civita route from an arbitrary symmetric metric
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _metric_derivative_exprs(metric: MetricField):
    """First and second symbolic derivatives of every metric entry."""
    names = _theta_names(metric.dimension)
    n = metric.dimension
    first = [
        [[simplify(differentiate(metric.entries[i][j], names[k])) for j in range(n)] for i in range(n)]
        for k in range(n)
    ]
    second = [
        [
            [[simplify(differentiate(first[k][i][j], names[l])) for j in range(n)] for i in range(n)]
            for k in range(n)
        ]
        for l in range(n)
    ]
    return first, second


def ricci_from_metric(metric: MetricField, point: Point) -> CurvatureBundle:
    """Curvature of the Levi-Civita connection of ``metric`` at one point.

    Uses Christoffel symbols of the metric, the component formula

        R^l_kij = d_i G^l_kj - d_j G^l_ki + G^h_kj G^l_hi - G^h_ki G^l_hj,

    the lowering ``R_klij = R^s_kij g_sl``, and the contraction
    ``Ric_ij = R_iklj g^kl``.  Derivatives of the inverse metric are
    obtained from ``d g^-1 = -g^-1 (d g) g^-1`` so no symbolic matrix
    inverse is ever formed.
    """
    if not metric.in_domain(point):
        raise DomainError("point violates the domain constraints", metric.entries[0][0])
    b = metric.bindings(point)
    n = metric.dimension
    g = metric.evaluate(point)
    ginv = _checked_inverse(g)
    first_exprs, second_exprs = _metric_derivative_exprs(metric)

    dg = np.empty((n, n, n))          # dg[k, i, j] = d_k g_ij
    ddg = np.empty((n, n, n, n))      # ddg[l, k, i, j] = d_l d_k g_ij
    for k in range(n):
        for i in range(n):
            for j in range(n):
                dg[k, i, j] = evaluate(first_exprs[k][i][j], b)
    for l in range(n):
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    ddg[l, k, i, j] = evaluate(second_exprs[l][k][i][j], b)

    # Christoffel symbols: Gamma_{ij,m} = (d_i g_jm + d_j g_im - d_m g_ij)/2
    g1 = np.empty((n, n, n))
    for i in range(n):
        for j in range(n):
            for m in range(n):
                g1[i, j, m] = 0.5 * (dg[i, j, m] + dg[j, i, m] - dg[m, i, j])
    # second kind: G2[l, i, j] = g^{lm} Gamma_{ij,m}
    g2 = np.einsum("lm,ijm->lij", ginv, g1)

    # d_i Gamma_{kj,m} from second derivatives of g
    dgamma1 = np.empty((n, n, n, n))  # dgamma1[i, k, j, m]
    for i in range(n):
        for k in range(n):
            for j in range(n):
                for m in range(n):
                    dgamma1[i, k, j, m] = 0.5 * (
                        ddg[i, k, j, m] + ddg[i, j, k, m] - ddg[i, m, k, j]
                    )
    # d_i g^{lm} = -g^{la} (d_i g_ab) g^{bm}
    dginv = -np.einsum("la,iab,bm->ilm", ginv, dg, ginv)
    # d_i G2[l, k, j]
    dg2 = np.einsum("ilm,kjm->ilkj", dginv, g1) + np.einsum("lm,ikjm->ilkj", ginv, dgamma1)

    # R^l_kij
    rup = (
        np.einsum("ilkj->lkij", dg2)
        - np.einsum("jlki->lkij", dg2)
        + np.einsum("hkj,lhi->lkij", g2, g2)
        - np.einsum("hki,lhj->lkij", g2, g2)
    )
    riemann = np.einsum("skij,sl->klij", rup, g)
    return _bundle_from_riemann(point, 0.0, riemann, g, ginv)


def einstein_residual(
    source: Union[PotentialSpec, MetricField], lam: float, point: Point
) -> np.ndarray:
    """``Ric + lam * g`` at the point; zero iff the metric is Einstein there."""
    if isinstance(source, PotentialSpec):
        bundle = alpha_curvature(source, 0.0, point)
        g = fisher_metric(source).evaluate(point)
    else:
        bundle = ricci_from_metric(source, point)
        g = source.evaluate(point)
    return bundle.ricci + lam * g


def metric_as_text(metric: MetricField) -> list[list[str]]:
    return [[to_text(e) for e in row] for row in metric.entries]
