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
        return substitute(e, {"t": Var("theta1"), "x": Var("theta2")})
    return e


def _as_expr(source: Union[str, Expr]) -> Expr:
    return parse(source) if isinstance(source, str) else source


def _cached_hash(self) -> int:
    # specs and metrics key every derivative and tape cache: hash their
    # trees once, not per lookup
    try:
        return self._hash
    except AttributeError:
        value = hash(tuple(getattr(self, f.name) for f in fields(self)))
        object.__setattr__(self, "_hash", value)
        return value


def _state_without_hash(self) -> dict:
    # string hashes differ between processes, so never pickle the cache
    return {k: v for k, v in self.__dict__.items() if k != "_hash"}


def _bindings(self, point: Point) -> dict[str, float]:  # of both PotentialSpec and MetricField
    if len(point) != self.dimension:
        raise ValueError(f"expected a {self.dimension}-dimensional point")
    return dict(zip(_theta_names(self.dimension), map(float, point)))


def _column_bindings(self, points) -> dict[str, np.ndarray]:  # of both
    """Bindings of a set of points: one column per coordinate."""
    block = np.asarray(points, dtype=float)
    if block.size == 0:
        block = block.reshape(0, self.dimension)
    if block.ndim != 2 or block.shape[1] != self.dimension:
        raise ValueError(f"expected a {self.dimension}-dimensional point")
    return dict(zip(_theta_names(self.dimension), block.T))


def _in_domain(self, point: Point) -> bool:  # in_domain of both PotentialSpec and MetricField
    """Whether every domain constraint is strictly positive at the point.

    A point where some constraint cannot be evaluated is outside: the tape
    raises there, and a walk stopping at the first constraint that is not
    positive would give the same answer.
    """
    try:
        values = _constraint_tape(self)(self.bindings(point))
    except ExpressionError:
        return False
    return not any(value <= 0.0 for value in values)


def _in_domain_columns(self, columns: Mapping[str, np.ndarray]) -> np.ndarray:  # of both
    """:meth:`in_domain` at every row of the column bindings, from one
    column run of the constraint tape."""
    values, errors = _constraint_tape(self).columns(columns)
    inside = ~(values <= 0.0).any(axis=0)
    inside[list(errors)] = False
    return inside


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

    __hash__ = _cached_hash
    __getstate__ = _state_without_hash
    bindings = _bindings
    column_bindings = _column_bindings
    in_domain = _in_domain
    in_domain_columns = _in_domain_columns

    @classmethod
    def create(
        cls,
        name: str,
        dimension: int,
        psi: Union[str, Expr],
        constants: Mapping[str, float] | None = None,
        constraints: Sequence[Union[str, Expr]] = (),
    ) -> "PotentialSpec":
        consts = tuple(sorted((k, float(v)) for k, v in (constants or {}).items()))
        psi_expr = _normalize_aliases(_as_expr(psi), dimension)
        constraint_exprs = tuple(
            _normalize_aliases(_as_expr(c), dimension) for c in constraints
        )
        spec = cls(name, dimension, psi_expr, consts, constraint_exprs)
        allowed = set(_theta_names(dimension))
        unknown = free_variables(resolved_potential(spec)) - allowed
        if unknown:
            raise ValueError(f"potential '{name}' has unbound names: {sorted(unknown)}")
        return spec

    @property
    def variables(self) -> tuple[str, ...]:
        return _theta_names(self.dimension)


def _resolve(e: Expr, constants: tuple[tuple[str, float], ...]) -> Expr:
    return simplify(substitute(e, {cname: Num(cvalue) for cname, cvalue in constants}))


@lru_cache(maxsize=None)
def resolved_potential(spec: PotentialSpec) -> Expr:
    return _resolve(spec.psi, spec.constants)


@lru_cache(maxsize=None)
def resolved_constraints(spec: PotentialSpec) -> tuple[Expr, ...]:
    return tuple(_resolve(c, spec.constants) for c in spec.constraints)


@lru_cache(maxsize=None)
def _constraint_tape(owner: "PotentialSpec | MetricField"):
    if isinstance(owner, PotentialSpec):
        return compile_family(resolved_constraints(owner))
    return compile_family(owner.constraints)


@lru_cache(maxsize=None)
def _symmetric_index(dimension: int, rank: int) -> tuple[tuple[tuple[int, ...], ...], np.ndarray]:
    """The sorted index tuples of a totally symmetric tensor, in
    lexicographic order, and for every index tuple the position of its
    sorted form among them.

    A symmetric tensor is computed at its sorted indices only and read out
    in full as ``values[index]``.
    """
    ordered = tuple(itertools.combinations_with_replacement(range(dimension), rank))
    position = {ix: p for p, ix in enumerate(ordered)}
    index = np.empty((dimension,) * rank, dtype=np.intp)
    for ix in itertools.product(range(dimension), repeat=rank):
        index[ix] = position[tuple(sorted(ix))]
    index.flags.writeable = False
    return ordered, index


@dataclass(frozen=True)
class MetricField:
    """Symmetric matrix of expressions in ``theta1..thetaN``."""

    entries: tuple[tuple[Expr, ...], ...]
    constraints: tuple[Expr, ...] = ()
    name: str = ""

    __hash__ = _cached_hash
    __getstate__ = _state_without_hash
    bindings = _bindings
    column_bindings = _column_bindings
    in_domain = _in_domain
    in_domain_columns = _in_domain_columns

    @classmethod
    def create(
        cls,
        entries: Sequence[Sequence[Union[str, Expr]]],
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
        # simplified here, the entries' derivatives are simplified as built
        simplified = tuple(tuple(map(simplify, row)) for row in parsed)
        constraint_exprs = tuple(_normalize_aliases(_as_expr(c), n) for c in constraints)
        return cls(simplified, constraint_exprs, name)

    @property
    def dimension(self) -> int:
        return len(self.entries)

    def upper_entries(self) -> tuple[Expr, ...]:
        """The entries ``g_ij`` with ``i <= j``, row by row."""
        return tuple(self.entries[i][j] for i, j in _symmetric_index(self.dimension, 2)[0])

    def evaluate(self, point: Point) -> np.ndarray:
        values = _entry_tape(self)(self.bindings(point))
        return np.array(values)[_symmetric_index(self.dimension, 2)[1]]

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

    def sorted_components(self) -> tuple[Expr, ...]:
        """The components ``T_ijk`` with ``i <= j <= k``, in lexicographic order."""
        c = self.components
        return tuple(c[i][j][k] for i, j, k in _symmetric_index(self.dimension, 3)[0])

    def evaluate(self, bindings: Mapping[str, float]) -> np.ndarray:
        values = [evaluate(c, bindings) for c in self.sorted_components()]
        return np.array(values)[_symmetric_index(self.dimension, 3)[1]]


@dataclass(eq=False)
class CurvatureBundle:
    """All curvature data evaluated at one point."""

    point: tuple[float, ...]
    alpha: float
    metric: np.ndarray               # g_ij
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
    firsts = [differentiate(psi, v) for v in names]
    upper = {(i, j): differentiate(firsts[i], names[j]) for i, j in _symmetric_index(n, 2)[0]}
    entries = tuple(
        tuple(upper[(min(i, j), max(i, j))] for j in range(n)) for i in range(n)
    )
    return MetricField(entries, resolved_constraints(spec), spec.name)


@lru_cache(maxsize=None)
def cubic_tensor(spec: PotentialSpec) -> CubicTensor:
    """Third mixed partials of the potential, shared across permutations."""
    metric = fisher_metric(spec)
    names = spec.variables
    n = spec.dimension
    by_sorted_index = {
        (i, j, k): differentiate(metric.entries[i][j], names[k])
        for i, j, k in _symmetric_index(n, 3)[0]
    }
    comps = tuple(
        tuple(
            tuple(by_sorted_index[tuple(sorted((i, j, k)))] for k in range(n))
            for j in range(n)
        )
        for i in range(n)
    )
    return CubicTensor(comps)


@lru_cache(maxsize=None)
def _entry_tape(metric: MetricField):
    """Tape of the metric's upper entries; for a Fisher metric, the Hessian."""
    return compile_family(metric.upper_entries())


@lru_cache(maxsize=None)
def _hessian_tape(spec: PotentialSpec):
    """The Fisher metric's entry tape, looked up by its potential."""
    return _entry_tape(fisher_metric(spec))


@lru_cache(maxsize=None)
def _cubic_tape(spec: PotentialSpec):
    """Tape of the cubic tensor's sorted components."""
    return compile_family(cubic_tensor(spec).sorted_components())


def alpha_connection(
    spec: PotentialSpec, alpha: float
) -> tuple[tuple[tuple[Expr, ...], ...], ...]:
    """Connection coefficients ``(1 - alpha)/2 * T_ijk``, indexed ``[i][j][k]``,
    built simplified from the simplified cubic tensor."""
    tensor = cubic_tensor(spec)
    n = tensor.dimension
    factor = Num((1.0 - alpha) / 2.0)
    return tuple(
        tuple(
            tuple(factor * tensor.components[i][j][k] for k in range(n))
            for j in range(n)
        )
        for i in range(n)
    )


def _checked_inverse(g: np.ndarray) -> np.ndarray:
    n = g.shape[0]
    scale = float(np.max(np.abs(g)))
    det = float(np.linalg.det(g))
    if scale == 0.0 or abs(det) <= SINGULARITY_THRESHOLD * scale ** n:
        raise SingularMetricError(
            f"metric is numerically singular (det={det:.3e}, scale={scale:.3e})"
        )
    return np.linalg.inv(g)


def _outside_domain(spec: PotentialSpec) -> DomainError:
    return DomainError("point violates the domain constraints", resolved_potential(spec))


def _require_in_domain(spec: PotentialSpec, point: Point) -> None:
    if not spec.in_domain(point):
        raise _outside_domain(spec)


def alpha_curvature(spec: PotentialSpec, alpha: float, point: Point) -> CurvatureBundle:
    """Curvature tensors of the alpha-connection family at one point.

    The prefactor ``(1 - alpha^2)/4`` kills the whole tensor at
    ``alpha = +-1``.  All contractions use the numeric inverse metric.
    """
    _require_in_domain(spec, point)
    g = fisher_metric(spec).evaluate(point)
    ginv = _checked_inverse(g)
    index = _symmetric_index(spec.dimension, 3)[1]
    tens = np.array(_cubic_tape(spec)(spec.bindings(point)))[index]
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
    return CurvatureBundle(tuple(map(float, point)), alpha, g, riemann, ricci, scalar, sectional)


# ---------------------------------------------------------------------------
# Levi-Civita route from an arbitrary symmetric metric
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _metric_derivative_exprs(metric: MetricField) -> tuple[tuple[Expr, ...], tuple[Expr, ...]]:
    """``d_k g_ij`` ordered by ``k`` and then as :meth:`MetricField.upper_entries`,
    and ``d_l d_k g_ij`` ordered by ``l`` and then as the first derivatives.

    Equal derivatives are built as separate trees and share one slot in
    the tape.  The mixed partials ``d_l d_k`` and ``d_k d_l`` are separate
    trees: they are equal as functions, but not always in the last bits.
    """
    names = _theta_names(metric.dimension)
    first = tuple(differentiate(e, v) for v in names for e in metric.upper_entries())
    second = tuple(differentiate(e, v) for v in names for e in first)
    return first, second


@lru_cache(maxsize=None)
def _levi_civita_tape(metric: MetricField):
    """Tape of the upper entries followed by both derivative families."""
    first, second = _metric_derivative_exprs(metric)
    return compile_family(metric.upper_entries() + first + second)


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
    n = metric.dimension
    try:
        values = np.array(_levi_civita_tape(metric)(metric.bindings(point)))
    except ExpressionError:
        # a singular metric is reported before a derivative that fails
        _checked_inverse(metric.evaluate(point))
        raise
    upper, index = _symmetric_index(n, 2)
    t = len(upper)
    g = values[:t][index]
    ginv = _checked_inverse(g)
    dg = values[t:t + n * t].reshape(n, t)[:, index]           # dg[k, i, j] = d_k g_ij
    ddg = values[t + n * t:].reshape(n, n, t)[:, :, index]     # ddg[l, k, i, j] = d_l d_k g_ij

    # Christoffel symbols: Gamma_{ij,m} = (d_i g_jm + d_j g_im - d_m g_ij)/2,
    # the transposes reading dg[j, i, m] and dg[m, i, j] at [i, j, m]
    g1 = 0.5 * (dg + dg.transpose(1, 0, 2) - dg.transpose(1, 2, 0))
    # second kind: G2[l, i, j] = g^{lm} Gamma_{ij,m}
    g2 = np.einsum("lm,ijm->lij", ginv, g1)

    # d_i Gamma_{kj,m} from second derivatives of g, at dgamma1[i, k, j, m]:
    # (ddg[i, k, j, m] + ddg[i, j, k, m] - ddg[i, m, k, j])/2
    dgamma1 = 0.5 * (ddg + ddg.transpose(0, 2, 1, 3) - ddg.transpose(0, 2, 3, 1))
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
    else:
        bundle = ricci_from_metric(source, point)
    return bundle.ricci + lam * bundle.metric


def metric_as_text(metric: MetricField) -> list[list[str]]:
    return [[to_text(e) for e in row] for row in metric.entries]
