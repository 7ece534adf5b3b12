"""Jet-space calculus and point-symmetry verification.

Jet coordinates are the independent variables ``t, x``, the dependent
variable ``u``, and derivative coordinates named ``u_t``, ``u_x``,
``u_tt``, ``u_tx``, ... with index letters sorted t-before-x, up to
:data:`MAX_JET_ORDER`.

A point generator ``X = xi_t d/dt + xi_x d/dx + eta d/du`` has the
characteristic ``Q = eta - xi_t u_t - xi_x u_x``; its prolongation
carries the coefficient ``D_J(Q) + xi_t u_{J,t} + xi_x u_{J,x}`` on the
``u_J`` slot.  ``X`` is a symmetry of ``F = 0`` exactly when the
prolonged action of ``X`` on ``F`` vanishes on the solution set.  The
on-shell check here is numeric: sample a jet point, solve ``F = 0`` for
the leading coordinate (``F`` must be affine in it), substitute, and
evaluate the prolonged action.  Coordinates of order above ``F``'s
cancel between the two halves of the coefficient formula, so their
sampled values never matter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Mapping, Sequence, Union

import numpy as np

from .expressions import (
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
    worst_residual,
)

MAX_JET_ORDER = 4

MultiIndex = tuple[int, int]  # (t-count, x-count)


class OrderOverflowError(ExpressionError):
    pass


class UnsupportedEquationError(ExpressionError):
    pass


def jet_name(index: MultiIndex) -> str:
    jt, jx = index
    if jt == 0 and jx == 0:
        return "u"
    return "u_" + "t" * jt + "x" * jx


def parse_jet_name(name: str) -> MultiIndex | None:
    """Multi-index of a jet coordinate name, or None for other names."""
    if name == "u":
        return (0, 0)
    if not name.startswith("u_"):
        return None
    suffix = name[2:]
    jt = 0
    while jt < len(suffix) and suffix[jt] == "t":
        jt += 1
    jx = len(suffix) - jt
    if suffix != "t" * jt + "x" * jx or not suffix:
        return None
    return (jt, jx)


def multi_indices(order: int) -> list[MultiIndex]:
    """All multi-indices with 1 <= |J| <= order, by total order then t-count."""
    out = []
    for total in range(1, order + 1):
        for jt in range(total, -1, -1):
            out.append((jt, total - jt))
    return out


def jet_variables(order: int) -> list[str]:
    return ["t", "x", "u"] + [jet_name(j) for j in multi_indices(order)]


def validate_jet_expression(e: Expr, max_order: int = MAX_JET_ORDER) -> int:
    """Check coordinate names and return the highest derivative order used."""
    top = 0
    for name in free_variables(e):
        if name in ("t", "x"):
            continue
        index = parse_jet_name(name)
        if index is None:
            raise UnsupportedEquationError(f"'{name}' is not a jet coordinate")
        order = index[0] + index[1]
        if order > max_order:
            raise OrderOverflowError(f"'{name}' exceeds jet order {max_order}")
        top = max(top, order)
    return top


def total_derivative(e: Expr, direction: str) -> Expr:
    """Total derivative: d/d(direction) plus transport through every
    jet coordinate present in the expression."""
    if direction not in ("t", "x"):
        raise ValueError("direction must be 't' or 'x'")
    result = differentiate(e, direction)
    for name in sorted(free_variables(e)):
        index = parse_jet_name(name)
        if index is None:
            continue
        bumped = (index[0] + 1, index[1]) if direction == "t" else (index[0], index[1] + 1)
        if bumped[0] + bumped[1] > MAX_JET_ORDER:
            raise OrderOverflowError(
                f"total derivative of '{name}' exceeds jet order {MAX_JET_ORDER}"
            )
        partial = differentiate(e, name)
        result = result + partial * Var(jet_name(bumped))
    return result


@dataclass(frozen=True)
class GeneratorField:
    """Point generator with coefficients depending on (t, x, u) only,
    simplified by :meth:`create` and kept so by the operators."""

    name: str
    xi_t: Expr
    xi_x: Expr
    eta: Expr

    def __post_init__(self):
        for label, coeff in (("xi_t", self.xi_t), ("xi_x", self.xi_x), ("eta", self.eta)):
            extra = free_variables(coeff) - {"t", "x", "u"}
            if extra:
                raise ValueError(
                    f"{label} of '{self.name}' depends on {sorted(extra)}; "
                    "point generators admit only t, x, u"
                )

    @classmethod
    def create(
        cls,
        name: str,
        xi_t: Union[str, Expr] = "0",
        xi_x: Union[str, Expr] = "0",
        eta: Union[str, Expr] = "0",
    ) -> "GeneratorField":
        def conv(v):
            return parse(v) if isinstance(v, str) else v

        given = cls(name, conv(xi_t), conv(xi_x), conv(eta))  # checks the names as given
        return cls(name, simplify(given.xi_t), simplify(given.xi_x), simplify(given.eta))

    def __add__(self, other: "GeneratorField") -> "GeneratorField":
        return GeneratorField(
            f"{self.name}+{other.name}",
            self.xi_t + other.xi_t,
            self.xi_x + other.xi_x,
            self.eta + other.eta,
        )

    def __rmul__(self, factor: float) -> "GeneratorField":
        c = Num(float(factor))
        return GeneratorField(
            f"{factor}*{self.name}",
            c * self.xi_t,
            c * self.xi_x,
            c * self.eta,
        )


def parse_generator(text: str, name: str = "custom") -> GeneratorField:
    """Parse ``"xi_t = ...; xi_x = ...; eta = ..."`` (parts optional)."""
    parts: dict[str, str] = {}
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "=" not in chunk:
            raise ValueError(f"expected 'key = expression' in {chunk!r}")
        key, _, value = chunk.partition("=")
        key = key.strip()
        if key not in ("xi_t", "xi_x", "eta"):
            raise ValueError(f"unknown generator coefficient '{key}'")
        parts[key] = value.strip()
    return GeneratorField.create(
        name, parts.get("xi_t", "0"), parts.get("xi_x", "0"), parts.get("eta", "0")
    )


def characteristic(gen: GeneratorField) -> Expr:
    """``Q = eta - xi_t u_t - xi_x u_x``."""
    return gen.eta - gen.xi_t * Var("u_t") - gen.xi_x * Var("u_x")


@dataclass
class ProlongedGenerator:
    base: GeneratorField
    order: int
    coefficients: dict[MultiIndex, Expr] = field(default_factory=dict)

    def coefficient(self, index: MultiIndex) -> Expr:
        return self.coefficients[index]


def prolong(gen: GeneratorField, order: int) -> ProlongedGenerator:
    """Prolong the generator to the given jet order.

    The coefficient attached to ``u_J`` is ``D_J(Q) + xi_t u_{J,t} +
    xi_x u_{J,x}``; for ``|J| = 0`` it is ``eta``.
    """
    if order < 1 or order + 1 > MAX_JET_ORDER:
        raise ValueError(f"prolongation order must be within 1..{MAX_JET_ORDER - 1}")
    q = characteristic(gen)
    # D_J(Q) built incrementally: t-derivatives first, then x-derivatives
    dq: dict[MultiIndex, Expr] = {(0, 0): q}
    for jt in range(1, order + 1):
        dq[(jt, 0)] = total_derivative(dq[(jt - 1, 0)], "t")
    for jt in range(0, order + 1):
        for jx in range(1, order + 1 - jt):
            dq[(jt, jx)] = total_derivative(dq[(jt, jx - 1)], "x")
    coeffs: dict[MultiIndex, Expr] = {(0, 0): gen.eta}
    for index in multi_indices(order):
        jt, jx = index
        transport = gen.xi_t * Var(jet_name((jt + 1, jx))) + gen.xi_x * Var(
            jet_name((jt, jx + 1))
        )
        coeffs[index] = dq[index] + transport
    return ProlongedGenerator(gen, order, coeffs)


def prolonged_action_terms(gen: GeneratorField, equation: Expr) -> list[tuple[Expr, Expr]]:
    """Pairs (coefficient, dF/dcoordinate) whose products sum to pr X (F)."""
    order = validate_jet_expression(equation, MAX_JET_ORDER - 1)
    prolonged = prolong(gen, max(order, 1))
    equation = simplify(equation)
    terms: list[tuple[Expr, Expr]] = []
    for name, coeff in (("t", gen.xi_t), ("x", gen.xi_x)):
        partial = differentiate(equation, name)
        if partial != Num(0.0):
            terms.append((coeff, partial))
    for index, coeff in prolonged.coefficients.items():
        partial = differentiate(equation, jet_name(index))
        if partial != Num(0.0):
            terms.append((coeff, partial))
    return terms


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

@dataclass
class LscReport:
    generator: str
    samples: int
    max_residual: float
    tolerance: float
    passed: bool


@dataclass
class InvarianceReport:
    generator: str
    samples: int
    evaluated: int
    skipped: int
    max_residual: float
    tolerance: float
    passed: bool


_SAMPLE_RANGE = (-2.0, 2.0)
_LEADING_FLOOR = 1e-3
_RESAMPLE_LIMIT = 64


def _sample_bindings(rng, names: Sequence[str]) -> dict[str, float]:
    # one vector draw takes the same doubles from the stream as one scalar
    # draw per name, in order
    low, high = _SAMPLE_RANGE
    return dict(zip(names, rng.uniform(low, high, len(names)).tolist()))


def _relative_action(values: Sequence[float]) -> float:
    """``|sum c*p| / max(1, sum |c*p|)`` over the flattened pairs ``c, p``,
    summed in pair order."""
    total = 0.0
    magnitude = 0.0
    for coeff, partial in zip(values[::2], values[1::2]):
        product = coeff * partial
        total += product
        magnitude += abs(product)
    return abs(total) / max(1.0, magnitude)


def lsc_check(
    gen: GeneratorField,
    equation: Expr,
    leading: str,
    samples: int = 200,
    seed: int = 42,
    tolerance: float = 1e-7,
) -> LscReport:
    """On-shell check that ``pr X(F)`` vanishes on solutions of ``F = 0``.

    ``F`` must be affine in the leading coordinate; each sample solves for
    it, substitutes, and evaluates the prolonged action.  Residuals are
    reported relative to ``max(1, sum of |term|)`` so cancellation depth
    is what is measured.  Samples whose leading coefficient is smaller
    than ``1e-3`` are redrawn from the same per-sample stream.
    """
    if samples < 1:
        raise ValueError(f"samples must be a positive integer (got {samples})")
    if parse_jet_name(leading) is None:
        raise UnsupportedEquationError(f"'{leading}' is not a jet coordinate")
    equation = simplify(equation)
    coeff_expr = differentiate(equation, leading)
    second = differentiate(coeff_expr, leading)
    names = jet_variables(MAX_JET_ORDER)
    probe_rng = np.random.default_rng([seed, 0xAFF1])
    for _ in range(8):
        b = _sample_bindings(probe_rng, names)
        if abs(evaluate(second, b)) > 1e-9:
            raise UnsupportedEquationError(
                f"equation is not affine in leading coordinate '{leading}'"
            )
    terms = prolonged_action_terms(gen, equation)
    base = substitute(equation, {leading: Num(0.0)})
    leading_tape = compile_family([coeff_expr])
    base_tape = compile_family([base])
    terms_tape = compile_family([e for pair in terms for e in pair])

    residuals = []
    for i in range(samples):
        rng = np.random.default_rng([seed, i])
        for _ in range(_RESAMPLE_LIMIT):
            bindings = _sample_bindings(rng, names)
            (a,) = leading_tape(bindings)
            if abs(a) >= _LEADING_FLOOR:
                break
        else:
            raise UnsupportedEquationError(
                f"leading coefficient stayed below {_LEADING_FLOOR} while resampling"
            )
        (b0,) = base_tape(bindings)
        bindings[leading] = -b0 / a
        residuals.append(_relative_action(terms_tape(bindings)))
    worst = worst_residual(residuals)
    return LscReport(gen.name, samples, worst, tolerance, worst < tolerance)


def prolonged_action_value(
    gen: GeneratorField, equation: Expr, bindings: Mapping[str, float]
) -> float:
    """Value of ``pr X(F)`` at an arbitrary (not necessarily on-shell) jet point."""
    return sum(
        evaluate(coeff, bindings) * evaluate(partial, bindings)
        for coeff, partial in prolonged_action_terms(gen, equation)
    )


def invariance_check(
    gen: GeneratorField,
    function: Expr,
    samples: int = 200,
    seed: int = 42,
    tolerance: float = 1e-9,
) -> InvarianceReport:
    """Check ``X(f) = 0`` for a function of (t, x, u) at random points.

    Domain failures (for instance square roots of negative samples) are
    skipped and counted rather than raised.
    """
    extra = free_variables(function) - {"t", "x", "u"}
    if extra:
        raise ValueError(f"invariant candidate depends on {sorted(extra)}")
    function = simplify(function)
    tape = compile_family(
        [
            gen.xi_t, differentiate(function, "t"),
            gen.xi_x, differentiate(function, "x"),
            gen.eta, differentiate(function, "u"),
        ]
    )
    residuals = []
    skipped = 0
    for i in range(samples):
        rng = np.random.default_rng([seed, i])
        bindings = _sample_bindings(rng, ["t", "x", "u"])
        try:
            values = tape(bindings)
        except ExpressionError:
            skipped += 1
            continue
        residuals.append(_relative_action(values))
    evaluated = len(residuals)
    worst = worst_residual(residuals)
    passed = evaluated > 0 and worst < tolerance
    return InvarianceReport(gen.name, samples, evaluated, skipped, worst, tolerance, passed)


# ---------------------------------------------------------------------------
# Built-in equations and generator catalogs
# ---------------------------------------------------------------------------

def heat_equation() -> Expr:
    """``u_t - u_xx``; leading coordinate ``u_t``."""
    return parse("u_t - u_xx")


@lru_cache(maxsize=None)
def constant_curvature_equation(lam: float) -> Expr:
    """Third-order constant-curvature equation for the potential ``u(t, x)``.

    Affine in ``u_ttt`` with coefficient ``u_xx u_txx - u_tx u_xxx``.
    """
    text = (
        "u_tt*(u_ttx*u_xxx - u_txx^2)"
        " - u_tx*(u_ttt*u_xxx - u_ttx*u_txx)"
        " + u_xx*(u_ttt*u_txx - u_ttx^2)"
        f" - 4*({lam!r})*(u_tt*u_xx - u_tx^2)^2"
    )
    return parse(text)


PDE_LEADING = {"heat": "u_t", "txpeq": "u_ttt"}


def equation_for(pde: str, lam: float = 1.0) -> tuple[Expr, str]:
    """Equation expression and leading coordinate for a named PDE."""
    if pde == "heat":
        return heat_equation(), PDE_LEADING["heat"]
    if pde == "txpeq":
        return constant_curvature_equation(lam), PDE_LEADING["txpeq"]
    raise ValueError(f"unknown PDE '{pde}' (expected 'heat' or 'txpeq')")


def _gen(name: str, xi_t="0", xi_x="0", eta="0") -> GeneratorField:
    return GeneratorField.create(name, xi_t, xi_x, eta)


#: Symmetry algebra of the heat equation.
HEAT_GENERATORS: dict[str, GeneratorField] = {
    "H1": _gen("H1", xi_x="1"),
    "H2": _gen("H2", xi_t="1"),
    "H3": _gen("H3", eta="u"),
    "H4": _gen("H4", xi_t="2*t", xi_x="x"),
    "H5": _gen("H5", xi_x="2*t", eta="-(x*u)"),
    "H6": _gen("H6", xi_t="4*t^2", xi_x="4*t*x", eta="-(x^2 + 2*t)*u"),
}

#: Symmetry algebra of the constant-curvature equation.
CURVATURE_GENERATORS: dict[str, GeneratorField] = {
    "X1": _gen("X1", xi_t="1"),
    "X2": _gen("X2", xi_x="1"),
    "X3": _gen("X3", eta="1"),
    "X4": _gen("X4", xi_t="t"),
    "X5": _gen("X5", xi_x="x"),
    "X6": _gen("X6", xi_t="x"),
    "X7": _gen("X7", xi_x="t"),
    "X8": _gen("X8", eta="t"),
    "X9": _gen("X9", eta="x"),
}

GENERATORS: dict[str, GeneratorField] = {**HEAT_GENERATORS, **CURVATURE_GENERATORS}


def generator_by_name(name: str) -> GeneratorField:
    try:
        return GENERATORS[name]
    except KeyError:
        raise KeyError(
            f"unknown generator '{name}' (expected H1..H6, X1..X9, or a "
            "'xi_t = ...; xi_x = ...; eta = ...' definition)"
        ) from None
