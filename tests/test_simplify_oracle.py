"""``simplify`` against the fixpoint rewriter it replaced.

The reference below is the earlier implementation, kept verbatim: a
second copy of the rewrite rules, applied bottom-up and re-walked until
the tree stops changing.  The single pass through the shared smart
constructors must give the same tree, down to the sign of every zero,
which ``repr`` shows and ``==`` does not.  ``differentiate`` of a
simplified tree must be a fixpoint of the reference, since geometry uses
such derivatives without simplifying them again.
"""

import math
import random
import sys

import pytest

from einstat import geometry, jets
from einstat.catalog import entry_names, get_entry
from einstat.expressions import (
    ONE,
    ZERO,
    Add,
    Call,
    Const,
    Div,
    DomainError,
    Expr,
    ExpressionError,
    Mul,
    Neg,
    Num,
    Pow,
    Sub,
    Var,
    _is_integral,
    _is_num,
    differentiate,
    evaluate,
    parse,
    simplify,
)


# -- reference: the fixpoint rewriter, verbatim --------------------------------

def _simplify_node(e: Expr) -> Expr:
    if isinstance(e, Neg):
        if isinstance(e.arg, Num):
            return Num(-e.arg.value)
        if isinstance(e.arg, Neg):
            return e.arg.arg
        return e
    if isinstance(e, Add):
        if _is_num(e.left, 0.0):
            return e.right
        if _is_num(e.right, 0.0):
            return e.left
        if isinstance(e.left, Num) and isinstance(e.right, Num):
            return Num(e.left.value + e.right.value)
        return e
    if isinstance(e, Sub):
        if _is_num(e.right, 0.0):
            return e.left
        if _is_num(e.left, 0.0):
            return Neg(e.right)
        if isinstance(e.left, Num) and isinstance(e.right, Num):
            return Num(e.left.value - e.right.value)
        if e.left == e.right:
            return ZERO
        return e
    if isinstance(e, Mul):
        if _is_num(e.left, 0.0) or _is_num(e.right, 0.0):
            return ZERO
        if _is_num(e.left, 1.0):
            return e.right
        if _is_num(e.right, 1.0):
            return e.left
        if isinstance(e.left, Num) and isinstance(e.right, Num):
            return Num(e.left.value * e.right.value)
        return e
    if isinstance(e, Div):
        if _is_num(e.left, 0.0) and not _is_num(e.right, 0.0):
            return ZERO
        if _is_num(e.right, 1.0):
            return e.left
        if isinstance(e.left, Num) and isinstance(e.right, Num) and e.right.value != 0.0:
            return Num(e.left.value / e.right.value)
        return e
    if isinstance(e, Pow):
        if _is_num(e.exponent, 1.0):
            return e.base
        if _is_num(e.exponent, 0.0):
            return ONE
        if isinstance(e.base, Num) and isinstance(e.exponent, Num):
            try:
                return Num(evaluate(e, {}))
            except ExpressionError:
                return e
        # (b^m)^n with integral m, n collapses to b^(m n)
        if (
            isinstance(e.base, Pow)
            and isinstance(e.base.exponent, Num)
            and isinstance(e.exponent, Num)
            and _is_integral(e.base.exponent.value)
            and _is_integral(e.exponent.value)
        ):
            return Pow(e.base.base, Num(e.base.exponent.value * e.exponent.value))
        return e
    if isinstance(e, Call) and isinstance(e.arg, Num):
        try:
            return Num(evaluate(e, {}))
        except ExpressionError:
            return e
    return e


def reference_simplify(e: Expr) -> Expr:
    """Apply local rewrite rules bottom-up until a fixpoint.

    Only value-preserving rules are used (zero and unit elimination,
    constant folding, power collapsing); the result evaluates identically
    to the input at every binding in the input's domain.
    """
    for _ in range(16):
        if isinstance(e, Neg):
            rebuilt: Expr = Neg(reference_simplify(e.arg))
        elif isinstance(e, Call):
            rebuilt = Call(e.func, reference_simplify(e.arg))
        elif isinstance(e, Add):
            rebuilt = Add(reference_simplify(e.left), reference_simplify(e.right))
        elif isinstance(e, Sub):
            rebuilt = Sub(reference_simplify(e.left), reference_simplify(e.right))
        elif isinstance(e, Mul):
            rebuilt = Mul(reference_simplify(e.left), reference_simplify(e.right))
        elif isinstance(e, Div):
            rebuilt = Div(reference_simplify(e.left), reference_simplify(e.right))
        elif isinstance(e, Pow):
            rebuilt = Pow(reference_simplify(e.base), reference_simplify(e.exponent))
        else:
            rebuilt = e
        reduced = _simplify_node(rebuilt)
        if reduced == e:
            return reduced
        e = reduced
    return e


# -- every simplify input and derivative of the symbolic pipelines -----------

_CACHED = (
    geometry.resolved_potential,
    geometry.resolved_constraints,
    geometry.fisher_metric,
    geometry.cubic_tensor,
    geometry._metric_derivative_exprs,
)

#: The trees each derivative builder returns.
_RETURNED_TREES = {
    "fisher_metric": geometry.MetricField.upper_entries,
    "cubic_tensor": geometry.CubicTensor.sorted_components,
    "_metric_derivative_exprs": lambda families: families[0] + families[1],
}


def _recorded(monkeypatch, build) -> list[tuple[Expr, Expr]]:
    """Pairs ``(tree, ours)`` from ``build()`` with cold derivative caches:
    every tree the geometry and jet layers hand to ``simplify`` with its
    result, and every tree geometry's derivative builders return with
    itself, since ``differentiate`` builds it simplified."""
    pairs: dict[int, tuple[Expr, Expr]] = {}  # by id: each pair holds its tree

    def recording(e):
        result = simplify(e)
        pairs[id(e)] = (e, result)
        return result

    def returning(builder, trees):
        def wrapper(arg):
            result = builder(arg)
            pairs.update((id(t), (t, t)) for t in trees(result))
            return result

        return wrapper

    monkeypatch.setattr(geometry, "simplify", recording)
    monkeypatch.setattr(jets, "simplify", recording)
    for name, trees in _RETURNED_TREES.items():
        monkeypatch.setattr(geometry, name, returning(getattr(geometry, name), trees))
    for cached in _CACHED:
        cached.cache_clear()
    try:
        build()
    finally:
        for cached in _CACHED:
            cached.cache_clear()
    assert pairs
    return list(pairs.values())


def _assert_matches_reference(pairs):
    for e, ours in pairs:
        assert repr(ours) == repr(reference_simplify(e))


def _build_catalog():
    for name in entry_names():
        entry = get_entry(name)
        if entry.kind == "potential":
            geometry.cubic_tensor(entry.potential)  # also the potential and the metric
            metric = geometry.fisher_metric(entry.potential)
        else:
            metric = entry.metric
        geometry._metric_derivative_exprs(metric)


def _scaling_potential(n: int, seed: int) -> geometry.PotentialSpec:
    """``sum exp(theta_i) - ln(linear form)`` with seeded coefficients."""
    rng = random.Random(seed)
    coeffs = [rng.uniform(0.5, 1.5) for _ in range(n)]
    form = " + ".join(f"{v!r}*theta{i + 1}" for i, v in enumerate(coeffs))
    form += f" + {0.5 * sum(coeffs) + rng.uniform(0.2, 1.0)!r}"
    psi = " + ".join(f"exp(theta{i + 1})" for i in range(n)) + f" - ln({form})"
    return geometry.PotentialSpec.create(f"scaling-{n}", n, psi, constraints=[form])


def _build_scaling_families():
    for n in (3, 4, 5):
        spec = _scaling_potential(n, seed=n)
        geometry.cubic_tensor(spec)
        geometry._metric_derivative_exprs(geometry.fisher_metric(spec))


def _build_prolongations():
    for name, gen in jets.GENERATORS.items():
        jets.prolong(gen, 3)
        equation, _ = jets.equation_for("heat" if name.startswith("H") else "txpeq", 0.5)
        jets.prolonged_action_terms(gen, equation)


class TestReferenceEquality:
    def test_catalog_potentials_metrics_and_cubic_tensors(self, monkeypatch):
        _assert_matches_reference(_recorded(monkeypatch, _build_catalog))

    def test_weibull_metric_derivatives(self, monkeypatch):
        metric = get_entry("weibull-metric").metric
        pairs = _recorded(monkeypatch, lambda: geometry._metric_derivative_exprs(metric))
        _assert_matches_reference(pairs)

    def test_scaling_metric_families(self, monkeypatch):
        _assert_matches_reference(_recorded(monkeypatch, _build_scaling_families))

    def test_generator_prolongations_and_action_terms(self, monkeypatch):
        _assert_matches_reference(_recorded(monkeypatch, _build_prolongations))

    @pytest.mark.parametrize(
        "text",
        [
            "0 - 2", "0 - -t", "-(0) - t", "t - t", "exp(t) - exp(t)", "2 - 2",
            "0*t", "t*1", "2*3", "0 + t", "t + -(0)", "-(-(t))", "-(2)", "-(-(0))",
            "0/0", "0/t", "t/0", "6/3", "1/0", "t/1",
            "t^1", "t^0", "0^0", "2^3", "0^-1", "(-8)^(1/3)",
            "(t^-1)^-1", "((t^2)^3)^2", "(t^2)^0.5", "(t^0.5)^2", "(0^-1)^-1", "(2^t)^2",
            "ln(1)", "ln(0)", "sqrt(-(0))", "exp(1000)", "sin(-(0))", "(-(0))^3",
        ],
    )
    def test_rule_edge_cases(self, text):
        e = parse(text)
        assert repr(simplify(e)) == repr(reference_simplify(e))


def _random_trees(st):
    numbers = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, 0.5, 3.0, -2.5]).map(Num)
    leaves = numbers | st.just(Const("pi")) | st.sampled_from(["t", "x"]).map(Var)

    def extend(children):
        unary = st.one_of(
            children.map(Neg),
            st.tuples(st.sampled_from(["exp", "ln", "sqrt", "sin", "cos"]), children).map(
                lambda pair: Call(*pair)
            ),
        )
        binary = st.tuples(
            st.sampled_from([Add, Sub, Mul, Div, Pow]), children, children
        ).map(lambda triple: triple[0](triple[1], triple[2]))
        return unary | binary

    return st.recursive(leaves, extend, max_leaves=32)


class TestRandomTrees:
    """Property: equal to the reference on random trees, and value-preserving."""

    def test_matches_reference_and_preserves_values(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        coordinate = st.floats(-3.0, 3.0, allow_nan=False)

        @hypothesis.settings(max_examples=400, deadline=None, derandomize=True)
        @hypothesis.given(_random_trees(st), coordinate, coordinate)
        def check(e, t, x):
            simplified = simplify(e)
            assert repr(simplified) == repr(reference_simplify(e))
            bindings = {"t": t, "x": x}
            try:
                value = evaluate(e, bindings)
            except ExpressionError:
                return
            if not math.isfinite(value):
                return
            # subnormal results carry no relative precision to compare
            assert math.isclose(
                evaluate(simplified, bindings), value, rel_tol=1e-12, abs_tol=sys.float_info.min
            )

        check()

    def test_derivative_of_simplified_tree_is_simplified(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")

        @hypothesis.settings(max_examples=400, deadline=None, derandomize=True)
        @hypothesis.given(_random_trees(st))
        def check(e):
            s = simplify(e)
            for v in ("t", "x"):
                d = differentiate(s, v)
                assert repr(d) == repr(reference_simplify(d))

        check()


class TestOverflowingConstants:
    """Constants whose folding overflows stay unfolded, so they still raise."""

    def test_overflowing_difference_is_not_folded_to_nan(self):
        e = parse("1e308*10 - 1e308*10")
        simplified = simplify(e)
        assert repr(simplified) == repr(e)
        with pytest.raises(DomainError, match="overflow"):
            evaluate(simplified, {})
        # the reference folded it to a NaN
        assert math.isnan(reference_simplify(e).value)
