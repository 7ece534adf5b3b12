"""``simplify`` against the fixpoint rewriter it replaced.

The reference below is the earlier implementation, kept verbatim but
for its ``a - a -> 0`` rule, dropped with the package's because it
cancelled subtrees that evaluate nowhere: a second copy of the rewrite
rules, applied bottom-up and re-walked until the tree stops changing.
The single pass through the shared smart constructors must give the same
tree, down to the sign of every zero, which ``repr`` shows and ``==``
does not.  ``differentiate`` of a simplified tree, and every tree the
operators build from simplified trees, must be a fixpoint of the
reference, since geometry and jets use such trees without simplifying
them again.  The other tree walkers are checked on the same random
trees, and ``differentiate`` against ``sympy.diff``.
"""

import itertools
import math
import operator
import random
import struct
import sys

import numpy as np
import pytest

from einstat import expressions, geometry, jets
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
    UnboundVariableError,
    UnknownConstantError,
    UnknownFunctionError,
    Var,
    _COLUMN_UFUNCS,
    _elementwise,
    _evaluate_all,
    _is_integral,
    _is_num,
    compile_family,
    differentiate,
    evaluate,
    free_variables,
    parse,
    simplify,
    substitute,
    to_text,
)
from einstat.planar import sample_points


# -- reference: the fixpoint rewriter -----------------------------------------

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
    geometry.fisher_metric,
    jets._leading_plan,
    jets._action_tape,
    jets._invariance_tape,
)

def _coefficients(gen: jets.GeneratorField) -> tuple[Expr, ...]:
    return (gen.xi_t, gen.xi_x, gen.eta)


#: The trees each builder returns, by its owner and name.  Each is built
#: from simplified trees through the rewrite rules, never by ``simplify``.
_RETURNED_TREES = {
    (geometry, "fisher_metric"): geometry.MetricField.upper_entries,
    (geometry, "cubic_tensor"): geometry.CubicTensor.sorted_components,
    (geometry, "_metric_derivative_exprs"): lambda families: families[0] + families[1],
    (jets, "total_derivative"): lambda e: (e,),
    (jets, "characteristic"): lambda e: (e,),
    (jets, "prolong"): lambda prolonged: tuple(prolonged.coefficients.values()),
    (jets, "prolonged_action_terms"): lambda terms: [e for pair in terms for e in pair],
    (jets.GeneratorField, "__add__"): _coefficients,
    (jets.GeneratorField, "__rmul__"): _coefficients,
}


def _recorded(monkeypatch, build) -> list[tuple[Expr, Expr]]:
    """Pairs ``(tree, ours)`` from ``build()`` with cold derivative caches:
    every tree the geometry and jet layers hand to ``simplify`` with its
    result, and every tree a builder in ``_RETURNED_TREES`` returns with
    itself, since it is built simplified."""
    pairs: dict[int, tuple[Expr, Expr]] = {}  # by id: each pair holds its tree

    def recording(e):
        result = simplify(e)
        pairs[id(e)] = (e, result)
        return result

    def returning(builder, trees):
        def wrapper(*args):
            result = builder(*args)
            pairs.update((id(t), (t, t)) for t in trees(result))
            return result

        return wrapper

    monkeypatch.setattr(geometry, "simplify", recording)
    monkeypatch.setattr(jets, "simplify", recording)
    for (owner, name), trees in _RETURNED_TREES.items():
        monkeypatch.setattr(owner, name, returning(getattr(owner, name), trees))
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
            geometry.cubic_tensor(entry.potential)  # also the potential and metric
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
    heat, x = jets.HEAT_GENERATORS, jets.CURVATURE_GENERATORS
    combinations = {
        "H4+H3": heat["H4"] + 0.5 * heat["H3"],
        "X4+X6": x["X4"] + 0.1 * x["X6"],
        "X8+X9": 0 * x["X8"] + 1 * x["X9"],
        "custom": jets.parse_generator("xi_t = 0*x + t*1; eta = (u^2)^0.5 - -(1)"),
    }
    for name, gen in {**jets.GENERATORS, **combinations}.items():
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


class TestSimplifyOnlyAtEntry:
    """Jets simplify the trees they are given, not the trees they build."""

    def test_jets_simplify_calls(self, monkeypatch):
        calls = []

        def counting(e):
            calls.append(e)
            return simplify(e)

        monkeypatch.setattr(jets, "simplify", counting)
        for cached in _CACHED:
            cached.cache_clear()
        x4 = jets.CURVATURE_GENERATORS["X4"]
        jets.prolong(x4, 3)
        assert len(calls) == 0
        equation, leading = jets.equation_for("txpeq", 0.5)
        jets.lsc_check(x4, equation, leading, samples=3)
        assert len(calls) <= 2
        # the plan is cached: an identical call simplifies nothing
        calls.clear()
        jets.lsc_check(x4, equation, leading, samples=3)
        assert len(calls) == 0


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


def _bits(values) -> list[bytes]:
    return [struct.pack("<d", v) for v in values]  # tells 0.0 from -0.0, matches NaNs


def _error(exc: Exception) -> tuple:
    """What names an error: its class, its text and the subtree it carries."""
    return type(exc), str(exc), repr(getattr(exc, "subtree", None))


def _outcome(run):
    """``run()``'s values as bits, or the error it raised (:func:`_error`)."""
    try:
        return _bits(run())
    except Exception as exc:  # compared by what names it
        return _error(exc)


class TestRandomTreeWalkers:
    """Properties of the printer, the tape and the substituting walk on the
    random trees above."""

    def test_text_round_trip(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")

        @hypothesis.settings(max_examples=400, deadline=None, derandomize=True)
        @hypothesis.given(_random_trees(st))
        def check(e):
            assert to_text(parse(to_text(e))) == to_text(e)

        check()

    def test_tape_is_bitwise_the_tree_walk(self, monkeypatch):
        # the tape names its own errors: it never runs the walk, yet raises
        # the walk's error, at the walk's subtree, or returns its values
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        special = st.sampled_from([0.0, -0.0, 1e300, -1e300, math.inf, -math.inf, math.nan])
        coordinate = special | st.floats(-3.0, 3.0, allow_nan=False)
        odd = st.lists(st.sampled_from(_ODD_TREES), max_size=1)
        walks = []
        raised = set()

        def counted(*args):
            walks.append(args)
            return walk(*args)

        walk = expressions._evaluate_all
        monkeypatch.setattr(expressions, "_evaluate_all", counted)

        @hypothesis.settings(max_examples=400, deadline=None, derandomize=True)
        @hypothesis.given(_random_trees(st), odd, coordinate, coordinate)
        def check(e, extra, t, x):
            family = [e] + extra
            bindings = {"t": t, "x": x}
            tape = compile_family(family)
            walks.clear()
            taped = _outcome(lambda: tape(bindings))
            assert not walks
            assert taped == _outcome(lambda: [evaluate(e, bindings) for e in family])
            if isinstance(taped, tuple):
                raised.add(taped[0])

        check()
        assert raised >= {
            DomainError, UnboundVariableError, UnknownConstantError, UnknownFunctionError
        }

    def test_column_run_is_bitwise_the_scalar_tape_at_every_row(self):
        # rows that overflow, take ln of a value <= 0 or sqrt of a negative,
        # divide by zero, raise a negative base to a non-integral power, or
        # reach sin(inf); where the scalar tape raises, the row records the
        # same error class
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        special = st.sampled_from(
            [0.0, -0.0, -1.0, -2.5, 0.5, 800.0, -800.0, 1e300, -1e300, 5e-324, math.inf, -math.inf]
        )
        coordinate = special | st.floats(-3.0, 3.0, allow_nan=False)
        rows = st.lists(st.tuples(coordinate, coordinate), min_size=2, max_size=12)
        raised = set()

        @hypothesis.settings(max_examples=400, deadline=None, derandomize=True)
        @hypothesis.given(st.lists(_random_trees(st), min_size=1, max_size=3), rows)
        def check(family, points):
            tape = compile_family(family)
            ts, xs = (np.array(column) for column in zip(*points))
            values, errors = tape.columns({"t": ts, "x": xs})
            assert values.shape == (len(family), len(points))
            for row, (t, x) in enumerate(points):
                expected = _outcome(lambda: tape({"t": t, "x": x}))
                if row in errors:
                    assert _error(errors[row]) == expected
                    raised.add(expected[0])
                else:
                    assert _bits(values[:, row].tolist()) == expected

        check()
        assert DomainError in raised

    def test_substitute_removes_the_variable(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")

        @hypothesis.settings(max_examples=400, deadline=None, derandomize=True)
        @hypothesis.given(_random_trees(st))
        def check(e):
            replaced = substitute(e, {"t": Num(1.0)})
            assert free_variables(replaced) == free_variables(e) - {"t"}

        check()

    def test_interned_derivatives_are_the_uninterned_ones(self):
        # a Differentiator's intern table changes which nodes a family shares
        # by reference, never a tree or the program compiled from the family
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")

        def derivatives(roots):
            d = expressions.Differentiator()
            first = [d(e, v) for e in roots for v in ("t", "x")]
            return roots + first + [d(e, v) for e in first for v in ("t", "x")]

        def program(family):
            template, names, tape, roots, leaves = compile_family(family).columns.args[0][:5]
            template = [None if value is None else _bits([value]) for value in template]
            return template, names, tape, roots, leaves.tolist()

        @hypothesis.settings(max_examples=300, deadline=None, derandomize=True)
        @hypothesis.given(st.lists(_random_trees(st), min_size=1, max_size=3))
        def check(roots):
            interned = derivatives(roots)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(expressions, "_active_table", lambda: None)
                built = derivatives(roots)
            assert [repr(e) for e in interned] == [repr(e) for e in built]
            assert program(interned) == program(built)

        check()


# -- reference: the eager column run ------------------------------------------

def _eager_column_run(exprs, program, columns):
    """The column run before failing rows were only marked, kept verbatim:
    every row where a slot ends non-finite is evaluated by the tree walk at
    once, and its error is built there."""
    template, names, tape, roots = program
    rows = len(next(iter(columns.values()), ()))
    redo = range(rows)
    values = np.empty((len(template), rows))
    slot_values = list(values)
    try:
        for slot, name in names:
            slot_values[slot][:] = columns[name]
    except KeyError:  # an unbound name: let each row raise it
        pass
    else:
        for slot, value in enumerate(template):
            if value is not None:
                slot_values[slot][:] = value
        with np.errstate(all="ignore"):
            for slot, fn, a, b in tape:
                ufunc = _COLUMN_UFUNCS.get(fn)
                if ufunc is None:
                    args = [slot_values[a].tolist()]
                    if b >= 0:
                        args.append(slot_values[b].tolist())
                    slot_values[slot][:] = _elementwise(fn, *args)
                elif b < 0:
                    ufunc(slot_values[a], out=slot_values[slot])
                else:
                    ufunc(slot_values[a], slot_values[b], out=slot_values[slot])
            redo = np.flatnonzero(~np.isfinite(values.sum(axis=0))).tolist()
    out = values[list(roots)]
    listed = {name: np.asarray(column).tolist() for name, column in columns.items()}
    errors = {}
    redone = []
    for row in redo:
        try:
            bindings = {name: column[row] for name, column in listed.items()}
            redone.append(_evaluate_all(exprs, bindings))
        except ExpressionError as exc:
            redone.append((math.nan,) * len(exprs))
            exc.__traceback__ = exc.__context__ = None
            errors[row] = exc
    if redone:
        out[:, redo] = np.array(redone).reshape(len(redone), len(exprs)).T
    return out, errors


#: Trees a family may gain beyond the random ones: a constant that
#: overflows to inf, an unknown constant, an unknown function, an unbound
#: name.
_ODD_TREES = [
    parse("1e400*t"),
    Add(Const("nope"), Var("x")),
    Call("nope", Var("t")),
    Mul(Var("y"), Var("x")),
]


class TestLazyRowErrors:
    """The column run marks the rows it proves to fail and builds their
    errors when read: the same keys, errors and values as the eager run."""

    def test_keys_errors_and_values_are_the_eager_runs(self, monkeypatch):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        special = st.sampled_from(
            [0.0, -0.0, -1.0, 0.5, 800.0, 1e300, -1e300, math.inf, -math.inf, math.nan]
        )
        coordinate = special | st.floats(-3.0, 3.0, allow_nan=False)
        rows = st.lists(st.tuples(coordinate, coordinate), min_size=1, max_size=12)
        odd = st.lists(st.sampled_from(_ODD_TREES), max_size=1)
        walks = []  # the rows the scalar run evaluates for the column run
        seen = set()

        def counted(errors, row):
            walks.append(row)
            return evaluate_row(errors, row)

        evaluate_row = expressions.RowErrors._evaluate
        monkeypatch.setattr(expressions.RowErrors, "_evaluate", counted)

        @hypothesis.settings(max_examples=400, deadline=None, derandomize=True)
        @hypothesis.given(st.lists(_random_trees(st), min_size=1, max_size=3), odd, rows)
        def check(family, extra, points):
            family = family + extra
            tape = compile_family(family)
            ts, xs = (np.array(column) for column in zip(*points))
            columns = {"t": ts, "x": xs}
            expected_values, expected_errors = _eager_column_run(
                tuple(family), tape.columns.args[0][:4], columns
            )
            walks.clear()
            values, errors = tape.columns(columns)
            eager = len(walks)
            assert _bits(values.ravel().tolist()) == _bits(expected_values.ravel().tolist())
            raising = []
            for row, (t, x) in enumerate(points):
                try:
                    for e in family:
                        evaluate(e, {"t": t, "x": x})
                except ExpressionError as exc:
                    raising.append(row)
                    walks.clear()
                    for _ in range(2):  # built once
                        assert type(errors[row]) is type(exc)
                        assert str(errors[row]) == str(exc)
                    assert len(walks) <= 1
                    seen.add(len(walks) == 0)
            assert list(errors) == raising == list(expected_errors)
            # a row whose inputs and constants are all finite is never
            # evaluated by the run itself
            finite = np.isfinite(ts) & np.isfinite(xs)
            if not extra:
                assert eager <= np.count_nonzero(~finite)

        check()
        assert seen == {True, False}  # some errors were built eagerly, some when read

#: sympy's operator per binary node type.
_SYMPY_BINARY = {
    Add: operator.add,
    Sub: operator.sub,
    Mul: operator.mul,
    Div: operator.truediv,
    Pow: operator.pow,
}


def _sympy_tree(sympy, e: Expr):
    """``e`` in sympy, each number as the exact rational of its double."""
    if isinstance(e, Num):
        return sympy.Rational(e.value)
    if isinstance(e, Const):
        return {"pi": sympy.pi, "euler_gamma": sympy.EulerGamma}[e.name]
    if isinstance(e, Var):
        return sympy.Symbol(e.name)
    if isinstance(e, Neg):
        return -_sympy_tree(sympy, e.arg)
    if isinstance(e, Call):
        return getattr(sympy, "log" if e.func == "ln" else e.func)(_sympy_tree(sympy, e.arg))
    operands = (e.base, e.exponent) if isinstance(e, Pow) else (e.left, e.right)
    return _SYMPY_BINARY[type(e)](*(_sympy_tree(sympy, o) for o in operands))


def _agrees_with_sympy(sympy, ours: Expr, theirs, bindings) -> bool:
    """Whether the tree ``ours`` and the sympy expression ``theirs`` both
    evaluate to finite reals at ``bindings``; where they do, they must agree
    to a relative 1e-9 (``theirs`` is evaluated to 30 digits)."""
    try:
        value = evaluate(ours, bindings)
    except ExpressionError:
        return False
    point = {sympy.Symbol(k): sympy.Rational(v) for k, v in bindings.items()}
    exact = theirs.evalf(30, subs=point)
    if not (math.isfinite(value) and exact.is_real and exact.is_finite):
        return False
    assert math.isclose(value, float(exact), rel_tol=1e-9), (to_text(ours), str(theirs))
    return True


class TestDifferentiateAgainstSympy:
    """``differentiate`` agrees with ``sympy.diff`` wherever both evaluate."""

    def test_random_trees(self):
        sympy = pytest.importorskip("sympy")
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        coordinate = st.floats(-3.0, 3.0, allow_nan=False)
        compared = []

        @hypothesis.settings(max_examples=150, deadline=None, derandomize=True)
        @hypothesis.given(_random_trees(st), coordinate, coordinate)
        def check(e, t, x):
            theirs = _sympy_tree(sympy, e)
            for name in ("t", "x"):
                compared.append(
                    _agrees_with_sympy(
                        sympy,
                        differentiate(e, name),
                        sympy.diff(theirs, sympy.Symbol(name)),
                        {"t": t, "x": x},
                    )
                )

        check()
        assert sum(compared) > len(compared) // 2  # 277 of 300 when written

    @pytest.mark.parametrize(
        "name", [n for n in entry_names() if get_entry(n).kind == "potential"]
    )
    def test_catalog_potentials_to_third_order(self, name):
        sympy = pytest.importorskip("sympy")
        entry = get_entry(name)
        spec = entry.potential
        ours = {(): geometry.resolved_potential(spec)}
        theirs = {(): _sympy_tree(sympy, ours[()])}
        for order in (1, 2, 3):
            for index in itertools.product(spec.variables, repeat=order):
                ours[index] = differentiate(ours[index[:-1]], index[-1])
                theirs[index] = sympy.diff(theirs[index[:-1]], sympy.Symbol(index[-1]))
        for point in sample_points(spec, entry.box, 2, seed=1):
            for index, tree in ours.items():
                assert _agrees_with_sympy(sympy, tree, theirs[index], spec.bindings(point))


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
