import gc
import math
import operator
import struct
import sys
import threading

import numpy as np
import pytest

from einstat import expressions
from einstat.catalog import entry_names, get_entry
from einstat.expressions import (
    Add,
    Call,
    Const,
    Differentiator,
    Div,
    DomainError,
    Mul,
    Neg,
    Num,
    ParseError,
    Pow,
    Sub,
    ExpressionError,
    UnboundVariableError,
    UnknownConstantError,
    UnknownFunctionError,
    Var,
    _DERIVATIVES,
    _DOMAIN_MESSAGES,
    _TAPE_OPS,
    _operands,
    compile_family,
    differentiate,
    evaluate,
    finite_difference,
    free_variables,
    parse,
    simplify,
    substitute,
    to_text,
    worst_residual,
)
from einstat.geometry import (
    PotentialSpec,
    _constraint_tape,
    _cubic_tape,
    _entry_tape,
    _levi_civita_tape,
    _metric_derivative_exprs,
    cubic_tensor,
    fisher_metric,
    resolved_constraints,
)
from einstat.planar import sample_points
from test_simplify_oracle import _scaling_potential

NORMAL_PSI = "-(t^2)/(4*x) - ln(-x)/2 + ln(pi)/2"


def _distinct_nodes(roots) -> int:
    """The number of distinct node objects in the trees."""
    seen, stack = set(), list(roots)
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(_operands(node))
    return len(seen)


class TestParse:
    def test_normal_potential_structure(self):
        e = parse(NORMAL_PSI)
        assert free_variables(e) == {"t", "x"}
        assert evaluate(e, {"t": 0.0, "x": -0.5}) == pytest.approx(0.5 * math.log(2 * math.pi))

    def test_literal_zero(self):
        assert parse("0") == Num(0.0)

    def test_unknown_function(self):
        with pytest.raises(UnknownFunctionError):
            parse("foo(t)")

    def test_syntax_error_carries_offset(self):
        with pytest.raises(ParseError) as err:
            parse("1 + * 2")
        assert err.value.position == 4

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse("1 2")

    def test_power_right_associative(self):
        assert parse("a^b^c") == Pow(Var("a"), Pow(Var("b"), Var("c")))

    def test_unary_minus_looser_than_power(self):
        assert parse("-t^2") == Neg(Pow(Var("t"), Num(2.0)))

    def test_unary_minus_tighter_than_sum(self):
        assert parse("-a + b") == Add(Neg(Var("a")), Var("b"))

    def test_negative_exponent_without_parens(self):
        assert parse("t^-1") == Pow(Var("t"), Neg(Num(1.0)))

    def test_unicode_minus_accepted(self):
        assert parse("a − b") == Sub(Var("a"), Var("b"))

    def test_constants(self):
        assert parse("pi") == Const("pi")
        assert evaluate(parse("euler_gamma"), {}) == pytest.approx(0.5772156649015329)

    def test_scientific_notation(self):
        assert parse("1.5e-3") == Num(0.0015)

    @pytest.mark.parametrize(
        "text",
        [
            NORMAL_PSI,
            "a^b^c",
            "-t^2",
            "a - (b - c)",
            "a/(b*c)",
            "1 + exp(x*ln(t)) - sqrt(x)/cos(t)",
            "2*3 - -4",
            "t^-x",
            "(a + b)*c",
        ],
    )
    def test_print_parse_roundtrip(self, text):
        tree = parse(text)
        assert parse(to_text(tree)) == tree


class TestEvaluate:
    def test_pi_constant(self):
        assert evaluate(parse("pi"), {}) == pytest.approx(math.pi)

    def test_ln_domain_error(self):
        with pytest.raises(DomainError):
            evaluate(parse("ln(x)"), {"x": -1.0})

    def test_unbound_variable(self):
        with pytest.raises(UnboundVariableError):
            evaluate(parse("t + x"), {"t": 1.0})

    def test_division_by_zero(self):
        with pytest.raises(DomainError):
            evaluate(parse("1/x"), {"x": 0.0})

    def test_negative_base_integer_exponent(self):
        assert evaluate(parse("x^3"), {"x": -2.0}) == -8.0

    def test_negative_base_fractional_exponent(self):
        with pytest.raises(DomainError):
            evaluate(parse("x^0.5"), {"x": -2.0})

    def test_error_reports_subtree(self):
        with pytest.raises(DomainError) as err:
            evaluate(parse("1 + ln(-x)"), {"x": 2.0})
        assert "ln(-x)" in str(err.value)

    @pytest.mark.parametrize("func", ["sin", "cos"])
    def test_trig_of_infinity_is_domain_error(self, func):
        # 1e999 is an infinite literal; finite operands that overflow raise
        # before a function sees the infinity
        e = parse(f"{func}(x*1e999)")
        with pytest.raises(DomainError) as err:
            evaluate(e, {"x": -1.0})
        assert err.value.subtree == e

    @pytest.mark.parametrize(
        "text, culprit",
        [
            ("1e308*10 - 1e308*10", "1e308*10"),
            ("1e308 + 1e308", "1e308 + 1e308"),
            ("-1e308 - 1e308", "-1e308 - 1e308"),
            ("1/(1e308/1e-10)", "1e308/1e-10"),
        ],
    )
    def test_overflow_of_finite_operands_is_domain_error(self, text, culprit):
        with pytest.raises(DomainError, match="overflow") as err:
            evaluate(parse(text), {})
        assert err.value.subtree == parse(culprit)

    def test_infinite_operands_propagate(self):
        assert evaluate(parse("x + 1"), {"x": math.inf}) == math.inf
        assert math.isnan(evaluate(parse("x - x"), {"x": math.inf}))

    def test_deterministic(self):
        e = parse(NORMAL_PSI)
        values = {evaluate(e, {"t": 0.3, "x": -1.2}) for _ in range(5)}
        assert len(values) == 1

    def test_deep_sum_evaluates_iteratively(self):
        deep = Num(0.0)
        for k in range(20000):
            deep = Add(deep, Mul(Num(float(k)), Var("x")))
        assert evaluate(deep, {"x": 0.3}) == compile_family([deep])({"x": 0.3})[0]


class TestDifferentiate:
    def test_exp(self):
        d = differentiate(parse("exp(t)"), "t")
        assert simplify(d) == parse("exp(t)")

    def test_absent_variable_is_zero(self):
        assert simplify(differentiate(parse("t^2"), "x")) == Num(0.0)

    def test_normal_first_partial_pointwise(self):
        e = parse(NORMAL_PSI)
        d = differentiate(e, "t")
        rng = np.random.default_rng(42)
        for _ in range(20):
            t = float(rng.uniform(-2, 2))
            x = float(rng.uniform(-2, -0.1))
            b = {"t": t, "x": x}
            assert evaluate(d, b) == pytest.approx(-t / (2 * x), rel=1e-12)
            fd = finite_difference(e, "t", b, 1)
            assert abs(evaluate(d, b) - fd) / max(1.0, abs(fd)) < 1e-6

    def test_linearity(self):
        e1, e2 = parse("exp(t)*x"), parse("ln(x + 3)/t")
        combo = simplify(parse("2.5") * e1 - parse("1.25") * e2)
        d_combo = differentiate(combo, "t")
        d1, d2 = differentiate(e1, "t"), differentiate(e2, "t")
        rng = np.random.default_rng(7)
        for _ in range(20):
            b = {"t": float(rng.uniform(0.5, 2)), "x": float(rng.uniform(0.5, 2))}
            lhs = evaluate(d_combo, b)
            rhs = 2.5 * evaluate(d1, b) - 1.25 * evaluate(d2, b)
            assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)

    def test_mixed_partials_commute(self):
        rng = np.random.default_rng(11)
        for text in [NORMAL_PSI, "exp(t*x)", "t^3*ln(x) + sin(t*x)"]:
            e = parse(text)
            dtx = differentiate(differentiate(e, "t"), "x")
            dxt = differentiate(differentiate(e, "x"), "t")
            for _ in range(20):
                b = {"t": float(rng.uniform(0.2, 1.5)), "x": float(rng.uniform(-1.5, -0.2))}
                if text != NORMAL_PSI:
                    b["x"] = abs(b["x"])
                assert abs(evaluate(dtx, b) - evaluate(dxt, b)) < 1e-10

    def test_division_by_literal_zero_survives(self):
        # folding 0/0 to 0 would hide the division by zero of the input
        d = differentiate(parse("t/0"), "x")
        with pytest.raises(DomainError):
            evaluate(d, {"t": 1.0, "x": 1.0})

    def test_general_power(self):
        e = parse("t^x")
        d = differentiate(e, "x")
        b = {"t": 2.0, "x": 1.5}
        assert evaluate(d, b) == pytest.approx(2.0 ** 1.5 * math.log(2.0))

    def test_self_shared_product_differentiates_each_node_once(self, monkeypatch):
        # s*(s + x) holds s twice, so the paths to the leaves double with each
        # level; without a memo the walk would follow all 2^40 of them
        levels = 40
        x = Var("x")
        s = x
        for _ in range(levels):
            s = Mul(s, Add(s, x))
        applied = 0

        def counted(rule):
            def apply(*args):
                nonlocal applied
                applied += 1
                # one Mul and one Add per level: fail here, not after 2^40 steps
                assert applied <= 2 * levels
                return rule(*args)

            return apply

        for op in (Mul, Add):
            monkeypatch.setitem(_DERIVATIVES, op, counted(_DERIVATIVES[op]))
        d = differentiate(s, "x")
        assert applied == 2 * levels
        seen, stack = set(), [d]
        while stack:
            node = stack.pop()
            if id(node) not in seen:
                seen.add(id(node))
                stack.extend(_operands(node))
        assert len(seen) <= 8 * levels
        # at x = 1/2 every level of s is 1/2, and s' = 3 s'/2 + 1/2
        slope = 1.0
        for _ in range(levels):
            slope = 1.5 * slope + 0.5
        assert evaluate(d, {"x": 0.5}) == pytest.approx(slope, rel=1e-12)

    def test_a_derivative_family_makes_no_reference_cycle(self):
        # the memo and the intern table hold nodes, never the differentiator,
        # so dropping it frees both by reference counting alone
        spec = PotentialSpec.create("no-cycle", 2, NORMAL_PSI, constraints=["-x"])
        gc.collect()
        gc.disable()
        try:
            d = Differentiator()
            e = parse(NORMAL_PSI)
            family = [d(d(e, a), b) for a in ("t", "x") for b in ("t", "x")]
            table = d._table
            assert table  # the family filled it
            family.append(differentiate(e, "t"))
            family.append(cubic_tensor(spec))
            family.append(_metric_derivative_exprs(fisher_metric(spec)))
            del d, e, family
            # this name and the argument: no cache or context keeps the table
            assert sys.getrefcount(table) == 2
            del table
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_a_differentiator_that_raises_leaves_no_table_active(self):
        d = Differentiator()
        t, x = Var("t"), Var("x")
        exp_t = Call("exp", t)
        inside = d(Mul(exp_t, t), "t")
        with pytest.raises(UnknownFunctionError):
            d(Add(t, Call("foo", t)), "t")
        assert expressions._interned.get() is None
        # outside a call every node is built afresh, as before
        assert expressions._mul(t, x) is not expressions._mul(t, x)
        # a new product of the same operands misses the memo, and its
        # derivative is the table's node
        assert d(Mul(exp_t, t), "t") is inside

    def test_threads_differentiating_at_once_leave_no_table_active(self):
        # each thread has its own active table: a module-wide one would be
        # left set, or another thread's, when calls of two threads interleave
        psi = parse(NORMAL_PSI)
        expected = repr(differentiate(differentiate(psi, "t"), "x"))
        t, x = Var("t"), Var("x")
        outcomes = []

        def work():
            same = True
            for _ in range(200):
                d = Differentiator()
                same = same and repr(d(d(psi, "t"), "x")) == expected
            outcomes.append(
                same
                and expressions._interned.get() is None
                and expressions._mul(t, x) is not expressions._mul(t, x)
            )

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert outcomes == [True] * 4
        assert expressions._interned.get() is None

    def test_one_family_builds_each_structure_once(self):
        # the rules build Num(2.0), Num(p - 1) and b^2 afresh each time they
        # fire; interned, the Levi-Civita family of the n = 5 scaling
        # potential holds 2 084 nodes for 2 079 structures, where it held
        # 5 206: beyond that, only the duplicates its inputs hold already
        metric = fisher_metric(_scaling_potential(5, seed=5))
        entries = metric.upper_entries()
        first, second = _metric_derivative_exprs(metric)

        def surplus(exprs):
            # a tape has one slot per structure: the first field of its program
            slots = len(compile_family(exprs).columns.args[1][0])
            return _distinct_nodes(exprs) - slots

        assert surplus(entries + first + second) <= surplus(entries)


class TestSubstitute:
    def test_substitute_variable(self):
        e = substitute(parse("t + x"), {"t": parse("x")})
        assert evaluate(e, {"x": 3.0}) == 6.0

    def test_substitute_absent_variable(self):
        e = parse("t + x")
        assert substitute(e, {"zz": parse("1")}) is e

    def test_deep_chain_substitutes_iteratively(self):
        chain = Var("t")
        for k in range(20000):
            chain = Add(chain, Mul(Num(float(k)), Var("x")))
        replaced = substitute(chain, {"t": Num(1.0), "x": Var("y")})
        assert free_variables(replaced) == {"y"}
        assert compile_family([replaced])({"y": 2.0}) == (1.0 + 2.0 * sum(range(20000)),)
        assert substitute(chain, {"zz": Num(1.0)}) is chain

    def test_untouched_subtrees_are_kept(self):
        e = parse("exp(t) * x")
        replaced = substitute(e, {"x": Num(2.0)})
        assert replaced.left is e.left
        assert replaced == Mul(Call("exp", Var("t")), Num(2.0))

    def test_instantiate_constants(self):
        # one of the cataloged log-family potentials with its constants fixed
        e = parse("-1/(4*lam) * ln(c2*exp(c1*x - c1*a*ln(t)) - 1) + c3")
        constants = {"c1": -1.0, "c2": 2.0, "c3": 0.0, "a": 1.0, "lam": 1.0}
        e = substitute(e, {name: Num(value) for name, value in constants.items()})
        assert free_variables(e) == {"t", "x"}
        assert evaluate(e, {"t": 1.0, "x": -1.0}) == pytest.approx(
            -0.25 * math.log(2 * math.e - 1)
        )


class TestSimplify:
    def test_zero_product(self):
        assert simplify(parse("0*exp(t) + x")) == Var("x")

    def test_constant_fold(self):
        assert simplify(parse("2*3")) == Num(6.0)

    def test_second_mixed_partial_of_product(self):
        d = differentiate(differentiate(parse("t*x"), "x"), "t")
        assert simplify(d) == Num(1.0)

    def test_unit_power(self):
        assert simplify(parse("t^1")) == Var("t")

    def test_pointwise_equivalence(self):
        rng = np.random.default_rng(3)
        exprs = [
            parse(NORMAL_PSI),
            differentiate(parse(NORMAL_PSI), "x"),
            differentiate(differentiate(parse("exp(t*x)/x"), "t"), "x"),
        ]
        for e in exprs:
            s = simplify(e)
            for _ in range(30):
                b = {"t": float(rng.uniform(-2, 2)), "x": float(rng.uniform(-2, -0.1))}
                assert abs(evaluate(e, b) - evaluate(s, b)) < 1e-12 * max(1.0, abs(evaluate(e, b)))

    def test_deep_sum_simplifies_iteratively(self):
        e = parse("+".join(["0*x", "t"] * 10000))
        s = simplify(e)
        depth = 0
        while isinstance(s, Add):
            assert s.right == Var("t")
            s, depth = s.left, depth + 1
        assert s == Var("t") and depth == 9999

    def test_deep_difference_of_equal_sums_is_zero(self):
        # the difference stays standing; neither simplify nor evaluate recurses
        s = " + ".join(f"t{k}" for k in range(5000))
        bindings = {f"t{k}": 0.1 * k for k in range(5000)}
        assert evaluate(simplify(parse(f"({s}) - ({s})")), bindings) == 0.0

    def test_power_collapse_keeps_integral_exponents(self):
        assert simplify(parse("(x^2)^3")) == parse("x^6")
        collapsed = simplify(parse("(x^1e10)^1e10"))
        assert collapsed == parse("(x^1e10)^1e10")
        assert evaluate(collapsed, {"x": -1.0}) == 1.0


class TestFiniteDifference:
    def test_cubic_second_derivative(self):
        assert finite_difference(parse("t^3"), "t", {"t": 2.0}, 2) == pytest.approx(12.0, abs=1e-8)

    def test_normal_first_partial_matches_symbolic(self):
        e = parse(NORMAL_PSI)
        b = {"t": 1.0, "x": -0.5}
        sym = evaluate(differentiate(e, "x"), b)
        fd = finite_difference(e, "x", b, 1)
        assert abs(sym - fd) / max(1.0, abs(sym)) < 1e-6

    def test_exp_third_derivative(self):
        assert finite_difference(parse("exp(t)"), "t", {"t": 0.0}, 3) == pytest.approx(1.0, abs=1e-6)

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            finite_difference(parse("t"), "t", {"t": 0.0}, 4)

    def test_domain_error_on_stencil(self):
        # point is inside the domain but the stencil crosses ln's singularity
        with pytest.raises(DomainError):
            finite_difference(parse("ln(x)"), "x", {"x": 1e-9}, 3)

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_oracle_matches_symbolic_at_random_points(self, order):
        rng = np.random.default_rng(100 + order)
        exprs = [NORMAL_PSI, "exp(t) + exp(x)", "t^3*x - sin(t)*cos(x)"]
        for text in exprs:
            e = parse(text)
            sym = e
            for _ in range(order):
                sym = differentiate(sym, "t")
            for _ in range(15):
                b = {"t": float(rng.uniform(-1.5, 1.5)), "x": float(rng.uniform(-2, -0.2))}
                expected = evaluate(sym, b)
                got = finite_difference(e, "t", b, order)
                assert abs(expected - got) / max(1.0, abs(expected)) < 1e-6


class TestCompiledFamily:
    """The tape must give the tree walk's floats, bit for bit, and its errors."""

    @staticmethod
    def bits(values):
        return [struct.pack("<d", v) for v in values]

    @pytest.mark.parametrize("name", [n for n in entry_names() if get_entry(n).kind == "potential"])
    def test_catalog_families_match_evaluate_bitwise(self, name):
        entry = get_entry(name)
        spec = entry.potential
        g = fisher_metric(spec).entries
        c = cubic_tensor(spec).components
        families = (
            (g[0][0], g[0][1], g[1][1]),
            (c[0][0][0], c[0][0][1], c[0][1][1], c[1][1][1]),
            resolved_constraints(spec),
        )
        tapes = [compile_family(family) for family in families]
        for point in sample_points(spec, entry.box, entry.samples, seed=42):
            b = spec.bindings(point)
            for family, tape in zip(families, tapes):
                expected = tuple(evaluate(e, b) for e in family)
                assert self.bits(tape(b)) == self.bits(expected)

    @pytest.mark.parametrize(
        "text, bindings",
        [
            ("1/(x - 1)", {"x": 1.0}),
            ("(x - 1)^(0 - 2)", {"x": 1.0}),
            ("x^0.5", {"x": -4.0}),
            ("ln(x - 1)", {"x": 0.5}),
            ("sqrt(x)", {"x": -1.0}),
            ("exp(x*1000)", {"x": 1.0}),
            ("(x*10)^400", {"x": 10.0}),
            ("sin(x*1e308*1e308)", {"x": 1.0}),
            ("1/(x*1e308*10)", {"x": 1.0}),  # the overflow vanishes downstream
            ("x + y", {"x": 1.0}),
        ],
    )
    def test_errors_are_the_tree_walks(self, text, bindings):
        e = parse(text)
        with pytest.raises(Exception) as walked:
            evaluate(e, bindings)
        tape = compile_family([parse("x*2"), e])
        with pytest.raises(Exception) as taped:
            tape(bindings)
        # and at each row of a column run
        values, errors = tape.columns({k: np.array([v, v]) for k, v in bindings.items()})
        assert np.isnan(values).all()
        for error in (taped.value, errors[0], errors[1]):
            assert type(error) is type(walked.value)
            assert str(error) == str(walked.value)
            assert getattr(error, "subtree", None) == getattr(walked.value, "subtree", None)

    @pytest.mark.parametrize("name", entry_names())
    def test_catalog_columns_match_the_scalar_tape_bitwise(self, name):
        # the entry's sample points, then points of a box twice as wide drawn
        # without the domain test, where the tapes may raise
        entry = get_entry(name)
        source = entry.source()
        if entry.kind == "potential":
            tapes = [_entry_tape(fisher_metric(source)), _cubic_tape(source), _constraint_tape(source)]
        else:
            tapes = [_entry_tape(source), _constraint_tape(source), _levi_civita_tape(source)]
        t0, t1, x0, x1 = entry.box
        wide = np.random.default_rng(7).uniform(
            (1.5 * t0 - 0.5 * t1, 1.5 * x0 - 0.5 * x1),
            (1.5 * t1 - 0.5 * t0, 1.5 * x1 - 0.5 * x0),
            size=(60, 2),
        )
        for points in (
            sample_points(source, entry.box, entry.samples, seed=1),
            sample_points(source, entry.box, entry.samples, seed=42),
            wide.tolist(),
        ):
            columns = source.column_bindings(points)
            for tape in tapes:
                values, errors = tape.columns(columns)
                for row, point in enumerate(points):
                    try:
                        expected = self.bits(tape(source.bindings(point)))
                    except ExpressionError as exc:
                        assert type(errors[row]) is type(exc)
                        assert str(errors[row]) == str(exc)
                    else:
                        assert row not in errors
                        assert self.bits(values[:, row].tolist()) == expected

    def test_family_without_a_tape_runs_columns_by_the_walk(self):
        family = [Var("x"), Add(Const("nope"), Var("x"))]  # an unknown constant
        values, errors = compile_family(family).columns({"x": np.array([1.0, 2.0])})
        assert [type(errors[row]) for row in (0, 1)] == [UnknownConstantError] * 2
        assert np.isnan(values).all()

    def test_column_errors_hold_no_reference_cycle(self):
        # an error that kept its traceback would reach the column run's frame
        # and its columns, which only a full collection would then free
        tape = compile_family([parse("sqrt(t) + ln(x)")])
        gc.collect()
        gc.disable()
        try:
            _, errors = tape.columns({"t": np.array([-1.0, 1.0, 4.0]), "x": np.array([1.0, 1.0, -1.0])})
            assert [str(errors[row]) for row in (0, 2)] == [
                "sqrt of negative value in 'sqrt(t)'",
                "ln of non-positive value in 'ln(x)'",
            ]
            del errors
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_signed_zeros_survive(self):
        # Num(0.0) == Num(-0.0), so the tape keys numbers by bit pattern
        x = Var("x")
        family = [Mul(x, Num(0.0)), Mul(x, Num(-0.0)), Neg(x)]
        b = {"x": 0.0}
        taped = compile_family(family)(b)
        assert self.bits(taped) == self.bits([evaluate(e, b) for e in family])
        assert [math.copysign(1.0, v) for v in taped] == [1.0, -1.0, -1.0]

    def test_equal_subtrees_share_one_slot(self, monkeypatch):
        # x*y + x*y of distinct but equal objects multiplies once
        calls = []

        def counting_mul(a, b):
            calls.append((a, b))
            return a * b

        monkeypatch.setitem(_TAPE_OPS, Mul, counting_mul)
        family = compile_family([Add(Mul(Var("x"), Var("y")), Mul(Var("x"), Var("y")))])
        assert family({"x": 2.0, "y": 3.0}) == (12.0,)
        assert calls == [(2.0, 3.0)]

    def test_deep_sum_compiles_iteratively(self):
        deep = Num(0.0)
        for k in range(5000):
            deep = Add(deep, Num(float(k)))
        assert compile_family([deep])({}) == (float(sum(range(5000))),)


#: One constant node and its message per entry of the message table.
TABLE_CASES = {
    (Div, ZeroDivisionError): (Div(Num(1.0), Num(0.0)), "division by zero"),
    (Pow, ZeroDivisionError): (Pow(Num(0.0), Num(-1.0)), "zero raised to a negative power"),
    (Pow, ValueError): (Pow(Num(-8.0), Num(1.0 / 3.0)), "negative base with non-integer exponent"),
    (Pow, OverflowError): (Pow(Num(10.0), Num(400.0)), "overflow"),
    ("exp", OverflowError): (Call("exp", Num(1000.0)), "overflow in exp"),
    ("ln", ValueError): (Call("ln", Num(0.0)), "ln of non-positive value"),
    ("sqrt", ValueError): (Call("sqrt", Num(-1.0)), "sqrt of negative value"),
    ("sin", ValueError): (Call("sin", Num(math.inf)), "sin of infinite value"),
    ("cos", ValueError): (Call("cos", Num(-math.inf)), "cos of infinite value"),
}


def _errors(family, node):
    """The errors of ``node`` in the tree walk, the scalar tape of
    ``family`` and each row of its column run, all at ``x = 1``."""
    tape = compile_family(family)
    raised = []
    for run in (lambda: evaluate(node, {"x": 1.0}), lambda: tape({"x": 1.0})):
        with pytest.raises(ExpressionError) as err:
            run()
        raised.append(err.value)
    values, errors = tape.columns({"x": np.array([1.0, 1.0])})
    assert np.isnan(values).all()
    return raised + [errors[0], errors[1]]


class TestOperatorTable:
    """Each operator has one instruction and one set of messages: the tree
    walk, the scalar tape, the column run and constant folding agree."""

    def test_each_message_has_a_case(self):
        assert {key: message for key, (_, message) in TABLE_CASES.items()} == _DOMAIN_MESSAGES

    @pytest.mark.parametrize(
        "node, message",
        list(TABLE_CASES.values())
        + [
            # finite operands that overflow
            (Add(Num(1e308), Num(1e308)), "overflow"),
            (Sub(Num(-1e308), Num(1e308)), "overflow"),
            (Mul(Num(1e308), Num(10.0)), "overflow"),
            (Div(Num(1e308), Num(1e-10)), "overflow"),
            # Python gives 0.0 ** -inf as inf
            (Pow(Num(0.0), Num(-math.inf)), "zero raised to a negative power"),
        ],
        ids=lambda value: getattr(value, "__name__", str(value)),
    )
    def test_error_and_folding_agree(self, node, message):
        for error in _errors([Var("x"), node], node):
            assert type(error) is DomainError
            assert str(error) == f"{message} in '{to_text(node)}'"
            assert error.subtree == node
        assert simplify(node) == node  # left unfolded

    @pytest.mark.parametrize(
        "node, error_type",
        [(Const("nope"), UnknownConstantError), (Call("tan", Var("x")), UnknownFunctionError)],
        ids=lambda value: getattr(value, "__name__", str(value)),
    )
    def test_unknown_name_falls_back_to_the_walk(self, node, error_type):
        for family in ([node, Var("x")], [Var("x"), Mul(node, Var("x"))]):
            errors = _errors(family, node)
            assert {type(error) for error in errors} == {error_type}
            assert len({str(error) for error in errors}) == 1
        assert simplify(Call("tan", Num(1.0))) == Call("tan", Num(1.0))

    @pytest.mark.parametrize(
        "node",
        [
            # the numerator's error, not "division by zero"
            Div(Call("ln", Num(-1.0)), Num(0.0)),
            Div(Call("ln", Num(-1.0)), Call("sqrt", Num(-1.0))),
            Pow(Call("ln", Num(-1.0)), Call("sqrt", Num(-1.0))),
        ],
        ids=str,
    )
    def test_operands_evaluate_left_to_right(self, node):
        for error in _errors([Var("x"), node], node):
            assert str(error) == "ln of non-positive value in 'ln(-1)'"
            assert error.subtree == Call("ln", Num(-1.0))


def _outcome(run):
    """A value's bits, or the error's type and message."""
    try:
        return struct.pack("<d", run())
    except ExpressionError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("exponent", [0.0, -0.0, 2.0, -2.0, 3.0, 1.5, -0.5, 1e15])
def test_pow_by_a_constant_agrees_in_walk_tape_and_columns(exponent):
    # an integral constant exponent runs plain ``**``, any other _tape_pow:
    # zero bases with a negative exponent, an overflow (1e200^2) and a
    # negative base with a non-integral exponent raise the same in all three
    node = Pow(Var("x"), Num(exponent))
    bases = [0.0, -0.0, 2.0, -3.0, 0.5, 1e200, -1e200, math.inf, -math.inf, math.nan]
    tape = compile_family([node])
    (instruction,) = [fn for _, fn, _, _ in tape.columns.args[1][2]]
    integral = exponent == int(exponent) and abs(exponent) < 1e15
    assert instruction is (operator.pow if integral else _TAPE_OPS[Pow])
    expected = [_outcome(lambda: evaluate(node, {"x": base})) for base in bases]
    assert [_outcome(lambda: tape({"x": base})[0]) for base in bases] == expected
    (values,), errors = tape.columns({"x": np.array(bases)})
    columns = [
        (type(errors[row]), str(errors[row])) if row in errors else struct.pack("<d", value)
        for row, value in enumerate(values.tolist())
    ]
    assert columns == expected
    # the cases are evidence only if they reach each error
    reached = {
        -2.0: (0, "zero raised to a negative power in 'x^-2'"),
        2.0: (5, "overflow in 'x^2'"),
        1.5: (3, "negative base with non-integer exponent in 'x^1.5'"),
    }
    if exponent in reached:
        row, message = reached[exponent]
        assert expected[row] == (DomainError, message)


def test_pow_by_a_variable_or_named_constant_keeps_the_guard():
    for node in (Pow(Var("x"), Var("y")), Pow(Var("x"), Const("pi"))):
        (instruction,) = [fn for _, fn, _, _ in compile_family([node]).columns.args[1][2]]
        assert instruction is _TAPE_OPS[Pow]


class TestWorstResidual:
    def test_nan_anywhere_wins(self):
        assert math.isnan(worst_residual([math.nan, 1.0]))
        assert math.isnan(worst_residual([1.0, math.nan]))

    def test_largest_or_zero(self):
        assert worst_residual([0.5, 2.0, 1.0]) == 2.0
        assert worst_residual([]) == 0.0
