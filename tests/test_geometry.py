import math
import pickle

import numpy as np
import pytest

from einstat.catalog import entry_names, get_entry
from einstat.expressions import (
    DomainError,
    ExpressionError,
    differentiate,
    evaluate,
    finite_difference,
    parse,
    simplify,
)
from einstat.geometry import (
    MetricField,
    PotentialSpec,
    SingularMetricError,
    _checked_inverse,
    alpha_connection,
    alpha_curvature,
    cubic_tensor,
    einstein_residual,
    fisher_metric,
    resolved_constraints,
    ricci_from_metric,
)
from einstat.planar import CONVEX, convexity_check, r1212, sample_points
from test_simplify_oracle import _random_trees

NORMAL = PotentialSpec.create(
    "normal-natural",
    2,
    "-(t^2)/(4*x) - ln(-x)/2 + ln(pi)/2",
    constraints=["-x"],
)
QUADRATIC = PotentialSpec.create("quadratic", 2, "(t^2 + x^2)/2")
ADDITIVE_EXP = PotentialSpec.create("flat-additive", 2, "exp(t) + exp(x)")

WEIBULL_ENTRIES = (
    ("x^2/t^2", "-(1 - euler_gamma)/t"),
    ("-(1 - euler_gamma)/t", "(euler_gamma^2 - 2*euler_gamma + pi^2/6 + 1)/x^2"),
)

WEIBULL = MetricField.create(
    WEIBULL_ENTRIES,
    constraints=["t", "x"],
    name="weibull-metric",
)


def sample_normal_points(count, seed=42):
    rng = np.random.default_rng(seed)
    return [(float(rng.uniform(-1, 1)), float(rng.uniform(-2, -0.1))) for _ in range(count)]


class TestPotentialSpec:
    def test_alias_normalization(self):
        assert NORMAL.psi == parse("-(theta1^2)/(4*theta2) - ln(-theta2)/2 + ln(pi)/2")

    def test_unknown_names_rejected(self):
        with pytest.raises(ValueError):
            PotentialSpec.create("bad", 2, "t + q")

    def test_in_domain(self):
        assert NORMAL.in_domain((0.0, -1.0))
        assert not NORMAL.in_domain((0.0, 1.0))

    def test_in_domain_stops_at_first_failing_constraint(self):
        # at x = 1 the first constraint is not positive and the second raises
        # DomainError (sin of inf): a point where any constraint cannot be
        # evaluated is outside, as the walk stopping at the first failure says
        spec = PotentialSpec.create(
            "guarded", 2, "t^2 + x^2", constraints=["-x", "sin(x*1e308*1e308)"]
        )
        assert spec.in_domain((0.0, 1.0)) is False

    def test_in_domain_false_where_a_constraint_is_sin_of_infinity(self):
        constraint = "sin(x*1e308*1e308)"
        spec = PotentialSpec.create("trig", 2, "t^2 + x^2", constraints=[constraint])
        metric = MetricField.create([["1", "0"], ["0", "1"]], constraints=[constraint])
        assert spec.in_domain((0.0, 1.0)) is False
        assert metric.in_domain((0.0, 1.0)) is False

    @pytest.mark.parametrize("point", [(1.0,), (1.0, 2.0, 3.0)])
    def test_point_of_wrong_dimension_is_rejected(self, point):
        # the metric used to bind by zip: a 3-D point was evaluated at its
        # first two coordinates and a 1-D point left theta2 unbound
        for source in (NORMAL, WEIBULL):
            with pytest.raises(ValueError, match="expected a 2-dimensional point"):
                source.in_domain(point)
        with pytest.raises(ValueError, match="expected a 2-dimensional point"):
            ricci_from_metric(WEIBULL, point)

    def test_hash_is_cached_and_consistent_with_equality(self):
        twin = PotentialSpec.create(
            "normal-natural", 2, "-(t^2)/(4*x) - ln(-x)/2 + ln(pi)/2",
            constraints=["-x"],
        )
        assert twin == NORMAL and hash(twin) == hash(NORMAL)
        assert "_hash" in vars(twin)
        assert "_hash" not in pickle.loads(pickle.dumps(twin)).__dict__

    def test_metric_hash_is_cached_and_consistent_with_equality(self):
        twin = MetricField.create(
            [[text for text in row] for row in WEIBULL_ENTRIES],
            constraints=["t", "x"],
            name="weibull-metric",
        )
        assert twin == WEIBULL and hash(twin) == hash(WEIBULL)
        assert "_hash" in vars(twin)
        assert "_hash" not in pickle.loads(pickle.dumps(twin)).__dict__

    def test_metric_entries_are_simplified(self):
        metric = MetricField.create([["0*t + x^1", "2*3"], ["2*3", "t"]])
        assert metric.entries == ((parse("theta2"), parse("6")), (parse("6"), parse("theta1")))

    def test_metric_symmetry_is_checked_before_simplifying(self):
        with pytest.raises(ValueError, match="not symmetric"):
            MetricField.create([["1", "t - t"], ["0", "1"]])


class TestFisherMetric:
    def test_normal_at_unit_sigma(self):
        g = fisher_metric(NORMAL).evaluate((0.0, -0.5))
        assert np.allclose(g, [[1.0, 0.0], [0.0, 2.0]], atol=1e-12)

    def test_quadratic_gives_identity(self):
        g = fisher_metric(QUADRATIC)
        for pt in [(0.0, 0.0), (3.0, -2.0), (-1.5, 0.5)]:
            assert np.allclose(g.evaluate(pt), np.eye(2), atol=1e-14)

    def test_additive_exponentials_diagonal(self):
        g = fisher_metric(ADDITIVE_EXP)
        for pt in [(0.0, 0.0), (1.0, -1.0)]:
            expected = np.diag([math.exp(pt[0]), math.exp(pt[1])])
            assert np.allclose(g.evaluate(pt), expected, rtol=1e-14)

    def test_positive_definiteness(self):
        g = fisher_metric(NORMAL)
        for pt in sample_normal_points(20):
            assert g.positive_definite_at(pt)


class TestCubicTensor:
    def test_quadratic_all_zero(self):
        tens = cubic_tensor(QUADRATIC).evaluate({"theta1": 1.0, "theta2": -1.0})
        assert np.all(tens == 0.0)

    def test_normal_t111_vanishes(self):
        tens = cubic_tensor(NORMAL)
        for pt in sample_normal_points(10):
            b = NORMAL.bindings(pt)
            assert tens.evaluate(b)[0, 0, 0] == pytest.approx(0.0, abs=1e-12)
            fd = finite_difference(
                parse("-(t^2)/(4*x) - ln(-x)/2 + ln(pi)/2"), "t", {"t": pt[0], "x": pt[1]}, 3
            )
            assert abs(fd) < 1e-6

    def test_normal_t112_value(self):
        b = NORMAL.bindings((0.0, -0.5))
        tens = cubic_tensor(NORMAL).evaluate(b)
        assert tens[0, 0, 1] == pytest.approx(2.0, rel=1e-12)
        # total symmetry of the evaluated tensor
        assert tens[0, 1, 0] == tens[0, 0, 1] == tens[1, 0, 0]


class TestAlphaConnection:
    def test_alpha_one_vanishes(self):
        coeffs = alpha_connection(NORMAL, 1.0)
        b = NORMAL.bindings((0.3, -0.7))
        from einstat.expressions import evaluate

        values = [
            evaluate(coeffs[i][j][k], b)
            for i in range(2)
            for j in range(2)
            for k in range(2)
        ]
        assert all(v == 0.0 for v in values)

    def test_alpha_zero_is_half_cubic(self):
        coeffs = alpha_connection(NORMAL, 0.0)
        from einstat.expressions import evaluate

        b = NORMAL.bindings((0.0, -0.5))
        assert evaluate(coeffs[0][0][1], b) == pytest.approx(1.0)

    def test_alpha_minus_one_equals_cubic(self):
        coeffs = alpha_connection(NORMAL, -1.0)
        tens = cubic_tensor(NORMAL)
        from einstat.expressions import evaluate

        b = NORMAL.bindings((0.4, -1.2))
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    assert evaluate(coeffs[i][j][k], b) == pytest.approx(
                        evaluate(tens.components[i][j][k], b), rel=1e-12
                    )


class TestAlphaCurvature:
    def test_flat_at_alpha_plus_minus_one(self):
        for alpha in (1.0, -1.0):
            bundle = alpha_curvature(NORMAL, alpha, (0.0, -0.5))
            assert np.all(bundle.riemann == 0.0)
            assert np.all(bundle.ricci == 0.0)

    def test_normal_r1212_and_sectional(self):
        bundle = alpha_curvature(NORMAL, 0.0, (0.0, -0.5))
        assert bundle.riemann[0, 1, 0, 1] == pytest.approx(1.0, rel=1e-12)
        assert bundle.sectional[(0, 1)] == pytest.approx(-0.5, rel=1e-12)

    def test_degenerate_product_exponential_is_singular(self):
        # psi = exp(t)*exp(x) has det(g) identically zero, so the curvature
        # contraction is rejected rather than fabricated
        spec = PotentialSpec.create("degenerate-product", 2, "exp(t)*exp(x)")
        with pytest.raises(SingularMetricError):
            alpha_curvature(spec, 0.0, (0.0, 0.0))

    def test_domain_violation(self):
        with pytest.raises(DomainError):
            alpha_curvature(NORMAL, 0.0, (0.0, 1.0))

    def test_riemann_symmetries(self):
        for pt in sample_normal_points(10, seed=5):
            r = alpha_curvature(NORMAL, 0.0, pt).riemann
            assert np.allclose(r, np.einsum("ijkl->klij", r), atol=1e-10)
            assert np.allclose(r, -np.einsum("ijkl->jikl", r), atol=1e-10)
            assert np.allclose(r, -np.einsum("ijkl->ijlk", r), atol=1e-10)
            # two dimensions admit a single independent component
            base = r[0, 1, 0, 1]
            for idx in np.ndindex(2, 2, 2, 2):
                assert abs(abs(r[idx]) - abs(base)) < 1e-10 or abs(r[idx]) < 1e-10


class TestRicciFromMetric:
    def test_weibull_is_einstein_with_negative_ratio(self):
        # the Levi-Civita route gives Ric = -(6/pi^2) g for this metric
        rng = np.random.default_rng(42)
        factor = 6.0 / math.pi ** 2
        for _ in range(20):
            pt = (float(rng.uniform(0.5, 3.0)), float(rng.uniform(0.5, 3.0)))
            bundle = ricci_from_metric(WEIBULL, pt)
            g = WEIBULL.evaluate(pt)
            assert np.max(np.abs(bundle.ricci + factor * g)) < 1e-9
            assert bundle.sectional[(0, 1)] == pytest.approx(-factor, rel=1e-10)

    def test_identity_metric_is_flat(self):
        flat = MetricField.create([["1", "0"], ["0", "1"]])
        bundle = ricci_from_metric(flat, (0.3, 0.7))
        assert np.all(bundle.ricci == 0.0)

    def test_matches_potential_route_for_normal(self):
        g = fisher_metric(NORMAL)
        for pt in sample_normal_points(20):
            lc = ricci_from_metric(g, pt)
            direct = alpha_curvature(NORMAL, 0.0, pt)
            assert np.max(np.abs(lc.ricci - direct.ricci)) < 1e-8
            gm = g.evaluate(pt)
            assert np.max(np.abs(lc.ricci + 0.5 * gm)) < 1e-9


class TestInDomainProperty:
    """Property: on 1-3 random constraints, ``in_domain`` of a potential
    and of a metric is the first-failure tree walk's answer."""

    def test_matches_the_walk(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        coordinate = st.floats(-3.0, 3.0, allow_nan=False)
        seen = set()

        @hypothesis.settings(max_examples=300, deadline=None, derandomize=True)
        @hypothesis.given(st.lists(_random_trees(st), min_size=1, max_size=3), coordinate, coordinate)
        def check(constraints, t, x):
            spec = PotentialSpec.create("random", 2, "t^2 + x^2", constraints=constraints)
            metric = MetricField.create([["1", "0"], ["0", "1"]], constraints=constraints)
            for source in (spec, metric):
                inside = walked_in_domain(source, (t, x))
                assert source.in_domain((t, x)) is inside
                seen.add(inside)

        check()
        assert seen == {False, True}


class TestEinsteinResidual:
    @pytest.mark.parametrize("name", ["normal-natural", "weibull-metric"])
    def test_is_ricci_plus_lambda_times_the_metric(self, name):
        entry = get_entry(name)
        if entry.kind == "potential":
            source, points = entry.potential, sample_normal_points(10)
            metric, curvature = fisher_metric(source), lambda p: alpha_curvature(source, 0.0, p)
        else:
            rng = np.random.default_rng(5)
            source, points = entry.metric, [tuple(p) for p in rng.uniform(0.5, 3.0, (10, 2))]
            metric, curvature = source, lambda p: ricci_from_metric(source, p)
        for lam in (0.5, -1.25):
            for pt in points:
                expected = curvature(pt).ricci + lam * metric.evaluate(pt)
                assert einstein_residual(source, lam, pt).tobytes() == expected.tobytes()

    def test_normal_half(self):
        for pt in sample_normal_points(50):
            res = einstein_residual(NORMAL, 0.5, pt)
            assert np.max(np.abs(res)) < 1e-9

    def test_weibull_true_lambda(self):
        res = einstein_residual(WEIBULL, 6.0 / math.pi ** 2, (1.0, 1.0))
        assert np.max(np.abs(res)) < 1e-9

    def test_normal_zero_lambda_far_from_einstein(self):
        res = einstein_residual(NORMAL, 0.0, (0.0, -0.5))
        assert np.max(np.abs(res)) >= 0.4


class TestInvariants:
    def test_path_equivalence_additive(self):
        g = fisher_metric(ADDITIVE_EXP)
        rng = np.random.default_rng(9)
        for _ in range(10):
            pt = (float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1)))
            lc = ricci_from_metric(g, pt)
            direct = alpha_curvature(ADDITIVE_EXP, 0.0, pt)
            assert np.max(np.abs(lc.ricci - direct.ricci)) < 1e-8

    def test_linear_shift_leaves_geometry_unchanged(self):
        shifted = PotentialSpec.create(
            "normal-shifted",
            2,
            "-(t^2)/(4*x) - ln(-x)/2 + ln(pi)/2 + 3*t - 2*x + 7",
            constraints=["-x"],
        )
        for pt in sample_normal_points(10, seed=21):
            g0 = fisher_metric(NORMAL).evaluate(pt)
            g1 = fisher_metric(shifted).evaluate(pt)
            assert np.max(np.abs(g0 - g1)) < 1e-10
            b0 = alpha_curvature(NORMAL, 0.0, pt)
            b1 = alpha_curvature(shifted, 0.0, pt)
            assert np.max(np.abs(b0.riemann - b1.riemann)) < 1e-10

    def test_alpha_scaling_of_curvature(self):
        pt = (0.2, -0.8)
        r0 = alpha_curvature(NORMAL, 0.0, pt).riemann
        rh = alpha_curvature(NORMAL, 0.5, pt).riemann
        assert np.max(np.abs(r0 - (4.0 / 3.0) * rh)) < 1e-10


# -- the tree walk that the compiled metric routes reproduce bit for bit ------

def walked_metric(metric, point):
    b = metric.bindings(point)
    n = metric.dimension
    g = np.empty((n, n))
    for i in range(n):
        for j in range(i, n):
            g[i, j] = g[j, i] = evaluate(metric.entries[i][j], b)
    return g


def walked_in_domain(source, point):
    """The first-failure tree walk over the constraints ``in_domain`` tests:
    a potential's with its constants resolved, a metric's as given."""
    b = source.bindings(point)
    if isinstance(source, PotentialSpec):
        constraints = resolved_constraints(source)
    else:
        constraints = source.constraints
    for constraint in constraints:
        try:
            if evaluate(constraint, b) <= 0.0:
                return False
        except ExpressionError:
            return False
    return True


def walked_riemann(metric, point):
    """R_klij of the Levi-Civita route: every derivative of every entry
    built and walked one tree at a time, and the sums as Python loops."""
    if not walked_in_domain(metric, point):
        raise DomainError("point violates the domain constraints", metric.entries[0][0])
    b = metric.bindings(point)
    n = metric.dimension
    names = [f"theta{i + 1}" for i in range(n)]
    g = walked_metric(metric, point)
    ginv = _checked_inverse(g)
    first = [
        [[simplify(differentiate(metric.entries[i][j], names[k])) for j in range(n)] for i in range(n)]
        for k in range(n)
    ]
    dg = np.empty((n, n, n))
    ddg = np.empty((n, n, n, n))
    for k in range(n):
        for i in range(n):
            for j in range(n):
                dg[k, i, j] = evaluate(first[k][i][j], b)
    for l in range(n):
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    second = simplify(differentiate(first[k][i][j], names[l]))
                    ddg[l, k, i, j] = evaluate(second, b)
    g1 = np.empty((n, n, n))
    for i in range(n):
        for j in range(n):
            for m in range(n):
                g1[i, j, m] = 0.5 * (dg[i, j, m] + dg[j, i, m] - dg[m, i, j])
    g2 = np.einsum("lm,ijm->lij", ginv, g1)
    dgamma1 = np.empty((n, n, n, n))
    for i in range(n):
        for k in range(n):
            for j in range(n):
                for m in range(n):
                    dgamma1[i, k, j, m] = 0.5 * (
                        ddg[i, k, j, m] + ddg[i, j, k, m] - ddg[i, m, k, j]
                    )
    dginv = -np.einsum("la,iab,bm->ilm", ginv, dg, ginv)
    dg2 = np.einsum("ilm,kjm->ilkj", dginv, g1) + np.einsum("lm,ikjm->ilkj", ginv, dgamma1)
    rup = (
        np.einsum("ilkj->lkij", dg2)
        - np.einsum("jlki->lkij", dg2)
        + np.einsum("hkj,lhi->lkij", g2, g2)
        - np.einsum("hki,lhj->lkij", g2, g2)
    )
    return np.einsum("skij,sl->klij", rup, g)


def outcome(fn, *args):
    """The array's bytes (signed zeros count), or the error's type and text."""
    try:
        value = fn(*args)
    except ExpressionError as exc:
        return type(exc), str(exc)
    return value.tobytes() if isinstance(value, np.ndarray) else value


def scaling_metric(n, seed):
    """Fisher metric of ``sum exp(theta_i) - ln(linear form)`` whose domain
    adds ``sqrt(theta1)``, a constraint that raises wherever theta1 < 0."""
    rng = np.random.default_rng(seed)
    coeffs = rng.uniform(0.5, 1.5, n).tolist()
    form = " + ".join(f"{v!r}*theta{i + 1}" for i, v in enumerate(coeffs))
    form += f" + {0.5 * sum(coeffs) + float(rng.uniform(0.2, 1.0))!r}"
    psi = " + ".join(f"exp(theta{i + 1})" for i in range(n)) + f" - ln({form})"
    spec = PotentialSpec.create(f"scaling-{n}", n, psi, constraints=[form, "sqrt(theta1)"])
    points = [tuple(rng.uniform(-0.5, 0.5, n).tolist()) for _ in range(8)]
    return fisher_metric(spec), points


def weibull_cases():
    rng = np.random.default_rng(3)
    points = [tuple(p) for p in rng.uniform(0.5, 3.0, (8, 2)).tolist()]
    # ln(t - 1) raises for t < 1 and is not positive up to t = 2
    raising = MetricField.create(WEIBULL_ENTRIES, constraints=["t", "x", "ln(t - 1)"])
    # without the constraint on t, the entries divide by zero at t = 0
    unguarded = MetricField.create(WEIBULL_ENTRIES, constraints=["x"])
    return [
        (WEIBULL, points),
        (raising, points),
        (unguarded, points[:3] + [(0.0, 1.0), (-1.5, 2.0)]),
    ]


class TestCompiledMetricRoutes:
    """The tapes give the tree walk's values bit for bit, and its errors."""

    @pytest.mark.parametrize("case", range(3))
    def test_weibull(self, case):
        metric, points = weibull_cases()[case]
        self.assert_walked(metric, points)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_scaling_potential_metrics(self, n):
        metric, points = scaling_metric(n, seed=n)
        self.assert_walked(metric, points)

    def test_singular_metric_is_reported_before_a_failing_derivative(self):
        # at x = 0 the metric vanishes and d_x d_x x^1.5 divides by zero
        metric = MetricField.create([["x^1.5", "0"], ["0", "x^1.5"]])
        with pytest.raises(SingularMetricError):
            ricci_from_metric(metric, (1.0, 0.0))
        self.assert_walked(metric, [(1.0, 0.0), (1.0, 2.0)])

    @staticmethod
    def assert_walked(metric, points):
        inside = 0
        for pt in points:
            assert metric.in_domain(pt) is walked_in_domain(metric, pt)
            inside += walked_in_domain(metric, pt)
            assert outcome(metric.evaluate, pt) == outcome(walked_metric, metric, pt)
            riemann = outcome(lambda p: ricci_from_metric(metric, p).riemann, pt)
            assert riemann == outcome(walked_riemann, metric, pt)
        assert 0 < inside


class TestRouteAgreement:
    """Property: on random convex separable potentials, with and without a
    ``-ln(linear form)`` coupling that makes them curved, the cubic-tensor
    route at alpha = 0 and the Levi-Civita route give one Ricci tensor."""

    #: Convex functions of one coordinate ``s`` for coefficients a, b > 0.
    TERMS = (
        "{a}*exp({b}*s)",
        "{a}*s^2",
        "{a}*(exp({b}*s) + exp(-{b}*s))",
        "{a}*s^4 + {b}*s^2",
        "-{a}*ln({b} + 1 - s)",
    )

    def test_routes_agree(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")

        coefficient = st.floats(0.5, 2.0)
        coordinate = st.floats(-0.5, 0.5)

        @st.composite
        def cases(draw):
            n = draw(st.integers(2, 4))
            names = [f"theta{i + 1}" for i in range(n)]
            terms = [
                draw(st.sampled_from(self.TERMS)).format(
                    a=repr(draw(coefficient)), b=repr(draw(coefficient))
                ).replace("s", name)
                for name in names
            ]
            weights = [draw(coefficient) for _ in range(n)]
            form = " + ".join(f"{w!r}*{v}" for w, v in zip(weights, names))
            form += f" + {0.5 * sum(weights) + draw(coefficient)!r}"
            coupling = draw(st.sampled_from([0.0, 1.0])) * draw(coefficient)
            psi = " + ".join(terms) + f" - {coupling!r}*ln({form})"
            point = tuple(draw(coordinate) for _ in range(n))
            return n, psi, form, point

        @hypothesis.settings(max_examples=30, deadline=None, derandomize=True)
        @hypothesis.given(cases())
        def check(case):
            n, psi, form, point = case
            spec = PotentialSpec.create("separable", n, psi, constraints=[form])
            cubic = alpha_curvature(spec, 0.0, point).ricci
            levi = ricci_from_metric(fisher_metric(spec), point).ricci
            assert np.max(np.abs(cubic - levi)) <= 1e-8 * max(1.0, np.max(np.abs(levi)))

        check()


class TestPlanarRoute:
    """The planar closed form ``r1212`` is the cubic-tensor route's
    ``R_1212``: relative, so of one sign, unless both are within rounding
    of the terms that cancel in it (it is zero where T has rank one)."""

    @staticmethod
    def assert_agree(spec, point, rel):
        planar = r1212(spec, point)
        bundle = alpha_curvature(spec, 0.0, point)
        tensor = bundle.riemann[0, 1, 0, 1]
        cubic = cubic_tensor(spec).evaluate(spec.bindings(point))
        size = np.max(np.abs(cubic)) ** 2 * np.max(np.abs(np.linalg.inv(bundle.metric)))
        assert abs(planar - tensor) <= rel * max(abs(planar), abs(tensor), size)
        return planar

    def test_catalog(self):
        for entry in map(get_entry, entry_names()):
            spec = entry.potential
            if spec is None:
                continue
            for point in sample_points(spec, entry.box, 10, seed=1):
                if convexity_check(spec, point) == CONVEX:
                    self.assert_agree(spec, point, 1e-13)

    def test_random_convex_potentials(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        coefficient = st.floats(0.5, 2.0)
        coordinate = st.floats(-0.5, 0.5)
        curved = []

        @st.composite
        def cases(draw):
            names = ("theta1", "theta2")
            terms = [
                draw(st.sampled_from(TestRouteAgreement.TERMS)).format(
                    a=repr(draw(coefficient)), b=repr(draw(coefficient))
                ).replace("s", name)
                for name in names
            ]
            weights = [draw(coefficient) for _ in names]
            form = " + ".join(f"{w!r}*{v}" for w, v in zip(weights, names))
            form += f" + {0.5 * sum(weights) + draw(coefficient)!r}"
            coupling = draw(st.sampled_from([0.0, 1.0])) * draw(coefficient)
            psi = " + ".join(terms) + f" - {coupling!r}*ln({form})"
            return psi, form, (draw(coordinate), draw(coordinate))

        @hypothesis.settings(max_examples=60, deadline=None, derandomize=True)
        @hypothesis.given(cases())
        def check(case):
            psi, form, point = case
            spec = PotentialSpec.create("planar", 2, psi, constraints=[form])
            if convexity_check(spec, point) == CONVEX:
                curved.append(self.assert_agree(spec, point, 1e-9) != 0.0)

        check()
        assert any(curved)
