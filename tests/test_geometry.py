import math
import pickle

import numpy as np
import pytest

from einstat.expressions import DomainError, finite_difference, parse
from einstat.geometry import (
    MetricField,
    PotentialSpec,
    SingularMetricError,
    alpha_connection,
    alpha_curvature,
    cubic_tensor,
    einstein_residual,
    fisher_metric,
    ricci_from_metric,
)

NORMAL = PotentialSpec.create(
    "normal-natural",
    2,
    "-(t^2)/(4*x) - ln(-x)/2 + ln(pi)/2",
    constraints=["-x"],
)
QUADRATIC = PotentialSpec.create("quadratic", 2, "(t^2 + x^2)/2")
ADDITIVE_EXP = PotentialSpec.create("flat-additive", 2, "exp(t) + exp(x)")

WEIBULL = MetricField.create(
    [
        ["x^2/t^2", "-(1 - euler_gamma)/t"],
        ["-(1 - euler_gamma)/t", "(euler_gamma^2 - 2*euler_gamma + pi^2/6 + 1)/x^2"],
    ],
    provenance="direct",
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
        # the second constraint raises DomainError (sin of inf) at x = 1, but
        # the first already fails there, so the tree walk never reaches it
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

    def test_hash_is_cached_and_consistent_with_equality(self):
        twin = PotentialSpec.create(
            "normal-natural", 2, "-(t^2)/(4*x) - ln(-x)/2 + ln(pi)/2",
            constraints=["-x"],
        )
        assert twin == NORMAL and hash(twin) == hash(NORMAL)
        assert "_hash" in vars(twin)
        assert "_hash" not in pickle.loads(pickle.dumps(twin)).__dict__


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


class TestEinsteinResidual:
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
