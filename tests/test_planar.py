import numpy as np
import pytest

from einstat.expressions import DomainError
from einstat.geometry import PotentialSpec, SingularMetricError, alpha_curvature
from einstat.planar import (
    CONVEX,
    DOMAIN_ERROR,
    NOT_CONVEX,
    SamplingError,
    convexity_check,
    convexity_scan,
    grid_centers,
    lambda_estimate,
    pde_residual,
    r1212,
    sample_points,
)

NORMAL = PotentialSpec.create(
    "normal-natural",
    2,
    "-(t^2)/(4*x) - ln(-x)/2 + ln(pi)/2",
    constraints=["-x"],
)
QUADRATIC = PotentialSpec.create("quadratic", 2, "(t^2 + x^2)/2")
ADDITIVE = PotentialSpec.create("flat-additive", 2, "exp(t) + exp(x)")
TRAVELING_WAVE = PotentialSpec.create(
    "traveling-wave", 2, "exp(t - c*x)", constants={"c": 1.0}
)
PRODUCT_POWER = PotentialSpec.create(
    "product-power",
    2,
    "(t - c5)^c4 * (x - c3)^2",
    constants={"c4": -0.5, "c5": 0.0, "c3": 0.0},
    constraints=["t", "x^2"],
)
# group-invariant solution for the shear-and-translation combination,
# constants chosen inside its convexity domain
INVARIANT_X6AX2 = PotentialSpec.create(
    "invariant-X6aX2",
    2,
    "-1/(4*lam) * ln(c2*exp(c1*x^2 - 2*c1*a*t) - 1) + c3",
    constants={"a": 1.0, "c1": -1.0, "c2": 2.0, "c3": 0.0, "lam": 1.0},
    constraints=["c2*exp(c1*x^2 - 2*c1*a*t) - 1"],
)


class TestR1212:
    def test_normal_value(self):
        assert r1212(NORMAL, (0.0, -0.5)) == pytest.approx(1.0, rel=1e-12)

    def test_quadratic_everywhere_zero(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            pt = tuple(rng.uniform(-2, 2, size=2))
            assert r1212(QUADRATIC, pt) == 0.0

    def test_additive_exponentials_flat(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            pt = tuple(rng.uniform(-1, 1, size=2))
            assert abs(r1212(ADDITIVE, pt)) < 1e-12

    def test_singular_metric_rejected(self):
        with pytest.raises(SingularMetricError):
            r1212(TRAVELING_WAVE, (0.0, 0.0))


class TestPdeResidual:
    def test_additive_flat_lambda_zero(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            pt = tuple(rng.uniform(-1, 1, size=2))
            assert abs(pde_residual(ADDITIVE, 0.0, pt)) < 1e-12

    def test_quadratic_lambda_one(self):
        assert pde_residual(QUADRATIC, 1.0, (0.7, -0.3)) == pytest.approx(-4.0)

    def test_outside_domain_rejected(self):
        # x = 1 violates -x > 0; the formula alone would give 0.0 there
        with pytest.raises(DomainError):
            pde_residual(NORMAL, 0.5, (0.5, 1.0))

    def test_invariant_solution_with_stored_defaults(self):
        pts = sample_points(INVARIANT_X6AX2, (0.5, 2.0, -1.0, 1.0), 100, seed=42)
        worst = max(abs(pde_residual(INVARIANT_X6AX2, 1.0, pt, relative=True)) for pt in pts)
        assert worst < 1e-7

    def test_invariant_family_solves_pde_at_nominal_constants(self):
        # the family solves the equation for any constants; only convexity
        # forces the catalog's sign choices
        nominal = PotentialSpec.create(
            "invariant-X6aX2-nominal",
            2,
            "-1/(4*lam) * ln(c2*exp(c1*x^2 - 2*c1*a*t) - 1) + c3",
            constants={"a": 1.0, "c1": 1.0, "c2": 2.0, "c3": 0.0, "lam": -1.0},
            constraints=["c2*exp(c1*x^2 - 2*c1*a*t) - 1"],
        )
        pts = sample_points(nominal, (-2.0, -0.5, -1.0, 1.0), 100, seed=42)
        worst = max(abs(pde_residual(nominal, -1.0, pt, relative=True)) for pt in pts)
        assert worst < 1e-7

    def test_consistency_with_r1212(self):
        # residual == 4 det (R1212 - lam det) is an algebraic identity
        from einstat.geometry import fisher_metric

        rng = np.random.default_rng(3)
        for spec, box in [
            (NORMAL, (-1, 1, -2, -0.1)),
            (ADDITIVE, (-1, 1, -1, 1)),
            (INVARIANT_X6AX2, (0.5, 2.0, -1.0, 1.0)),
        ]:
            g = fisher_metric(spec)
            for _ in range(10):
                pt = (float(rng.uniform(*box[:2])), float(rng.uniform(*box[2:])))
                if not spec.in_domain(pt):
                    continue
                lam = float(rng.uniform(-1, 1))
                det = float(np.linalg.det(g.evaluate(pt)))
                lhs = pde_residual(spec, lam, pt)
                rhs = 4.0 * det * (r1212(spec, pt) - lam * det)
                assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(lhs))

    def test_sectional_matches_curvature_bundle(self):
        from einstat.geometry import fisher_metric

        for pt in [(0.2, -0.4), (-0.5, -1.3)]:
            g = fisher_metric(NORMAL).evaluate(pt)
            det = float(np.linalg.det(g))
            kappa_planar = -r1212(NORMAL, pt) / det
            bundle = alpha_curvature(NORMAL, 0.0, pt)
            assert abs(kappa_planar - bundle.sectional[(0, 1)]) < 1e-10

    def test_affine_shift_changes_nothing(self):
        shifted = PotentialSpec.create(
            "normal-affine",
            2,
            "-(t^2)/(4*x) - ln(-x)/2 + ln(pi)/2 + 2*t - 5*x + 1",
            constraints=["-x"],
        )
        rng = np.random.default_rng(4)
        for _ in range(10):
            pt = (float(rng.uniform(-1, 1)), float(rng.uniform(-2, -0.1)))
            assert abs(
                pde_residual(NORMAL, 0.5, pt) - pde_residual(shifted, 0.5, pt)
            ) < 1e-10
            assert convexity_check(NORMAL, pt) == convexity_check(shifted, pt)


class TestConvexity:
    def test_quadratic_convex(self):
        assert convexity_check(QUADRATIC, (17.0, -23.0)) == CONVEX

    def test_traveling_wave_degenerate(self):
        for pt in [(0.0, 0.0), (1.0, 2.0), (-0.5, 0.3)]:
            assert convexity_check(TRAVELING_WAVE, pt) == NOT_CONVEX

    def test_normal_wrong_side_is_domain_error(self):
        assert convexity_check(NORMAL, (0.0, 1.0)) == DOMAIN_ERROR

    def test_scan_normal_box_fully_convex(self):
        report = convexity_scan(NORMAL, (-1.0, 1.0, -2.0, -0.1), (20, 20))
        assert report.counts[CONVEX] == 400
        assert report.largest_convex_cells == 400
        assert sum(report.counts.values()) == 400

    def test_scan_quadratic_all_convex(self):
        report = convexity_scan(QUADRATIC, (-3.0, 3.0, -3.0, 3.0), (5, 7))
        assert report.counts[CONVEX] == 35

    def test_scan_traveling_wave_none_convex(self):
        report = convexity_scan(TRAVELING_WAVE, (-1.0, 1.0, -1.0, 1.0), (6, 6))
        assert report.counts[CONVEX] == 0
        assert report.largest_convex_box is None

    def test_scan_reports_largest_subbox(self):
        # convex only for x < 0, so the best rectangle hugs the left half
        report = convexity_scan(NORMAL, (-1.0, 1.0, -1.0, 1.0), (4, 10))
        assert report.counts[CONVEX] == 4 * 5
        t0, t1, x0, x1 = report.largest_convex_box
        assert (t0, t1) == (-1.0, 1.0)
        assert x1 <= 0.0 + 1e-12

    def test_csv_rows_cover_grid(self):
        report = convexity_scan(QUADRATIC, (0.0, 1.0, 0.0, 1.0), (2, 3))
        rows = list(report.csv_rows())
        assert len(rows) == 6
        assert rows[0][:2] == (0, 0)
        assert rows[-1][4] == CONVEX

    def test_csv_rows_are_the_grid_centers(self):
        box, grid = (-1.0, 1.0, -2.0, -0.1), (3, 4)
        report = convexity_scan(NORMAL, box, grid)
        cells = [(r, c, (t, x)) for r, c, t, x, _ in report.csv_rows()]
        assert cells == list(grid_centers(box, grid))


class TestGridCenters:
    def test_row_major_cell_centers(self):
        assert list(grid_centers((0, 1, 0, 2), (2, 2))) == [
            (0, 0, (0.25, 0.5)),
            (0, 1, (0.25, 1.5)),
            (1, 0, (0.75, 0.5)),
            (1, 1, (0.75, 1.5)),
        ]


class TestLambdaEstimate:
    def test_normal(self):
        pts = sample_points(NORMAL, (-1.0, 1.0, -2.0, -0.1), 50, seed=42)
        est = lambda_estimate(NORMAL, pts)
        assert est.estimate == pytest.approx(0.5, abs=1e-10)
        assert est.deviation < 1e-9
        assert est.samples == 50

    def test_quadratic_zero(self):
        est = lambda_estimate(QUADRATIC, [(0.0, 0.0), (1.0, 1.0), (2.0, -1.0)])
        assert est.estimate == 0.0
        assert est.deviation == 0.0

    def test_product_power_flat(self):
        pts = sample_points(PRODUCT_POWER, (0.5, 3.0, 0.5, 3.0), 50, seed=7)
        est = lambda_estimate(PRODUCT_POWER, pts)
        assert abs(est.estimate) < 1e-8
        assert est.deviation < 1e-8

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            lambda_estimate(NORMAL, [(0.0, -1.0)])

    def test_singular_metric_rejected(self):
        # exp(t) * exp(x) has det g = 0 everywhere; no curvature constant exists
        product = PotentialSpec.create("product-exponential", 2, "exp(t) * exp(x)")
        with pytest.raises(SingularMetricError):
            lambda_estimate(product, [(0.0, 0.0), (0.5, -0.5)])

    def test_outside_domain_rejected(self):
        with pytest.raises(DomainError):
            lambda_estimate(NORMAL, [(0.0, -1.0), (0.5, 1.0)])


class TestSampling:
    def test_deterministic(self):
        a = sample_points(NORMAL, (-1, 1, -2, -0.1), 10, seed=3)
        b = sample_points(NORMAL, (-1, 1, -2, -0.1), 10, seed=3)
        assert a == b

    def test_respects_domain(self):
        pts = sample_points(NORMAL, (-1, 1, -2, 2), 40, seed=5)
        assert all(x < 0 for _, x in pts)

    def test_budget_exhaustion(self):
        impossible = PotentialSpec.create("nowhere", 2, "t", constraints=["0 - t^2 - 1"])
        with pytest.raises(SamplingError):
            sample_points(impossible, (-1, 1, -1, 1), 1, seed=0)
