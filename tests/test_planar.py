import dataclasses
import math
import struct
import sys

import numpy as np
import pytest

from einstat import planar
from einstat.catalog import get_entry
from einstat.expressions import DomainError, ExpressionError
from einstat.geometry import (
    SINGULARITY_THRESHOLD,
    PotentialSpec,
    SingularMetricError,
    _cubic_tape,
    _entry_tape,
    _in_domain,
    alpha_curvature,
    fisher_metric,
    resolved_potential,
)
from einstat.planar import (
    CONVEX,
    DOMAIN_ERROR,
    MAX_SAMPLING_ATTEMPTS,
    NOT_CONVEX,
    LambdaEstimate,
    SamplingError,
    convexity_check,
    convexity_scan,
    evaluate_points,
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


def candidate_loop(spec, box, count, seed, budget=MAX_SAMPLING_ATTEMPTS):
    """The per-candidate sampler: draw ``(uniform(t0, t1), uniform(x0, x1))``
    and test it, one candidate at a time.  Returns the points and how many
    candidates were drawn."""
    t0, t1, x0, x1 = map(float, box)
    rng = np.random.default_rng(seed)
    points, attempts = [], 0
    while len(points) < count:
        if attempts >= budget:
            raise SamplingError(f"could not draw {count} in-domain points from {tuple(box)}")
        attempts += 1
        pt = (float(rng.uniform(t0, t1)), float(rng.uniform(x0, x1)))
        if spec.in_domain(pt):
            points.append(pt)
    return points, attempts


SAMPLED = [
    (NORMAL, (-1.0, 1.0, -2.0, 2.0)),            # about half outside
    (PRODUCT_POWER, (-1.0, 3.0, -1.0, 3.0)),
    (INVARIANT_X6AX2, (-1.0, 3.0, -2.0, 2.0)),
    (get_entry("weibull-metric").metric, (-1.0, 3.0, -2.0, 3.0)),
    (get_entry("invariant-X8aX5").potential, (-0.5, 3.0, -0.5, 3.0)),
    (QUADRATIC, (0.0, 1.0, 5.0, 5.0)),          # a zero-width side
]


class TestBlockSampler:
    @pytest.mark.parametrize("source, box", SAMPLED)
    def test_same_points_as_the_candidate_loop(self, source, box):
        for seed in range(12):
            for count in (1, 7, 100, 333):
                assert sample_points(source, box, count, seed=seed) == candidate_loop(
                    source, box, count, seed
                )[0]

    @pytest.mark.parametrize("source, box", SAMPLED[:4])
    def test_sampling_error_at_the_same_budget(self, source, box, monkeypatch):
        for seed in (3, 4):
            points, needed = candidate_loop(source, box, 40, seed)
            monkeypatch.setattr(planar, "MAX_SAMPLING_ATTEMPTS", needed)
            assert sample_points(source, box, 40, seed=seed) == points
            monkeypatch.setattr(planar, "MAX_SAMPLING_ATTEMPTS", needed - 1)
            with pytest.raises(SamplingError, match="could not draw 40 in-domain points"):
                sample_points(source, box, 40, seed=seed)

    def test_replaced_domain_test_is_asked_point_by_point(self, monkeypatch):
        asked = []

        def counting(self, point):
            asked.append(point)
            return _in_domain(self, point)

        expected = sample_points(NORMAL, (-1.0, 1.0, -2.0, 2.0), 20, seed=9)
        monkeypatch.setattr(PotentialSpec, "in_domain", counting)
        assert sample_points(NORMAL, (-1.0, 1.0, -2.0, 2.0), 20, seed=9) == expected
        assert expected == [pt for pt in asked if pt[1] < 0][:20]

    def test_unbounded_box_raises_as_a_draw_does(self):
        with pytest.raises(OverflowError, match="high - low range exceeds valid bounds"):
            sample_points(QUADRATIC, (-1e308, 1e308, 0.0, 1.0), 3)


def _same(values):
    # bit patterns, so that NaN equals NaN and 0.0 differs from -0.0
    return [struct.pack("<d", v) if isinstance(v, float) else v for v in values]


def per_point(check, points):
    """``check`` at each point in order: the values, or the first error."""
    try:
        return _same([check(pt) for pt in points])
    except Exception as exc:
        return type(exc), str(exc)


def by_set(reduce):
    try:
        values = reduce()
        return _same(values.tolist() if isinstance(values, np.ndarray) else values)
    except Exception as exc:
        return type(exc), str(exc)


# the metric is singular for t past about 3.1 (the Hessian in t outgrows
# the one in x), and the cubic tensor overflows before the Hessian does
# around t = 6.54; with a tiny factor the Hessian scale squares to zero
REDUCTION_CASES = [
    (PotentialSpec.create("overflowing", 2, "exp(exp(t)) + x^2"), (2.0, 6.6, -1.0, 1.0)),
    (PotentialSpec.create("narrow", 2, "exp(exp(t)) + x^2"), (6.5, 6.56, -1.0, 1.0)),
    (PotentialSpec.create("tiny", 2, "1e-170*(t^2 + x^2 + t^3)"), (-1.0, 1.0, -1.0, 1.0)),
    (PotentialSpec.create("root", 2, "t^2 + x^2 + sqrt(t*x)^3"), (-1.0, 1.0, -1.0, 1.0)),
    (NORMAL, (-1.0, 1.0, -2.0, 2.0)),
    (TRAVELING_WAVE, (-1.0, 1.0, -1.0, 1.0)),
    (ADDITIVE, (-1.0, 1.0, -1.0, 1.0)),
]


class TestSetReductions:
    """Each reduction over a set of points, and each per-point function,
    gives the values of the scalar formulas below point by point, or
    raises the error the first failing point raises."""

    @pytest.mark.parametrize("spec, box", REDUCTION_CASES)
    def test_match_the_scalar_formulas(self, spec, box):
        rng = np.random.default_rng(11)
        for _ in range(4):
            points = rng.uniform(box[::2], box[1::2], size=(60, 2)).tolist()
            values = evaluate_points(spec, points)
            expected = per_point(lambda p: scalar_convexity(spec, p), points)
            assert by_set(values.convexity) == expected
            assert per_point(lambda p: convexity_check(spec, p), points) == expected
            for lam in (0.5, math.nan):
                expected = per_point(lambda p: scalar_pde_residual(spec, lam, p), points)
                assert by_set(lambda: values.pde_residuals(lam, relative=True)) == expected
                assert per_point(
                    lambda p: pde_residual(spec, lam, p, relative=True), points
                ) == expected
            expected = per_point(lambda p: scalar_curvature(spec, p)[0], points)
            assert by_set(lambda: values.curvature()[0]) == expected
            assert per_point(lambda p: r1212(spec, p), points) == expected
            for count in (2, 5, 60):
                assert by_set(
                    lambda: dataclasses.astuple(lambda_estimate(spec, points[:count]))
                ) == by_set(lambda: dataclasses.astuple(scalar_lambda_estimate(spec, points[:count])))

    @pytest.mark.parametrize("factor", ["1e-170", "1e-160", "1e170", "1e300"])
    def test_convexity_where_the_scale_squared_is_not_normal(self, factor):
        # the scale squared underflows (to 0 or a subnormal) or overflows;
        # t^2 + x^2 is convex everywhere, the t^3 term only for t > -1/3
        spec = PotentialSpec.create("scaled", 2, f"{factor}*(t^2 + x^2 + t^3)")
        points = np.random.default_rng(13).uniform(-1.0, 1.0, size=(60, 2)).tolist()
        expected = [scalar_convexity(spec, p) for p in points]
        assert evaluate_points(spec, points, cubic=False).convexity() == expected
        assert [convexity_check(spec, p) for p in points] == expected
        assert expected == [CONVEX if t > -1 / 3 else NOT_CONVEX for t, _ in points]

    @pytest.mark.parametrize("factor", [1e170, 1e300])
    def test_curvature_where_the_scale_squared_overflows(self, factor):
        # R1212 scales by the factor and kappa, so lambda, by its inverse;
        # unnormalized, the scale squared raises OverflowError past 1.3e154
        text = "-(t^2)/(4*x) - ln(-x)/2"
        base = PotentialSpec.create("base", 2, text, constraints=["-x"])
        scaled = PotentialSpec.create("scaled", 2, f"{factor!r}*({text})", constraints=["-x"])
        points = sample_points(base, (-1.0, 1.0, -2.0, -0.1), 20, seed=5)
        values, scaled_values = evaluate_points(base, points), evaluate_points(scaled, points)
        assert np.allclose(scaled_values.curvature()[0], factor * values.curvature()[0], rtol=1e-9)
        lam = values.lambda_estimate().estimate
        assert lam == pytest.approx(0.5, rel=1e-9)
        assert scaled_values.lambda_estimate().estimate == pytest.approx(lam / factor, rel=1e-9)
        assert np.all(np.abs(scaled_values.pde_residuals(lam / factor, relative=True)) < 1e-9)

    @pytest.mark.parametrize("factor", ["1e-170", "1e-300"])
    def test_a_scale_whose_square_underflows_to_zero_leaves_the_metric_singular(self, factor):
        # both sides of the PDE underflow to 0 at every lambda, so that
        # only the singular metric keeps a check from passing
        spec = PotentialSpec.create("tiny", 2, f"{factor}*(t^2 + x^2 + t^3)")
        values = evaluate_points(spec, [(0.1, 0.2), (-0.5, 0.3)])
        for lam in (0.0, 0.5, -2.0, 1e300):
            assert values.pde_residuals(lam, relative=True).tolist() == [0.0, 0.0]
        for reduction in (values.curvature, values.lambda_estimate):
            with pytest.raises(SingularMetricError, match="numerically singular"):
                reduction()

    def test_a_flat_potential_too_large_to_square_its_scale_fails_a_nonzero_lambda(self):
        # lhs is 0 and rhs 4 lam det^2 is past the largest double: the
        # relative residual is -1, as for any flat potential, not 0 / 0
        spec = PotentialSpec.create("huge", 2, "1e200*(t^2 + x^2)")
        values = evaluate_points(spec, [(0.1, 0.2), (-0.5, 0.3)])
        assert values.pde_residuals(0.0, relative=True).tolist() == [0.0, 0.0]
        assert values.pde_residuals(0.5, relative=True).tolist() == [-1.0, -1.0]
        assert values.lambda_estimate().estimate == 0.0

    @pytest.mark.parametrize("spec, box", REDUCTION_CASES)
    def test_relative_determinants_match_each_metric_evaluation(self, spec, box):
        rng = np.random.default_rng(12)
        metric = fisher_metric(spec)

        def relative(p):
            g = metric.evaluate(p)
            g = g / scalar_divisor(g.ravel().tolist())
            scale = float(np.max(np.abs(g)))
            return abs(float(np.linalg.det(g))) / scale ** 2 if scale else 0.0

        for _ in range(4):
            points = rng.uniform(box[::2], box[1::2], size=(60, 2)).tolist()
            inside = [p for p in points if spec.in_domain(p)]
            assert by_set(lambda: evaluate_points(spec, inside).relative_determinants()) == (
                per_point(relative, inside)
            )


# -- the scalar formulas, point by point with Python floats -------------------

def scalar_hessian(spec, point):
    if not spec.in_domain(point):
        raise DomainError("point violates the domain constraints", resolved_potential(spec))
    return _entry_tape(fisher_metric(spec))(spec.bindings(point))


def scalar_divisor(h2):
    """The Hessian scale where it is finite and its square overflows, else
    1.0: the reductions run on the values divided by it."""
    scale = max(abs(v) for v in h2)
    return scale if scale * scale == math.inf and scale < math.inf else 1.0


def scalar_numerator(spec, point, h2, divisor):
    ptt, ptx, pxx = h2
    pttt, pttx, ptxx, pxxx = (v / divisor for v in _cubic_tape(spec)(spec.bindings(point)))
    return (
        ptt * (pttx * pxxx - ptxx * ptxx)
        - ptx * (pttt * pxxx - pttx * ptxx)
        + pxx * (pttt * ptxx - pttx * pttx)
    )


def scalar_normalized_hessian(spec, point):
    h2 = scalar_hessian(spec, point)
    s = scalar_divisor(h2)
    return [v / s for v in h2], s


def scalar_normalized_curvature(spec, point):
    """R1212 and det(g) of the values divided by ``s``, and ``s``."""
    h2, s = scalar_normalized_hessian(spec, point)
    det = h2[0] * h2[2] - h2[1] ** 2
    scale = max(abs(v) for v in h2)
    if scale == 0.0 or abs(det) <= SINGULARITY_THRESHOLD * scale ** 2:
        raise SingularMetricError(f"metric is numerically singular (det={det * s * s:.3e})")
    return scalar_numerator(spec, point, h2, s) / (4.0 * det), det, s


def scalar_curvature(spec, point):
    r, det, s = scalar_normalized_curvature(spec, point)
    return r * s, det * s * s


def scalar_pde_residual(spec, lam, point):
    # lhs and rhs are those of the unscaled values over s**3, and so is the floor
    h2, s = scalar_normalized_hessian(spec, point)
    det = h2[0] * h2[2] - h2[1] ** 2
    lhs = scalar_numerator(spec, point, h2, s)
    rhs = 4.0 * lam * det * s * det
    floor = max(1.0 / s / s / s, sys.float_info.min * sys.float_info.epsilon)
    return (lhs - rhs) / max(abs(lhs), abs(rhs), floor)


def scalar_convexity(spec, point):
    try:
        ptt, ptx, pxx = scalar_hessian(spec, point)
    except ExpressionError:
        return DOMAIN_ERROR
    scale = max(abs(ptt), abs(ptx), abs(pxx))
    if scale == 0.0:
        return NOT_CONVEX
    if not sys.float_info.min <= scale * scale < math.inf:
        ptt, ptx, pxx, scale = ptt / scale, ptx / scale, pxx / scale, 1.0
    trace = (ptt + pxx) / scale
    det = (ptt * pxx - ptx * ptx) / (scale * scale)
    return CONVEX if trace > 1e-12 and det > 1e-12 else NOT_CONVEX


def scalar_lambda_estimate(spec, points):
    values = [r / det / s for r, det, s in (scalar_normalized_curvature(spec, p) for p in points)]
    if len(values) < 2:
        raise ValueError("need at least two valid sample points")
    estimate = math.fsum(values) / len(values)
    return LambdaEstimate(estimate, max(abs(v - estimate) for v in values), len(values))


def test_stacked_det_is_the_det_of_each_matrix():
    rng = np.random.default_rng(0)
    g = rng.standard_normal((20000, 2, 2)) * 10.0 ** rng.integers(-150, 150, size=(20000, 1, 1))
    g[:, 1, 0] = g[:, 0, 1]
    assert _same(np.linalg.det(g).tolist()) == _same([float(np.linalg.det(m)) for m in g])
