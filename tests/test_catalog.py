import dataclasses
import json
import math

import numpy as np
import pytest

from einstat import catalog, cli
from einstat.catalog import (
    CHECK_EINSTEIN,
    CHECK_PDE_RESIDUAL,
    EINSTEIN_TOL,
    entry_names,
    entry_to_dict,
    export_catalog,
    get_entry,
    list_entries,
    traveling_wave,
    verify_all,
    verify_entry,
)
from einstat.expressions import DomainError, ExpressionError, worst_residual
from einstat.geometry import (
    MetricField,
    PotentialSpec,
    SingularMetricError,
    fisher_metric,
    ricci_from_metric,
)
from einstat.planar import r1212, sample_points


def einstein_by_point(entry, seed):
    """The Einstein check of a direct-metric entry, point by point: whether
    it passes, and its detail."""
    residuals, failure = [], None
    try:
        for pt in sample_points(entry.metric, entry.box, entry.samples, seed=seed):
            bundle = ricci_from_metric(entry.metric, pt)
            res = bundle.ricci + entry.expected_lambda * bundle.metric
            residuals.append(float(np.max(np.abs(res))))
    except ExpressionError as exc:
        failure = str(exc)
    detail = {"max_residual": worst_residual(residuals)}
    if failure:
        detail["error"] = failure
    return failure is None and detail["max_residual"] < EINSTEIN_TOL, detail


INVARIANT_NAMES = [
    "invariant-X4aX2",
    "invariant-X5aX1",
    "invariant-X6aX2",
    "invariant-X7aX1",
    "invariant-X8aX5",
    "invariant-X8aX6",
    "invariant-X9aX4",
    "invariant-X9aX7",
]


class TestListing:
    def test_mandatory_entries_present(self):
        names = entry_names()
        assert "normal-natural" in names
        assert "weibull-metric" in names
        assert "flat-additive" in names
        assert "flat-additive-travelingwave" in names
        assert "product-exponential" in names
        assert "product-power" in names
        assert "product-cosh" in names
        for name in INVARIANT_NAMES:
            assert name in names

    def test_names_unique_and_order_stable(self):
        names = entry_names()
        assert len(names) == len(set(names))
        assert names == entry_names()

    def test_summaries_match_entries(self):
        summaries = list_entries()
        assert [s["name"] for s in summaries] == entry_names()
        normal = next(s for s in summaries if s["name"] == "normal-natural")
        assert normal["lambda"] == 0.5
        assert normal["kind"] == "potential"

    def test_unknown_entry(self):
        with pytest.raises(KeyError):
            get_entry("does-not-exist")


class TestVerification:
    def test_normal_passes_with_half(self):
        report = verify_entry("normal-natural")
        assert report.passed
        assert report.expected_lambda == 0.5
        est = next(c for c in report.checks if c.name == "lambda-estimate")
        assert est.detail["estimate"] == pytest.approx(0.5, abs=1e-9)

    def test_weibull_passes_with_positive_ratio(self):
        # the Levi-Civita curvature of this metric gives Ric = -(6/pi^2) g,
        # so the residual vanishes at lambda = +6/pi^2
        report = verify_entry("weibull-metric")
        assert report.passed
        assert report.expected_lambda == pytest.approx(6.0 / math.pi ** 2)
        assert report.checks[0].name == CHECK_EINSTEIN

    def test_flat_additive_passes_with_zero(self):
        report = verify_entry("flat-additive")
        assert report.passed
        assert report.expected_lambda == 0.0

    def test_every_entry_passes_with_stored_defaults(self):
        reports = verify_all(seed=42)
        failing = [r.entry for r in reports if not r.passed]
        assert failing == []

    def test_flat_entries_have_zero_curvature_component(self):
        for entry in (get_entry(n) for n in entry_names()):
            if not entry.flat or entry.kind != "potential":
                continue
            if CHECK_PDE_RESIDUAL in entry.checks and "degenerate-metric" in entry.checks:
                continue  # no inverse metric exists for the degenerate entry
            pts = sample_points(entry.potential, entry.box, 25, seed=1)
            assert max(abs(r1212(entry.potential, pt)) for pt in pts) < 1e-9

    def test_metric_box_without_domain_points_fails(self, monkeypatch):
        # t, x > 0 nowhere in this box: the check must fail, not pass vacuously
        entry = dataclasses.replace(get_entry("weibull-metric"), box=(-3.0, -1.0, -3.0, -1.0))
        monkeypatch.setitem(catalog._ENTRIES, "weibull-metric", entry)
        report = verify_entry("weibull-metric")
        assert not report.passed
        assert "could not draw 100 in-domain points" in report.checks[0].detail["error"]

    @pytest.mark.parametrize("seed", range(1, 21))
    def test_einstein_check_is_the_point_by_point_check(self, seed):
        report = verify_entry("weibull-metric", seed=seed)
        check = report.checks[0]
        expected = einstein_by_point(get_entry("weibull-metric"), seed)
        assert (check.passed, check.detail) == expected
        assert check.passed

    # a metric whose tape raises at some of the points, and one that is
    # singular everywhere: the check reports the first point's error and
    # the worst residual before it, as point by point
    @pytest.mark.parametrize(
        "entries, seed, message",
        [
            # nine points come before the first with t < 1
            ([["x^2/t^2", "0"], ["0", "sqrt(t - 1) + 1"]], 4,
             "sqrt of negative value in 'sqrt(theta1 - 1)'"),
            ([["1", "1"], ["1", "1"]], 1,
             "metric is numerically singular (det=0.000e+00, scale=1.000e+00)"),
        ],
    )
    def test_einstein_check_of_a_failing_metric(self, monkeypatch, entries, seed, message):
        metric = MetricField.create(entries, constraints=["t", "x"], name="weibull-metric")
        entry = dataclasses.replace(get_entry("weibull-metric"), metric=metric)
        monkeypatch.setitem(catalog._ENTRIES, "weibull-metric", entry)
        check = verify_entry("weibull-metric", seed=seed).checks[0]
        assert (check.passed, check.detail) == einstein_by_point(entry, seed)
        assert check.detail["error"] == message

    # the stored checks on a set of points where a tape raises, or where
    # the metric is singular: the first error in check order, then in point
    # order, is raised (and the CLI exits 3 with it), as point by point
    @pytest.mark.parametrize(
        "psi, box, checks, seed, error, message",
        [
            # the Hessian overflows at some points, the cubic tensor at more
            ("exp(exp(t)) + x^2", (6.50, 6.56, -1.0, 1.0),
             ("convexity", "pde-residual", "lambda-estimate"), 1,
             DomainError, "overflow in 'exp(exp(theta1))*exp(theta1)*exp(theta1)'"),
            ("t^2 + x^2 + sqrt(t*x)^3", (-1.0, 1.0, -1.0, 1.0),
             ("convexity", "pde-residual"), 2,
             DomainError, "sqrt of negative value in 'sqrt(theta1*theta2)'"),
            # singular past t = 3.1, and the tapes overflow past t = 6.54
            ("exp(exp(t)) + x^2", (2.9, 6.6, -1.0, 1.0),
             ("convexity", "lambda-estimate", "flatness"), 1,
             SingularMetricError, "metric is numerically singular (det=8.136e+56)"),
            ("exp(exp(t)) + x^2", (2.9, 6.6, -1.0, 1.0),
             ("flatness",), 2,
             SingularMetricError, "metric is numerically singular (det=2.808e+24)"),
        ],
    )
    def test_first_error_of_a_failing_sample_set(
        self, monkeypatch, capsys, psi, box, checks, seed, error, message
    ):
        spec = PotentialSpec.create("normal-natural", 2, psi)
        entry = dataclasses.replace(
            get_entry("normal-natural"), potential=spec, box=box, checks=checks
        )
        monkeypatch.setitem(catalog._ENTRIES, "normal-natural", entry)
        with pytest.raises(error) as raised:
            verify_entry("normal-natural", seed=seed)
        assert str(raised.value) == message
        assert cli.main(["catalog", "verify", "normal-natural", "--seed", str(seed)]) == 3
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"error: {message}\n")

    def test_report_serializes(self):
        report = verify_entry("product-cosh")
        data = report.to_dict()
        assert data["entry"] == "product-cosh"
        assert data["pass"] is True
        json.dumps(data)


class TestInvariantEntries:
    @pytest.mark.parametrize("name", INVARIANT_NAMES)
    def test_passes(self, name):
        report = verify_entry(name)
        assert report.passed, report.to_dict()

    def test_positive_lambda_throughout(self):
        # none of the eight families admits a convexity domain at negative
        # curvature parameter
        for name in INVARIANT_NAMES:
            assert get_entry(name).expected_lambda == 1.0


class TestDegenerateFamilies:
    def test_traveling_wave_determinant_vanishes(self):
        rng = np.random.default_rng(0)
        for c in (0.5, 1.0, 2.0):
            spec = traveling_wave(c)
            metric = fisher_metric(spec)
            for _ in range(20):
                pt = (float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1)))
                g = metric.evaluate(pt)
                scale = float(np.max(np.abs(g)))
                assert abs(np.linalg.det(g)) / scale ** 2 < 1e-12

    def test_product_exponential_detects_degeneracy(self):
        report = verify_entry("product-exponential")
        check = next(c for c in report.checks if c.name == "degenerate-metric")
        assert check.passed


class TestDerivativeOracleProperty:
    def test_symbolic_matches_finite_differences_at_50_points(self):
        # orders 1..3, both variables, every catalog expression
        from einstat.expressions import differentiate, evaluate, finite_difference
        from einstat.geometry import resolved_potential

        worst = 0.0
        for name in entry_names():
            entry = get_entry(name)
            if entry.kind == "potential":
                exprs = [resolved_potential(entry.potential)]
                points = sample_points(entry.potential, entry.box, 50, seed=11)
            else:
                exprs = [
                    entry.metric.entries[0][0],
                    entry.metric.entries[0][1],
                    entry.metric.entries[1][1],
                ]
                rng = np.random.default_rng(11)
                points = [
                    (
                        float(rng.uniform(entry.box[0], entry.box[1])),
                        float(rng.uniform(entry.box[2], entry.box[3])),
                    )
                    for _ in range(50)
                ]
            for expr in exprs:
                for variable in ("theta1", "theta2"):
                    symbolic = expr
                    for order in (1, 2, 3):
                        symbolic = differentiate(symbolic, variable)
                        for pt in points:
                            b = {"theta1": pt[0], "theta2": pt[1]}
                            expected = evaluate(symbolic, b)
                            got = finite_difference(expr, variable, b, order)
                            worst = max(worst, abs(expected - got) / max(1.0, abs(expected)))
        assert worst < 1e-6, worst


class TestExport:
    def test_export_is_json_ready_and_complete(self):
        data = export_catalog()
        assert [d["name"] for d in data] == entry_names()
        text = json.dumps(data)
        assert "normal-natural" in text

    def test_potential_export_roundtrips_expression(self):
        from einstat.geometry import PotentialSpec

        exported = entry_to_dict(get_entry("invariant-X6aX2"))
        rebuilt = PotentialSpec.create(
            exported["name"],
            2,
            exported["expression"],
            constants=exported["constants"],
            constraints=exported["constraints"],
        )
        assert rebuilt.psi == get_entry("invariant-X6aX2").potential.psi

    def test_metric_export_contains_matrix(self):
        exported = entry_to_dict(get_entry("weibull-metric"))
        assert len(exported["metric"]) == 2
        assert "euler_gamma" in exported["metric"][0][1]
