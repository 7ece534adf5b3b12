import dataclasses
import json
import math

import numpy as np
import pytest

from einstat import catalog
from einstat.catalog import (
    CHECK_EINSTEIN,
    CHECK_PDE_RESIDUAL,
    entry_names,
    entry_to_dict,
    export_catalog,
    get_entry,
    list_entries,
    traveling_wave,
    verify_all,
    verify_entry,
)
from einstat.geometry import fisher_metric
from einstat.planar import r1212, sample_points

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
            expected_lambda=exported["lambda"],
        )
        assert rebuilt.psi == get_entry("invariant-X6aX2").potential.psi

    def test_metric_export_contains_matrix(self):
        exported = entry_to_dict(get_entry("weibull-metric"))
        assert len(exported["metric"]) == 2
        assert "euler_gamma" in exported["metric"][0][1]
