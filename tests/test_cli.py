import csv
import io
import json
import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

import einstat
from einstat.catalog import get_entry
from einstat.cli import main
from einstat.planar import grid_centers, sample_points

DEEP_SUM = "+".join(["x"] * 3000)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParseCommand:
    def test_echoes_normalized_expression(self, capsys):
        code, out, _ = run(capsys, "parse", "--expr", "0*x + t^2")
        assert code == 0
        payload = json.loads(out)
        assert payload["results"][0]["normalized"] == "0*x + t^2"
        assert payload["pass"] is True

    def test_bad_expression_is_usage_error(self, capsys):
        code, _, err = run(capsys, "parse", "--expr", "foo(t)")
        assert code == 2
        assert "unknown function" in err

    def test_too_deep_expression_is_usage_error(self, capsys):
        code, out, err = run(capsys, "parse", "--expr", DEEP_SUM)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


class TestCheckCommand:
    def test_catalog_normal(self, capsys):
        code, out, _ = run(capsys, "check", "--catalog", "normal-natural")
        assert code == 0
        payload = json.loads(out)
        assert payload["input"]["lambda"] == 0.5
        assert payload["pass"] is True

    def test_quadratic_with_wrong_lambda_fails(self, capsys):
        code, out, _ = run(
            capsys, "check", "--expr", "t^2+x^2", "--lambda", "1", "--box", "-1,1,-1,1"
        )
        assert code == 1
        payload = json.loads(out)
        assert payload["pass"] is False
        # residual of the quadratic against lambda=1 is exactly -4, and the
        # relative normalization divides by the dominant magnitude 4
        assert payload["results"][0]["max_relative_residual"] == pytest.approx(1.0)

    def test_quadratic_with_zero_lambda_passes(self, capsys):
        code, out, _ = run(
            capsys, "check", "--expr", "t^2+x^2", "--lambda", "0", "--box", "-1,1,-1,1"
        )
        assert code == 0

    def test_expr_requires_lambda(self, capsys):
        code, _, err = run(capsys, "check", "--expr", "t^2+x^2")
        assert code == 2
        assert "--lambda" in err

    def test_both_sources_rejected(self, capsys):
        code, _, err = run(
            capsys, "check", "--expr", "t^2", "--catalog", "normal-natural", "--lambda", "0"
        )
        assert code == 2

    def test_unknown_catalog_name(self, capsys):
        code, _, err = run(capsys, "check", "--catalog", "no-such-entry")
        assert code == 2

    def test_trig_of_infinity_is_domain_error(self, capsys):
        code, _, err = run(
            capsys, "check", "--expr", "sin(t*1e308*1e308) + exp(x)", "--lambda", "0"
        )
        assert code == 3
        assert err.startswith("error: ")

    def test_division_by_literal_zero_is_domain_error(self, capsys):
        code, out, err = run(capsys, "check", "--expr", "t/0", "--lambda", "0")
        assert code == 3
        assert out == ""
        assert err == "error: division by zero in '0/0'\n"

    def test_overflowing_constant_is_domain_error(self, capsys):
        code, out, err = run(
            capsys, "check", "--expr", "(1e308*10 - 1e308*10)*t^3 + t^2 + x^2",
            "--lambda", "0", "--samples", "2",
        )
        assert code == 3
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_non_finite_numbers_print_as_null(self, capsys, fmt):
        code, out, _ = run(
            capsys, "check", "--expr", "1e400*t^3 + t^2 + x^2", "--lambda", "0",
            "--samples", "2", "--format", fmt,
        )
        assert code == 1

        def reject(token):
            raise ValueError(f"not JSON: {token}")

        if fmt == "text":
            results = [json.loads(line, parse_constant=reject) for line in out.splitlines()[1:]]
        else:
            results = json.loads(out, parse_constant=reject)["results"]
        assert results[0]["max_relative_residual"] is None

    @pytest.mark.parametrize("expr", ["t+x", "x^2", "exp(1000*t)-exp(1000*t)+exp(x)"])
    def test_singular_metric_fails(self, capsys, expr):
        # every residual is 0 - 0 without a Fisher metric, whatever lambda is
        code, out, _ = run(capsys, "check", "--expr", expr, "--lambda", "0.3")
        assert code == 1
        payload = json.loads(out)
        assert payload["pass"] is False
        summary = payload["results"][0]
        assert summary["max_relative_residual"] == 0.0
        assert summary["lambda_error"].startswith("metric is numerically singular")

    def test_single_sample_has_no_lambda_estimate(self, capsys):
        code, out, _ = run(
            capsys, "check", "--expr", "t^2+x^2", "--lambda", "0", "--samples", "1"
        )
        assert code == 0
        assert json.loads(out)["results"][0] == {"max_relative_residual": 0.0}

    def test_too_deep_expression_is_usage_error(self, capsys):
        code, out, err = run(capsys, "check", "--expr", DEEP_SUM, "--lambda", "0")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


class TestCurvatureCommand:
    def test_sampled_points(self, capsys):
        code, out, _ = run(
            capsys, "curvature", "--catalog", "normal-natural", "--samples", "5"
        )
        assert code == 0
        payload = json.loads(out)
        assert len(payload["results"]) == 5
        for record in payload["results"]:
            assert record["kappa"] == pytest.approx(-0.5, abs=1e-9)

    def test_direct_metric_entry(self, capsys):
        code, out, _ = run(
            capsys, "curvature", "--catalog", "weibull-metric",
            "--box", "0.5,3,0.5,3", "--samples", "3",
        )
        assert code == 0
        payload = json.loads(out)
        import math

        for record in payload["results"]:
            assert record["kappa"] == pytest.approx(-6 / math.pi ** 2, abs=1e-9)

    def test_direct_metric_entry_accepts_alpha_zero(self, capsys):
        argv = ["curvature", "--catalog", "weibull-metric", "--samples", "3"]
        argv += ["--box", "0.5,3,0.5,3"]
        _, expected, _ = run(capsys, *argv)
        code, out, _ = run(capsys, *argv, "--alpha", "0")
        assert code == 0
        assert out == expected

    def test_grid_csv(self, capsys):
        code, out, _ = run(
            capsys, "curvature", "--catalog", "normal-natural",
            "--grid", "2,2", "--format", "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "row,col,t,x,kappa,scalar,r1212"
        assert len(lines) == 5

    @pytest.mark.parametrize(
        "name, box", [("normal-natural", "-1,1,-2,-0.1"), ("weibull-metric", "0.5,3,0.5,3")]
    )
    def test_sampled_points_are_sample_points(self, capsys, name, box):
        code, out, _ = run(
            capsys, "curvature", "--catalog", name, "--box", box, "--samples", "7", "--seed", "11"
        )
        assert code == 0
        points = [tuple(r["point"]) for r in json.loads(out)["results"]]
        bounds = [float(v) for v in box.split(",")]
        assert points == sample_points(get_entry(name).source(), bounds, 7, seed=11)

    def test_box_without_domain_points_exit_code(self, capsys):
        code, out, err = run(
            capsys, "curvature", "--catalog", "normal-natural", "--box", "-1,1,1,2",
            "--samples", "3",
        )
        assert code == 3
        assert out == ""
        assert "could not draw 3 in-domain points" in err

    def test_grid_points_are_grid_centers(self, capsys):
        box = (-1.0, 1.0, -2.0, -0.1)
        expected = [pt for _, _, pt in grid_centers(box, (3, 4))]
        code, out, _ = run(
            capsys, "curvature", "--catalog", "normal-natural", "--box", "-1,1,-2,-0.1",
            "--grid", "3,4",
        )
        assert code == 0
        assert [tuple(r["point"]) for r in json.loads(out)["results"]] == expected
        code, out, _ = run(
            capsys, "convexity", "--catalog", "normal-natural", "--box", "-1,1,-2,-0.1",
            "--grid", "3,4", "--format", "csv",
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [(float(r["t"]), float(r["x"])) for r in rows] == expected

    def test_evaluation_error_exit_code(self, capsys):
        code, _, err = run(
            capsys, "curvature", "--expr", "t^2.5 + x^2", "--box", "-2,-1,-1,1",
            "--samples", "2",
        )
        assert code == 3
        assert "error" in err

    @pytest.mark.parametrize("grid", ["0,5", "3,0", "-1,2"])
    def test_grid_without_rows_or_columns_is_usage_error(self, capsys, grid):
        code, out, err = run(capsys, "curvature", "--catalog", "normal-natural", "--grid", grid)
        assert code == 2
        assert out == ""
        assert err.startswith("error: --grid") and err.count("\n") == 1


class TestConvexityCommand:
    def test_json_summary(self, capsys):
        code, out, _ = run(
            capsys, "convexity", "--catalog", "normal-natural",
            "--box", "-1,1,-2,-0.1", "--grid", "5,5",
        )
        assert code == 0
        payload = json.loads(out)
        summary = payload["results"][0]
        assert summary["counts"]["convex"] == 25

    def test_csv_rows(self, capsys):
        code, out, _ = run(
            capsys, "convexity", "--expr", "t^2+x^2", "--box", "0,1,0,1",
            "--grid", "2,3", "--format", "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "row,col,t,x,verdict"
        assert len(lines) == 7
        assert all(line.endswith("convex") for line in lines[1:])


class TestSymmetryCommand:
    def test_curvature_equation_generator_passes(self, capsys):
        code, out, _ = run(
            capsys, "symmetry", "verify", "--pde", "txpeq", "--lambda", "1", "--gen", "X7"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["results"][0]["pass"] is True

    def test_heat_shear_fails(self, capsys):
        code, out, _ = run(
            capsys, "symmetry", "verify", "--pde", "heat", "--gen", "xi_t = x",
            "--samples", "50",
        )
        assert code == 1
        payload = json.loads(out)
        assert payload["results"][0]["max_residual"] > 1e-3

    def test_unknown_generator(self, capsys):
        code, _, err = run(capsys, "symmetry", "verify", "--pde", "heat", "--gen", "X17")
        assert code == 2

    def test_evaluation_error_is_the_tree_walks_own(self, capsys):
        code, out, err = run(capsys, "symmetry", "verify", "--pde", "heat", "--gen", "eta = sqrt(u)")
        assert code == 3
        assert out == ""
        assert err == "error: sqrt of negative value in 'sqrt(u)'\n"


class TestInvariantCommand:
    def test_similarity_invariant_passes(self, capsys):
        code, out, _ = run(
            capsys, "invariant", "check",
            "--gen", "xi_t = 2*t; xi_x = x; eta = u", "--expr", "x/sqrt(t)",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["results"][0]["skipped"] > 0

    def test_non_invariant_fails(self, capsys):
        code, out, _ = run(
            capsys, "invariant", "check", "--gen", "xi_t = 2*t; xi_x = x", "--expr", "x",
        )
        assert code == 1


class TestCatalogCommand:
    def test_list_contains_all(self, capsys):
        code, out, _ = run(capsys, "catalog", "list")
        assert code == 0
        payload = json.loads(out)
        names = [r["name"] for r in payload["results"]]
        assert "invariant-X9aX7" in names

    def test_verify_single(self, capsys):
        code, out, _ = run(capsys, "catalog", "verify", "flat-additive")
        assert code == 0
        payload = json.loads(out)
        assert payload["results"][0]["pass"] is True

    def test_export_single(self, capsys):
        code, out, _ = run(capsys, "catalog", "export", "product-power")
        assert code == 0
        payload = json.loads(out)
        assert payload["results"][0]["expression"].startswith("(theta1 - c5)")

    def test_export_writes_file(self, tmp_path, capsys):
        target = tmp_path / "catalog.json"
        code, out, _ = run(capsys, "catalog", "export", "--out", str(target))
        assert code == 0
        assert out == ""
        data = json.loads(target.read_text())
        assert data["results"]


@pytest.mark.parametrize(
    "argv",
    [
        ["symmetry", "verify", "--pde", "txpeq", "--gen", "eta = u", "--samples", "0"],
        ["symmetry", "verify", "--pde", "txpeq", "--gen", "eta = u", "--samples", "-3"],
        ["invariant", "check", "--gen", "H4", "--expr", "t", "--samples", "0"],
        ["curvature", "--catalog", "normal-natural", "--samples", "0"],
        ["check", "--catalog", "normal-natural", "--samples", "0"],
    ],
    ids=lambda argv: " ".join(a for a in argv[:2] if not a.startswith("-")) + " " + argv[-1],
)
def test_samples_must_be_positive(capsys, argv):
    # an empty sample has no residual to fail, so it must not report PASS
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.count("error:") == 1 and "--samples" in err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["check", "--catalog", "weibull-metric", "--lambda", "0"], "--lambda"),
        (["check", "--catalog", "normal-natural", "--samples", "3"], "--samples"),
        (["check", "--catalog", "normal-natural", "--box", "0,1,0,1"], "--box"),
        (["check", "--catalog", "normal-natural", "--lambda", "5", "--samples", "3",
          "--box", "0,1,0,1"], "--lambda, --samples, --box"),
        (["curvature", "--catalog", "weibull-metric", "--alpha", "0.5"], "--alpha"),
        (["curvature", "--catalog", "weibull-metric", "--expr", "t^2+x^2"], "--expr"),
        (["symmetry", "verify", "--pde", "heat", "--gen", "H3", "--lambda", "5"], "--lambda"),
        (["curvature", "--catalog", "normal-natural", "--grid", "2,2", "--samples", "7"],
         "--samples"),
    ],
    ids=lambda value: " ".join(value) if isinstance(value, list) else value,
)
def test_flag_the_command_would_ignore_is_usage_error(capsys, argv, flag):
    # a report must not echo a flag that had no part in its verdict: a
    # catalog entry is checked at its own values (weibull-metric at lambda 0
    # is not Einstein), the heat equation has no lambda, and a grid sets
    # its own points
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and flag in err


@pytest.mark.parametrize(
    "argv, code",
    [
        # SingularMetricError: the Hessian of t + x is zero
        (["curvature", "--expr", "t + x", "--samples", "1"], 3),
        # ValueError from convexity_scan
        (["convexity", "--catalog", "normal-natural", "--grid", "1,1"], 2),
    ],
    ids=lambda value: " ".join(value) if isinstance(value, list) else str(value),
)
def test_error_reaches_main_as_its_exit_code(capsys, argv, code):
    actual, out, err = run(capsys, *argv)
    assert actual == code
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, code",
    [
        # ZeroDivisionError: the convexity test's scale squared underflows to 0
        (["convexity", "--expr", "1e-170*(t^2+x^2)", "--box", "-1,1,-1,1", "--grid", "3,3"], 3),
        # OverflowError: the sampler's box is wider than the largest double
        (["check", "--expr", "t^2+x^2", "--lambda", "0", "--box", "-1e308,1e308,-1,1"], 3),
        (["check", "--expr", "t^2+x^2", "--lambda", "0", "--box", "nan,1,-1,1"], 2),
        (["convexity", "--expr", "t^2+x^2", "--box", "nan,1,-1,1"], 2),
        (["curvature", "--expr", "t^2+x^2", "--box", "-1,1,-1,inf"], 2),
    ],
    ids=lambda value: " ".join(value) if isinstance(value, list) else str(value),
)
def test_float_error_or_non_finite_box_is_one_error_line(capsys, argv, code):
    # a float error is an evaluation error (3), not a FAIL verdict (1) with
    # a traceback; a box with a non-finite side is a usage error (2), not a
    # report over a box of nulls
    actual, out, err = run(capsys, *argv)
    assert actual == code
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_parser_is_built_once_per_process_and_not_at_import():
    script = textwrap.dedent(
        """
        import argparse, contextlib, io
        built = []
        init = argparse.ArgumentParser.__init__
        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)
        argparse.ArgumentParser.__init__ = counting_init
        from einstat import cli
        at_import = built.count("einstat")
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["parse", "--expr", "t"]) == 0
            assert cli.main(["catalog", "list"]) == 0
        print(at_import, built.count("einstat"))
        """
    )
    src = str(pathlib.Path(einstat.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
    )
    assert result.stdout.split() == ["0", "1"]


class TestDeterminism:
    def test_identical_argv_and_seed_byte_identical(self, capsys):
        argv = ["check", "--catalog", "normal-natural", "--seed", "7"]
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second

    def test_csv_disallowed_for_non_grid(self, capsys):
        code, _, err = run(
            capsys, "check", "--catalog", "normal-natural", "--format", "csv"
        )
        assert code == 2
        assert "csv" in err

    def test_help_available_everywhere(self, capsys):
        for argv in (["--help"], ["check", "--help"], ["symmetry", "verify", "--help"]):
            code, out, _ = run(capsys, *argv)
            assert code == 0
            assert "--seed" in out or "usage" in out
