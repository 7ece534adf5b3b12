import numpy as np
import pytest

from einstat.expressions import Num, Var, evaluate, parse
from einstat.jets import (
    CURVATURE_GENERATORS,
    HEAT_GENERATORS,
    GeneratorField,
    OrderOverflowError,
    UnsupportedEquationError,
    characteristic,
    constant_curvature_equation,
    equation_for,
    generator_by_name,
    heat_equation,
    invariance_check,
    jet_name,
    jet_variables,
    lsc_check,
    multi_indices,
    parse_generator,
    parse_jet_name,
    prolong,
    prolonged_action_value,
    total_derivative,
)
from einstat.jets import _sample_bindings


def jet_point(seed, order=4):
    rng = np.random.default_rng(seed)
    return {name: float(rng.uniform(-2, 2)) for name in jet_variables(order)}


class TestJetNames:
    def test_roundtrip(self):
        for index in [(0, 0), (1, 0), (0, 1), (2, 1), (0, 4)]:
            assert parse_jet_name(jet_name(index)) == index

    def test_rejects_unsorted_letters(self):
        assert parse_jet_name("u_xt") is None
        assert parse_jet_name("psi") is None

    def test_multi_indices_order(self):
        assert multi_indices(2) == [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]


class TestTotalDerivative:
    def test_dependent_variable(self):
        assert total_derivative(parse("u"), "x") == Var("u_x")

    def test_product_with_coordinate(self):
        d = total_derivative(parse("x*u_x"), "t")
        expected = parse("x*u_tx")
        b = jet_point(1)
        assert evaluate(d, b) == pytest.approx(evaluate(expected, b))

    def test_chain_rule_square(self):
        d = total_derivative(parse("u_x^2"), "x")
        expected = parse("2*u_x*u_xx")
        b = jet_point(2)
        assert evaluate(d, b) == pytest.approx(evaluate(expected, b))

    def test_order_overflow(self):
        with pytest.raises(OrderOverflowError):
            total_derivative(parse("u_ttxx"), "x")

    def test_commutation(self):
        e = parse("t*u_x*u_tt + sin(x)*u")
        dtx = total_derivative(total_derivative(e, "t"), "x")
        dxt = total_derivative(total_derivative(e, "x"), "t")
        for seed in range(10):
            b = jet_point(seed)
            assert abs(evaluate(dtx, b) - evaluate(dxt, b)) < 1e-10


class TestCharacteristic:
    def test_galilean_boost(self):
        q = characteristic(HEAT_GENERATORS["H5"])
        expected = parse("-(x*u) - 2*t*u_x")
        b = jet_point(3)
        assert evaluate(q, b) == pytest.approx(evaluate(expected, b))

    def test_time_translation(self):
        q = characteristic(HEAT_GENERATORS["H2"])
        b = jet_point(4)
        assert evaluate(q, b) == pytest.approx(-b["u_t"])

    def test_vertical_scaling(self):
        q = characteristic(HEAT_GENERATORS["H3"])
        assert q == Var("u")


class TestProlong:
    def test_space_translation_prolongs_to_zero(self):
        pr = prolong(HEAT_GENERATORS["H1"], 3)
        b = jet_point(5)
        for index, coeff in pr.coefficients.items():
            if index == (0, 0):
                continue
            assert evaluate(coeff, b) == pytest.approx(0.0, abs=1e-14)

    def test_vertical_scaling_reproduces_coordinates(self):
        pr = prolong(HEAT_GENERATORS["H3"], 3)
        b = jet_point(6)
        for index, coeff in pr.coefficients.items():
            assert evaluate(coeff, b) == pytest.approx(b[jet_name(index)])

    def test_shear_first_order_coefficients(self):
        shear = GeneratorField.create("t-shear", xi_x="t")  # t d/dx
        pr = prolong(shear, 2)
        b = jet_point(7)
        assert evaluate(pr.coefficient((1, 0)), b) == pytest.approx(-b["u_x"])
        assert evaluate(pr.coefficient((0, 1)), b) == pytest.approx(0.0, abs=1e-14)

    def test_linearity(self):
        g1, g2 = HEAT_GENERATORS["H4"], HEAT_GENERATORS["H5"]
        combined = prolong(g1 + g2, 2)
        pr1, pr2 = prolong(g1, 2), prolong(g2, 2)
        for seed in range(5):
            b = jet_point(seed + 20)
            for index in combined.coefficients:
                lhs = evaluate(combined.coefficient(index), b)
                rhs = evaluate(pr1.coefficient(index), b) + evaluate(pr2.coefficient(index), b)
                assert abs(lhs - rhs) < 1e-10

    def test_vertical_generator_coefficients_are_total_derivatives(self):
        vertical = GeneratorField.create("vertical", eta="t*x*u")
        pr = prolong(vertical, 2)
        expected = {(0, 0): parse("t*x*u")}
        expected[(1, 0)] = total_derivative(expected[(0, 0)], "t")
        expected[(0, 1)] = total_derivative(expected[(0, 0)], "x")
        expected[(2, 0)] = total_derivative(expected[(1, 0)], "t")
        expected[(1, 1)] = total_derivative(expected[(1, 0)], "x")
        expected[(0, 2)] = total_derivative(expected[(0, 1)], "x")
        for seed in range(5):
            b = jet_point(seed + 40)
            for index, coeff in pr.coefficients.items():
                assert evaluate(coeff, b) == pytest.approx(
                    evaluate(expected[index], b), rel=1e-12, abs=1e-12
                )


class TestLscHeat:
    def test_all_six_generators_pass(self):
        heat = heat_equation()
        for name, gen in HEAT_GENERATORS.items():
            report = lsc_check(gen, heat, "u_t", samples=100, seed=42, tolerance=1e-9)
            assert report.passed, f"{name}: {report.max_residual}"

    def test_time_shear_fails(self):
        report = lsc_check(
            GeneratorField.create("x-shear", xi_t="x"),
            heat_equation(),
            "u_t",
            samples=100,
            seed=42,
            tolerance=1e-9,
        )
        assert not report.passed
        assert report.max_residual > 1e-3

    def test_off_shell_action_is_generically_nonzero(self):
        # the scaling symmetry only annihilates the equation on solutions
        gen = HEAT_GENERATORS["H4"]
        heat = heat_equation()
        values = []
        for seed in range(20):
            b = jet_point(seed + 100)
            values.append(abs(prolonged_action_value(gen, heat, b)))
        assert max(values) > 1e-3

    def test_non_affine_equation_rejected(self):
        with pytest.raises(UnsupportedEquationError):
            lsc_check(HEAT_GENERATORS["H1"], parse("u_t^2 - u_xx"), "u_t", samples=10)

    def test_base_is_not_evaluated_on_rejected_candidates(self):
        # |0.0001 u_x| < 1e-3 on every draw, so no candidate is accepted and
        # ln(u) at the many negative u drawn is never evaluated
        with pytest.raises(UnsupportedEquationError, match="stayed below"):
            lsc_check(HEAT_GENERATORS["H1"], parse("0.0001*u_x*u_t + ln(u)"), "u_t", samples=5)

    @pytest.mark.parametrize("samples", [0, -3])
    def test_empty_sample_is_rejected(self, samples):
        with pytest.raises(ValueError, match="positive"):
            lsc_check(HEAT_GENERATORS["H1"], heat_equation(), "u_t", samples=samples)


class TestLscCurvatureEquation:
    @pytest.mark.parametrize("lam", [1.0, -1.0])
    def test_all_nine_generators_pass(self, lam):
        eq = constant_curvature_equation(lam)
        for name, gen in CURVATURE_GENERATORS.items():
            report = lsc_check(gen, eq, "u_ttt", samples=100, seed=42, tolerance=1e-7)
            assert report.passed, f"{name} at lam={lam}: {report.max_residual}"

    def test_potential_scaling_is_not_a_symmetry(self):
        # u d/du scales the cubic side and the quartic side differently
        gen = GeneratorField.create("u-scaling", eta="u")
        report = lsc_check(
            gen, constant_curvature_equation(1.0), "u_ttt", samples=100, seed=42
        )
        assert not report.passed
        assert report.max_residual > 1e-3

    def test_quadratic_dilation_is_not_a_symmetry(self):
        gen = GeneratorField.create("t2-dilation", xi_t="t^2")
        report = lsc_check(
            gen, constant_curvature_equation(1.0), "u_ttt", samples=100, seed=42
        )
        assert not report.passed
        assert report.max_residual > 1e-3

    def test_coordinate_shear_is_a_symmetry(self):
        # x d/dt is inside the algebra, so perturbing along it keeps symmetry
        perturbed = CURVATURE_GENERATORS["X4"] + 0.1 * CURVATURE_GENERATORS["X6"]
        report = lsc_check(
            perturbed, constant_curvature_equation(1.0), "u_ttt", samples=100, seed=42
        )
        assert report.passed


class TestSampleBindings:
    @pytest.mark.parametrize("names", [jet_variables(4), ["t", "x", "u"]], ids=len)
    def test_one_call_draw_equals_scalar_stream(self, names):
        for i in range(50):
            vector, scalar = np.random.default_rng([42, i]), np.random.default_rng([42, i])
            for _ in range(3):
                expected = {name: float(scalar.uniform(-2.0, 2.0)) for name in names}
                assert _sample_bindings(vector, names) == expected


class TestInvariance:
    def scaling_generator(self, a=1.0):
        return HEAT_GENERATORS["H4"] + a * HEAT_GENERATORS["H3"]

    @pytest.mark.parametrize("seed, evaluated, skipped", [(42, 97, 103), (7, 95, 105), (977, 93, 107)])
    def test_similarity_variable_counts(self, seed, evaluated, skipped):
        # samples at negative t raise in sqrt(t) and are skipped, not fatal
        report = invariance_check(HEAT_GENERATORS["H4"], parse("x/sqrt(t)"), seed=seed)
        assert (report.evaluated, report.skipped) == (evaluated, skipped)
        assert report.passed

    def test_similarity_variable(self):
        report = invariance_check(self.scaling_generator(), parse("x/sqrt(t)"), seed=42)
        assert report.passed
        assert report.skipped > 0  # negative t samples are skipped, not fatal

    def test_scaled_amplitude(self):
        # the invariant amplitude for x dx + 2t dt + a u du is u * t^(-a/2)
        report = invariance_check(self.scaling_generator(), parse("u/sqrt(t)"), seed=42)
        assert report.passed

    def test_unscaled_amplitude_is_only_relative(self):
        # u/t^a satisfies X(f) = -a f, not X(f) = 0
        report = invariance_check(self.scaling_generator(), parse("u/t"), seed=42)
        assert not report.passed
        assert report.max_residual > 1e-3

    def test_plain_coordinate_fails(self):
        gen = GeneratorField.create("dilation", xi_t="2*t", xi_x="x")
        report = invariance_check(gen, parse("x"), seed=42)
        assert not report.passed

    def test_nan_residual_fails(self):
        # 1e999 is an infinite literal, so X(f) is inf - inf = NaN at every sample
        f = parse("u*(exp(t)*1e999 - exp(x)*1e999 + 1)")
        report = invariance_check(HEAT_GENERATORS["H3"], f, seed=42)
        assert not report.passed
        assert np.isnan(report.max_residual)

    def test_overflowing_samples_are_skipped(self):
        # exp(400+t)^2 overflows from finite operands at every sample
        f = parse("u*(exp(400+t)*exp(400+t) - exp(400+t)*exp(399+t)*exp(1) + 1)")
        report = invariance_check(HEAT_GENERATORS["H3"], f, seed=42)
        assert not report.passed
        assert (report.evaluated, report.skipped) == (0, report.samples)


class TestRegistry:
    def test_generator_lookup(self):
        assert generator_by_name("X6").xi_t == Var("x")
        with pytest.raises(KeyError):
            generator_by_name("X10")

    def test_parse_generator_text(self):
        gen = parse_generator("xi_t = 2*t; xi_x = x; eta = 0", name="dilation")
        assert gen.xi_t == parse("2*t")
        assert gen.eta == Num(0.0)

    def test_generator_rejects_jet_coordinates(self):
        with pytest.raises(ValueError):
            GeneratorField.create("bad", xi_t="u_x")
        # checked as given, before simplify drops the product
        with pytest.raises(ValueError, match="u_x"):
            GeneratorField.create("bad", xi_t="0*u_x")

    def test_equation_registry(self):
        eq, leading = equation_for("heat")
        assert leading == "u_t"
        eq, leading = equation_for("txpeq", 1.0)
        assert leading == "u_ttt"
        with pytest.raises(ValueError):
            equation_for("wave")
