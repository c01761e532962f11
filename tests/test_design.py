import math

import numpy as np
import pytest

from phonogap.crystal import objective, objective_model
from phonogap.design import (
    KINDS,
    ExtrapolationWarning,
    FittedTerm,
    _scaled_error,
    design_model,
    fit_polynomial_surrogate,
    load_design_equations,
    scaled_l2_error,
    to_hertz,
    truncation_curve,
)
from phonogap.sampling import canonical_space, lhs_sample, map_to_space
from phonogap.sobol import ModelFunction, _evaluate, estimate_sobol_function_1d

from oracles import design_sum_reference

TWO_PI = 2.0 * math.pi

REFERENCE_PARAMS = np.array([1000.0, 2.0, 2.0, 0.2, 0.2])
OUTSIDE_PARAMS = np.array([5.0, 2.0, 2.0, 0.2, 0.2])  # E2/E1 below the fitted box


def truncated_design_model(kind, k):
    """The constant plus the first ``k`` terms of one design equation, as a
    unit-hypercube model."""
    eq = load_design_equations()[kind]
    return ModelFunction(5, lambda u: eq.partial_sums(map_to_space(u, canonical_space()))[k])

# Term values recomputed by hand from the printed formulas at fixed
# transformed coordinates: single-input terms at (-0.5, 0.8, 2.0),
# two-input terms at ((-0.5, 0.4), (1.2, -0.7), (2.5, 0.9)).
POINTS_1 = (-0.5, 0.8, 2.0)
POINTS_2 = ((-0.5, 0.4), (1.2, -0.7), (2.5, 0.9))
CHECKSUMS = {
    ("SS", "log_rho"): (0.497178705936, 0.0512359126051, -0.089888755916),
    ("SS", "log_h"): (-0.01052125, 0.03634128, 0.35286),
    ("SS", "log_rho*log_h"): (0.08710260625, 0.01373135824, -0.03623731875),
    ("WS", "log_h"): (-0.25675471905, 0.549325146267, 2.23538070387),
    ("WS", "log_e"): (-0.477414305528, -0.370494651812, -0.0921551641159),
    ("WS", "log_rho"): (-0.255184306901, 0.0950728082256, 0.00117099196979),
    ("WS", "log_e*log_h"): (-0.127606508613, 0.266043201646, -0.0100250433294),
    ("WS", "log_rho*log_h"): (0.0720699752322, -0.0806372198904, -0.59501513058),
    ("SP", "log_rho"): (0.896726116929, 0.119762332526, -0.131578504813),
    ("SP", "nu1"): (-0.0323758091665, -0.173942233464, -0.175240444376),
    ("SP", "log_h"): (-0.01904375, 0.06727768, 0.65005),
    ("SP", "log_rho*log_h"): (0.2053217225, 0.0224000128, -0.081521925),
    ("SP", "log_rho*nu1"): (0.219271787915, 0.00262652836007, 0.0854211705834),
    ("WP", "log_h"): (-0.463062283013, 0.99678336566, 6.83685925219),
    ("WP", "log_e"): (-1.0873693874, -0.705127042806, -0.164709804323),
    ("WP", "log_rho"): (-0.344456736877, 0.181659104658, -0.00199673113761),
    ("WP", "nu1"): (-0.080960014832, -0.645815587132, -0.635311164233),
    ("WP", "log_e*log_h"): (-0.243482227563, 0.494356880216, -0.0728209566036),
    ("WP", "log_rho*log_h"): (0.150368331477, -0.173072175732, -1.07905442184),
}

EXPECTED_TERM_ORDER = {
    "SS": ["log_rho", "log_rho*log_h", "log_h"],
    "WS": ["log_h", "log_e*log_h", "log_rho*log_h", "log_e", "log_rho"],
    "SP": ["log_rho", "log_rho*log_h", "log_rho*nu1", "nu1", "log_h"],
    "WP": ["log_h", "log_e*log_h", "log_rho*log_h", "log_e", "log_rho", "nu1"],
}


class TestCoefficientTables:
    def test_constants(self):
        eqs = load_design_equations()
        assert [eqs[k].f0 for k in KINDS] == [0.1265, 0.5484, 0.2348, 1.0021]

    def test_term_order(self):
        eqs = load_design_equations()
        for kind in KINDS:
            assert [t.name for t in eqs[kind].terms] == EXPECTED_TERM_ORDER[kind]

    def test_log_base_and_scale(self):
        eqs = load_design_equations()
        assert eqs["SS"].log_base == 10.0
        assert eqs["SS"].omega_scale == pytest.approx(TWO_PI, rel=1e-15)

    @pytest.mark.parametrize("kind,name", sorted(CHECKSUMS))
    def test_transcription_checksums(self, kind, name):
        eq = load_design_equations()[kind]
        term = next(t for t in eq.terms if t.name == name)
        points = POINTS_1 if len(term.inputs) == 1 else POINTS_2
        for pt, expected in zip(points, CHECKSUMS[(kind, name)]):
            coords = {
                k: np.array([v])
                for k, v in zip(term.inputs, np.atleast_1d(np.asarray(pt, dtype=float)))
            }
            value = float(term.evaluate(coords)[0])
            assert value == pytest.approx(expected, rel=1e-9), (kind, name, pt)

    def test_density_term_at_equal_densities(self):
        eq = load_design_equations()["SS"]
        term = eq.terms[0]
        value = float(term.evaluate({"log_rho": np.array([0.0])})[0])
        assert value == pytest.approx(0.272, abs=1e-9)

    def test_no_poles_inside_the_box(self):
        bounds = {
            "log_e": (1.0, 4.0),
            "log_rho": (0.0, 3.0),
            "log_h": (math.log10(0.11), math.log10(9.0)),
            "nu1": (0.0, 0.463),
        }
        eqs = load_design_equations()
        for kind in KINDS:
            for term in eqs[kind].terms:
                axes = [np.linspace(*bounds[name], 401) for name in term.inputs]
                if len(axes) == 1:
                    coords = {term.inputs[0]: axes[0]}
                else:
                    g0, g1 = np.meshgrid(axes[0], axes[1], indexing="ij")
                    coords = {term.inputs[0]: g0.ravel(), term.inputs[1]: g1.ravel()}
                den = term.denominator_on(coords)
                if den is None:
                    continue
                assert np.min(np.abs(den)) > 0.05, (kind, term.name)
                assert np.min(den) * np.max(den) > 0, (kind, term.name)


class TestEvaluation:
    def test_constant_only_truncation(self):
        value = load_design_equations()["WP"].partial_sums(REFERENCE_PARAMS)[0, 0]
        assert value == pytest.approx(1.0021 * TWO_PI, rel=1e-12)

    def test_prediction_near_solver_at_reference_cell(self):
        # bound = 3*sqrt(delta * D) with delta=0.0086 and the start-objective
        # variance D ~= 0.473 measured at N=2000
        pred = load_design_equations()["SS"].evaluate(REFERENCE_PARAMS)
        exact = objective(REFERENCE_PARAMS, "SS")
        assert abs(pred - exact) < 3.0 * math.sqrt(0.0086 * 0.473)

    def test_start_predictions_ordered(self):
        ss = load_design_equations()["SS"].evaluate(REFERENCE_PARAMS)
        sp = load_design_equations()["SP"].evaluate(REFERENCE_PARAMS)
        assert ss < sp

    def test_vectorized_evaluation(self):
        pts = np.vstack([REFERENCE_PARAMS, REFERENCE_PARAMS])
        values = load_design_equations()["WS"].evaluate(pts)
        assert values.shape == (2,)
        assert values[0] == values[1]

    def test_extrapolation_warns_but_returns(self):
        with pytest.warns(ExtrapolationWarning) as record:
            value = load_design_equations()["SS"].evaluate(OUTSIDE_PARAMS)
        assert np.isfinite(value)
        assert record[0].filename == __file__  # the warning points at the caller

    def test_unknown_kind(self):
        with pytest.raises(KeyError):
            load_design_equations()["XX"].evaluate(REFERENCE_PARAMS)


class TestScaledL2Error:
    def test_perfect_surrogate_scores_zero(self):
        samples = lhs_sample(5, 200, 3)
        model = design_model("SS")
        assert scaled_l2_error(model, model, samples) == 0.0

    def test_sample_mean_surrogate_scores_one(self):
        samples = lhs_sample(5, 400, 3)
        exact = design_model("SS")
        mean = float(np.mean(_evaluate(exact, samples.original)))
        const = ModelFunction(5, lambda u: np.full(u.shape[0], mean), name="mean")
        assert scaled_l2_error(exact, const, samples) == pytest.approx(1.0, abs=1e-12)

    def test_shift_invariance(self):
        samples = lhs_sample(5, 300, 4)
        exact = design_model("SS")
        surrogate = truncated_design_model("SS", 1)
        base = scaled_l2_error(exact, surrogate, samples)
        shift = 17.5
        exact_shifted = ModelFunction(5, lambda u: exact.fn(u) + shift, name="e+c")
        surrogate_shifted = ModelFunction(5, lambda u: surrogate.fn(u) + shift, name="s+c")
        shifted = scaled_l2_error(exact_shifted, surrogate_shifted, samples)
        assert shifted == pytest.approx(base, rel=1e-9)

    def test_zero_variance_rejected(self):
        samples = lhs_sample(5, 100, 5)
        const = ModelFunction(5, lambda u: np.ones(u.shape[0]), name="one")
        with pytest.raises(ValueError):
            scaled_l2_error(const, const, samples)

    def test_nonnegative(self):
        samples = lhs_sample(5, 300, 6)
        assert scaled_l2_error(design_model("WS"), truncated_design_model("WS", 2), samples) >= 0.0


class TestTruncationCurve:
    def test_reference_kind_quickly(self):
        samples = lhs_sample(5, 400, 7)
        curve = truncation_curve(objective_model("SS"), "SS", samples)
        assert len(curve.deltas) == 4
        assert curve.deltas[0] == pytest.approx(1.0, abs=0.02)
        assert curve.deltas[-1] < 0.05
        payload = curve.to_json_dict()
        assert payload["kind"] == "SS" and len(payload["delta_by_k"]) == 4


class TestPartialSums:
    """One pass gives every truncation level, bit for bit as the term loop."""

    @pytest.fixture(scope="class")
    def samples(self):
        return lhs_sample(5, 500, 20)

    @pytest.mark.parametrize("kind", KINDS)
    def test_rows_match_the_term_loop(self, kind, samples):
        eq = load_design_equations()[kind]
        inside = map_to_space(samples.original, canonical_space())
        for pts in (inside, OUTSIDE_PARAMS[None, :]):
            rows = eq.partial_sums(pts)
            assert rows.shape == (len(eq.terms) + 1, pts.shape[0])
            for k in range(len(eq.terms) + 1):
                assert np.array_equal(rows[k], design_sum_reference(eq, pts, k)), k

    @pytest.mark.parametrize("kind", KINDS)
    def test_truncation_curve_scores_each_level(self, kind, samples):
        eq = load_design_equations()[kind]
        exact = objective_model(kind)
        curve = truncation_curve(exact, kind, samples)
        y = _evaluate(exact, samples.original)
        pts = map_to_space(samples.original, canonical_space())
        assert len(curve.deltas) == len(eq.terms) + 1
        for k, delta in enumerate(curve.deltas):
            assert delta == _scaled_error(y, design_sum_reference(eq, pts, k)), k
        assert curve.deltas[-1] == scaled_l2_error(exact, design_model(kind), samples)

    def test_truncation_curve_evaluates_each_term_once(self, samples, monkeypatch):
        calls = []
        evaluate = FittedTerm.evaluate

        def counted(term, coords):
            calls.append(term)
            return evaluate(term, coords)

        monkeypatch.setattr(FittedTerm, "evaluate", counted)
        truncation_curve(objective_model("WP"), "WP", samples)
        assert calls == list(load_design_equations()["WP"].terms)

    def test_evaluate_is_the_last_row(self):
        eq = load_design_equations()["SP"]
        pts = np.vstack([REFERENCE_PARAMS, 0.5 * REFERENCE_PARAMS])
        assert np.array_equal(eq.evaluate(pts), eq.partial_sums(pts)[-1])
        assert eq.evaluate(REFERENCE_PARAMS) == eq.partial_sums(REFERENCE_PARAMS)[-1, 0]


class TestPolynomialSurrogateFit:
    def test_exact_linear_recovery(self):
        x = np.linspace(-3.0, 2.0, 40)
        y = 2.0 + 3.0 * x
        coeffs, resid = fit_polynomial_surrogate(x, y, [[0], [1]])
        np.testing.assert_allclose(coeffs, [2.0, 3.0], atol=1e-10)
        assert resid < 1e-10

    def test_noisy_fit_beats_zero_model(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-1, 1, 200)
        y = 1.5 * x + 0.3 + rng.normal(0, 0.1, 200)
        coeffs, resid = fit_polynomial_surrogate(x, y, [[0], [1]])
        assert resid < np.linalg.norm(y)

    def test_rank_deficiency_rejected(self):
        x = np.linspace(0, 1, 30)
        with pytest.raises(ValueError):
            fit_polynomial_surrogate(x, x, [[1], [1]])

    def test_underdetermined_rejected(self):
        with pytest.raises(ValueError):
            fit_polynomial_surrogate(np.array([1.0, 2.0]), np.array([1.0, 2.0]), [[0], [1], [2]])

    def test_two_input_design_matrix(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(-1, 1, (100, 2))
        y = 0.5 + 2.0 * x[:, 0] - 1.0 * x[:, 0] * x[:, 1]
        coeffs, _ = fit_polynomial_surrogate(x, y, [[0, 0], [1, 0], [1, 1]])
        np.testing.assert_allclose(coeffs, [0.5, 2.0, -1.0], atol=1e-10)

    def test_refit_thickness_component_of_gap_start(self):
        # conditional-mean component of the S-wave start along h2/h1,
        # re-fit as a cubic in log10(h2/h1) and expressed in cycles,
        # should land near the shipped table row
        est = estimate_sobol_function_1d(objective_model("SS"), 2, 64, 128, seed=11)
        lo, hi = math.log10(0.11), math.log10(9.0)
        y_coord = lo + est.grids[0] * (hi - lo)
        coeffs, _ = fit_polynomial_surrogate(y_coord, est.values / TWO_PI, [[0], [1], [2], [3]])
        table = np.array([-0.01822, 0.0114, 0.06029, 0.01339])
        assert np.all(np.sign(coeffs) == np.sign(table))
        np.testing.assert_allclose(coeffs, table, rtol=0.5)


class TestHertzConversion:
    def test_unit_reference_time(self):
        assert to_hertz(TWO_PI, 1.0, 1.0, 1.0) == pytest.approx(1.0, rel=1e-12)

    def test_dimensional_example(self):
        # 1 m cell, 2000 kg/m^3 over 20 GPa: T* = sqrt(2000/2e10) ~ 3.16e-4 s
        t_ref = 1.0 * math.sqrt(2000.0 / 2e10)
        assert to_hertz(1.0, 1.0, 2000.0, 2e10) == pytest.approx(1.0 / (TWO_PI * t_ref), rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            to_hertz(1.0, 0.0, 1.0, 1.0)
