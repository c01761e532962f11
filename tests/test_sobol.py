import csv
import io
import math
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest

import phonogap.sobol as sobol
from phonogap.crystal import objective_model
from phonogap.sampling import _lhs_matrix, canonical_space, lhs_sample
from phonogap.sobol import (
    ModelEvaluationError,
    ModelFunction,
    SobolFunctionEstimate,
    analytic_poly_model,
    analytic_poly_reference,
    estimate_sobol_function_1d,
    estimate_sobol_function_2d,
    sobol_indices,
)

from oracles import (
    classic_sobol_indices,
    gauss_legendre,
    index_reference_rows,
    index_table,
    janon_sobol_indices,
    mixed_blocks,
    surface_reference_rows,
)

POLY = analytic_poly_model()
REF = analytic_poly_reference()


def constant_model(c: float, n_dims: int = 3) -> ModelFunction:
    return ModelFunction(n_dims, lambda u: np.full(u.shape[0], c), name="const")


def quadrature_total_variance() -> float:
    """Exact total variance of the polynomial model by tensor quadrature
    (degree 16 integrand, 12 nodes per axis are exact)."""
    x, w = gauss_legendre(12, -4.0, 4.0)
    wx = w / 8.0
    X1, X2, X3 = np.meshgrid(x, x, x, indexing="ij")
    F = X1**2 + X2**4 + X1 * X2 + X2 * X3**4
    W = wx[:, None, None] * wx[None, :, None] * wx[None, None, :]
    f0 = float(np.sum(F * W))
    return float(np.sum(F * F * W)) - f0 * f0


class TestMeanAndVariance:
    def test_constant_model_mean(self):
        # a constant model alone has zero variance: add the constant to POLY,
        # which must move the mean by it and leave the variance alone
        s = lhs_sample(3, 50, 0)
        shifted = ModelFunction(3, lambda u: POLY.fn(u) + 3.25)
        base, moved = sobol_indices(POLY, s), sobol_indices(shifted, s)
        assert moved.f0 == pytest.approx(base.f0 + 3.25, rel=1e-12)
        assert moved.total_variance == pytest.approx(base.total_variance, rel=1e-9)

    def test_poly_mean_matches_exact(self):
        s = lhs_sample(3, 4000, 5)
        assert sobol_indices(POLY, s).f0 == pytest.approx(56.533, abs=2.0)

    def test_identity_mean(self):
        f = ModelFunction(1, lambda u: u[:, 0], name="y1")
        assert sobol_indices(f, lhs_sample(1, 2000, 0)).f0 == pytest.approx(0.5, abs=0.02)

    def test_poly_variance_matches_quadrature(self):
        exact = quadrature_total_variance()
        assert exact == pytest.approx(REF.total_variance, rel=1e-12)
        estimate = sobol_indices(POLY, lhs_sample(3, 4000, 5)).total_variance
        assert estimate == pytest.approx(exact, rel=0.10)

    def test_uniform_variance(self):
        f = ModelFunction(1, lambda u: u[:, 0], name="y1")
        r = sobol_indices(f, lhs_sample(1, 2000, 0))
        assert r.total_variance == pytest.approx(1 / 12, abs=0.005)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            sobol_indices(POLY, lhs_sample(2, 50, 0))


class TestPartialVariances:
    def test_poly_first_order(self):
        r = sobol_indices(POLY, lhs_sample(3, 3000, 42))
        s1 = r.first_order[0] / r.total_variance
        s2 = r.first_order[1] / r.total_variance
        assert abs(s1) < 0.05
        assert s2 == pytest.approx(0.4281, abs=0.05)

    def test_single_variable_model_first_order_is_total(self):
        f = ModelFunction(1, lambda u: u[:, 0], name="y1")
        r = sobol_indices(f, lhs_sample(1, 2000, 3))
        assert r.first_order[0] / r.total_variance == pytest.approx(1.0, abs=0.05)

    def test_poly_second_order(self):
        r = sobol_indices(POLY, lhs_sample(3, 3000, 42))
        assert r.second_order[1, 2] / r.total_variance == pytest.approx(0.5708, abs=0.10)
        assert abs(r.second_order[0, 2] / r.total_variance) < 0.08

    def test_additive_model_has_no_interaction(self):
        f = ModelFunction(2, lambda u: u[:, 0] + u[:, 1], name="sum")
        r = sobol_indices(f, lhs_sample(2, 3000, 11))
        assert abs(r.second_order[0, 1] / r.total_variance) < 0.05


class TestSobolIndices:
    def test_poly_ranking_and_bands(self):
        r = sobol_indices(POLY, lhs_sample(3, 3000, 42))
        s2 = r.first_order_indices[1]
        s23 = r.second_order_indices[1, 2]
        others = [
            r.first_order_indices[0],
            r.first_order_indices[2],
            r.second_order_indices[0, 1],
            r.second_order_indices[0, 2],
        ]
        assert s23 > s2 > max(abs(v) for v in others)
        assert 0.38 <= s2 <= 0.48
        assert 0.47 <= s23 <= 0.67

    def test_ranking_consistent_from_500_samples(self):
        for n in (500, 1000, 2000):
            r = sobol_indices(POLY, lhs_sample(3, n, 42))
            s2 = r.first_order_indices[1]
            s23 = r.second_order_indices[1, 2]
            rest = np.concatenate(
                [
                    np.delete(r.first_order_indices, 1),
                    [r.second_order_indices[0, 1], r.second_order_indices[0, 2]],
                ]
            )
            assert min(s2, s23) > np.max(np.abs(rest))

    def test_constant_model_raises(self):
        with pytest.raises(ValueError, match="zero total variance"):
            sobol_indices(constant_model(1.0), lhs_sample(3, 200, 0))

    def test_product_model_decomposition(self):
        f = ModelFunction(2, lambda u: u[:, 0] * u[:, 1], name="prod")
        r = sobol_indices(f, lhs_sample(2, 2000, 42))
        s1, s2 = r.first_order_indices
        s12 = r.second_order_indices[0, 1]
        assert s1 > 0 and s2 > 0 and s12 > 0
        assert s1 + s2 + s12 == pytest.approx(1.0, abs=0.1)

    def test_indices_are_ratios_of_stored_variances(self):
        s = lhs_sample(3, 500, 9)
        r = sobol_indices(POLY, s)
        assert r.f0 == float(np.mean(POLY.fn(s.original)))
        np.testing.assert_allclose(
            r.first_order_indices, r.first_order / r.total_variance, rtol=0, atol=0
        )
        np.testing.assert_allclose(
            r.second_order_indices, r.second_order / r.total_variance, rtol=0, atol=0
        )

    def test_deterministic_and_thread_invariant(self):
        # the engine keeps no state: a call from another thread gives the same bits
        a = sobol_indices(POLY, lhs_sample(3, 1500, 19))
        with ThreadPoolExecutor(max_workers=1) as pool:
            b = pool.submit(sobol_indices, POLY, lhs_sample(3, 1500, 19)).result()
        assert a.f0 == b.f0
        assert a.total_variance == b.total_variance
        np.testing.assert_array_equal(a.first_order, b.first_order)
        np.testing.assert_array_equal(a.second_order, b.second_order)

    def test_stacked_evaluation_matches_per_matrix_loop(self):
        # reference: one model call per matrix, each block reduced on its own
        # by Janon's symmetric form, as the engine reduces the stacked blocks
        s = lhs_sample(3, 300, 8)
        y, blocks = mixed_blocks(POLY, s)
        f0 = np.mean(y)
        d_total = np.mean(y * y) - f0 * f0

        def closed(b):
            m = np.mean(0.5 * (y + b))
            return (np.mean(y * b) - m * m) / (np.mean(0.5 * (y * y + b * b)) - m * m)

        s1 = [closed(b) for b in blocks[:3]]
        r = sobol_indices(POLY, s)
        assert r.f0 == f0
        assert r.total_variance == d_total
        np.testing.assert_array_equal(r.first_order, np.multiply(s1, d_total))
        for k, (i, j) in enumerate(((0, 1), (0, 2), (1, 2))):
            assert r.second_order[i, j] == (closed(blocks[3 + k]) - s1[i] - s1[j]) * d_total

    @pytest.mark.parametrize("seed", [0, 8, 42])
    def test_indices_match_the_per_block_reference(self, seed):
        # exactly rounded means, one block at a time: the engine's vectorized
        # reductions agree to rounding level
        s = lhs_sample(3, 2000, seed)
        first, second = janon_sobol_indices(POLY, s)
        r = sobol_indices(POLY, s)
        np.testing.assert_allclose(r.first_order_indices, first, rtol=0, atol=1e-13)
        np.testing.assert_allclose(r.second_order_indices, second, rtol=0, atol=1e-13)

    def test_dominant_index_spreads_less_than_the_classic_form(self):
        # f = 10 + x1 + 0.1 x2: S[x1] = 100/101; the classic form subtracts
        # f0^2 (about 111) from mean(y y_1), so the noise of that mean lands in D_1
        f = ModelFunction(2, lambda u: 10.0 + u[:, 0] + 0.1 * u[:, 1], name="dominant")
        janon, classic = [], []
        for seed in range(20):
            s = lhs_sample(2, 1000, seed)
            janon.append(sobol_indices(f, s).first_order_indices[0])
            classic.append(classic_sobol_indices(f, s)[0][0])
        assert np.std(janon) < 0.5 * np.std(classic)
        assert np.mean(janon) == pytest.approx(100.0 / 101.0, abs=0.01)

    def test_residual_and_tables(self):
        r = sobol_indices(POLY, lhs_sample(3, 800, 4), dim_names=("x1", "x2", "x3"))
        total = r.first_order_indices.sum() + r.second_order_indices.sum()
        assert r.residual == pytest.approx(1.0 - total, abs=1e-12)
        table = dict(index_table(r))
        assert set(table) == {
            "S[x1]", "S[x2]", "S[x3]", "S[x1,x2]", "S[x1,x3]", "S[x2,x3]",
        }
        rows = [line.split(",") for line in r.csv_text().splitlines()]
        assert rows[0] == ["label", "order", "partial_variance", "index"]
        assert len(rows) == 1 + 3 + 3

    @pytest.mark.parametrize("target", ["poly", "SS"])
    def test_index_csv_is_the_csv_writer_bytes(self, target):
        # the SS labels hold "/" and the pair labels "|"
        if target == "poly":
            r = sobol_indices(POLY, lhs_sample(3, 800, 4), dim_names=("x1", "x2", "x3"))
        else:
            r = sobol_indices(objective_model("SS"), lhs_sample(5, 100, 4), dim_names=canonical_space().names)
        text = io.StringIO()
        csv.writer(text, lineterminator="\n").writerows(index_reference_rows(r))
        assert r.csv_text() == text.getvalue()


class TestEvaluationFailures:
    def test_failing_model_reports_index(self):
        def fn(u):
            out = np.sum(u, axis=1)
            out[u[:, 0] > 0.9] = np.nan
            return out

        f = ModelFunction(3, fn, name="nan-model")
        s = lhs_sample(3, 64, 21)
        with pytest.raises(ModelEvaluationError) as err:
            sobol_indices(f, s)
        idx = err.value.index
        assert s.original[idx, 0] > 0.9
        np.testing.assert_array_equal(err.value.point, s.original[idx])

    def test_failure_in_a_mixed_matrix_reports_its_row(self):
        s = lhs_sample(3, 64, 21)
        # x1 from the original and x2 from the complementary: a row of
        # the matrix that freezes x1 (and of the pair matrix (x1, x3))
        target = np.array([s.original[5, 0], s.complementary[5, 1]])

        def fn(u):
            out = np.sum(u, axis=1)
            out[np.all(u[:, :2] == target, axis=1)] = np.inf
            return out

        f = ModelFunction(3, fn, name="inf-model")
        assert np.all(np.isfinite(f.fn(s.original)))
        with pytest.raises(ModelEvaluationError) as err:
            sobol_indices(f, s)
        assert err.value.index == 5
        assert err.value.message == "model returned a non-finite value"
        expected = s.complementary[5].copy()
        expected[0] = s.original[5, 0]
        np.testing.assert_array_equal(err.value.point, expected)
        message = f"model returned a non-finite value at sample 5: {expected.tolist()}"
        assert str(err.value) == message

    def test_failure_in_a_surface_reports_its_row_within_its_line(self):
        # the third node of the fourth grid line fails; lines may share a
        # model call, but the row is counted within its own line
        grid_points, inner, seed = 5, 4, 3
        grid = (np.arange(grid_points) + 0.5) / grid_points

        def fn(u):
            out = np.sum(u, axis=1)
            out[(u[:, 0] == grid[3]) & (u[:, 1] == grid[2])] = np.nan
            return out

        with pytest.raises(ModelEvaluationError) as err:
            estimate_sobol_function_2d(ModelFunction(3, fn, name="nan-node"), 0, 1, grid_points, inner, seed=seed)
        shared = _lhs_matrix(1, inner, np.random.default_rng(seed))
        point = np.array([grid[3], grid[2], shared[0, 0]]).tolist()
        assert str(err.value) == f"model returned a non-finite value at sample {2 * inner}: {point}"


class TestPointLayout:
    def test_models_receive_points_column_by_column(self):
        # every block the engine builds is the (rows, n_dims) view of a
        # matrix stored column by column; a model that copies its points
        # into row-major order gets the same values
        poly = analytic_poly_model()
        seen = []

        def fn(u):
            seen.append(u.flags.f_contiguous)
            return poly.fn(u)

        def row_major(u):
            return poly.fn(np.ascontiguousarray(u))

        samples = lhs_sample(3, 64, 5)
        results = [
            (
                sobol_indices(model, samples).csv_text(),
                estimate_sobol_function_1d(model, 1, 7, 4).csv_text(),
                estimate_sobol_function_2d(model, 0, 2, 7, 4).csv_text(),
            )
            for model in (ModelFunction(3, fn, poly.name), ModelFunction(3, row_major, poly.name))
        ]
        assert seen == [True, True, True]
        assert results[0] == results[1]

    def test_a_ragged_last_call_keeps_the_layout(self, monkeypatch):
        # 3 lines per call on 7 lines: the calls hold 3, 3 and 1 lines; a
        # surface reuses one point block, and the shorter last call must
        # still get its points column by column and the same inner sample
        grid_points, inner = 7, 4
        monkeypatch.setattr(sobol, "_SURFACE_CALL_ROWS", 3 * grid_points * inner)
        poly = analytic_poly_model()
        blocks = []

        def fn(u):
            blocks.append((u.flags.f_contiguous, len(u), u[:, 1].reshape(-1, inner).copy()))
            return poly.fn(u)

        def row_major(u):
            return poly.fn(np.ascontiguousarray(u))

        texts = [
            estimate_sobol_function_2d(model, 0, 2, grid_points, inner, seed=6).csv_text()
            for model in (ModelFunction(3, fn, poly.name), ModelFunction(3, row_major, poly.name))
        ]
        assert [(layout, rows) for layout, rows, _ in blocks] == [
            (True, lines * grid_points * inner) for lines in (3, 3, 1)
        ]
        first = blocks[0][2][0]
        assert all((columns == first).all() for _, _, columns in blocks)
        assert texts[0] == texts[1]


def _surface(model, axes, grid_points, inner, seed=4):
    estimate = estimate_sobol_function_1d if len(axes) == 1 else estimate_sobol_function_2d
    return estimate(model, *axes, grid_points, inner, seed=seed)


class TestSurfaceCallBudget:
    """Whole grid lines share a model call, up to ``_SURFACE_CALL_ROWS``
    rows and at least one line: the split changes no bit of a surface."""

    @pytest.mark.parametrize(
        "make_model", [analytic_poly_model, lambda: objective_model("SS")], ids=["poly", "SS"]
    )
    @pytest.mark.parametrize("axes", [(1,), (1, 2)], ids=["1d", "2d"])
    @pytest.mark.parametrize(
        "call_rows, lines_per_call", [(1, 1), (3 * 7 * 4, 3), (10**9, 7)],
        ids=["line-per-call", "three-lines-per-call", "one-call"],
    )
    def test_nodes_do_not_depend_on_the_call_budget(
        self, make_model, axes, call_rows, lines_per_call, monkeypatch
    ):
        grid_points, inner = 7, 4
        model = make_model()
        default = _surface(model, axes, grid_points, inner)
        calls = []

        def fn(u):
            calls.append(len(u))
            return model.fn(u)

        monkeypatch.setattr(sobol, "_SURFACE_CALL_ROWS", call_rows)
        est = _surface(ModelFunction(model.n_dims, fn, model.name), axes, grid_points, inner)
        assert np.array_equal(est.values, default.values) and est.f0 == default.f0
        assert est.csv_text() == default.csv_text()
        lines = grid_points ** (len(axes) - 1)
        assert len(calls) == math.ceil(lines / lines_per_call)
        assert calls == [
            min(lines_per_call, lines - s) * grid_points * inner for s in range(0, lines, lines_per_call)
        ]


class TestSobolFunctions:
    def test_first_order_function_recovery(self):
        est = estimate_sobol_function_1d(POLY, 1, 64, 128, seed=42)
        x = 8.0 * est.grids[0] - 4.0
        exact = REF.functions["2"](x)
        ss_res = np.sum((est.values - exact) ** 2)
        ss_tot = np.sum((exact - exact.mean()) ** 2)
        assert 1.0 - ss_res / ss_tot >= 0.99

    def test_null_function_stays_in_noise_band(self):
        est2 = estimate_sobol_function_1d(POLY, 1, 64, 128, seed=42)
        est3 = estimate_sobol_function_1d(POLY, 2, 64, 128, seed=42)
        x = 8.0 * est2.grids[0] - 4.0
        band = np.ptp(REF.functions["2"](x))
        assert np.max(np.abs(est3.values)) < 0.05 * band

    def test_centered_identity(self):
        f = ModelFunction(1, lambda u: u[:, 0], name="y1")
        est = estimate_sobol_function_1d(f, 0, 32, 16, seed=1)
        np.testing.assert_allclose(est.values, est.grids[0] - 0.5, atol=1e-6)

    def test_second_order_function_recovery(self):
        est = estimate_sobol_function_2d(POLY, 1, 2, 64, 128, seed=42)
        x = 8.0 * est.grids[0] - 4.0
        exact = REF.functions["23"](x[:, None], x[None, :])
        ss_res = np.sum((est.values - exact) ** 2)
        ss_tot = np.sum((exact - exact.mean()) ** 2)
        assert 1.0 - ss_res / ss_tot >= 0.99

    def test_null_interaction_surface(self):
        est13 = estimate_sobol_function_2d(POLY, 0, 2, 48, 96, seed=42)
        x = 8.0 * est13.grids[0] - 4.0
        band = np.ptp(REF.functions["23"](x[:, None], x[None, :]))
        assert np.max(np.abs(est13.values)) < 0.05 * band

    def test_additive_model_interaction_is_flat(self):
        f = ModelFunction(2, lambda u: u[:, 0] + u[:, 1], name="sum")
        est = estimate_sobol_function_2d(f, 0, 1, 16, 8, seed=2)
        assert np.max(np.abs(est.values)) < 1e-9

    def test_surfaces_match_per_node_loop(self):
        # reference: one model call per grid node, every node on the same
        # inner draw of the remaining dimensions from default_rng(seed)
        grid_points, inner, seed = 6, 10, 5
        grid = (np.arange(grid_points) + 0.5) / grid_points
        shared = _lhs_matrix(1, inner, np.random.default_rng(seed))
        table = np.empty((grid_points, grid_points))
        for a in range(grid_points):
            for b in range(grid_points):
                pts = np.empty((inner, 3))
                pts[:, [1]] = shared
                pts[:, 2], pts[:, 0] = grid[a], grid[b]
                table[a, b] = np.mean(POLY.fn(pts))
        est = estimate_sobol_function_2d(POLY, 2, 0, grid_points, inner, seed=seed)
        grand = np.mean(table)
        expected = table - table.mean(axis=1, keepdims=True) - table.mean(axis=0, keepdims=True) + grand
        assert est.f0 == grand
        np.testing.assert_array_equal(est.values, expected)

        shared = _lhs_matrix(2, inner, np.random.default_rng(seed))
        means = np.empty(grid_points)
        for a in range(grid_points):
            pts = np.empty((inner, 3))
            pts[:, [0, 2]] = shared
            pts[:, 1] = grid[a]
            means[a] = np.mean(POLY.fn(pts))
        est = estimate_sobol_function_1d(POLY, 1, grid_points, inner, seed=seed)
        np.testing.assert_array_equal(est.values, means - np.mean(means))

    def test_first_order_x1_recovery(self):
        # x1 carries 0.05% of the variance: only common inner draws across
        # the nodes keep the x2 and x2*x3 terms from swamping its surface
        est = estimate_sobol_function_1d(POLY, 0, 64, 128, seed=42)
        x = 8.0 * est.grids[0] - 4.0
        exact = REF.functions["1"](x)
        ss_res = np.sum((est.values - exact) ** 2)
        ss_tot = np.sum((exact - exact.mean()) ** 2)
        assert 1.0 - ss_res / ss_tot >= 0.99

    def test_validation(self):
        with pytest.raises(ValueError):
            estimate_sobol_function_1d(POLY, 0, grid_points=1)
        with pytest.raises(IndexError):
            estimate_sobol_function_1d(POLY, 7)
        with pytest.raises(ValueError):
            estimate_sobol_function_2d(POLY, 1, 1)

    def test_estimate_invariants_and_csv(self):
        est = estimate_sobol_function_1d(POLY, 0, 16, 8, seed=3)
        assert (np.diff(est.grids[0]) > 0).all()
        lines = est.csv_text().splitlines(keepends=True)
        assert lines[0] == "u0,value\n"
        assert len(lines) == 17
        with pytest.raises(ValueError):
            SobolFunctionEstimate(
                axes=(0,), grids=(np.array([0.1, 0.2]),), values=np.zeros(3), f0=0.0,
            )

    @pytest.mark.parametrize("axes", [(1,), (1, 2)], ids=["1d", "2d"])
    def test_csv_lines_are_the_csv_writer_bytes(self, axes):
        # a 64-node grid, and values that span signs and magnitudes
        if len(axes) == 1:
            est = estimate_sobol_function_1d(POLY, *axes, 64, 8, seed=9)
        else:
            est = estimate_sobol_function_2d(POLY, *axes, 64, 8, seed=9)
        text = io.StringIO()
        csv.writer(text, lineterminator="\n").writerows(surface_reference_rows(est))
        assert est.csv_text() == text.getvalue()


class TestAnalyticPolyModel:
    def test_point_values(self):
        values = POLY.fn(np.array([[0.5, 0.5, 0.5], [1.0, 1.0, 1.0], [0.5, 1.0, 0.5]]))
        np.testing.assert_allclose(values, [0.0, 1312.0, 256.0], rtol=1e-12, atol=1e-12)

    def test_exact_on_dyadic_points(self):
        # on u = k/16 every x is a multiple of 1/2 in [-4, 4]: every term
        # and partial sum is exact in binary64, whatever the evaluation
        k = np.arange(17)
        u = np.stack(np.meshgrid(k, k, k, indexing="ij"), axis=-1).reshape(-1, 3) / 16.0
        exact = []
        for row in u.tolist():
            x1, x2, x3 = (8 * Fraction(c) - 4 for c in row)
            exact.append(float(x1**2 + x2**4 + x1 * x2 + x2 * x3**4))
        assert POLY.fn(u).tolist() == exact

    @pytest.mark.parametrize("order", ["F", "C"])
    def test_bits_of_the_written_out_expression_and_a_pure_input(self, order):
        # the model computes term by term in place; every value keeps the
        # bits of the expression, and the input is left as it was (a
        # surface reuses one point block across its model calls)
        u = np.random.default_rng(23).random((4096, 3))
        u[:27] = np.stack(np.meshgrid(*([0.0, 0.5, 1.0],) * 3, indexing="ij"), axis=-1).reshape(-1, 3)
        u = np.asarray(u, order=order)
        before = u.copy()
        x = 8.0 * u - 4.0
        x1, x2, x3 = x[:, 0], x[:, 1], x[:, 2]
        x2s, x3s = x2 * x2, x3 * x3
        assert np.array_equal(POLY.fn(u), x1 * x1 + x2s * x2s + x1 * x2 + x2 * (x3s * x3s))
        assert np.array_equal(u, before)

    def test_agrees_with_the_pow_form(self):
        # fourth powers through ``**``, that is through ``pow``
        u = np.random.default_rng(17).random((100_000, 3))
        x = 8.0 * u - 4.0
        x1, x2, x3 = x[:, 0], x[:, 1], x[:, 2]
        terms = (x1**2, x2**4, x1 * x2, x2 * x3**4)
        error = np.abs(POLY.fn(u) - (terms[0] + terms[1] + terms[2] + terms[3]))
        bound = 8.0 * np.finfo(float).eps * sum(np.abs(t) for t in terms)
        assert (error <= bound).all()

    def test_reference_indices(self):
        assert REF.f0 == pytest.approx(56.533, abs=5e-4)
        rounded = {k: round(v, 4) for k, v in REF.indices.items()}
        assert rounded == {
            "1": 0.0005, "2": 0.4281, "3": 0.0, "12": 0.0007,
            "13": 0.0, "23": 0.5708, "123": 0.0,
        }
        assert sum(REF.indices.values()) == pytest.approx(1.0, abs=1e-12)

    def test_function_values(self):
        assert REF.functions["12"](2.0, 3.0) == pytest.approx(6.0)
        assert REF.functions["2"](0.0) == pytest.approx(-51.2)
        assert REF.functions["3"](1.0) == 0.0

    def test_f2_integrates_to_zero(self):
        x, w = gauss_legendre(10, -4.0, 4.0)
        assert abs(np.sum(REF.functions["2"](x) * w) / 8.0) < 1e-6


class TestOrthogonality:
    """Zero-mean and pairwise-orthogonality checks of the closed forms."""

    def test_zero_integral_over_own_variables(self):
        x, w = gauss_legendre(12, -4.0, 4.0)
        wn = w / 8.0
        norm = np.sqrt(REF.total_variance)
        # one-variable components: integrate over the own variable
        for name in ("1", "2"):
            val = np.sum(REF.functions[name](x) * wn)
            assert abs(val) / norm < 1e-6
        # two-variable components: integrate over each own variable in turn
        for name in ("12", "23"):
            f = REF.functions[name]
            over_first = np.sum(f(x[:, None], x[None, :]) * wn[:, None], axis=0)
            over_second = np.sum(f(x[:, None], x[None, :]) * wn[None, :], axis=1)
            assert np.max(np.abs(over_first)) / norm < 1e-6
            assert np.max(np.abs(over_second)) / norm < 1e-6

    def test_pairwise_orthogonality(self):
        x, w = gauss_legendre(12, -4.0, 4.0)
        wn = w / 8.0
        W3 = wn[:, None, None] * wn[None, :, None] * wn[None, None, :]
        X1, X2, X3 = np.meshgrid(x, x, x, indexing="ij")
        norm = REF.total_variance
        components = {
            "1": REF.functions["1"](X1),
            "2": REF.functions["2"](X2),
            "12": REF.functions["12"](X1, X2),
            "23": REF.functions["23"](X2, X3),
        }
        names = list(components)
        for i, a in enumerate(names):
            for b in names[i + 1:]:
                inner = np.sum(components[a] * components[b] * W3)
                assert abs(inner) / norm < 1e-6, (a, b)

    def test_component_variances_by_quadrature(self):
        x, w = gauss_legendre(12, -4.0, 4.0)
        wn = w / 8.0
        W2 = wn[:, None] * wn[None, :]
        d1 = np.sum(REF.functions["1"](x) ** 2 * wn)
        d2 = np.sum(REF.functions["2"](x) ** 2 * wn)
        d12 = np.sum(REF.functions["12"](x[:, None], x[None, :]) ** 2 * W2)
        d23 = np.sum(REF.functions["23"](x[:, None], x[None, :]) ** 2 * W2)
        assert d1 == pytest.approx(REF.partial_variances["1"], rel=1e-12)
        assert d2 == pytest.approx(REF.partial_variances["2"], rel=1e-12)
        assert d12 == pytest.approx(REF.partial_variances["12"], rel=1e-12)
        assert d23 == pytest.approx(REF.partial_variances["23"], rel=1e-12)

