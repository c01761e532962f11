import csv
import io
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import phonogap.crystal as crystal
from phonogap.crystal import (
    NU_CAP,
    BandGap,
    Layer,
    ObjectiveKind,
    Polarization,
    UnitCell,
    _GAP_GUARD,
    _SCAN_CAP_BRAGG,
    _SCAN_STEPS_PER_BRANCH,
    _bilayer_coefficients,
    _bilayer_ht_slope,
    _ht_grid,
    _refine_edges,
    bilayer_first_gaps,
    cell_transfer_matrix,
    dispersion_curve,
    first_band_gap,
    half_trace,
    layer_transfer_matrix,
    objective,
    objective_model,
    transit_time,
    two_layer_cell,
    two_layer_half_trace,
    wave_speed,
)
from phonogap.sampling import ParameterDef, ParameterSpace, canonical_space, lhs_sample, map_to_space
from phonogap.sobol import ModelEvaluationError

from oracles import (
    bisect_bilayer_gaps,
    brute_force_first_gap,
    cosine_half_trace,
    dispersion_reference_rows,
    ksection_edge,
    layer_matrix_oracle,
)

REFERENCE_CELL = two_layer_cell(1000.0, 2.0, 2.0, 0.2, 0.2)


def near_homogeneous_points() -> np.ndarray:
    """2000 two-layer rows with E2/E1 = 1 + 10^-k, k in [1, 6], equal
    densities and Poisson's ratios: some have a first gap and some not."""
    rng = np.random.default_rng(11)
    k = rng.uniform(1.0, 6.0, 2000)
    nu = rng.uniform(0.0, NU_CAP, 2000)
    return np.column_stack([1.0 + 10.0**-k, np.ones(2000), rng.uniform(0.1, 10.0, 2000), nu, nu])


# a strong-contrast stack whose first S gap spans (0.093, 4.84)
THREE_LAYER_CELL = UnitCell(
    (Layer(0.36, 1.0, 1.0, 0.2), Layer(0.41, 846.0, 1656.0, 0.2), Layer(0.23, 829.0, 7412.0, 0.2))
)

layer_strategy = st.builds(
    Layer,
    h_hat=st.floats(min_value=0.05, max_value=1.0),
    rho_hat=st.floats(min_value=1e-2, max_value=1e3),
    e_hat=st.floats(min_value=1e-2, max_value=1e4),
    nu=st.floats(min_value=0.0, max_value=NU_CAP),
)
omega_strategy = st.floats(min_value=1e-3, max_value=60.0)
pol_strategy = st.sampled_from([Polarization.S, Polarization.P])


class TestElasticity:
    # Layer.modulus is mu for S-waves and lambda + 2 mu for P-waves
    def test_lame_zero_poisson(self):
        layer = Layer(1.0, 1.0, 1.0, 0.0)
        assert (layer.modulus("S"), layer.modulus("P")) == (0.5, 1.0)

    def test_lame_generic(self):
        layer = Layer(1.0, 1.0, 1.0, 0.2)
        mu = layer.modulus("S")
        assert mu == pytest.approx(0.4167, abs=5e-5)
        assert layer.modulus("P") - 2.0 * mu == pytest.approx(0.2778, abs=5e-5)

    def test_lame_near_cap(self):
        mu = Layer(1.0, 1.0, 1000.0, 0.463).modulus("S")
        assert mu == pytest.approx(1000.0 / 2.926, rel=1e-12)

    def test_reference_wave_speeds(self):
        ref = Layer(1.0, 1.0, 1.0, 0.0)
        assert wave_speed(ref, Polarization.S) == pytest.approx(math.sqrt(0.5))
        assert wave_speed(ref, Polarization.P) == pytest.approx(1.0)

    def test_p_speed_generic(self):
        layer = Layer(1.0, 2.0, 1000.0, 0.2)
        assert wave_speed(layer, Polarization.P) == pytest.approx(23.57, abs=0.005)

    def test_layer_validation(self):
        with pytest.raises(ValueError):
            Layer(0.0, 1.0, 1.0, 0.1)
        with pytest.raises(ValueError):
            Layer(0.5, 1.0, -1.0, 0.2)
        with pytest.raises(ValueError, match="singular"):
            Layer(0.5, 1.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            Layer(0.5, 1.0, 1.0, 0.48)


class TestUnitCell:
    def test_thicknesses_normalized_exactly(self):
        cell = UnitCell((Layer(3.0, 1.0, 1.0, 0.1), Layer(5.0, 4.0, 9.0, 0.2)))
        assert math.fsum(l.h_hat for l in cell.layers) == 1.0
        assert cell.layers[0].h_hat == pytest.approx(0.375)

    def test_reference_layer_enforced(self):
        with pytest.raises(ValueError, match="reference"):
            UnitCell((Layer(0.5, 2.0, 1.0, 0.1), Layer(0.5, 1.0, 1.0, 0.1)))

    def test_json_round_trip(self):
        again = UnitCell.from_json(REFERENCE_CELL.to_json())
        assert again == REFERENCE_CELL


class TestTransferMatrices:
    @settings(max_examples=60, deadline=None)
    @given(layer=layer_strategy, omega=omega_strategy, pol=pol_strategy)
    def test_matches_state_matrix_construction(self, layer, omega, pol):
        fast = layer_transfer_matrix(layer, omega, pol)
        slow = layer_matrix_oracle(layer, omega, pol)
        np.testing.assert_allclose(fast, slow, rtol=0, atol=1e-12 * max(1.0, np.abs(slow).max()))

    @settings(max_examples=60, deadline=None)
    @given(layer=layer_strategy, omega=omega_strategy, pol=pol_strategy)
    def test_unimodular(self, layer, omega, pol):
        t = layer_transfer_matrix(layer, omega, pol)
        assert abs(np.linalg.det(t) - 1.0) < 1e-10

    def test_half_transit_gives_trace_minus_two(self):
        layer = Layer(1.0, 1.0, 1.0, 0.25)
        omega = math.pi * wave_speed(layer, Polarization.S) / layer.h_hat
        t = layer_transfer_matrix(layer, omega, Polarization.S)
        assert t[0, 0] + t[1, 1] == pytest.approx(-2.0, abs=1e-12)

    def test_rejects_nonpositive_frequency(self):
        with pytest.raises(ValueError):
            layer_transfer_matrix(Layer(1.0, 1.0, 1.0, 0.1), 0.0, Polarization.S)

    def test_single_layer_cell_matches_layer(self):
        cell = UnitCell((Layer(1.0, 1.0, 1.0, 0.3),))
        np.testing.assert_array_equal(
            cell_transfer_matrix(cell, 2.0, Polarization.P),
            layer_transfer_matrix(cell.layers[0], 2.0, Polarization.P),
        )

    def test_two_half_layers_compose_to_full_layer(self):
        half = Layer(0.5, 1.0, 1.0, 0.2)
        full = Layer(1.0, 1.0, 1.0, 0.2)
        cell = UnitCell((half, half))
        for omega in (0.3, 1.0, 4.7):
            np.testing.assert_allclose(
                cell_transfer_matrix(cell, omega, Polarization.S),
                layer_transfer_matrix(full, omega, Polarization.S),
                atol=1e-10,
            )

    def test_reference_cell_long_wavelength(self):
        t = cell_transfer_matrix(REFERENCE_CELL, 0.1, Polarization.S)
        assert abs(np.linalg.det(t) - 1.0) < 1e-9
        assert abs(0.5 * (t[0, 0] + t[1, 1])) <= 1.0

    @settings(max_examples=40, deadline=None)
    @given(
        layers=st.lists(layer_strategy, min_size=2, max_size=4),
        omega=omega_strategy,
        pol=pol_strategy,
    )
    @example(  # entries up to 2.5e5: |det T - 1| = 1.2e-9 from rounding alone
        layers=[
            Layer(h_hat=1.0, rho_hat=1.0, e_hat=1.0, nu=0.0),
            Layer(h_hat=1.0, rho_hat=74.0, e_hat=14.0, nu=0.0),
            Layer(h_hat=1.0, rho_hat=1.0, e_hat=0.01171875, nu=0.0),
            Layer(h_hat=0.171875, rho_hat=295.0, e_hat=1032.0, nu=0.0),
        ],
        omega=8.0,
        pol=Polarization.S,
    )
    def test_cell_unimodular(self, layers, omega, pol):
        """det T = 1 up to rounding, which scales with the entries of T.

        Each layer matrix is exactly unimodular at its rounded phase and
        impedance; evaluating its entries costs at most two ulps each.  A
        2x2 product adds two roundings per entry, so for n layers
        ``|T_computed - T| <= (6n - 2) u |T_n|...|T_1|`` entrywise (u the
        unit roundoff), and ``|det(T + E) - 1| <= ||T||_F ||E||_F`` to first
        order.  ``np.linalg.det`` adds at most ``1.5 u ||T||_F^2``.  Hence
        ``|det - 1| <= 8 n u ||T||_F || |T_n|...|T_1| ||_F``: no absolute
        bound holds once the entries grow past about 1e3.
        """
        first = layers[0]
        layers[0] = Layer(first.h_hat, 1.0, 1.0, first.nu)
        cell = UnitCell(tuple(layers))
        t = cell_transfer_matrix(cell, omega, pol)
        magnitudes = np.eye(2)
        for layer in cell.layers:
            magnitudes = np.abs(layer_transfer_matrix(layer, omega, pol)) @ magnitudes
        unit_roundoff = np.finfo(float).eps / 2.0
        bound = 8 * cell.n_layers * unit_roundoff * np.linalg.norm(t) * np.linalg.norm(magnitudes)
        assert abs(np.linalg.det(t) - 1.0) <= bound


class TestHalfTrace:
    def test_limit_at_zero_frequency(self):
        assert half_trace(REFERENCE_CELL, 1e-4, Polarization.S) == pytest.approx(1.0, abs=1e-6)

    def test_long_wavelength_quadratic(self):
        d3 = 1.0 - half_trace(REFERENCE_CELL, 1e-3, Polarization.S)
        d4 = 1.0 - half_trace(REFERENCE_CELL, 1e-4, Polarization.S)
        assert d3 / d4 == pytest.approx(100.0, rel=0.01)

    @settings(max_examples=80, deadline=None)
    @given(
        e=st.floats(min_value=0.1, max_value=1e4),
        rho=st.floats(min_value=0.1, max_value=1e3),
        h=st.floats(min_value=0.11, max_value=9.0),
        nu1=st.floats(min_value=0.0, max_value=NU_CAP),
        nu2=st.floats(min_value=0.0, max_value=NU_CAP),
        omega=omega_strategy,
        pol=pol_strategy,
    )
    def test_closed_form_matches_matrix_product(self, e, rho, h, nu1, nu2, omega, pol):
        cell = two_layer_cell(e, rho, h, nu1, nu2)
        closed = two_layer_half_trace(e, rho, h, nu1, nu2, omega, pol)
        product = half_trace(cell, omega, pol)
        assert closed == pytest.approx(product, abs=1e-10 * max(1.0, abs(product)))

    def test_slope_overflow_leaves_no_warning(self):
        # E2/E1 = 1e-310: |p| (a - b), about 1/(2 E2/E1), is beyond the
        # float range; the half trace discards that slope term silently
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            closed = two_layer_half_trace(1e-310, 1e-306, 1.0, 0.2, 0.2, 1.0, Polarization.S)
        product = half_trace(two_layer_cell(1e-310, 1e-306, 1.0, 0.2, 0.2), 1.0, Polarization.S)
        assert closed == pytest.approx(product, rel=1e-12)

    def test_equal_layers_reduce_to_cosine(self):
        c = wave_speed(Layer(1.0, 1.0, 1.0, 0.2), Polarization.S)
        for omega in (0.7, 2.9, 11.0):
            assert two_layer_half_trace(1.0, 1.0, 1.0, 0.2, 0.2, omega, Polarization.S) == (
                pytest.approx(math.cos(omega / c), abs=1e-12)
            )

    def test_impedance_inversion_symmetry(self):
        # (e2, rho2) -> (1/rho2, 1/e2) keeps both transit phases but maps
        # the impedance ratio z to 1/z, which (z + 1/z)/2 cannot see
        for omega in (0.4, 1.9, 6.3):
            a = two_layer_half_trace(1000.0, 2.0, 2.0, 0.2, 0.2, omega, Polarization.S)
            b = two_layer_half_trace(1.0 / 2.0, 1.0 / 1000.0, 2.0, 0.2, 0.2, omega, Polarization.S)
            assert a == pytest.approx(b, abs=1e-10)

    def test_homogeneous_never_exceeds_one(self):
        cell = UnitCell((Layer(0.4, 1.0, 1.0, 0.3), Layer(0.6, 1.0, 1.0, 0.3)))
        omegas = np.linspace(0.05, 40.0, 4000)
        values = np.array([half_trace(cell, w, Polarization.P) for w in omegas])
        assert np.max(np.abs(values)) <= 1.0 + 1e-12


class TestDispersionCurve:
    def test_homogeneous_has_no_gap_points(self):
        cell = UnitCell((Layer(0.5, 1.0, 1.0, 0.1), Layer(0.5, 1.0, 1.0, 0.1)))
        curve = dispersion_curve(cell, 30.0, 800, Polarization.S)
        assert not curve.in_gap.any()

    def test_flags_and_wavenumbers_consistent(self):
        curve = dispersion_curve(REFERENCE_CELL, 12.0, 600, Polarization.S)
        np.testing.assert_array_equal(curve.in_gap, np.abs(curve.half_trace) > 1.0)
        assert np.isnan(curve.k_hat_h[curve.in_gap]).all()
        k = curve.k_hat_h[~curve.in_gap]
        assert ((0.0 <= k) & (k <= math.pi)).all()
        np.testing.assert_allclose(
            np.cos(k), np.clip(curve.half_trace[~curve.in_gap], -1.0, 1.0), rtol=0.0, atol=1e-12
        )

    def test_s_gap_sits_below_p_gap(self):
        s_curve = dispersion_curve(REFERENCE_CELL, 12.0, 2000, Polarization.S)
        p_curve = dispersion_curve(REFERENCE_CELL, 12.0, 2000, Polarization.P)
        first_s = s_curve.omega_hat[np.argmax(s_curve.in_gap)]
        first_p = p_curve.omega_hat[np.argmax(p_curve.in_gap)]
        assert s_curve.in_gap.any() and p_curve.in_gap.any()
        assert first_s < first_p

    def test_wavenumber_continuity_on_first_branch(self):
        gap = first_band_gap(REFERENCE_CELL, Polarization.S)
        curve = dispersion_curve(REFERENCE_CELL, gap.start, 2000, Polarization.S)
        ks = curve.k_hat_h[~curve.in_gap]
        assert np.max(np.abs(np.diff(ks))) < math.pi / 10

    def test_vectorized_arccos_matches_per_point_calls(self):
        # numpy may take a SIMD path for arrays; the CSV must not change
        # with it, so every wave number equals the one-point call bit for bit
        for c, pol in ((REFERENCE_CELL, Polarization.S), (THREE_LAYER_CELL, Polarization.P)):
            curve = dispersion_curve(c, 40.0, 2001, pol)
            passband = ~curve.in_gap
            per_point = [np.arccos(np.clip(ht, -1.0, 1.0)) for ht in curve.half_trace[passband]]
            np.testing.assert_array_equal(
                curve.k_hat_h[passband].view(np.uint64), np.array(per_point).view(np.uint64)
            )

    @pytest.mark.parametrize(
        "cell, omega_max, n_points, gap_rows",
        [
            (THREE_LAYER_CELL, 4.0, 20, 20),
            (UnitCell(tuple(Layer(h, 1.0, 1.0, 0.3) for h in (0.2, 0.5, 0.3))), 30.0, 500, 0),
            (REFERENCE_CELL, 3.0, 2, 1),
        ],
        ids=["all-gap", "gap-free", "two-points"],
    )
    def test_csv_lines_match_per_point_reference(self, cell, omega_max, n_points, gap_rows):
        curve = dispersion_curve(cell, omega_max, n_points, Polarization.S)
        assert curve.in_gap.sum() == gap_rows
        text = io.StringIO()
        csv.writer(text, lineterminator="\n").writerows(
            dispersion_reference_rows(curve.omega_hat, curve.half_trace)
        )
        lines = curve.csv_text().splitlines(keepends=True)
        assert len(lines) == n_points + 1
        assert "".join(lines) == text.getvalue()

    def test_validation(self):
        with pytest.raises(ValueError):
            dispersion_curve(REFERENCE_CELL, -1.0, 100, Polarization.S)
        with pytest.raises(ValueError):
            dispersion_curve(REFERENCE_CELL, 1.0, 1, Polarization.S)


def random_stack(rng: np.random.Generator) -> UnitCell:
    """A 3-6 layer cell from the box of the benchmark's multilayer
    workload: after the reference layer, thickness ratios in [0.11, 9],
    density ratios in [1, 1e3] and modulus ratios in [10, 1e4], all
    log-uniform, and Poisson's ratios uniform in [0, 0.463]."""
    n_layers = int(rng.integers(3, 7))
    layers = [Layer(1.0, 1.0, 1.0, float(rng.uniform(0.0, 0.463)))]
    for _ in range(n_layers - 1):
        layers.append(
            Layer(
                float(10.0 ** rng.uniform(math.log10(0.11), math.log10(9.0))),
                float(10.0 ** rng.uniform(0.0, 3.0)),
                float(10.0 ** rng.uniform(1.0, 4.0)),
                float(rng.uniform(0.0, 0.463)),
            )
        )
    return UnitCell(tuple(layers))


def recording(grid, calls: list):
    """``grid`` that appends the frequencies of each call to ``calls``."""

    def wrapped(omegas):
        calls.append(np.array(omegas, dtype=float))
        return grid(omegas)

    return wrapped


def scan_calls(monkeypatch, cell: UnitCell, pol: Polarization):
    """``first_band_gap`` of a stack, the grid indices of each of its scan
    calls (those on multiples of the scan step, before the edge
    refinement), the scan step and the start search cap ``n_max``."""
    calls = []
    monkeypatch.setattr(crystal, "_ht_grid", lambda c, p: recording(_ht_grid(c, p), calls))
    gap = first_band_gap(cell, pol)
    tau = transit_time(cell, pol)
    step = math.pi / (_SCAN_STEPS_PER_BRANCH * tau)
    n_max = int(math.floor(_SCAN_CAP_BRAGG * math.pi / tau / step))
    scans = []
    for omegas in calls:
        k = np.rint(omegas / step)
        if not np.array_equal(omegas, step * k):
            break
        scans.append(k.astype(int))
    return gap, scans, step, n_max


def assert_gap_keeps_one_sign(grid, gap: BandGap) -> None:
    """200 interior samples of the gap share one sign of the half trace,
    beyond one in magnitude."""
    values = grid(np.linspace(gap.start, gap.end, 202)[1:-1])
    assert np.all(np.sign(values[0]) * values > 1.0)


class TestGeneralScan:
    @pytest.mark.parametrize("pol", [Polarization.S, Polarization.P])
    def test_random_stacks_match_oracle_to_the_last_bit(self, pol):
        rng = np.random.default_rng(20261018)
        for _ in range(12):
            cell = random_stack(rng)
            gap = first_band_gap(cell, pol)
            ref = brute_force_first_gap(cell, pol)
            assert (gap is None) == (ref is None)
            if gap is None:
                continue
            assert gap.start == pytest.approx(ref[0], abs=1e-6)
            assert gap.end == pytest.approx(ref[1], abs=1e-6)
            # each edge and one of its neighbouring doubles straddle the
            # crossing of |half_trace| = 1: into the gap at the start, out of
            # it at the end
            grid = _ht_grid(cell, pol)
            for edge, entering in ((gap.start, True), (gap.end, False)):
                around = np.array([np.nextafter(edge, -np.inf), edge, np.nextafter(edge, np.inf)])
                inside = (np.abs(grid(around)) > 1.0) == entering
                assert (not inside[0] and inside[1]) or (not inside[1] and inside[2])
            assert_gap_keeps_one_sign(grid, gap)

    @pytest.mark.parametrize("pol", [Polarization.S, Polarization.P])
    def test_narrow_passband_after_the_gap(self, pol):
        cell = UnitCell(
            (
                Layer(1.0, 1.0, 1.0, 0.043),
                Layer(0.43, 19.652, 2606.55, 0.161),
                Layer(1.6797, 907.985, 6899.58, 0.221),
            )
        )
        gap = first_band_gap(cell, pol)
        start, end = brute_force_first_gap(cell, pol)
        assert gap.start == pytest.approx(start, abs=1e-6)
        assert gap.end == pytest.approx(end, abs=1e-6)
        # the passband that ends the gap lies between two scan samples on
        # opposite sides of one, so no scan sample falls inside it
        grid = _ht_grid(cell, pol)
        step = math.pi / (200 * transit_time(cell, pol))
        j = math.ceil(gap.end / step)
        below, above = grid(step * np.array([j - 1, j]))
        assert min(abs(below), abs(above)) > 1.0 and below * above < 0.0
        assert_gap_keeps_one_sign(grid, gap)

    @pytest.mark.parametrize("pol", [Polarization.S, Polarization.P])
    def test_batched_refinement_matches_scalar_ksection(self, pol):
        # both edges refined in one loop must equal each edge refined alone
        rng = np.random.default_rng(20261019)
        for _ in range(40):
            cell = random_stack(rng)
            gap = first_band_gap(cell, pol)
            assert gap is not None
            # the scan's brackets, from one sweep of its grid
            grid = _ht_grid(cell, pol)
            tau = transit_time(cell, pol)
            step = math.pi / (_SCAN_STEPS_PER_BRANCH * tau)
            n_max = int(math.floor(_SCAN_CAP_BRAGG * math.pi / tau / step))
            values = grid(step * np.arange(1, 4 * n_max + 1))
            i = 1 + int(np.argmax(np.abs(values[:n_max]) > 1.0 + _GAP_GUARD))
            sign = math.copysign(1.0, values[i - 1])
            j = i + 1 + int(np.argmax(sign * values[i:] <= 1.0 + _GAP_GUARD))
            brackets = [(step * (i - 1), step * i, True), (step * (j - 1), step * j, False)]
            batched, scalar = [], []
            edges = _refine_edges(recording(grid, batched), sign, brackets)
            assert edges == [
                ksection_edge(recording(grid, scalar), lo, hi, sign, entering)
                for lo, hi, entering in brackets
            ]
            # the same points, and none of a bracket that holds adjacent doubles
            assert np.array_equal(np.sort(np.concatenate(batched)), np.sort(np.concatenate(scalar)))
            assert _refine_edges(grid, sign, brackets[:1]) == edges[:1]
            assert [gap.start, gap.end] == edges

    def test_homogeneous_stack_has_no_gap(self):
        cell = UnitCell(tuple(Layer(h, 1.0, 1.0, 0.3) for h in (0.2, 0.5, 0.3)))
        for pol in (Polarization.S, Polarization.P):
            assert first_band_gap(cell, pol) is None
            assert brute_force_first_gap(cell, pol) is None

    def test_scan_reads_each_sample_once_in_calls_of_256(self, monkeypatch):
        rng = np.random.default_rng(20261020)
        for cell in [THREE_LAYER_CELL] + [random_stack(rng) for _ in range(5)]:
            for pol in (Polarization.S, Polarization.P):
                gap, scans, step, n_max = scan_calls(monkeypatch, cell, pol)
                for k in scans:
                    assert 1 <= k.size <= 256 and np.array_equal(k, np.arange(k[0], k[0] + k.size))
                # one forward walk from sample 1: no sample twice, and the
                # end search goes on where the start's call ended
                samples = np.concatenate(scans)
                assert np.array_equal(samples, np.arange(1, samples.size + 1))
                i, j = math.ceil(gap.start / step), math.ceil(gap.end / step)
                at_start = next(n for n, k in enumerate(scans) if i in k)
                assert i < j <= 4 * n_max and scans[at_start][-1] <= n_max
                assert j in scans[-1]

    def test_gap_free_scan_reads_the_samples_up_to_its_cap(self, monkeypatch):
        cell = UnitCell(tuple(Layer(h, 1.0, 1.0, 0.3) for h in (0.2, 0.5, 0.3)))
        for pol in (Polarization.S, Polarization.P):
            gap, scans, _, n_max = scan_calls(monkeypatch, cell, pol)
            assert gap is None
            assert all(k.size <= 256 for k in scans)
            assert np.array_equal(np.concatenate(scans), np.arange(1, n_max + 1))


class TestFirstBandGap:
    def test_homogeneous_returns_none(self):
        cell = UnitCell((Layer(0.5, 1.0, 1.0, 0.2), Layer(0.5, 1.0, 1.0, 0.2)))
        assert first_band_gap(cell, Polarization.S) is None
        assert first_band_gap(cell, Polarization.P) is None

    def test_reference_cell_matches_oracle(self):
        for pol in (Polarization.S, Polarization.P):
            gap = first_band_gap(REFERENCE_CELL, pol)
            start, end = brute_force_first_gap(REFERENCE_CELL, pol)
            assert gap.start == pytest.approx(start, abs=1e-6)
            assert gap.end == pytest.approx(end, abs=1e-6)

    def test_edge_residuals_are_tiny(self):
        gap = first_band_gap(REFERENCE_CELL, Polarization.S)
        for edge in (gap.start, gap.end):
            assert abs(abs(half_trace(REFERENCE_CELL, edge, Polarization.S)) - 1.0) < 1e-8

    def test_interior_is_forbidden(self):
        gap = first_band_gap(REFERENCE_CELL, Polarization.S)
        for w in np.linspace(gap.start + 1e-3, gap.end - 1e-3, 50):
            assert abs(half_trace(REFERENCE_CELL, w, Polarization.S)) > 1.0

    def test_narrow_passband_ends_gap_at_strong_contrast(self):
        cell = two_layer_cell(9122.7, 373.48, 0.502, 0.037, 0.334)
        gap = first_band_gap(cell, Polarization.S)
        start, end = brute_force_first_gap(cell, Polarization.S)
        assert gap.start == pytest.approx(start, abs=1e-6)
        assert gap.end == pytest.approx(end, abs=1e-6)

    def test_density_sweep_lowers_gap_start(self):
        starts = []
        for rho in np.logspace(0.0, 3.0, 10):
            cell = two_layer_cell(1000.0, rho, 2.0, 0.2, 0.2)
            starts.append(first_band_gap(cell, Polarization.S).start)
        assert all(b < a for a, b in zip(starts, starts[1:]))

    def test_bandgap_type_validation(self):
        with pytest.raises(ValueError):
            BandGap(start=2.0, end=1.0)
        gap = BandGap(start=1.0, end=3.5)
        assert gap.width == 2.5


class TestBilayerFirstGaps:
    @settings(max_examples=80, deadline=None)
    @given(
        e=st.floats(min_value=0.1, max_value=1e4),
        rho=st.floats(min_value=0.1, max_value=1e3),
        h=st.floats(min_value=0.11, max_value=9.0),
        nu1=st.floats(min_value=0.0, max_value=NU_CAP),
        nu2=st.floats(min_value=0.0, max_value=NU_CAP),
        pol=pol_strategy,
    )
    def test_gap_lies_in_its_bragg_brackets(self, e, rho, h, nu1, nu2, pol):
        cell = two_layer_cell(e, rho, h, nu1, nu2)
        bragg = math.pi / transit_time(cell, pol)
        gap = first_band_gap(cell, pol)
        if gap is None:  # (near-)equal impedances: the Bragg dip stays within rounding of -1
            assert half_trace(cell, bragg, pol) + 1.0 >= -1e-12
            return
        assert gap.start < bragg < gap.end < 2.0 * bragg
        assert abs(half_trace(cell, 0.5 * (gap.start + gap.end), pol)) > 1.0
        z1, z2 = (l.rho_hat * wave_speed(l, pol) for l in cell.layers)
        q = 0.5 * (1.0 + 0.5 * (z1 / z2 + z2 / z1))  # size of the half trace's terms
        for edge in (gap.start, gap.end):
            assert abs(half_trace(cell, edge, pol) + 1.0) < 1e-12 * q

    def test_rows_are_solved_independently(self):
        samples = lhs_sample(5, 1000, 23)
        points = map_to_space(np.vstack([samples.original, samples.complementary]), canonical_space())
        points[7] = [1.0, 1.0, 2.0, 0.3, 0.3]  # a gap-free row among them
        batch = {pol: bilayer_first_gaps(points, pol) for pol in ("S", "P")}
        assert np.isnan(batch["S"][0][7]) and np.isnan(batch["P"][1][7])
        for r in range(len(points)):
            pol = "SP"[r % 2]
            start, end = bilayer_first_gaps(points[r : r + 1], pol)
            np.testing.assert_array_equal(
                [start[0], end[0]], [batch[pol][0][r], batch[pol][1][r]]
            )

    @pytest.mark.parametrize("pol", ["S", "P"])
    def test_blocks_match_small_batches(self, pol):
        # about 2.5 blocks of start brackets and an odd remainder, with a
        # gap-free row where the first block ends; solves in batches of 777
        # rows cross no block edge where the whole corpus does
        samples = lhs_sample(5, 10500, 31)
        points = map_to_space(np.vstack([samples.original, samples.complementary]), canonical_space())
        block = crystal._NEWTON_BLOCK
        assert 2 * block < len(points) < 3 * block
        points[block - 1] = [1.0, 1.0, 2.0, 0.3, 0.3]
        start, end = bilayer_first_gaps(points, pol)
        assert np.isnan(start[block - 1]) and np.isnan(end[block - 1])
        batches = [bilayer_first_gaps(points[r : r + 777], pol) for r in range(0, len(points), 777)]
        assert np.array_equal(start, np.concatenate([b[0] for b in batches]), equal_nan=True)
        assert np.array_equal(end, np.concatenate([b[1] for b in batches]), equal_nan=True)

    @pytest.mark.parametrize("cap", [1, 2, 3])
    def test_step_cap_returns_the_last_evaluated_point(self, monkeypatch, cap):
        # a spy on the kernel records, per bracket, the last point evaluated;
        # a bracket is its cell's coefficients and which side of pi/tau it is
        samples = lhs_sample(5, 300, 37)
        points = map_to_space(np.vstack([samples.original, samples.complementary]), canonical_space())
        kernel = crystal._bilayer_ht_slope
        last = {}

        def spy(coeffs, omegas):
            starts = omegas < np.pi / coeffs[3]
            for *key, w in zip(*(c.tolist() for c in coeffs), starts.tolist(), omegas.tolist()):
                last[tuple(key)] = w
            return kernel(coeffs, omegas)

        monkeypatch.setattr(crystal, "_bilayer_ht_slope", spy)
        monkeypatch.setattr(crystal, "_SOLVER_STEPS_MAX", cap)
        for pol in ("S", "P"):
            last.clear()
            start, end = bilayer_first_gaps(points, pol)
            coeffs = [c.tolist() for c in _bilayer_coefficients(points, Polarization(pol))]
            for edges, is_start in ((start, True), (end, False)):
                expected = [last[(*row, is_start)] for row in zip(*coeffs)]
                np.testing.assert_array_equal(edges, expected)
            if cap == 1:
                bragg = np.pi / _bilayer_coefficients(points, Polarization(pol))[3]
                np.testing.assert_array_equal(start, 0.5 * (0.0 + bragg))
                np.testing.assert_array_equal(end, 0.5 * (2.0 * bragg + bragg))

    def test_near_homogeneous_sweep(self):
        # E2/E1 = 1 + 10^-k: the Bragg dip below -1 shrinks like 10^-2k and
        # falls under the 1e-12 rounding guard from k = 6 on
        for k in range(1, 10):
            params = [1.0 + 10.0**-k, 1.0, 1.0, 0.25, 0.25]
            cell = two_layer_cell(*params)
            for pol in (Polarization.S, Polarization.P):
                gap = first_band_gap(cell, pol)
                if k <= 5:
                    bragg = math.pi / transit_time(cell, pol)
                    assert gap.start < bragg < gap.end
                    assert objective(params, f"W{pol.value}") == gap.width
                else:
                    assert gap is None
                    with pytest.raises(ModelEvaluationError, match="no first band gap"):
                        objective(params, f"S{pol.value}")

    @pytest.mark.parametrize("pol", ["S", "P"])
    def test_matches_reference_bisection(self, pol):
        def check(points, rtol, atol):
            start, end = bilayer_first_gaps(points, pol)
            ref_start, ref_end = bisect_bilayer_gaps(points, pol)
            for edge, ref in ((start, ref_start), (end, ref_end)):
                np.testing.assert_array_equal(np.isnan(edge), np.isnan(ref))
                np.testing.assert_allclose(edge, ref, rtol=rtol, atol=atol)
            return np.isnan(ref_start)

        # canonical box: edges to within 1e-12 relative (3.6e-13 measured)
        for seed in range(3):
            samples = lhs_sample(5, 20000, seed)
            points = map_to_space(
                np.vstack([samples.original, samples.complementary]), canonical_space()
            )
            check(points, rtol=1e-12, atol=0.0)
        # E2/E1 = 1 + 10^-k: the Bragg dip shrinks to the rounding guard and
        # the edges close in on a double root of ht + 1 (1.1e-9 measured)
        no_gap = check(near_homogeneous_points(), rtol=0.0, atol=1e-8)
        assert no_gap.any() and not no_gap.all()

    @pytest.mark.parametrize("pol", ["S", "P"])
    def test_half_angle_kernel_matches_cosine_form(self, pol):
        # the solver's f = ht + 1 and slope, from one tan per half phase,
        # against the cosine form, at random frequencies of both brackets
        # and near 0, pi/(2 tau), pi/tau and 2 pi/tau; each agrees to
        # 4 eps times the size of its terms (2.7 and 2.3 measured)
        eps = np.finfo(float).eps
        for seed in range(3):
            samples = lhs_sample(5, 20000, seed)
            points = map_to_space(
                np.vstack([samples.original, samples.complementary]), canonical_space()
            )
            coeffs = p, q, diff, tot = _bilayer_coefficients(points, Polarization(pol))
            bragg = np.pi / tot
            rng = np.random.default_rng(seed)
            scales = [rng.uniform(0.0, 2.0, bragg.size)]
            for anchor in (0.0, 0.5, 1.0, 2.0):
                for offset in (-1e-4, -1e-9, -1e-15, 0.0, 1e-15, 1e-9, 1e-4):
                    if 0.0 < anchor + offset <= 2.0:
                        scales.append(anchor + offset)
            for scale in scales:
                w = scale * bragg
                f, slope = _bilayer_ht_slope(coeffs, w)
                cosine_f = cosine_half_trace(coeffs, w) + 1.0
                cosine_slope = -(p * diff * np.sin(diff * w) + q * tot * np.sin(tot * w))
                assert np.all(np.abs(f - cosine_f) <= 4.0 * eps * (np.abs(p) + q + 1.0))
                assert np.all(np.abs(slope - cosine_slope) <= 4.0 * eps * (np.abs(p * diff) + q * tot))

    @pytest.mark.parametrize("pol", ["S", "P"])
    def test_half_angle_kernel_matches_50_digit_cosine_form(self, pol):
        # f = ht + 1 of the one kernel against p cos((a-b) w) + q cos((a+b) w)
        # + 1 evaluated at 50 digits from the same float coefficients and
        # frequencies, on canonical and near-homogeneous rows, at the
        # decision frequency pi/tau and inside both brackets (2.1 measured)
        mpmath = pytest.importorskip("mpmath")
        eps = np.finfo(float).eps
        samples = lhs_sample(5, 100, 0)
        canonical = map_to_space(np.vstack([samples.original, samples.complementary]), canonical_space())
        points = np.vstack([canonical, near_homogeneous_points()[:200]])
        coeffs = _bilayer_coefficients(points, Polarization(pol))
        bragg = np.pi / coeffs[3]
        with mpmath.workdps(50):
            for scale in (0.3, 0.9, 1.0, 1.1, 1.7):
                w = scale * bragg
                f, _ = _bilayer_ht_slope(coeffs, w)
                for row in range(len(points)):
                    p, q, diff, tot, wm = (mpmath.mpf(float(c[row])) for c in (*coeffs, w))
                    exact = p * mpmath.cos(diff * wm) + q * mpmath.cos(tot * wm) + 1
                    error = abs(mpmath.mpf(float(f[row])) - exact)
                    assert error <= 4.0 * eps * (abs(p) + q + 1), (row, scale)

    @pytest.mark.parametrize("pol", ["S", "P"])
    def test_start_objective_solves_the_start_brackets_alone(self, pol):
        # each edge depends on its own bracket only, so the starts solved
        # alone are the starts of the two-bracket solve, bit for bit
        corpora = []
        for seed in range(3):
            samples = lhs_sample(5, 5000, seed)
            corpora.append(
                map_to_space(np.vstack([samples.original, samples.complementary]), canonical_space())
            )
        corpora.append(near_homogeneous_points())
        corpora.append(np.array([[1000.0, 2.0, 2.0, 0.2, 0.2], [1.0, 1.0, 2.0, 0.3, 0.3]]))
        for points in corpora:
            start, _ = bilayer_first_gaps(points, pol)
            alone = crystal._bilayer_edges(points, Polarization(pol), 1)[0]
            assert np.array_equal(alone, start, equal_nan=True)
        assert np.isnan(alone[1]) and not np.isnan(alone[0])

    def test_start_model_solves_half_the_brackets(self, monkeypatch):
        solved = []

        def counting(coeffs, inner, outer):
            solved.append(inner.size)
            return newton_roots(coeffs, inner, outer)

        newton_roots = crystal._newton_roots
        monkeypatch.setattr(crystal, "_newton_roots", counting)
        u = lhs_sample(5, 500, 3).original
        objective_model("SS").fn(u)
        objective_model("WS").fn(u)
        assert solved == [500, 1000]

    @pytest.mark.parametrize("pol", ["S", "P"])
    def test_non_finite_speed_raises_at_its_row(self, pol):
        # E2/rho2 overflows the layer-2 speed; below the smallest double it
        # rounds the speed to zero and the transit time to infinity
        good = [1000.0, 2.0, 2.0, 0.2, 0.2]
        for bad in ([1e300, 1e-300, 1.0, 0.2, 0.2], [1e-300, 1e100, 1.0, 0.2, 0.2]):
            with pytest.raises(ModelEvaluationError, match="beyond the float range") as err:
                bilayer_first_gaps(np.array([good, good, bad, bad]), pol)
            assert err.value.index == 2 and err.value.point.tolist() == bad

    def test_validation(self):
        with pytest.raises(ValueError, match=r"\(m, 5\)"):
            bilayer_first_gaps(np.ones((3, 4)), "S")
        with pytest.raises(ValueError, match="Poisson"):
            bilayer_first_gaps([[1000.0, 2.0, 2.0, 0.2, 0.5]], "S")
        with pytest.raises(ValueError, match="positive"):
            bilayer_first_gaps([[1000.0, -2.0, 2.0, 0.2, 0.2]], "P")


class TestObjective:
    def test_equal_layers_have_no_gap(self):
        # the report of objective_model's gap-free rows, at sample 0
        with pytest.raises(ModelEvaluationError, match="no first band gap") as err:
            objective([1.0, 1.0, 1.0, 0.25, 0.25], "SS")
        assert err.value.point.tolist() == [1.0, 1.0, 1.0, 0.25, 0.25]
        assert str(err.value) == "no first band gap at sample 0: [1.0, 1.0, 1.0, 0.25, 0.25]"

    def test_start_below_p_start(self):
        params = [1000.0, 2.0, 2.0, 0.2, 0.2]
        assert objective(params, ObjectiveKind.SS) < objective(params, ObjectiveKind.SP)

    def test_width_is_end_minus_start(self):
        params = [1000.0, 2.0, 2.0, 0.2, 0.2]
        gap = first_band_gap(REFERENCE_CELL, Polarization.S)
        assert objective(params, "WS") == pytest.approx(gap.width)

    def test_random_points_match_oracle(self):
        samples = map_to_space(lhs_sample(5, 20, 17).original, canonical_space())
        for pol in (Polarization.S, Polarization.P):
            for row in samples:
                start, end = brute_force_first_gap(two_layer_cell(*row), pol)
                assert objective(row, f"S{pol.value}") == pytest.approx(start, abs=1e-6)
                assert objective(row, f"W{pol.value}") == pytest.approx(end - start, abs=1e-6)

    def test_objective_model_reports_failures(self):
        degenerate = ParameterSpace(
            (
                ParameterDef("E2/E1", 1.0 - 1e-9, 1.0 + 1e-9),
                ParameterDef("rho2/rho1", 1.0 - 1e-9, 1.0 + 1e-9),
                ParameterDef("h2/h1", 0.999, 1.001),
                ParameterDef("nu1", 0.25, 0.2500001),
                ParameterDef("nu2", 0.25, 0.2500001),
            )
        )
        model = objective_model("SS", space=degenerate)
        with pytest.raises(ModelEvaluationError) as err:
            model.fn(lhs_sample(5, 8, 0).original)
        assert err.value.point[0] == pytest.approx(1.0, abs=1e-6)

    def test_pure_function_of_inputs(self):
        params = [316.0, 31.6, 1.7, 0.11, 0.31]
        assert objective(params, "SP") == objective(params, "SP")

    @pytest.mark.parametrize("kinds", [("SS", "WS"), ("WP", "SP")])
    def test_two_kind_model_gives_the_single_kind_bits(self, kinds):
        # 5000 rows: the two-edge solve spans two Newton blocks, the
        # start-only solve one
        u = lhs_sample(5, 5000, 8).original
        model = objective_model(*kinds)
        both = model.fn(u)
        assert both.shape == (5000, 2) and model.name == "bandgap-" + ",".join(kinds)
        for column, kind in zip(both.T, kinds):
            assert np.array_equal(column, objective_model(kind).fn(u))

    def test_multi_kind_model_validation(self):
        for kinds in ((), ("SS", "SP")):
            with pytest.raises(ValueError, match="one polarization"):
                objective_model(*kinds)
        # the lower corner of this space is a homogeneous cell
        space = ParameterSpace(
            (
                ParameterDef("E2/E1", 1.0, 1000.0),
                ParameterDef("rho2/rho1", 1.0, 2.0),
                ParameterDef("h2/h1", 1.0, 2.0),
                ParameterDef("nu1", 0.25, 0.3),
                ParameterDef("nu2", 0.25, 0.3),
            )
        )
        u = np.array([[0.5] * 5, [0.0] * 5, [0.0] * 5])
        with pytest.raises(ModelEvaluationError, match=r"no first band gap at sample 1: \[1\.0, 1\.0, 1\.0, 0\.25, 0\.25\]"):
            objective_model("SP", "WP", space=space).fn(u)
