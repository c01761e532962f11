"""Acceptance suite: the numbered exit criteria, one test each.

Every test prints a one-line summary with the measured values (visible
under ``pytest -s`` or in the captured-output section on failure).
"""
import itertools
import json
import math
import time

import numpy as np
import pytest

from phonogap.cli import main
from phonogap.crystal import (
    Layer,
    Polarization,
    UnitCell,
    first_band_gap,
    half_trace,
    layer_transfer_matrix,
    objective_model,
    two_layer_cell,
    two_layer_half_trace,
)
from phonogap.design import (
    design_model,
    fit_polynomial_surrogate,
    load_design_equations,
    scaled_l2_error,
    truncation_curve,
)
from phonogap.sampling import canonical_space, lhs_sample, map_to_space
from phonogap.sobol import (
    analytic_poly_model,
    analytic_poly_reference,
    estimate_sobol_function_1d,
    estimate_sobol_function_2d,
    sobol_indices,
)

from oracles import brute_force_first_gap, gauss_legendre, index_table

POLY_SEED = 42
STUDY_SEED = 20260808
REFERENCE_CELL = two_layer_cell(1000.0, 2.0, 2.0, 0.2, 0.2)
PARAM_NAMES = ("E2/E1", "rho2/rho1", "h2/h1", "nu1", "nu2")


@pytest.fixture(scope="module")
def study_samples():
    return lhs_sample(5, 2000, STUDY_SEED)


def test_criterion_01_polynomial_indices():
    t0 = time.monotonic()
    result = sobol_indices(analytic_poly_model(), lhs_sample(3, 3000, POLY_SEED))
    elapsed = time.monotonic() - t0
    s1, s2, s3 = result.first_order_indices
    s12 = result.second_order_indices[0, 1]
    s13 = result.second_order_indices[0, 2]
    s23 = result.second_order_indices[1, 2]
    print(
        f"ACCEPTANCE 1: S2={s2:.4f} S23={s23:.4f} "
        f"|S1|={abs(s1):.4f} |S3|={abs(s3):.4f} |S12|={abs(s12):.4f} "
        f"|S13|={abs(s13):.4f} |resid|={abs(result.residual):.4f} ({elapsed:.2f}s) -> PASS"
    )
    assert 0.38 <= s2 <= 0.48
    assert 0.47 <= s23 <= 0.67
    assert s23 > s2
    for small in (s1, s3, s12, s13, result.residual):
        assert abs(small) < 0.08
    assert elapsed < 5.0


def test_criterion_02_sobol_function_recovery():
    t0 = time.monotonic()
    model = analytic_poly_model()
    ref = analytic_poly_reference()
    est2 = estimate_sobol_function_1d(model, 1, 64, 128, seed=POLY_SEED)
    x = 8.0 * est2.grids[0] - 4.0
    exact2 = ref.functions["2"](x)
    r2_first = 1.0 - np.sum((est2.values - exact2) ** 2) / np.sum((exact2 - exact2.mean()) ** 2)
    est23 = estimate_sobol_function_2d(model, 1, 2, 64, 128, seed=POLY_SEED)
    exact23 = ref.functions["23"](x[:, None], x[None, :])
    r2_second = 1.0 - np.sum((est23.values - exact23) ** 2) / np.sum(
        (exact23 - exact23.mean()) ** 2
    )
    elapsed = time.monotonic() - t0
    print(f"ACCEPTANCE 2: R2(F2)={r2_first:.5f} R2(F23)={r2_second:.5f} ({elapsed:.2f}s) -> PASS")
    assert r2_first >= 0.99
    assert r2_second >= 0.99
    assert elapsed < 10.0


def test_criterion_03_orthogonality():
    ref = analytic_poly_reference()
    x, w = gauss_legendre(12, -4.0, 4.0)
    wn = w / 8.0
    W3 = wn[:, None, None] * wn[None, :, None] * wn[None, None, :]
    X1, X2, X3 = np.meshgrid(x, x, x, indexing="ij")
    norm = math.sqrt(ref.total_variance)
    worst_zero = 0.0
    for name in ("1", "2"):
        worst_zero = max(worst_zero, abs(np.sum(ref.functions[name](x) * wn)) / norm)
    for name in ("12", "23"):
        f = ref.functions[name](x[:, None], x[None, :])
        worst_zero = max(worst_zero, np.max(np.abs(np.sum(f * wn[:, None], axis=0))) / norm)
        worst_zero = max(worst_zero, np.max(np.abs(np.sum(f * wn[None, :], axis=1))) / norm)
    components = {
        "1": ref.functions["1"](X1),
        "2": ref.functions["2"](X2),
        "12": ref.functions["12"](X1, X2),
        "23": ref.functions["23"](X2, X3),
    }
    names = list(components)
    worst_cross = 0.0
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            worst_cross = max(
                worst_cross, abs(np.sum(components[a] * components[b] * W3)) / ref.total_variance
            )
    print(f"ACCEPTANCE 3: max |zero integral|={worst_zero:.2e} max |cross|={worst_cross:.2e} -> PASS")
    assert worst_zero < 1e-6
    assert worst_cross < 1e-6


def test_criterion_04_transfer_matrix_invariants():
    rng = np.random.default_rng(404)
    n = 10_000
    e = 10.0 ** rng.uniform(-1, 4, n)
    rho = 10.0 ** rng.uniform(-1, 3, n)
    h = 10.0 ** rng.uniform(math.log10(0.11), math.log10(9.0), n)
    nu1 = rng.uniform(0.0, 0.463, n)
    nu2 = rng.uniform(0.0, 0.463, n)
    omega = rng.uniform(1e-3, 50.0, n)
    pols = [Polarization.S, Polarization.P]
    worst_det = 0.0
    worst_closed = 0.0
    for k in range(n):
        pol = pols[k % 2]
        layer = Layer(h_hat=h[k] / (1 + h[k]), rho_hat=rho[k], e_hat=e[k], nu=nu2[k])
        det = np.linalg.det(layer_transfer_matrix(layer, omega[k], pol))
        worst_det = max(worst_det, abs(det - 1.0))
        cell = two_layer_cell(e[k], rho[k], h[k], nu1[k], nu2[k])
        closed = two_layer_half_trace(e[k], rho[k], h[k], nu1[k], nu2[k], omega[k], pol)
        worst_closed = max(worst_closed, abs(closed - half_trace(cell, omega[k], pol)))
    print(f"ACCEPTANCE 4: max |det-1|={worst_det:.2e} max |closed-matrix|={worst_closed:.2e} -> PASS")
    assert worst_det < 1e-10
    assert worst_closed < 1e-10


def test_criterion_05_degenerate_physics():
    cells = [
        UnitCell((Layer(0.5, 1.0, 1.0, 0.2), Layer(0.5, 1.0, 1.0, 0.2))),
        UnitCell((Layer(0.2, 1.0, 1.0, 0.35), Layer(0.3, 1.0, 1.0, 0.35), Layer(0.5, 1.0, 1.0, 0.35))),
    ]
    worst = 0.0
    for cell in cells:
        for pol in (Polarization.S, Polarization.P):
            omegas = np.linspace(0.01, 40.0, 5000)
            values = np.array([half_trace(cell, w, pol) for w in omegas])
            worst = max(worst, float(np.max(np.abs(values))) - 1.0)
            assert first_band_gap(cell, pol) is None
    limit = abs(half_trace(REFERENCE_CELL, 1e-4, Polarization.S) - 1.0)
    for cell in cells:
        limit = max(limit, abs(half_trace(cell, 1e-4, Polarization.S) - 1.0))
    print(f"ACCEPTANCE 5: max(|half_trace|-1)={worst:.2e} |half_trace(1e-4)-1|={limit:.2e} -> PASS")
    assert worst <= 1e-12
    assert limit < 1e-6


def test_criterion_06_reference_cell_gaps_match_oracle():
    gaps = {}
    for pol in (Polarization.S, Polarization.P):
        gap = first_band_gap(REFERENCE_CELL, pol)
        start, end = brute_force_first_gap(REFERENCE_CELL, pol)
        assert gap.start == pytest.approx(start, abs=1e-6)
        assert gap.end == pytest.approx(end, abs=1e-6)
        gaps[pol.value] = gap
    print(
        f"ACCEPTANCE 6: S=[{gaps['S'].start:.6f},{gaps['S'].end:.6f}] "
        f"P=[{gaps['P'].start:.6f},{gaps['P'].end:.6f}] oracle agreement <1e-6 -> PASS"
    )
    assert gaps["S"].start < gaps["P"].start


def test_criterion_07_sensitivity_rankings(study_samples):
    t0 = time.monotonic()
    results = {}
    for kind in ("SS", "WS", "SP", "WP"):
        results[kind] = sobol_indices(
            objective_model(kind), study_samples, dim_names=PARAM_NAMES
        )
    elapsed = time.monotonic() - t0

    def top(result):
        return max(index_table(result), key=lambda kv: kv[1])

    ss_label, ss_value = top(results["SS"])
    ws_label, ws_value = top(results["WS"])
    sp_label, sp_value = top(results["SP"])
    print(
        f"ACCEPTANCE 7: SS {ss_label}={ss_value:.3f}; WS {ws_label}={ws_value:.3f}; "
        f"SP {sp_label}={sp_value:.3f}; no-gap points=0 ({elapsed:.1f}s) -> PASS"
    )
    assert ss_label == "S[rho2/rho1]" and ss_value >= 0.8
    assert ws_label == "S[h2/h1]" and 0.25 <= ws_value <= 0.55
    assert sp_label == "S[rho2/rho1]" and sp_value >= 0.7
    assert elapsed < 600.0


@pytest.fixture(scope="module")
def exact_study(study_samples):
    """Each objective on the original study matrix, one solve per polarization."""
    exact = {}
    for kinds in (("SS", "WS"), ("SP", "WP")):
        exact.update(zip(kinds, objective_model(*kinds).fn(study_samples.original).T))
    return exact


def test_criterion_08_design_equation_fidelity(study_samples, exact_study):
    bounds = {"SS": 0.02, "WS": 0.20, "SP": 0.01, "WP": 0.28}
    deltas = {}
    for kind, bound in bounds.items():
        delta = scaled_l2_error(exact_study[kind], design_model(kind), study_samples)
        deltas[kind] = delta
    line = " ".join(f"{k}={deltas[k]:.4f}(<={bounds[k]})" for k in bounds)
    print(f"ACCEPTANCE 8: {line} -> PASS")
    for kind, bound in bounds.items():
        assert deltas[kind] <= bound, kind


@pytest.fixture(scope="module")
def truncation_curves(study_samples, exact_study):
    return {
        kind: truncation_curve(exact_study[kind], kind, study_samples)
        for kind in ("SS", "WS", "SP", "WP")
    }


def test_criterion_09_truncation_baseline_and_monotonicity(truncation_curves):
    for kind, curve in truncation_curves.items():
        assert curve[0] == pytest.approx(1.0, abs=0.02), kind
    assert truncation_curves["SS"][1] <= 0.10
    for kind in ("WS", "WP"):
        deltas = truncation_curves[kind]
        assert all(b <= a + 0.02 for a, b in zip(deltas, deltas[1:])), kind
    summary = "; ".join(
        f"{kind} " + ">".join(f"{d:.3f}" for d in curve)
        for kind, curve in truncation_curves.items()
    )
    print(f"ACCEPTANCE 9 (baseline, SS drop, WS/WP monotone): {summary} -> PASS")


def test_criterion_09_sp_first_term_drop(truncation_curves, study_samples, exact_study):
    # No function of the first term's inputs can leave less than one minus
    # their closed Sobol' index, about 0.16 for the density ratio of SP. The
    # floor is the best total-degree-8 polynomial in those inputs, fitted on
    # the same rows; the shipped term must come within 0.01 of it.
    eq = load_design_equations()["SP"]
    y = exact_study["SP"]
    coords = eq.transform(map_to_space(study_samples.original, canonical_space()))
    inputs = eq.terms[0].inputs
    x = np.column_stack([coords[name] for name in inputs])
    exponents = [
        e for e in itertools.product(range(9), repeat=len(inputs)) if sum(e) <= 8
    ]
    _, residual = fit_polynomial_surrogate(x, y, exponents)
    floor = residual**2 / len(y) / np.var(y)
    delta = truncation_curves["SP"][1]
    margin = delta - floor
    print(
        f"ACCEPTANCE 9 (SP first-term drop): delta={delta:.4f} "
        f"floor[{','.join(inputs)}]={floor:.4f} margin={margin:.4f} (<=0.01 required)"
    )
    assert margin <= 0.01


def test_criterion_10_thread_count_determinism(tmp_path):
    payloads = []
    for threads in ("1", "4"):
        out = tmp_path / f"threads_{threads}"
        code = main(
            ["sobol", "--target", "poly", "--n", "500", "--seed", "11",
             "--threads", threads, "--out", str(out)]
        )
        assert code == 0
        code = main(
            ["design", "--mode", "error", "--kind", "SS", "--n", "300", "--seed", "11",
             "--threads", threads, "--out", str(out)]
        )
        assert code == 0
        payloads.append(
            tuple(
                (out / name).read_bytes()
                for name in ("sobol_result.json", "sobol_indices.csv", "design_error.json")
            )
        )
    assert payloads[0] == payloads[1]
    print("ACCEPTANCE 10: byte-identical payloads across --threads 1/4 -> PASS")
