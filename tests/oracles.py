"""Independent slow-path oracles and helpers used only by the tests.

These deliberately avoid the production fast paths: the layer matrix is
rebuilt from the sinusoid/stress coefficient matrices and a numerical
inverse, the gap finder walks a ten-times-finer grid with scipy
refinement, and half traces always go through the matrix product.
"""
from __future__ import annotations

import itertools
import math
from typing import Callable

import numpy as np
from scipy.optimize import brentq, minimize_scalar

from phonogap.crystal import (
    _GAP_GUARD,
    _KSECTION_POINTS,
    _SOLVER_STEPS_MAX,
    Layer,
    Polarization,
    UnitCell,
    _bilayer_coefficients,
    _bilayer_ht,
    cell_transfer_matrix,
    transit_time,
    wave_speed,
)
from phonogap.design import DesignEquation
from phonogap.sobol import SobolFunctionEstimate, SobolResult


def state_matrix(layer: Layer, z_hat: float, omega_hat: float, pol: Polarization) -> np.ndarray:
    """Coefficient matrix mapping sinusoid amplitudes to (displacement,
    stress) at depth z within the layer."""
    c = wave_speed(layer, pol)
    m = layer.modulus(pol)
    arg = omega_hat * z_hat / c
    k = m * omega_hat / c
    return np.array(
        [
            [math.sin(arg), math.cos(arg)],
            [k * math.cos(arg), -k * math.sin(arg)],
        ]
    )


def layer_matrix_oracle(layer: Layer, omega_hat: float, pol: Polarization) -> np.ndarray:
    """Propagator as state_matrix(h) @ inv(state_matrix(0))."""
    top = state_matrix(layer, layer.h_hat, omega_hat, pol)
    bottom = state_matrix(layer, 0.0, omega_hat, pol)
    return top @ np.linalg.inv(bottom)


def half_trace_matrix(cell: UnitCell, omega_hat: float, pol: Polarization) -> float:
    t = cell_transfer_matrix(cell, omega_hat, pol)
    return 0.5 * (t[0, 0] + t[1, 1])


def brute_force_first_gap(
    cell: UnitCell,
    pol: Polarization,
    resolution: int = 2000,
    cap_factor: float = 8.0,
) -> tuple[float, float] | None:
    """(start, end) of the first band gap from a dense scan.

    Walks a grid ten times finer than the production default, refines
    edges with brentq and checks every local minimum of |half_trace|
    with bounded scalar minimization so narrow passbands are honored.
    """
    tau = transit_time(cell, pol)
    step = math.pi / (resolution * tau)
    n_cap = int(8.0 * math.pi / tau / step * cap_factor / 8.0)

    def g(w: float) -> float:
        return abs(half_trace_matrix(cell, w, pol)) - 1.0

    start = None
    k = 1
    prev = 0.0
    while k <= n_cap:
        val = g(step * k)
        if val > 1e-12:
            lo = step * (k - 1) if k > 1 else step * 1e-6
            start = brentq(g, lo, step * k, xtol=1e-12)
            break
        prev = val
        k += 1
    if start is None:
        return None

    values = [g(step * k)]
    positions = [step * k]
    m = k + 1
    while True:
        if m > 8 * n_cap:
            raise RuntimeError("oracle did not find the gap end")
        w = step * m
        val = g(w)
        values.append(val)
        positions.append(w)
        if val <= 1e-12:
            end = brentq(g, positions[-2], w, xtol=1e-12)
            return start, end
        if len(values) >= 3 and values[-2] < values[-3] and values[-2] <= values[-1]:
            res = minimize_scalar(
                g, bounds=(positions[-3], positions[-1]), method="bounded",
                options={"xatol": 1e-13},
            )
            if res.fun < 0.0:
                end = brentq(g, positions[-3], res.x, xtol=1e-12)
                return start, end
        m += 1


def bisect_bilayer_gaps(points: np.ndarray, pol: Polarization | str) -> tuple[np.ndarray, np.ndarray]:
    """First-gap ``(start, end)`` arrays of two-layer rows by bisection.

    Halves both Bragg brackets of every row together until no bracket
    shrinks any more (adjacent doubles, about 58 halvings), and returns
    each bracket's midpoint; NaN where ``ht(pi/tau) + 1`` is not below
    ``-_GAP_GUARD``.  Same gap decision and kernel as
    :func:`phonogap.crystal.bilayer_first_gaps`, slow but simple.
    """
    coeffs = _bilayer_coefficients(points, Polarization(pol))
    bragg = np.pi / coeffs[3]
    has_gap = _bilayer_ht(coeffs, bragg) + 1.0 < -_GAP_GUARD
    # row 0 brackets the start, row 1 the end; ht + 1 > 0 at `outer` and
    # < 0 at `inner` (the Bragg frequency)
    outer = np.stack([np.zeros_like(bragg), 2.0 * bragg])
    inner = np.stack([bragg, bragg])
    for _ in range(200):
        mid = 0.5 * (outer + inner)
        if not ((mid != outer) & (mid != inner)).any():
            break
        positive = _bilayer_ht(coeffs, mid) + 1.0 > 0.0
        outer = np.where(positive, mid, outer)
        inner = np.where(positive, inner, mid)
    edges = np.where(has_gap, 0.5 * (outer + inner), np.nan)
    return edges[0], edges[1]


def ksection_edge(
    grid: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    sign: float,
    entering: bool,
) -> float:
    """Edge of the gap between ``lo`` and ``hi``, to the last bit, one
    bracket at a time.

    Inside the gap ``sign * half_trace > 1``.  ``lo`` lies outside the gap
    and ``hi`` inside when ``entering``, the other way round when not.
    Each k-section step evaluates ``np.linspace``'s interior points in one
    ``grid`` call and keeps the sub-bracket of the first crossing, until
    the bracket holds adjacent doubles.  The scalar form of the scan's
    batched refinement, which must match it bit for bit.
    """
    for _ in range(_SOLVER_STEPS_MAX):
        if np.nextafter(lo, hi) == hi:
            break
        pts = np.linspace(lo, hi, _KSECTION_POINTS + 2)[1:-1]
        crossed = (sign * grid(pts) > 1.0) == entering
        j = int(np.argmax(crossed)) if crossed.any() else len(pts)
        lo, hi = (pts[j - 1] if j else lo), (pts[j] if j < len(pts) else hi)
    return float(0.5 * (lo + hi))


def dispersion_reference_rows(omegas: np.ndarray, half_traces: np.ndarray) -> list[list[str]]:
    """Dispersion CSV rows built one sample at a time, with one
    ``np.arccos`` call and one ``format(x, ".17g")`` per field.

    The half traces come in from the caller, so the rows check how the
    dispersion output folds, flags and formats them, not the kernel.
    """
    rows = [["omega_hat", "half_trace", "k_hat_h", "in_gap"]]
    for w, ht in zip(omegas, half_traces):
        in_gap = abs(ht) > 1.0
        k = "" if in_gap else format(float(np.arccos(np.clip(ht, -1.0, 1.0))), ".17g")
        rows.append([format(float(w), ".17g"), format(float(ht), ".17g"), k, "1" if in_gap else "0"])
    return rows


def design_sum_reference(eq: DesignEquation, params: np.ndarray, k: int) -> np.ndarray:
    """The constant plus the first ``k`` terms of ``eq``, added one term
    at a time in term order and then scaled to radial omega_hat."""
    coords = eq.transform(params)
    total = np.full(np.atleast_2d(params).shape[0], eq.f0)
    for term in eq.terms[:k]:
        total = total + term.evaluate(coords)
    return total * eq.omega_scale


def surface_reference_rows(est: SobolFunctionEstimate) -> list[list[str]]:
    """Sobol'-function CSV rows built one node at a time, with one
    ``format(x, ".17g")`` per field, for ``csv.writer`` to write."""
    rows = [[f"u{a}" for a in est.axes] + ["value"]]
    for index in np.ndindex(est.values.shape):
        coords = [format(float(est.grids[k][i]), ".17g") for k, i in enumerate(index)]
        rows.append(coords + [format(float(est.values[index]), ".17g")])
    return rows


def index_reference_rows(result: SobolResult) -> list[list[str]]:
    """``sobol_indices`` CSV rows built one index at a time, with one
    ``format(x, ".17g")`` per field, for ``csv.writer`` to write."""
    names = result.dim_names
    rows = [["label", "order", "partial_variance", "index"]]
    for i, name in enumerate(names):
        fields = (result.first_order[i], result.first_order_indices[i])
        rows.append([name, "1", *(format(float(x), ".17g") for x in fields)])
    for i, j in itertools.combinations(range(len(names)), 2):
        fields = (result.second_order[i, j], result.second_order_indices[i, j])
        rows.append([f"{names[i]}|{names[j]}", "2", *(format(float(x), ".17g") for x in fields)])
    return rows


def gauss_legendre(n: int, lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights on [lo, hi]."""
    x, w = np.polynomial.legendre.leggauss(n)
    half = 0.5 * (hi - lo)
    return lo + half * (x + 1.0), w * half


def index_table(result: SobolResult) -> list[tuple[str, float]]:
    """(label, index) rows of a Sobol' study, first order then pairs, unclamped."""
    names = result.dim_names
    rows = [(f"S[{name}]", float(s)) for name, s in zip(names, result.first_order_indices)]
    for i, j in itertools.combinations(range(len(names)), 2):
        rows.append((f"S[{names[i]},{names[j]}]", float(result.second_order_indices[i, j])))
    return rows
