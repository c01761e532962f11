"""Independent slow-path oracles and helpers used only by the tests.

These deliberately avoid the production fast paths: the layer matrix is
rebuilt from the sinusoid/stress coefficient matrices and a numerical
inverse, half traces multiply those layer matrices and share no kernel
with the solver, and the gap finder walks a ten-times-finer grid with
scipy refinement.
"""
from __future__ import annotations

import itertools
import math
from typing import Callable, Iterator

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
    transit_time,
    wave_speed,
)
from phonogap.design import DesignEquation
from phonogap.sampling import SampleSet
from phonogap.sobol import ModelFunction, SobolFunctionEstimate, SobolResult


def state_matrix(layer: Layer, z_hat: float, omega_hat, pol: Polarization) -> np.ndarray:
    """Coefficient matrix mapping sinusoid amplitudes to (displacement,
    stress) at depth z within the layer; ``(..., 2, 2)`` for an array of
    frequencies."""
    c = wave_speed(layer, pol)
    m = layer.modulus(pol)
    w = np.asarray(omega_hat, dtype=float)
    arg = w * z_hat / c
    k = m * w / c
    return np.stack(
        [
            np.stack([np.sin(arg), np.cos(arg)], axis=-1),
            np.stack([k * np.cos(arg), -k * np.sin(arg)], axis=-1),
        ],
        axis=-2,
    )


def layer_matrix_oracle(layer: Layer, omega_hat, pol: Polarization) -> np.ndarray:
    """Propagator as state_matrix(h) @ inv(state_matrix(0)), the inverse
    as adjugate over determinant."""
    top = state_matrix(layer, layer.h_hat, omega_hat, pol)
    bottom = state_matrix(layer, 0.0, omega_hat, pol)
    a, b, c, d = bottom[..., 0, 0], bottom[..., 0, 1], bottom[..., 1, 0], bottom[..., 1, 1]
    adjugate = np.stack([np.stack([d, -b], axis=-1), np.stack([-c, a], axis=-1)], axis=-2)
    return top @ (adjugate / np.asarray(a * d - b * c)[..., None, None])


def half_trace_matrix(cell: UnitCell, omega_hat, pol: Polarization):
    """Half trace of the product of the oracle layer matrices, first layer
    rightmost; an array for an array of frequencies."""
    t = np.eye(2)
    for layer in cell.layers:
        t = layer_matrix_oracle(layer, omega_hat, pol) @ t
    return 0.5 * (t[..., 0, 0] + t[..., 1, 1])


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
    The walk reads the grid samples in order; they are evaluated 256 at a
    time.
    """
    tau = transit_time(cell, pol)
    step = math.pi / (resolution * tau)
    n_cap = int(8.0 * math.pi / tau / step * cap_factor / 8.0)

    def g(w):
        return np.abs(half_trace_matrix(cell, w, pol)) - 1.0

    def grid_values() -> Iterator[float]:
        """g at the grid samples 1, 2, ..."""
        for k in itertools.count(1, 256):
            yield from g(step * np.arange(k, k + 256)).tolist()

    samples = grid_values()
    start = None
    for k in range(1, n_cap + 1):
        val = next(samples)
        if val > 1e-12:
            lo = step * (k - 1) if k > 1 else step * 1e-6
            start = brentq(g, lo, step * k, xtol=1e-12)
            break
    if start is None:
        return None

    values = [val]
    positions = [step * k]
    m = k + 1
    while True:
        if m > 8 * n_cap:
            raise RuntimeError("oracle did not find the gap end")
        w = step * m
        val = next(samples)
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


def cosine_half_trace(coeffs: tuple[np.ndarray, ...], omegas: np.ndarray | float) -> np.ndarray:
    """The two-layer half trace ``p cos((a - b) w) + q cos((a + b) w)`` in
    its cosine form, from the ``(p, q, a - b, a + b)`` of
    :func:`phonogap.crystal._bilayer_coefficients`, broadcast over
    coefficients and frequencies."""
    p, q, diff, tot = coeffs
    return p * np.cos(diff * omegas) + q * np.cos(tot * omegas)


def bisect_bilayer_gaps(points: np.ndarray, pol: Polarization | str) -> tuple[np.ndarray, np.ndarray]:
    """First-gap ``(start, end)`` arrays of two-layer rows by bisection.

    Halves both Bragg brackets of every row together until no bracket
    shrinks any more (adjacent doubles, about 58 halvings), and returns
    each bracket's midpoint; NaN where ``ht(pi/tau) + 1`` is not below
    ``-_GAP_GUARD``.  Slow but simple, it shares only the coefficients
    with :func:`phonogap.crystal.bilayer_first_gaps`: it makes the gap
    decision and reads its signs from :func:`cosine_half_trace`, so it
    cross-checks the solver's half-angle kernel against the cosine form.
    """
    coeffs = _bilayer_coefficients(points, Polarization(pol))
    bragg = np.pi / coeffs[3]
    has_gap = cosine_half_trace(coeffs, bragg) + 1.0 < -_GAP_GUARD
    # row 0 brackets the start, row 1 the end; ht + 1 > 0 at `outer` and
    # < 0 at `inner` (the Bragg frequency)
    outer = np.stack([np.zeros_like(bragg), 2.0 * bragg])
    inner = np.stack([bragg, bragg])
    for _ in range(200):
        mid = 0.5 * (outer + inner)
        if not ((mid != outer) & (mid != inner)).any():
            break
        positive = cosine_half_trace(coeffs, mid) + 1.0 > 0.0
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


def mixed_blocks(model: ModelFunction, samples: SampleSet) -> tuple[np.ndarray, list[np.ndarray]]:
    """``f(A)`` and the mixed blocks, one model call per matrix: the block
    of each dimension ``i`` and then of each pair ``i < j``, taking those
    columns from the original matrix ``A`` and the rest from the
    complementary one."""
    n = samples.n_dims
    frozen_sets = [[i] for i in range(n)] + [list(p) for p in itertools.combinations(range(n), 2)]
    blocks = []
    for frozen in frozen_sets:
        matrix = samples.complementary.copy()
        matrix[:, frozen] = samples.original[:, frozen]
        blocks.append(model.fn(matrix))
    return model.fn(samples.original), blocks


def _indices_from_closed(n: int, closed: list[float]) -> tuple[np.ndarray, np.ndarray]:
    first = np.array(closed[:n])
    second = np.zeros((n, n))
    for k, (i, j) in enumerate(itertools.combinations(range(n), 2)):
        second[i, j] = closed[n + k] - first[i] - first[j]
    return first, second


def classic_sobol_indices(model: ModelFunction, samples: SampleSet) -> tuple[np.ndarray, np.ndarray]:
    """First- and second-order indices by the paper's classic estimator:
    ``D_u^c = mean(y y_u) - f0^2`` over ``D = mean(y^2) - f0^2`` for the
    closed index of each block, ``S_ij = S_ij^c - S_i - S_j``."""
    y, blocks = mixed_blocks(model, samples)
    f0 = np.mean(y)
    d_total = np.mean(y * y) - f0 * f0
    return _indices_from_closed(
        samples.n_dims, [(np.mean(y * b) - f0 * f0) / d_total for b in blocks]
    )


def janon_sobol_indices(model: ModelFunction, samples: SampleSet) -> tuple[np.ndarray, np.ndarray]:
    """First- and second-order indices by Janon's symmetric estimator, one
    block at a time, every mean an exactly rounded ``math.fsum``:
    ``S_u^c = (mean(y y_u) - m^2) / (mean((y^2 + y_u^2)/2) - m^2)`` with
    ``m = mean((y + y_u)/2)``, and ``S_ij = S_ij^c - S_i - S_j``."""
    y, blocks = mixed_blocks(model, samples)

    def mean(values: np.ndarray) -> float:
        return math.fsum(values.tolist()) / len(values)

    closed = []
    for b in blocks:
        m = mean((y + b) / 2.0)
        closed.append((mean(y * b) - m * m) / (mean((y * y + b * b) / 2.0) - m * m))
    return _indices_from_closed(samples.n_dims, closed)


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
