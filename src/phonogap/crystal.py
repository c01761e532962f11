"""Dimensionless transfer-matrix solver for 1D layered elastic crystals.

Everything is nondimensional: lengths by the unit-cell height, densities
and moduli by the first layer's density and Young's modulus, so the
dimensionless radial frequency is ``omega_hat = omega * h * sqrt(rho1/E1)``.

For a single layer with transit phase ``phi = omega_hat * h_hat / c_hat``
and acoustic impedance ``z = rho_hat * c_hat`` the (displacement, stress)
state vector propagates bottom-to-top through the real 2x2 matrix::

    T = [[ cos(phi),            sin(phi) / (omega_hat z) ],
         [ -omega_hat z sin(phi),          cos(phi)      ]]

which is the closed form of H(h) H(0)^{-1} for the sinusoidal steady
state, and is exactly unimodular.  The unit-cell matrix is the ordered
product over layers (first layer rightmost).  With the Bloch condition
across one cell, Cayley-Hamilton reduces the eigenproblem of the
unimodular cell matrix to ``cos(k_hat * h_hat) = trace(T)/2``: real wave
numbers exist only where ``|trace/2| <= 1``, and ``|trace/2| > 1`` marks
a band gap.  S-waves use the shear modulus, P-waves the longitudinal
modulus ``lambda + 2 mu``, in both the speed and the stress row.

First band gap.  For two layers with transit times ``a`` and ``b`` the
half trace collapses to ``ht(w) = p cos((a-b) w) + q cos((a+b) w)`` with
``p = (1 - zbar)/2``, ``q = (1 + zbar)/2`` and ``zbar >= 1`` the mean of
the impedance ratio and its inverse.  This is the discriminant of a
periodic Sturm-Liouville (Hill) problem: it is monotone inside every band
and has a single extremum inside every gap (Magnus & Winkler, *Hill's
Equation*, 1966; Eastham, *The Spectral Theory of Periodic Differential
Equations*, 1973).  At the first Bragg frequency ``pi/tau``
(``tau = a + b``) it is ``p cos((a-b) pi/tau) - q``, below -1 for any
contrast, and at twice that frequency it is at least 1.  So the first gap
starts at the only root of ``ht + 1`` in ``(0, pi/tau)`` and ends at the
only root in ``(pi/tau, 2 pi/tau)``; :func:`bilayer_first_gaps` solves
both brackets for many cells at once by Newton steps kept inside them,
down to a rounding-level residual.  Each edge depends on its own bracket
alone, so the start objectives solve only the start brackets and get the
same bits, and the solver takes the brackets in blocks of 8192 and sets
finished edges aside by index once a step finishes any.  The solver
evaluates ``ht + 1`` in half-angle form, from one ``tan`` per phase
(:func:`_bilayer_ht_slope`), so two ``tan`` calls replace two ``cos``
and two ``sin``.  On numpy's AVX-512 dispatch float64 ``tan`` is SIMD
code at about a fifth of the cost of a ``cos``; on AVX2 it costs about
one ``cos``, and the two ``sin`` calls are still saved.  The same
kernel makes the gap decision and serves :func:`two_layer_half_trace`
and the dispersion grid.  Stacks of three or more layers have no such
bracket, but the same oscillation theorem holds for any stack of layers
with piecewise-constant properties: inside a gap the half trace keeps
one sign, and across each band it runs monotonically from one sign to
the other.  A grid scan takes the sign at its first gap
sample and ends the gap at the first later sample that is not beyond one
with that sign, so a passband narrower than the scan step still closes
it; both edges the scan brackets are then refined together by k-section
to adjacent doubles.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .sampling import NU_CAP, ParameterSpace, canonical_space, map_to_space
from .sobol import ModelEvaluationError, ModelFunction

__all__ = [
    "NU_CAP",
    "Polarization",
    "ObjectiveKind",
    "Layer",
    "UnitCell",
    "BandGap",
    "DispersionCurve",
    "GapNotClosedError",
    "wave_speed",
    "layer_transfer_matrix",
    "cell_transfer_matrix",
    "half_trace",
    "two_layer_half_trace",
    "dispersion_curve",
    "bilayer_first_gaps",
    "first_band_gap",
    "transit_time",
    "two_layer_cell",
    "objective",
    "objective_model",
]

#: Excursions of |half_trace| above one smaller than this are treated as
#: rounding noise by the gap solvers, not as band gaps.  Physical gaps
#: overshoot by orders of magnitude more; homogeneous stacks only by a
#: few ulps.
_GAP_GUARD = 1e-12

#: General scan: grid steps per dispersion branch (the step is
#: ``pi / (_SCAN_STEPS_PER_BRANCH * tau)``), the search cap for the gap
#: start, in Bragg frequencies ``pi / tau``, and the interior points per
#: k-section step of the edge refinement.
_SCAN_STEPS_PER_BRANCH = 200
_SCAN_CAP_BRAGG = 8.0
_KSECTION_POINTS = 64

#: Safety cap on the steps of the bilayer Newton solve and of the scan's
#: k-section edge refinement; both stop well before it.
_SOLVER_STEPS_MAX = 200

#: Brackets per block of the bilayer Newton solve: each of its float64
#: temporaries is then 64 KB, so a step's working set stays in L2.
_NEWTON_BLOCK = 8192


class Polarization(str, Enum):
    S = "S"
    P = "P"


class ObjectiveKind(str, Enum):
    """First-gap objectives: start (S*) or width (W*) per polarization."""

    SS = "SS"  # start, S-wave
    WS = "WS"  # width, S-wave
    SP = "SP"  # start, P-wave
    WP = "WP"  # width, P-wave

    @property
    def polarization(self) -> Polarization:
        return Polarization.S if self.value.endswith("S") else Polarization.P

    @property
    def is_width(self) -> bool:
        return self.value.startswith("W")


class GapNotClosedError(RuntimeError):
    """The general scan found a gap start but no end below its search limit."""


def _modulus(e_hat, nu, pol: Polarization):
    """Shear (S) or longitudinal (P) modulus ``lambda + 2 mu`` from Young's
    modulus and nu, with the isotropic Lame parameters
    ``mu = E / (2 (1 + nu))`` and ``lambda = E nu / ((1 + nu)(1 - 2 nu))``;
    elementwise on arrays."""
    mu = e_hat / (2.0 * (1.0 + nu))
    if pol is Polarization.S:
        return mu
    return e_hat * nu / ((1.0 + nu) * (1.0 - 2.0 * nu)) + 2.0 * mu


@dataclass(frozen=True)
class Layer:
    """One layer: thickness, density and Young's modulus relative to the
    reference layer, plus its own Poisson's ratio."""

    h_hat: float
    rho_hat: float
    e_hat: float
    nu: float

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (self.h_hat, self.rho_hat, self.e_hat, self.nu))):
            raise ValueError("layer thickness, density, modulus and Poisson's ratio must be finite")
        if self.h_hat <= 0 or self.rho_hat <= 0 or self.e_hat <= 0:
            raise ValueError("layer thickness, density and modulus must be positive")
        if self.nu >= 0.5:
            raise ValueError(f"Poisson's ratio {self.nu} >= 0.5: material is singular")
        if not 0.0 <= self.nu <= NU_CAP:
            raise ValueError(f"Poisson's ratio {self.nu} outside the supported [0, {NU_CAP}]")
        for pol in Polarization:
            c = wave_speed(self, pol)
            if not (0.0 < c < math.inf and 0.0 < self.rho_hat * c < math.inf):
                raise ValueError(
                    f"layer {pol.value}-wave speed {c:g} or impedance {self.rho_hat * c:g} "
                    "is zero or beyond the float range"
                )

    def modulus(self, pol: Polarization | str) -> float:
        """Shear modulus for S-waves, longitudinal modulus for P-waves."""
        return _modulus(self.e_hat, self.nu, Polarization(pol))


def wave_speed(layer: Layer, pol: Polarization | str) -> float:
    """Dimensionless wave speed sqrt(modulus / density)."""
    return math.sqrt(layer.modulus(pol) / layer.rho_hat)


@dataclass(frozen=True)
class UnitCell:
    """Ordered stack of layers; thicknesses are normalized to sum to one
    on construction so callers may pass raw thickness ratios."""

    layers: tuple[Layer, ...]

    def __post_init__(self) -> None:
        layers = tuple(self.layers)
        if not layers:
            raise ValueError("a unit cell needs at least one layer")
        try:
            total = math.fsum(l.h_hat for l in layers)
        except OverflowError as err:
            raise ValueError("the layer thicknesses sum beyond the float range") from err
        if total != 1.0:
            hs = [l.h_hat / total for l in layers]
            # pin the thickest layer so the exact sum is one
            k = max(range(len(hs)), key=hs.__getitem__)
            hs[k] = 1.0 - math.fsum(h for i, h in enumerate(hs) if i != k)
            layers = tuple(
                Layer(h, l.rho_hat, l.e_hat, l.nu) for h, l in zip(hs, layers)
            )
        first = layers[0]
        if first.rho_hat != 1.0 or first.e_hat != 1.0:
            raise ValueError(
                "layer 1 is the reference: its density and modulus ratios must be 1"
            )
        object.__setattr__(self, "layers", layers)

    @property
    def n_layers(self) -> int:
        return len(self.layers)

    def to_json(self) -> str:
        payload = {
            "layers": [
                {"h": l.h_hat, "rho": l.rho_hat, "e": l.e_hat, "nu": l.nu}
                for l in self.layers
            ]
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "UnitCell":
        payload = json.loads(text)
        return cls(
            tuple(
                Layer(float(l["h"]), float(l["rho"]), float(l["e"]), float(l["nu"]))
                for l in payload["layers"]
            )
        )


def two_layer_cell(
    e2_e1: float, rho2_rho1: float, h2_h1: float, nu1: float, nu2: float
) -> UnitCell:
    """Two-layer cell from the five canonical ratios (layer 1 is the reference)."""
    if min(e2_e1, rho2_rho1, h2_h1) <= 0:
        raise ValueError("all ratios must be positive")
    return UnitCell(
        (
            Layer(1.0 / (1.0 + h2_h1), 1.0, 1.0, nu1),
            Layer(h2_h1 / (1.0 + h2_h1), rho2_rho1, e2_e1, nu2),
        )
    )


def layer_transfer_matrix(layer: Layer, omega_hat: float, pol: Polarization) -> np.ndarray:
    """2x2 state-vector propagator across one layer (exactly unimodular)."""
    if omega_hat <= 0:
        raise ValueError("omega_hat must be positive")
    c = wave_speed(layer, pol)
    z = layer.rho_hat * c
    phi = omega_hat * layer.h_hat / c
    cp, sp = math.cos(phi), math.sin(phi)
    return np.array([[cp, sp / (omega_hat * z)], [-omega_hat * z * sp, cp]])


def cell_transfer_matrix(cell: UnitCell, omega_hat: float, pol: Polarization) -> np.ndarray:
    """Ordered product over the stack, first layer rightmost."""
    t = layer_transfer_matrix(cell.layers[0], omega_hat, pol)
    for layer in cell.layers[1:]:
        t = layer_transfer_matrix(layer, omega_hat, pol) @ t
    return t


def half_trace(cell: UnitCell, omega_hat: float, pol: Polarization) -> float:
    """Half the trace of the unit-cell matrix: cos(k_hat h_hat) in passbands."""
    t = cell_transfer_matrix(cell, omega_hat, pol)
    return 0.5 * (t[0, 0] + t[1, 1])


def _bilayer_coefficients(
    points: np.ndarray, pol: Polarization
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(p, q, a - b, a + b)`` for every row of an ``(m, 5)`` matrix of
    two-layer points (E2/E1, rho2/rho1, h2/h1, nu1, nu2).

    ``a`` and ``b`` are the layer transit times, so ``a + b`` is the cell
    transit time, and the half trace is
    ``p cos((a - b) w) + q cos((a + b) w)`` (:func:`_bilayer_ht_slope`).  A row
    whose layer-2 wave speed or impedance is zero or beyond the float
    range has no finite coefficients: the first such row raises
    :class:`ModelEvaluationError` with its index and point.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 5:
        raise ValueError(f"two-layer points form an (m, 5) matrix, got shape {pts.shape}")
    ratios, nus = pts[:, :3], pts[:, 3:]
    if not (np.all(ratios > 0.0) and np.all((nus >= 0.0) & (nus <= NU_CAP))):
        raise ValueError(
            f"two-layer points need positive ratios and Poisson's ratios in [0, {NU_CAP}]"
        )
    e2, rho2, h2_h1, nu1, nu2 = pts.T
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        c1 = np.sqrt(_modulus(1.0, nu1, pol))  # layer 1 is the reference: unit density
        c2 = np.sqrt(_modulus(e2, nu2, pol) / rho2)
        h1 = 1.0 / (1.0 + h2_h1)
        h2 = h2_h1 / (1.0 + h2_h1)
        a, b = h1 / c1, h2 / c2
        z2 = rho2 * c2  # z1 = c1
        zbar = 0.5 * (c1 / z2 + z2 / c1)
    # a zero or overflowed speed makes b or zbar infinite, an overflowed
    # impedance makes zbar infinite
    bad = ~(np.isfinite(zbar) & np.isfinite(b))
    if bad.any():
        r = int(np.argmax(bad))
        message = f"{pol.value}-wave speed or impedance of layer 2 is zero or beyond the float range"
        raise ModelEvaluationError(r, pts[r], message)
    return 0.5 * (1.0 - zbar), 0.5 * (1.0 + zbar), a - b, a + b


def _bilayer_ht_slope(
    coeffs: tuple[np.ndarray, ...], omegas: np.ndarray | float
) -> tuple[np.ndarray, np.ndarray]:
    """``f = ht + 1`` of two-layer cells and its derivative in ``omega``,
    in half-angle form: as ``p + q = 1``,
    ``f = 2 p cos^2((a - b) w/2) + 2 q cos^2((a + b) w/2)``.  With ``u``
    the tangent of a half phase, ``cos^2 = 1/(1 + u^2)`` and
    ``sin cos = u/(1 + u^2)``, at most 1/2, so one ``tan`` per phase
    replaces a ``cos`` and a ``sin`` (numpy's float64 ``tan`` is SIMD
    code on the AVX-512 dispatch, far cheaper than ``cos``; on AVX2 it
    costs about one ``cos``).  The slope term ``p (a - b)`` overflows
    once ``|p| (a - b)`` passes the float range, which finite layer-2
    ratios reach (E2/E1 = 1e-310), so every caller evaluates the kernel
    under ``np.errstate``: the gap decision and the half trace discard
    the slope, and the Newton solver's safeguard takes the bracket
    midpoint where its Newton point is not finite."""
    p, q, diff, tot = coeffs
    u, v = np.tan(0.5 * diff * omegas), np.tan(0.5 * tot * omegas)
    cu, cv = 1.0 / (1.0 + u * u), 1.0 / (1.0 + v * v)
    slope = -2.0 * (p * diff * (u * cu) + q * tot * (v * cv))
    return 2.0 * (p * cu + q * cv), slope


def _bilayer_point(cell: UnitCell) -> np.ndarray:
    """The ``(1, 5)`` point matrix of a two-layer cell."""
    l1, l2 = cell.layers
    return np.array([[l2.e_hat, l2.rho_hat, l2.h_hat / l1.h_hat, l1.nu, l2.nu]])


def two_layer_half_trace(
    e2_e1: float,
    rho2_rho1: float,
    h2_h1: float,
    nu1: float,
    nu2: float,
    omega_hat: float,
    pol: Polarization,
) -> float:
    """Closed-form half trace of a two-layer cell.

    ``cos(phi1) cos(phi2) - (z1/z2 + z2/z1)/2 * sin(phi1) sin(phi2)``
    with per-layer transit phases and impedances, as ``f - 1`` from
    :func:`_bilayer_ht_slope`; equal to the matrix product for any polarization.
    """
    point = np.array([[e2_e1, rho2_rho1, h2_h1, nu1, nu2]], dtype=float)
    coeffs = _bilayer_coefficients(point, Polarization(pol))
    with np.errstate(over="ignore", invalid="ignore"):  # the unused slope may overflow
        f = _bilayer_ht_slope(coeffs, omega_hat)[0][0]
    return float(f - 1.0)


def transit_time(cell: UnitCell, pol: Polarization) -> float:
    """Total transit time across the cell, sum of h_hat / c_hat."""
    return sum(l.h_hat / wave_speed(l, pol) for l in cell.layers)


def _ht_grid(cell: UnitCell, pol: Polarization) -> Callable[[np.ndarray], np.ndarray]:
    """Vectorized half-trace evaluator for repeated sweeps.

    Two-layer cells use the closed form; general stacks multiply the 2x2
    propagators.  Both agree with :func:`half_trace` to machine precision.
    A half trace beyond the float range raises :class:`ModelEvaluationError`
    at its first sample, with that sample's ``omega_hat``.
    """
    if cell.n_layers == 2:
        coeffs = _bilayer_coefficients(_bilayer_point(cell), Polarization(pol))

        def kernel(omegas: np.ndarray) -> np.ndarray:
            return _bilayer_ht_slope(coeffs, omegas)[0] - 1.0

    else:
        speeds = [wave_speed(l, pol) for l in cell.layers]
        phases = np.array([l.h_hat / c for l, c in zip(cell.layers, speeds)])
        imps = np.array([l.rho_hat * c for l, c in zip(cell.layers, speeds)])

        def kernel(omegas: np.ndarray) -> np.ndarray:
            phi = np.outer(omegas, phases)
            cp, sp = np.cos(phi), np.sin(phi)
            wz = np.outer(omegas, imps)
            m = np.empty(phi.shape + (2, 2))  # (samples, layers, 2, 2)
            m[..., 0, 0] = cp
            m[..., 1, 1] = cp
            m[..., 0, 1] = sp / wz
            m[..., 1, 0] = -wz * sp
            t = m[:, 0]
            for k in range(1, len(imps)):
                t = m[:, k] @ t
            return 0.5 * (t[:, 0, 0] + t[:, 1, 1])

    def grid(omegas: np.ndarray) -> np.ndarray:
        omegas = np.asarray(omegas, dtype=float)
        # the matrix product can overflow, and omega * z can round to zero
        # and be divided by
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            values = kernel(omegas)
        bad = ~np.isfinite(values)
        if bad.any():
            i = int(np.argmax(bad))
            raise ModelEvaluationError(i, [omegas[i]], "non-finite half trace")
        return values

    return grid


@dataclass(frozen=True)
class BandGap:
    """One forbidden band in dimensionless radial frequency."""

    start: float
    end: float

    def __post_init__(self) -> None:
        if not 0.0 < self.start < self.end:
            raise ValueError("a band gap needs 0 < start < end")

    @property
    def width(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {"start": self.start, "end": self.end, "width": self.width}


class DispersionCurve(NamedTuple):
    """Dispersion samples as columns; ``k_hat_h`` is NaN where ``in_gap``."""

    omega_hat: np.ndarray
    half_trace: np.ndarray
    k_hat_h: np.ndarray
    in_gap: np.ndarray

    def csv_text(self) -> str:
        """Header ``omega_hat,half_trace,k_hat_h,in_gap`` and one line per
        sample, gap samples with an empty ``k_hat_h``.  ``%.17g`` formats
        as ``format(x, ".17g")`` does, so every float round-trips.  One
        ``%`` operation formats the whole table: each row's template
        follows ``in_gap``, and gap rows contribute no ``k_hat_h`` value."""
        columns = np.column_stack((self.omega_hat, self.half_trace, self.k_hat_h))
        keep = np.ones(columns.shape, dtype=bool)
        keep[:, 2] = ~self.in_gap
        templates = np.where(self.in_gap, "%.17g,%.17g,,1\n", "%.17g,%.17g,%.17g,0\n")
        body = "".join(templates.tolist()) % tuple(columns[keep].tolist())
        return "omega_hat,half_trace,k_hat_h,in_gap\n" + body


def dispersion_curve(
    cell: UnitCell, omega_max: float, n_points: int, pol: Polarization
) -> DispersionCurve:
    """Dispersion samples on a uniform frequency grid up to ``omega_max``.

    Within passbands the wave number is folded into the first Brillouin
    zone, ``k_hat h_hat = arccos(half_trace) in [0, pi]``; in gaps it is
    NaN and the sample is flagged.  A half trace beyond the float range
    raises :class:`ModelEvaluationError` at its first sample (:func:`_ht_grid`).
    """
    if omega_max <= 0:
        raise ValueError("omega_max must be positive")
    if n_points < 2:
        raise ValueError("n_points must be at least 2")
    omegas = np.linspace(0.0, omega_max, n_points + 1)[1:]
    values = _ht_grid(cell, pol)(omegas)
    in_gap = np.abs(values) > 1.0
    k_hat_h = np.where(in_gap, np.nan, np.arccos(np.clip(values, -1.0, 1.0)))
    return DispersionCurve(omegas, values, k_hat_h, in_gap)


def _refine_edges(
    grid: Callable[[np.ndarray], np.ndarray],
    sign: float,
    brackets: Sequence[tuple[float, float, bool]],
) -> list[float]:
    """Edges of one gap, one per ``(lo, hi, entering)`` bracket, to the last bit.

    Inside the gap ``sign * half_trace > 1``.  ``lo`` lies outside the gap
    and ``hi`` inside when ``entering``, the other way round when not.
    Each k-section step evaluates ``_KSECTION_POINTS`` interior points of
    every open bracket in one ``grid`` call and keeps, per bracket, the
    sub-bracket of the first crossing.  The points are those of
    ``np.linspace(lo, hi, _KSECTION_POINTS + 2)[1:-1]``.  A bracket that
    holds adjacent doubles takes no further points: they would round to
    its ends, and the bracket could collapse onto one of them.  A
    non-finite half trace is reported by its index among the step's points
    and by the step.
    """
    lo, hi, entering = (np.array(column) for column in zip(*brackets))
    n = _KSECTION_POINTS
    k = np.arange(1, n + 1)
    for step in range(1, _SOLVER_STEPS_MAX + 1):
        live = np.flatnonzero(np.nextafter(lo, hi) != hi)
        if not live.size:
            break
        # row r holds lo, the n interior points and hi; with pts[r, j + 1]
        # the first crossed point (j = n if none is), the bracket becomes
        # (pts[r, j], pts[r, j + 1])
        pts = np.empty((live.size, n + 2))
        pts[:, 0], pts[:, -1] = lo[live], hi[live]
        pts[:, 1:-1] = pts[:, :1] + k * ((pts[:, -1:] - pts[:, :1]) / (n + 1))
        crossed = np.ones((live.size, n + 1), dtype=bool)
        try:
            values = grid(pts[:, 1:-1].ravel()).reshape(-1, n)
        except ModelEvaluationError as err:
            raise ModelEvaluationError(
                err.index, err.point, err.message, f" of k-section step {step}"
            ) from err
        crossed[:, :n] = (sign * values > 1.0) == entering[live, None]
        j = crossed.argmax(axis=1)
        rows = np.arange(live.size)
        lo[live], hi[live] = pts[rows, j], pts[rows, j + 1]
    return (0.5 * (lo + hi)).tolist()


def _newton_roots(
    coeffs: tuple[np.ndarray, ...], inner: np.ndarray, outer: np.ndarray
) -> np.ndarray:
    """The root of ``f = ht + 1`` between ``outer`` and ``inner`` for each
    bracket, by the safeguarded Newton iteration of
    :func:`bilayer_first_gaps`; ``coeffs`` hold one row per bracket, and
    ``f > 0`` at ``outer``, ``f < 0`` at ``inner``.  A step that finishes
    no edge keeps its arrays whole; one that finishes some writes those
    edges and keeps the rest by index.  A row still going after
    ``_SOLVER_STEPS_MAX`` steps gets its last evaluated point."""
    step = 0.5 * (outer + inner)
    tol = 4.0 * np.finfo(float).eps * (np.abs(coeffs[0]) + coeffs[1] + 1.0)
    todo = np.arange(step.size)
    found = np.empty(step.size)
    # a slope may overflow or be zero: the Newton point is then not
    # finite, and the safeguard takes the midpoint
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for steps_left in reversed(range(_SOLVER_STEPS_MAX)):
            w = step
            f, slope = _bilayer_ht_slope(coeffs, w)
            positive = f > 0.0
            outer = np.where(positive, w, outer)
            inner = np.where(positive, inner, w)
            newton = w - f / slope
            inside = (np.minimum(outer, inner) < newton) & (newton < np.maximum(outer, inner))
            step = np.where(inside, newton, 0.5 * (outer + inner))
            going = (np.abs(f) > tol) & (step != w)
            if not steps_left:
                break
            if not going.all():
                done = np.flatnonzero(~going)
                found[todo[done]] = w[done]
                if done.size == w.size:
                    return found
                keep = np.flatnonzero(going)
                todo, step, outer, inner, tol = (x[keep] for x in (todo, step, outer, inner, tol))
                coeffs = tuple(c[keep] for c in coeffs)
    found[todo] = w
    return found


def _bilayer_edges(points: np.ndarray, pol: Polarization, n_edges: int) -> np.ndarray:
    """The first ``n_edges`` edges of every row's first gap, the start and
    then the end, as an ``(n_edges, m)`` array with NaN for gap-free rows;
    only the brackets of those edges are solved, ``_NEWTON_BLOCK`` at a
    time."""
    coeffs = _bilayer_coefficients(points, pol)
    bragg = np.pi / coeffs[3]
    with np.errstate(over="ignore", invalid="ignore"):  # the unused slope may overflow
        has_gap = _bilayer_ht_slope(coeffs, bragg)[0] < -_GAP_GUARD
    # one bracket per edge of every gapped row, the starts before the ends;
    # ht + 1 > 0 at `outer` and < 0 at `inner` (the Bragg frequency)
    gapped = np.flatnonzero(has_gap)
    rows = np.tile(gapped, n_edges)
    outer = np.concatenate([np.zeros(gapped.size), 2.0 * bragg[gapped]][:n_edges])
    found = np.empty(rows.size)
    for s in range(0, rows.size, _NEWTON_BLOCK):
        block = slice(s, s + _NEWTON_BLOCK)
        r = rows[block]
        found[block] = _newton_roots(tuple(c[r] for c in coeffs), bragg[r], outer[block])
    edges = np.full((n_edges, len(bragg)), np.nan)
    edges[:, has_gap] = found.reshape(n_edges, -1)
    return edges


def bilayer_first_gaps(
    points: np.ndarray, pol: Polarization | str
) -> tuple[np.ndarray, np.ndarray]:
    """First band gap of many two-layer cells at once.

    ``points`` is an ``(m, 5)`` matrix of (E2/E1, rho2/rho1, h2/h1, nu1,
    nu2) rows.  Returns the ``(start, end)`` arrays of the first gap in
    dimensionless radial frequency.  A row whose ``ht(pi/tau) + 1`` is not
    below ``-_GAP_GUARD`` (a homogeneous or near-homogeneous cell) has no
    gap and holds NaN in both arrays.

    Each edge is the only root of ``f = ht + 1`` in its Bragg bracket
    (module docstring): ``(0, pi/tau)`` for the start, ``(pi/tau, 2 pi/tau)``
    for the end.  Both edges of all rows are solved together by a
    safeguarded Newton iteration (``rtsafe`` in *Numerical Recipes*), one
    vectorized evaluation of ``f`` and its slope per step.  Each evaluation
    moves one end of its bracket by the sign of ``f``; the next point is the
    Newton point where that lies strictly inside the bracket, else the
    bracket midpoint.  An edge is final once ``|f| <= 4 eps (|p| + q + 1)``,
    the rounding level of ``f``, or once its step no longer moves it.  A
    final edge is set aside, so an edge depends on its own bracket alone:
    any split of the rows into batches, or a solve of the start brackets
    alone (as the start objectives do), gives bit-identical edges.  The
    solver uses that: it takes the brackets in blocks of 8192, whose
    temporaries stay in L2, and sets finished edges aside by index only
    after a step that finishes any, so the early steps, which finish none,
    move no data.
    """
    start, end = _bilayer_edges(points, Polarization(pol), 2)
    return start, end


def _scan_first_gap(cell: UnitCell, pol: Polarization) -> BandGap | None:
    """Grid scan for stacks without a Bragg bracket; see :func:`first_band_gap`."""
    grid = _ht_grid(cell, pol)
    tau = transit_time(cell, pol)
    step = math.pi / (_SCAN_STEPS_PER_BRANCH * tau)
    n_max = int(math.floor(_SCAN_CAP_BRAGG * math.pi / tau / step))
    # One forward walk over the grid samples k..stop-1, 256 per call: up to
    # n_max for the first sample beyond one, whose sign the gap keeps, then
    # on to 4 n_max for the end.
    k, last, entry = 1, n_max, None
    while k <= last:
        stop = min(k + 256, last + 1)
        try:
            values = grid(step * np.arange(k, stop))
        except ModelEvaluationError as err:
            raise ModelEvaluationError(k + err.index, err.point, err.message) from err
        j = 0
        if entry is None and (beyond := np.abs(values) > 1.0 + _GAP_GUARD).any():
            # half_trace -> 1 as omega -> 0, so the sample before the first
            # gap sample (0 at worst) is outside the gap
            j = int(np.argmax(beyond))
            sign, last = math.copysign(1.0, values[j]), 4 * n_max
            entry = (step * (k + j - 1), step * (k + j), True)
        # A gap keeps its sign and each band is monotone (module docstring), so
        # the first sample not beyond one with that sign lies past the gap end,
        # even where the passband in between is narrower than the scan step.
        if entry is not None and (past := sign * values[j:] <= 1.0 + _GAP_GUARD).any():
            e = k + j + int(np.argmax(past))
            start, end = _refine_edges(grid, sign, [entry, (step * (e - 1), step * e, False)])
            return BandGap(start=start, end=end)
        k = stop
    if entry is None:
        return None
    (start,) = _refine_edges(grid, sign, [entry])
    layers = [(l.h_hat, l.rho_hat, l.e_hat, l.nu) for l in cell.layers]
    raise GapNotClosedError(
        f"{pol.value}-wave band gap starting at omega_hat={start:.17g} did not close "
        f"below four search caps (layers h, rho, E, nu: {layers})"
    )


def first_band_gap(cell: UnitCell, pol: Polarization | str) -> BandGap | None:
    """Locate the first band gap, or return None when there is none.

    Two-layer cells go to :func:`bilayer_first_gaps` as one row: both edges
    are solved inside their Bragg brackets to a rounding-level residual, and
    every gap is found however narrow, down to the rounding guard on
    ``ht(pi/tau) + 1``.

    Other stacks are scanned upward from zero in steps of
    ``pi / (200 tau)`` (``tau`` the cell transit time, so every dispersion
    branch gets about 200 samples) up to ``8 pi / tau``.  The first sample
    with ``|half_trace|`` above one starts the gap and fixes its sign.  The
    gap ends at the first later sample whose ``sign * half_trace`` is not
    above one: the half trace keeps its sign inside a gap and is monotone
    across each band (module docstring), so this also holds where the
    passband lies between two samples.  Both edges are refined together by
    k-section, 64 points per bracket and step, until each bracket holds
    adjacent doubles; gaps narrower than the scan step are treated as no
    gap.
    Raises :class:`GapNotClosedError` when the gap does not close within
    four times that cap.
    """
    pol = Polarization(pol)
    if cell.n_layers == 2:
        start, end = bilayer_first_gaps(_bilayer_point(cell), pol)
        return None if math.isnan(start[0]) else BandGap(float(start[0]), float(end[0]))
    return _scan_first_gap(cell, pol)


def _objective_values(points: np.ndarray, *kinds: ObjectiveKind) -> np.ndarray:
    """Objectives of every row from one solve, as a vector for one kind and
    an ``(m, k)`` matrix for ``k`` kinds of one polarization.  Start
    objectives alone solve only the start brackets.  The first row
    without a gap raises :class:`ModelEvaluationError` with its index and
    point."""
    edges = _bilayer_edges(points, kinds[0].polarization, 2 if any(k.is_width for k in kinds) else 1)
    # gap-free rows, and only they, hold NaN edges
    missing = np.isnan(edges[0])
    if missing.any():
        r = int(np.argmax(missing))
        raise ModelEvaluationError(r, points[r], "no first band gap")
    columns = [edges[1] - edges[0] if k.is_width else edges[0] for k in kinds]
    return columns[0] if len(columns) == 1 else np.column_stack(columns)


def objective(params: Sequence[float], kind: ObjectiveKind | str) -> float:
    """First-gap objective at one design point.

    ``params`` is the five-vector (E2/E1, rho2/rho1, h2/h1, nu1, nu2);
    ``kind`` selects start or width for either polarization.  Raises
    :class:`ModelEvaluationError` at sample 0, with the point, when the
    cell has no first gap (equal layers, for instance).
    """
    return float(_objective_values(np.array([params], dtype=float), ObjectiveKind(kind))[0])


def objective_model(*kinds: ObjectiveKind | str, space: ParameterSpace | None = None) -> ModelFunction:
    """Wrap objectives as a unit-hypercube model for the Sobol' engine.

    One kind gives a model with one output.  Several kinds of one
    polarization give one output column per kind, in the order given,
    from a single solve: ``objective_model("SS", "WS")`` returns an
    ``(m, 2)`` matrix whose columns are, bit for bit, the outputs of
    ``objective_model("SS")`` and ``objective_model("WS")``.  One call
    solves all rows at once, only their start brackets when every kind is
    a start objective; the first gap-free row raises
    :class:`ModelEvaluationError` with its index and physical point.
    The solver reads the columns by position, so ``space`` must name the
    five canonical dimensions in canonical order, with positive ratio
    bounds and Poisson's-ratio bounds in ``[0, NU_CAP]`` (``ValueError``
    naming the dimension if not).
    """
    kinds = tuple(ObjectiveKind(kind) for kind in kinds)
    if not kinds or len({kind.polarization for kind in kinds}) != 1:
        raise ValueError(f"expected objectives of one polarization, got {[k.value for k in kinds]}")
    canonical = canonical_space()
    space = canonical if space is None else space
    if space.names != canonical.names:
        raise ValueError(
            f"the objective needs the dimensions {list(canonical.names)} in this order, "
            f"got {list(space.names)}"
        )
    for dim in space.dims[:3]:
        if dim.lower <= 0.0:
            raise ValueError(f"{dim.name} bounds [{dim.lower}, {dim.upper}] must be positive")
    for dim in space.dims[3:]:
        if dim.lower < 0.0 or dim.upper > NU_CAP:
            raise ValueError(
                f"{dim.name} bounds [{dim.lower}, {dim.upper}] leave the supported [0, {NU_CAP}]"
            )

    def fn(u: np.ndarray) -> np.ndarray:
        return _objective_values(map_to_space(u, space), *kinds)

    name = "bandgap-" + ",".join(kind.value for kind in kinds)
    return ModelFunction(n_dims=space.n_dims, fn=fn, name=name)
