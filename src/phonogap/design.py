"""Reduced-order design equations for the first band gap.

Each of the four objectives (start/width of the first gap, S/P wave)
has a closed-form surrogate: a constant plus a short sum of fitted
one- and two-variable terms in transformed coordinates (log10 of the
three property ratios, raw nu1).  The coefficient tables ship as a
versioned JSON data file next to this module so the transcription is
reviewable; the tables evaluate in cycles and are scaled by 2*pi to the
radial omega_hat convention used by the solver (both the log base and
the scale are recorded in the data file).

The quality metric is the scaled L2 error: mean squared surrogate error
normalized by the total variance of the exact response, so the constant
mean surrogate scores one and a perfect surrogate scores zero.
"""
from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from typing import Sequence

import numpy as np

from .crystal import ObjectiveKind
from .sampling import SampleSet, canonical_space, map_to_space
from .sobol import ModelFunction, _evaluate

__all__ = [
    "KINDS",
    "FittedTerm",
    "DesignEquation",
    "TruncationCurve",
    "ExtrapolationWarning",
    "load_design_equations",
    "design_model",
    "scaled_l2_error",
    "truncation_curve",
    "fit_polynomial_surrogate",
]

KINDS = tuple(kind.value for kind in ObjectiveKind)

_COEFF_FILE = "design_coefficients.json"


class ExtrapolationWarning(UserWarning):
    """Design-equation input outside the fitted parameter box."""


def _poly(exponents: np.ndarray, coefficients: np.ndarray, cols: list[np.ndarray]) -> np.ndarray:
    acc = np.zeros_like(cols[0])
    for exps, c in zip(exponents, coefficients):
        term = np.full_like(cols[0], c)
        for col, e in zip(cols, exps):
            if e:
                term = term * col**int(e)
        acc = acc + term
    return acc


@dataclass(frozen=True)
class FittedTerm:
    """One fitted component of a design equation.

    ``form`` is ``polynomial`` (monomial sum), ``rational`` (ratio of two
    monomial sums) or ``exp_sum`` (sum of a*exp(b*x) pieces, single
    input only).  Inputs name transformed coordinates.
    """

    name: str
    inputs: tuple[str, ...]
    form: str
    payload: dict

    def evaluate(self, coords: dict[str, np.ndarray]) -> np.ndarray:
        cols = [np.asarray(coords[k], dtype=float) for k in self.inputs]
        if self.form == "polynomial":
            return _poly(self.payload["exponents"], self.payload["coefficients"], cols)
        if self.form == "rational":
            num = _poly(
                self.payload["numerator"]["exponents"],
                self.payload["numerator"]["coefficients"],
                cols,
            )
            return num / self.denominator_on(coords)
        if self.form == "exp_sum":
            (x,) = cols
            acc = np.zeros_like(x)
            for a, b in self.payload["terms"]:
                acc = acc + a * np.exp(b * x)
            return acc
        raise ValueError(f"unknown term form {self.form!r}")

    def denominator_on(self, coords: dict[str, np.ndarray]) -> np.ndarray | None:
        """Denominator values of a rational term, which :meth:`evaluate`
        divides by and a pole scan can check; None for other forms."""
        if self.form != "rational":
            return None
        cols = [np.asarray(coords[k], dtype=float) for k in self.inputs]
        return _poly(
            self.payload["denominator"]["exponents"],
            self.payload["denominator"]["coefficients"],
            cols,
        )


@dataclass(frozen=True)
class DesignEquation:
    """Constant plus ordered fitted terms for one objective."""

    kind: str
    f0: float
    terms: tuple[FittedTerm, ...]
    log_base: float
    omega_scale: float

    def transform(self, params: np.ndarray) -> dict[str, np.ndarray]:
        """Physical five-vectors -> transformed coordinate columns."""
        pts = np.atleast_2d(np.asarray(params, dtype=float))
        if pts.shape[1] != 5:
            raise ValueError("expected five parameters (E2/E1, rho2/rho1, h2/h1, nu1, nu2)")
        scale = math.log(self.log_base)
        return {
            "log_e": np.log(pts[:, 0]) / scale,
            "log_rho": np.log(pts[:, 1]) / scale,
            "log_h": np.log(pts[:, 2]) / scale,
            "nu1": pts[:, 3],
        }

    def partial_sums(self, params: np.ndarray) -> np.ndarray:
        """Prediction after every truncation level, in radial omega_hat units.

        Row ``k`` of the ``(len(terms) + 1, m)`` result is the constant plus
        the first ``k`` terms, added in term order.  Each term is evaluated
        once; no range check.
        """
        pts = np.atleast_2d(np.asarray(params, dtype=float))
        coords = self.transform(pts)
        parts = [np.full(pts.shape[0], self.f0)] + [term.evaluate(coords) for term in self.terms]
        return np.cumsum(parts, axis=0) * self.omega_scale

    def evaluate(self, params: np.ndarray) -> np.ndarray | float:
        """The last row of :meth:`partial_sums`, after a range check:
        out-of-box inputs warn but still evaluate."""
        pts = np.atleast_2d(np.asarray(params, dtype=float))
        _warn_if_outside(pts)
        total = self.partial_sums(pts)[-1]
        return float(total[0]) if np.asarray(params).ndim == 1 else total


def _warn_if_outside(pts: np.ndarray) -> None:
    space = canonical_space()
    for d, dim in enumerate(space.dims):
        col = pts[:, d]
        if (col < dim.lower).any() or (col > dim.upper).any():
            warnings.warn(
                f"{dim.name} outside the fitted range [{dim.lower}, {dim.upper}]; "
                "extrapolating the design equation",
                ExtrapolationWarning,
                stacklevel=3,
            )


@lru_cache(maxsize=1)
def load_design_equations() -> dict[str, DesignEquation]:
    """Parse the bundled coefficient tables (cached)."""
    text = resources.files(__package__).joinpath(_COEFF_FILE).read_text()
    payload = json.loads(text)
    log_base = float(payload["log_base"])
    omega_scale = float(payload["omega_scale"])
    out: dict[str, DesignEquation] = {}
    for kind in KINDS:
        eq = payload["equations"][kind]
        terms = tuple(
            FittedTerm(
                name=str(t["name"]),
                inputs=tuple(t["inputs"]),
                form=str(t["form"]),
                payload={k: v for k, v in t.items() if k not in ("name", "inputs", "form")},
            )
            for t in eq["terms"]
        )
        out[kind] = DesignEquation(
            kind=kind,
            f0=float(eq["f0"]),
            terms=terms,
            log_base=log_base,
            omega_scale=omega_scale,
        )
    return out


def design_model(kind: str) -> ModelFunction:
    """Design equation wrapped as a unit-hypercube model (for error studies).

    Its samples map into the fitted box, so it skips the range check.
    """
    eq = load_design_equations()[str(kind)]
    space = canonical_space()
    return ModelFunction(5, lambda u: eq.partial_sums(map_to_space(u, space))[-1], name=f"design-{kind}")


def scaled_l2_error(
    exact: np.ndarray,
    surrogate: ModelFunction,
    samples: SampleSet,
) -> float:
    """Mean squared surrogate error over the original sample matrix,
    normalized by the variance of the exact values on the same rows.

    ``exact`` holds the exact model's value at each row of
    ``samples.original``: one column of an exact call that may solve
    several objectives of one polarization at once.
    """
    if surrogate.n_dims != samples.n_dims:
        raise ValueError("surrogate and samples must share dimensionality")
    return _scaled_error(exact, _evaluate(surrogate, samples.original))


def _scaled_error(y: np.ndarray, y_hat: np.ndarray) -> float:
    """Mean squared error of ``y_hat`` over the variance of ``y`` (both
    moments taken over the same rows)."""
    if np.shape(y) != np.shape(y_hat):
        raise ValueError(f"exact values of shape {np.shape(y)} do not match {np.shape(y_hat)} rows")
    mean = float(np.mean(y))
    variance = float(np.mean(y * y) - mean * mean)
    if variance <= 0.0:
        raise ValueError("exact model has zero variance on this sample set")
    return float(np.mean((y - y_hat) ** 2) / variance)


@dataclass(frozen=True)
class TruncationCurve:
    """Scaled L2 error after cumulatively including the fitted terms.

    ``deltas[k]`` uses the constant plus the first ``k`` terms, so
    ``deltas[0]`` measures the constant-only surrogate (about one).
    Since the conditional mean is the best function of given inputs,
    ``deltas[k]`` cannot fall below one minus the closed Sobol' index of
    the inputs of the first ``k`` terms.
    """

    kind: str
    deltas: tuple[float, ...]
    n_samples: int
    seed: int

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "n_samples": self.n_samples,
            "seed": self.seed,
            "delta_by_k": list(self.deltas),
        }


def truncation_curve(exact: np.ndarray, kind: str, samples: SampleSet) -> TruncationCurve:
    """Error-vs-terms curve for one design equation against ``exact``, the
    exact values on ``samples.original`` (as for :func:`scaled_l2_error`).

    One :meth:`DesignEquation.partial_sums` pass gives every truncation
    level, so the last entry is the :func:`scaled_l2_error` of
    :func:`design_model` on the same samples.
    """
    pts = map_to_space(samples.original, canonical_space())
    deltas = tuple(_scaled_error(exact, row) for row in load_design_equations()[str(kind)].partial_sums(pts))
    return TruncationCurve(kind=str(kind), deltas=deltas, n_samples=samples.n_samples, seed=samples.seed)


def fit_polynomial_surrogate(
    inputs: np.ndarray,
    responses: np.ndarray,
    exponents: Sequence[Sequence[int]],
) -> tuple[np.ndarray, float]:
    """Least-squares monomial fit.

    ``exponents`` lists one multi-index per term (matching the input
    column count).  Returns the coefficient vector and the residual
    norm; raises on underdetermined or rank-deficient design matrices.
    """
    x = np.asarray(inputs, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    y = np.asarray(responses, dtype=float).reshape(-1)
    if x.shape[0] != len(y):
        raise ValueError("inputs and responses disagree on the sample count")
    cols = [x[:, k] for k in range(x.shape[1])]
    design = np.column_stack(
        [_poly(np.array([e]), np.array([1.0]), cols) for e in exponents]
    )
    if design.shape[0] <= design.shape[1]:
        raise ValueError("need more samples than coefficients")
    coeffs, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
    if rank < design.shape[1]:
        raise ValueError("rank-deficient design matrix")
    residual = float(np.linalg.norm(y - design @ coeffs))
    return coeffs, residual

