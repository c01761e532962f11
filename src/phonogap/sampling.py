"""Seeded Latin Hypercube sampling and design-space mapping.

Sample matrices live on the unit hypercube.  A :class:`ParameterSpace`
maps unit coordinates onto physical coordinates, either affinely or
log10-uniformly per dimension (decade-spanning ratios are sampled
uniformly in their exponent).
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

#: RNG behind every sample draw.  PCG64 streams are split off one
#: SeedSequence, so a single 64-bit seed reproduces the whole experiment.
GENERATOR_NAME = "pcg64"

#: Upper bound on Poisson's ratio, of the canonical space and of every
#: layer.  Beyond it the first Lame parameter blows up towards the
#: incompressible limit.
NU_CAP = 0.463

_SCALES = ("linear", "log10")


@dataclass(frozen=True)
class ParameterDef:
    """One design-space dimension: bounds plus a linear or log10 scale."""

    name: str
    lower: float
    upper: float
    scale: str = "linear"

    def __post_init__(self) -> None:
        if self.scale not in _SCALES:
            raise ValueError(f"unknown scale {self.scale!r}, expected one of {_SCALES}")
        if not (math.isfinite(self.lower) and math.isfinite(self.upper)):
            raise ValueError(f"{self.name}: bounds must be finite")
        if not self.lower < self.upper:
            raise ValueError(f"{self.name}: lower bound must be < upper bound")
        if self.scale == "log10" and self.lower <= 0:
            raise ValueError(f"{self.name}: log10 scale requires a positive lower bound")


@dataclass(frozen=True)
class ParameterSpace:
    """Ordered collection of parameter definitions."""

    dims: tuple[ParameterDef, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "dims", tuple(self.dims))
        if not self.dims:
            raise ValueError("a ParameterSpace needs at least one dimension")

    @property
    def n_dims(self) -> int:
        return len(self.dims)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(d.name for d in self.dims)

    def to_json(self) -> str:
        payload = {
            "dims": [
                {"name": d.name, "lower": d.lower, "upper": d.upper, "scale": d.scale}
                for d in self.dims
            ]
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "ParameterSpace":
        payload = json.loads(text)
        dims = tuple(
            ParameterDef(
                name=str(d["name"]),
                lower=float(d["lower"]),
                upper=float(d["upper"]),
                scale=str(d.get("scale", "linear")),
            )
            for d in payload["dims"]
        )
        return cls(dims)


def canonical_space() -> ParameterSpace:
    """Five-parameter design space of a two-layer unit cell.

    Moduli, density and thickness ratios are log10-uniform; the two
    Poisson's ratios are linear, capped at :data:`NU_CAP` to keep the
    first Lame parameter finite with margin.
    """
    return ParameterSpace(
        (
            ParameterDef("E2/E1", 10.0, 10000.0, "log10"),
            ParameterDef("rho2/rho1", 1.0, 1000.0, "log10"),
            ParameterDef("h2/h1", 0.11, 9.0, "log10"),
            ParameterDef("nu1", 0.0, NU_CAP, "linear"),
            ParameterDef("nu2", 0.0, NU_CAP, "linear"),
        )
    )


@dataclass(frozen=True)
class SampleSet:
    """Paired Latin Hypercube matrices on the unit hypercube.

    ``original`` and ``complementary`` are independent draws from two
    sub-streams of the same seed; the freeze-and-resample variance
    estimators in :mod:`phonogap.sobol` consume them as a pair.
    """

    original: np.ndarray
    complementary: np.ndarray
    seed: int

    def __post_init__(self) -> None:
        for label in ("original", "complementary"):
            m = np.asarray(getattr(self, label), dtype=float)
            if m.ndim != 2:
                raise ValueError(f"{label} matrix must be 2-D")
            if m.min() < 0.0 or m.max() > 1.0:
                raise ValueError(f"{label} matrix has entries outside [0, 1]")
            m = m.copy()
            m.flags.writeable = False
            object.__setattr__(self, label, m)
        if self.original.shape != self.complementary.shape:
            raise ValueError("original and complementary matrices must share a shape")

    @property
    def n_samples(self) -> int:
        return self.original.shape[0]

    @property
    def n_dims(self) -> int:
        return self.original.shape[1]


def _lhs_matrix(n_dims: int, n_samples: int, rng: np.random.Generator) -> np.ndarray:
    """One Latin Hypercube draw: a random permutation of strata per
    dimension, with uniform jitter inside each stratum."""
    out = np.empty((n_samples, n_dims))
    for d in range(n_dims):
        strata = rng.permutation(n_samples)
        jitter = rng.random(n_samples)
        out[:, d] = (strata + jitter) / n_samples
    return out


def lhs_sample(n_dims: int, n_samples: int, seed: int) -> SampleSet:
    """Draw the paired (original, complementary) Latin Hypercube sample.

    Deterministic given ``(n_dims, n_samples, seed)``: the two matrices
    come from the first two children of ``SeedSequence(seed)``.
    """
    if n_dims < 1:
        raise ValueError("n_dims must be at least 1")
    if n_samples < 2:
        raise ValueError("n_samples must be at least 2")
    child_a, child_b = np.random.SeedSequence(seed).spawn(2)
    original = _lhs_matrix(n_dims, n_samples, np.random.default_rng(child_a))
    complementary = _lhs_matrix(n_dims, n_samples, np.random.default_rng(child_b))
    return SampleSet(original=original, complementary=complementary, seed=int(seed))


def map_to_space(u: np.ndarray, space: ParameterSpace) -> np.ndarray:
    """Map unit-hypercube coordinates onto the physical space.

    Accepts a single point ``(n_dims,)`` or a matrix ``(m, n_dims)``.
    Linear dimensions map affinely; log10 dimensions map uniformly in
    the exponent.
    """
    u = np.asarray(u, dtype=float)
    squeeze = u.ndim == 1
    pts = np.atleast_2d(u)
    if pts.shape[1] != space.n_dims:
        raise ValueError(f"expected {space.n_dims} coordinates, got {pts.shape[1]}")
    if pts.min() < 0.0 or pts.max() > 1.0:
        raise ValueError("unit-hypercube coordinates must lie in [0, 1]")
    out = np.empty_like(pts)  # keeps a column-major input's layout: contiguous column writes
    for d, dim in enumerate(space.dims):
        if dim.scale == "linear":
            out[:, d] = dim.lower + pts[:, d] * (dim.upper - dim.lower)
        else:
            lg_lo = np.log10(dim.lower)
            lg_hi = np.log10(dim.upper)
            out[:, d] = 10.0 ** (lg_lo + pts[:, d] * (lg_hi - lg_lo))
    return out[0] if squeeze else out
