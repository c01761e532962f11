"""Monte Carlo variance decomposition (Sobol' sensitivity analysis).

The engine estimates the mean, total variance, first- and second-order
partial variances and indices of any pure model function on the unit
hypercube by freezing and resampling on a paired (original,
complementary) Latin Hypercube sample.  With ``y = F(x_m)`` and ``y_u``
the model on the rows that take the coordinates ``u`` from the original
matrix and every other coordinate from the complementary one::

    f0    = mean(y)
    D     = mean(y^2) - f0^2
    m_u   = mean((y + y_u)/2)
    S_u^c = (mean(y y_u) - m_u^2) / (mean((y^2 + y_u^2)/2) - m_u^2)
    S_i   = S_i^c,   S_ij = S_ij^c - S_i - S_j,   D_u = S_u D

The closed index ``S_u^c`` is the symmetric estimator of Janon, Klein,
Lagnoux, Nodet & Prieur (2014, *ESAIM: Probab. Stat.* 18, 342).  It
estimates the same indices as the paper's classic form
``D_i = mean(y y_i) - f0^2``, from the same model evaluations, but it
pools both matrices for its mean and variance, and its spread is far
smaller for dominant indices.  Small negative estimates are Monte Carlo
noise and are reported raw.

All ``1 + d + d(d-1)/2`` matrices of a study are stacked and evaluated
in one model call.  Every point block handed to a model is stored column
by column, so both its fill and the model's reads of one input are
contiguous.

Pointwise Sobol' functions (the conditional-mean components of the
ANOVA decomposition) of one or two frozen axes come from one estimator
on a regular grid.  Every node averages the model over the same inner
Latin Hypercube sample of the remaining dimensions, drawn once per
function: with these common random numbers the inner-sample error is
mostly a shift shared by all nodes, which centering removes.  One model
call evaluates as many whole grid lines as fit in 8192 rows, and at
least one line.

Everything here is deterministic given (model, seed, N).
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .sampling import GENERATOR_NAME, SampleSet, _lhs_matrix

__all__ = [
    "ModelFunction",
    "ModelEvaluationError",
    "SobolResult",
    "SobolFunctionEstimate",
    "sobol_indices",
    "estimate_sobol_function_1d",
    "estimate_sobol_function_2d",
    "analytic_poly_model",
    "analytic_poly_reference",
    "PolyReference",
]


class ModelEvaluationError(RuntimeError):
    """A model failed (or returned a non-finite value) at one sample.

    Carries the row index within the evaluated matrix, the offending
    point (so callers can surface the physical parameters) and the
    message that precedes them.  ``scope``, when given, follows the index
    and names what it counts in (`` of k-section step 3``).
    """

    def __init__(
        self, index: int, point: np.ndarray, message: str = "model evaluation failed", scope: str = ""
    ):
        self.index = int(index)
        self.point = np.asarray(point, dtype=float)
        self.message = message
        super().__init__(f"{message} at sample {self.index}{scope}: {self.point.tolist()}")


@dataclass(frozen=True)
class ModelFunction:
    """A pure, deterministic model on the unit hypercube.

    ``fn`` maps an ``(m, n_dims)`` matrix to an ``(m,)`` vector, or, for a
    model with ``k`` outputs, to an ``(m, k)`` matrix with one column per
    output.  It must be side-effect free and row-pure: the value of row
    ``r`` may depend only on row ``r``, which is what makes stacked
    evaluation exact.  The Sobol' estimators take single-output models.
    The estimators lay the matrix out column by column (the transposed
    view of an ``(n_dims, m)`` array), so ``fn`` must not assume
    row-major memory; reading one input column at a time is contiguous.
    """

    n_dims: int
    fn: Callable[[np.ndarray], np.ndarray]
    name: str = "model"


def _evaluate(model: ModelFunction, matrix: np.ndarray) -> np.ndarray:
    """Evaluate ``model`` on every row in one call, as an ``(m,)`` vector or,
    for a model with several outputs, an ``(m, k)`` matrix; reject a row
    with any non-finite value.  ``matrix`` reaches the model in its own
    memory layout, column by column for the engine's point blocks."""
    matrix = np.asarray(matrix, dtype=float)
    values = np.asarray(model.fn(matrix), dtype=float)
    values = values.reshape((matrix.shape[0], -1) if values.ndim == 2 else matrix.shape[0])
    bad = ~np.isfinite(values)
    if bad.ndim == 2:
        bad = bad.any(axis=1)
    if bad.any():
        idx = int(np.argmax(bad))
        raise ModelEvaluationError(idx, matrix[idx], "model returned a non-finite value")
    return values


def _check_dims(model: ModelFunction, samples: SampleSet) -> None:
    if model.n_dims != samples.n_dims:
        raise ValueError(
            f"model expects {model.n_dims} dims but the sample set has {samples.n_dims}"
        )


def _stacked_matrix(samples: SampleSet, frozen_sets: Sequence[Sequence[int]]) -> np.ndarray:
    """The original matrix, then one complementary matrix per entry of
    ``frozen_sets`` with those columns taken from the original, as the
    ``(rows, n_dims)`` view of a matrix stored column by column."""
    n, n_dims = samples.n_samples, samples.n_dims
    original, complementary = samples.original.T.copy(), samples.complementary.T.copy()
    stacked = np.empty((n_dims, 1 + len(frozen_sets), n))
    for k, frozen in enumerate([range(n_dims), *frozen_sets]):
        for d in range(n_dims):
            stacked[d, k] = original[d] if d in frozen else complementary[d]
    return stacked.reshape(n_dims, -1).T


@dataclass(frozen=True)
class SobolResult:
    """Variances and indices of one sensitivity study.

    ``second_order`` matrices are strictly upper triangular; indices are
    stored exactly as ``D / total_variance`` with no clamping.
    """

    model: str
    n_samples: int
    seed: int
    f0: float
    total_variance: float
    first_order: np.ndarray
    first_order_indices: np.ndarray
    second_order: np.ndarray
    second_order_indices: np.ndarray
    dim_names: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        for label in ("first_order", "first_order_indices", "second_order", "second_order_indices"):
            v = np.asarray(getattr(self, label), dtype=float)
            v.flags.writeable = False
            object.__setattr__(self, label, v)
        if not self.dim_names:
            object.__setattr__(
                self, "dim_names", tuple(f"x{k + 1}" for k in range(len(self.first_order)))
            )

    @property
    def n_dims(self) -> int:
        return len(self.first_order)

    def _pairs(self) -> list[tuple[int, int]]:
        return list(itertools.combinations(range(self.n_dims), 2))

    @property
    def residual(self) -> float:
        """1 - sum of estimated indices: higher-order effects plus noise."""
        total = float(np.sum(self.first_order_indices)) + float(np.sum(self.second_order_indices))
        return 1.0 - total

    def to_json_dict(self) -> dict:
        out = {
            "model": self.model,
            "n_samples": self.n_samples,
            "seed": self.seed,
            "generator": GENERATOR_NAME,
            "f0": self.f0,
            "total_variance": self.total_variance,
            "dim_names": list(self.dim_names),
            "first_order_variances": self.first_order.tolist(),
            "first_order_indices": self.first_order_indices.tolist(),
            "residual_higher_order_plus_noise": self.residual,
            "second_order": {},
        }
        for i, j in self._pairs():
            out["second_order"][f"{self.dim_names[i]}|{self.dim_names[j]}"] = {
                "variance": float(self.second_order[i, j]),
                "index": float(self.second_order_indices[i, j]),
            }
        return out

    def csv_text(self) -> str:
        """Header ``label,order,partial_variance,index`` and one line per
        index, first order then pairs, each float as ``%.17g``."""
        names = self.dim_names
        lines = ["label,order,partial_variance,index\n"]
        lines += [
            "%s,1,%.17g,%.17g\n" % (name, d, s)
            for name, d, s in zip(names, self.first_order.tolist(), self.first_order_indices.tolist())
        ]
        lines += [
            "%s|%s,2,%.17g,%.17g\n"
            % (names[i], names[j], self.second_order[i, j], self.second_order_indices[i, j])
            for i, j in self._pairs()
        ]
        return "".join(lines)


def sobol_indices(
    model: ModelFunction,
    samples: SampleSet,
    dim_names: Sequence[str] | None = None,
) -> SobolResult:
    """Full study: mean, total variance, first- and second-order partial variances.

    The original matrix and every mixed matrix are stacked and evaluated
    in one model call.  Each index comes from Janon's symmetric estimator
    (module docstring); the stored partial variances are the indices times
    the total variance, so ``S = D / total_variance`` holds exactly as
    stored.  A failing row is reported by its index within its own
    ``N``-row matrix.
    """
    _check_dims(model, samples)
    n = samples.n_dims
    pairs = list(itertools.combinations(range(n), 2))

    stacked = _stacked_matrix(samples, [(i,) for i in range(n)] + pairs)
    try:
        blocks = _evaluate(model, stacked).reshape(1 + n + len(pairs), samples.n_samples)
    except ModelEvaluationError as err:
        raise ModelEvaluationError(err.index % samples.n_samples, err.point, err.message) from err
    y, mixed = blocks[0], blocks[1:]
    f0 = float(np.mean(y))
    d_total = max(float(np.mean(y * y) - f0 * f0), 0.0)
    if d_total == 0.0:
        raise ValueError("zero total variance: the model is constant on this sample set")

    # Janon's symmetric estimate of each block's closed index
    m = np.mean(0.5 * (y + mixed), axis=1)
    closed = (np.mean(y * mixed, axis=1) - m * m) / (
        np.mean(0.5 * (y * y + mixed * mixed), axis=1) - m * m
    )
    s_first = closed[:n]
    s_second = np.zeros((n, n))
    for k, (i, j) in enumerate(pairs):
        s_second[i, j] = closed[n + k] - s_first[i] - s_first[j]
    d_first, d_second = s_first * d_total, s_second * d_total

    return SobolResult(
        model=model.name,
        n_samples=samples.n_samples,
        seed=samples.seed,
        f0=f0,
        total_variance=d_total,
        first_order=d_first,
        first_order_indices=d_first / d_total,
        second_order=d_second,
        second_order_indices=d_second / d_total,
        dim_names=tuple(dim_names) if dim_names else (),
    )


@dataclass(frozen=True)
class SobolFunctionEstimate:
    """Pointwise Sobol' function on a regular grid.

    ``values`` is the centered conditional mean: for one axis it is a
    vector over the grid; for two axes it is the two-way interaction
    residual (conditional mean minus both marginal means plus the grand
    mean).  ``f0`` is the grand mean re-estimated from the same budget.
    """

    axes: tuple[int, ...]
    grids: tuple[np.ndarray, ...]
    values: np.ndarray
    inner_samples: int
    seed: int
    f0: float
    model: str = "model"

    def __post_init__(self) -> None:
        grids = tuple(np.asarray(g, dtype=float) for g in self.grids)
        for g in grids:
            if g.ndim != 1 or len(g) < 2 or np.any(np.diff(g) <= 0):
                raise ValueError("grid coordinates must be strictly increasing 1-D arrays")
            if g.min() < 0.0 or g.max() > 1.0:
                raise ValueError("grid coordinates must lie in [0, 1]")
            g.flags.writeable = False
        object.__setattr__(self, "grids", grids)
        v = np.asarray(self.values, dtype=float)
        if v.shape != tuple(len(g) for g in grids):
            raise ValueError("value array shape must match the grid shape")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    def csv_text(self) -> str:
        """Header ``u<axis>[,u<axis>],value`` and one line per grid node,
        in row-major order of ``values``.  Each grid coordinate is
        formatted once, and the node labels are joined once into the
        table's template, so one ``%`` operation formats every value;
        ``%.17g`` formats as ``format(x, ".17g")`` does, so every float
        round-trips and no label holds a ``%``."""
        coords = [["%.17g" % g for g in grid.tolist()] for grid in self.grids]
        labels = [",".join(node) for node in itertools.product(*coords)]
        template = ",%.17g\n".join(labels) + ",%.17g\n"
        header = ",".join(f"u{a}" for a in self.axes) + ",value\n"
        return header + template % tuple(self.values.ravel().tolist())


def _midpoint_grid(n: int) -> np.ndarray:
    # Stratum midpoints: equal-weight averages over the grid approximate
    # the uniform measure without endpoint corrections.
    return (np.arange(n) + 0.5) / n


#: Rows per model call of a Sobol'-function surface, in whole grid lines:
#: enough to spread a solve's fixed cost over many short lines, few enough
#: to keep the temporaries small (one call for a whole 64x64 poly surface
#: ran 3x slower).
_SURFACE_CALL_ROWS = 8192


def _conditional_means(
    model: ModelFunction,
    axes: Sequence[int],
    nodes: np.ndarray,
    inner: np.ndarray,
    line: int,
) -> np.ndarray:
    """Mean of the model over the shared ``inner`` sample at each node, in
    one model call.

    Row ``a`` of ``nodes`` fixes the coordinates ``axes``; the remaining
    dimensions, in increasing order, take the columns of ``inner``; the
    points are stored column by column.  The nodes form whole grid lines
    of ``line`` nodes each, and a failing row is reported by its index
    within its own line.
    """
    rest = [k for k in range(model.n_dims) if k not in axes]
    pts = np.empty((model.n_dims, len(nodes), len(inner)))
    for k, axis in enumerate(axes):
        pts[axis] = nodes[:, k, None]
    for k, dim in enumerate(rest):
        pts[dim] = inner[:, k]
    try:
        values = _evaluate(model, pts.reshape(model.n_dims, -1).T)
    except ModelEvaluationError as err:
        rows = line * len(inner)
        raise ModelEvaluationError(err.index % rows, err.point, err.message) from err
    return values.reshape(len(nodes), len(inner)).mean(axis=1)


def _estimate_sobol_function(
    model: ModelFunction,
    axes: tuple[int, ...],
    grid_points: int,
    inner_samples: int,
    seed: int,
) -> SobolFunctionEstimate:
    """Sobol' function of one or two ``axes`` on a midpoint grid.

    Every node averages the model over one shared sample of
    ``inner_samples`` Latin Hypercube draws of the remaining dimensions.
    It is drawn from ``default_rng(seed)``, i.e. the root
    ``SeedSequence(seed)`` itself, a stream distinct from the two children
    behind ``lhs_sample``.  Each model call fills whole grid lines (along
    the last axis) of the table of conditional means, as many as fit in
    ``_SURFACE_CALL_ROWS`` rows and at least one, which bounds the memory
    of a surface.  The model is row-pure, so the split changes no node.
    """
    if len(set(axes)) != len(axes):
        raise ValueError("second-order function needs two distinct dimensions")
    if grid_points < 2 or inner_samples < 2:
        raise ValueError("grid_points and inner_samples must both be at least 2")
    for k in axes:
        if not 0 <= k < model.n_dims:
            raise IndexError(f"dimension index {k} out of range")
    grid = _midpoint_grid(grid_points)
    # a module-level lookup: perfbench/spans.py rebinds ``_lhs_matrix``
    inner = _lhs_matrix(model.n_dims - len(axes), inner_samples, np.random.default_rng(seed))
    # every node, one grid line (the last axis) after another
    nodes = np.stack(np.meshgrid(*(grid,) * len(axes), indexing="ij"), axis=-1).reshape(-1, len(axes))
    step = max(_SURFACE_CALL_ROWS // (grid_points * inner_samples), 1) * grid_points
    means = [
        _conditional_means(model, axes, nodes[s:s + step], inner, grid_points)
        for s in range(0, len(nodes), step)
    ]
    table = np.concatenate(means).reshape((grid_points,) * len(axes))
    f0 = float(np.mean(table))
    if len(axes) == 1:
        values = table - f0
    else:
        values = table - table.mean(axis=1, keepdims=True) - table.mean(axis=0, keepdims=True) + f0
    return SobolFunctionEstimate(
        axes=axes,
        grids=(grid,) * len(axes),
        values=values,
        inner_samples=inner_samples,
        seed=int(seed),
        f0=f0,
        model=model.name,
    )


def estimate_sobol_function_1d(
    model: ModelFunction,
    i: int,
    grid_points: int = 64,
    inner_samples: int = 128,
    seed: int = 0,
) -> SobolFunctionEstimate:
    """First-order Sobol' function of dimension ``i``: the conditional
    means minus their grand mean, so the estimate integrates to ~zero by
    construction (sampling as in :func:`_estimate_sobol_function`)."""
    return _estimate_sobol_function(model, (i,), grid_points, inner_samples, seed)


def estimate_sobol_function_2d(
    model: ModelFunction,
    i: int,
    j: int,
    grid_points: int = 64,
    inner_samples: int = 128,
    seed: int = 0,
) -> SobolFunctionEstimate:
    """Second-order Sobol' function of the pair ``(i, j)``: the conditional
    means minus both marginal means plus the grand mean (the standard
    two-way ANOVA interaction residual), which subtracts the first-order
    functions estimated from the same evaluation budget."""
    return _estimate_sobol_function(model, (i, j), grid_points, inner_samples, seed)


# ---------------------------------------------------------------------------
# Built-in analytic validation model
# ---------------------------------------------------------------------------

def analytic_poly_model() -> ModelFunction:
    """Three-variable polynomial test model with a closed-form ANOVA.

    ``F(x1, x2, x3) = x1^2 + x2^4 + x1 x2 + x2 x3^4`` with each ``x_k``
    uniform on [-4, 4], i.e. ``x_k = 8 u_k - 4`` on the unit cube.
    """

    def fn(u: np.ndarray) -> np.ndarray:
        x = 8.0 * np.asarray(u, dtype=float) - 4.0
        x1, x2, x3 = x[:, 0], x[:, 1], x[:, 2]
        # fourth powers by squaring twice: ``**4`` goes through ``pow``,
        # which is about ten times slower on these arrays
        x2s = x2 * x2
        x3s = x3 * x3
        return x1 * x1 + x2s * x2s + x1 * x2 + x2 * (x3s * x3s)

    return ModelFunction(n_dims=3, fn=fn, name="analytic-poly")


@dataclass(frozen=True)
class PolyReference:
    """Exact ANOVA of the analytic polynomial model.

    Partial variances come from exact moments of the uniform density on
    [-4, 4] (E[x^2] = 16/3, E[x^4] = 256/5, E[x^8] = 65536/9); the
    commonly quoted four-decimal figures are roundings of these.
    ``functions`` maps component names to closed forms evaluated in the
    physical x-coordinates.
    """

    f0: float
    total_variance: float
    partial_variances: dict[str, float]
    indices: dict[str, float]
    functions: dict[str, Callable[..., np.ndarray]] = field(repr=False, default_factory=dict)


def analytic_poly_reference() -> PolyReference:
    e2 = 16.0 / 3.0        # E[x^2]
    e4 = 256.0 / 5.0       # E[x^4]
    e8 = 65536.0 / 9.0     # E[x^8]
    f0 = e2 + e4

    d = {
        "1": e4 - e2 * e2,
        "2": e8 + e4 * e4 * e2 - e4 * e4,
        "3": 0.0,
        "12": e2 * e2,
        "13": 0.0,
        "23": e2 * (e8 - e4 * e4),
        "123": 0.0,
    }
    total = sum(d.values())
    indices = {k: v / total for k, v in d.items()}

    def f1(x1):
        return np.asarray(x1, dtype=float) ** 2 - e2

    def f2(x2):
        x2 = np.asarray(x2, dtype=float)
        return x2**4 + e4 * x2 - e4

    def f12(x1, x2):
        return np.asarray(x1, dtype=float) * np.asarray(x2, dtype=float)

    def f23(x2, x3):
        x2 = np.asarray(x2, dtype=float)
        return x2 * np.asarray(x3, dtype=float) ** 4 - e4 * x2

    def zero(*args):
        return np.zeros(np.broadcast(*[np.asarray(a, dtype=float) for a in args]).shape)

    return PolyReference(
        f0=f0,
        total_variance=total,
        partial_variances=d,
        indices=indices,
        functions={
            "1": f1,
            "2": f2,
            "3": zero,
            "12": f12,
            "13": zero,
            "23": f23,
            "123": zero,
        },
    )
