"""Command-line frontend: dispersion curves, band gaps, sensitivity
studies and design-equation checks, exported as plot-ready CSV/JSON.

Every command is reproducible: identical configuration and seed yield
byte-identical output files on one numpy build and SIMD dispatch
target.  ``--threads`` is accepted and has no effect: every model
evaluation runs in one thread.
Exit codes: 0 success, 1 numerical failure (a gap-free cell where a gap
is required, a sampled cell whose wave speed or impedance leaves the
float range, a constant sampled model, a gap the general scan cannot
close, or a non-finite dispersion half trace), 2 configuration errors,
an ignored option and an unwritable output path among them.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from pathlib import Path
from typing import Iterator

import numpy as np

from .sampling import ParameterSpace, SampleSet, canonical_space, lhs_sample
from .sobol import (
    ModelEvaluationError,
    _evaluate,
    analytic_poly_model,
    analytic_poly_reference,
    estimate_sobol_function_1d,
    estimate_sobol_function_2d,
    sobol_indices,
)
from .crystal import (
    GapNotClosedError,
    ObjectiveKind,
    Polarization,
    UnitCell,
    dispersion_curve,
    first_band_gap,
    objective_model,
    transit_time,
)
from .design import (
    KINDS,
    design_model,
    load_design_equations,
    scaled_l2_error,
    truncation_curve,
)


class ConfigError(Exception):
    pass


class _NumericalFailure(Exception):
    """A model's values that no result can be computed from."""


def _out_dir(args: argparse.Namespace) -> Path:
    if args.out:
        out = Path(args.out)
    else:
        out = Path(os.environ.get("PHONOGAP_OUT", "."))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _json_field(text: str) -> float | str | None:
    """A table field as a JSON value: the number it spells when that is a
    finite float (JSON has no NaN or infinity), null when empty (a gap's
    ``k_hat_h``), else the string itself."""
    if not text:
        return None
    try:
        value = float(text)
    except ValueError:
        return text
    return value if math.isfinite(value) else text


def _write_table(out: Path, name: str, text: str, fmt: str) -> None:
    """A table given as its CSV text: written as it is, or as JSON records
    whose numbers have the values of their CSV fields.  No field needs
    quoting: numbers are ``%.17g``, and every label is ``x1``..``x3`` or a
    canonical dimension name (``objective_model`` rejects any other), alone
    or joined by ``|``.  So the text is what ``csv.writer`` would write,
    and splitting a line at its commas gives back its fields."""
    if fmt == "json":
        header, *data = (line.split(",") for line in text.splitlines())
        payload = [{h: _json_field(v) for h, v in zip(header, r)} for r in data]
        text = json.dumps(payload, indent=2) + "\n"
    (out / f"{name}.{fmt}").write_text(text)


def _read_input(path: str, what: str, parse):
    try:
        text = Path(path).read_text()
    except OSError as err:
        raise ConfigError(f"cannot read {what} file {path}: {err}") from err
    try:
        return parse(text)
    except (KeyError, TypeError, ValueError) as err:  # json.JSONDecodeError is a ValueError
        raise ConfigError(f"malformed {what} file {path}: {err}") from err


def _polarizations(choice: str) -> list[Polarization]:
    if choice == "both":
        return [Polarization.S, Polarization.P]
    return [Polarization(choice)]


def _gap_summary(cell: UnitCell, pols: list[Polarization], seed: int) -> dict:
    gaps = {}
    for pol in pols:
        gap = first_band_gap(cell, pol)
        gaps[pol.value] = None if gap is None else gap.to_dict()
    return {"seed": seed, "first_band_gap": gaps}


def cmd_dispersion(args: argparse.Namespace) -> int:
    cell = _read_input(args.cell, "cell", UnitCell.from_json)
    out = _out_dir(args)
    pols = _polarizations(args.pol)
    for pol in pols:
        omega_max = args.omega_max or 8.0 * math.pi / transit_time(cell, pol)
        curve = dispersion_curve(cell, omega_max, args.n_points, pol)
        _write_table(out, f"dispersion_{pol.value}", curve.csv_text(), args.format)
    _write_json(out / "bandgap_summary.json", _gap_summary(cell, pols, args.seed))
    print(f"wrote dispersion data for {', '.join(p.value for p in pols)} to {out}")
    return 0


def cmd_bandgap(args: argparse.Namespace) -> int:
    cell = _read_input(args.cell, "cell", UnitCell.from_json)
    out = _out_dir(args)
    summary = _gap_summary(cell, _polarizations(args.pol), args.seed)
    _write_json(out / "bandgap_summary.json", summary)
    print(json.dumps(summary["first_band_gap"], indent=2, sort_keys=True))
    return 0


def _parse_function_requests(spec: str | None, names: tuple[str, ...]) -> list[tuple[int, ...]]:
    if not spec:
        return []
    requests = []
    for part in spec.split(";"):
        part = part.strip()
        if not part:
            continue
        labels = [p.strip() for p in part.split(",")]
        try:
            axes = tuple(names.index(l) for l in labels)
        except ValueError as err:
            raise ConfigError(f"unknown dimension in --functions: {part} (choose from {names})") from err
        if len(axes) not in (1, 2):
            raise ConfigError(f"--functions entries take one or two dimensions, got {part!r}")
        if len(set(axes)) != len(axes):
            raise ConfigError(f"repeated dimension in --functions: {part!r}")
        requests.append(axes)
    return requests


def cmd_sobol(args: argparse.Namespace) -> int:
    if args.target == "poly" and args.space is not None:
        raise ConfigError("--space applies to the band-gap targets, not to --target poly")
    out = _out_dir(args)
    if args.target == "poly":
        model = analytic_poly_model()
        names: tuple[str, ...] = ("x1", "x2", "x3")
    else:
        space = canonical_space()
        if args.space is not None:
            space = _read_input(args.space, "space", ParameterSpace.from_json)
        try:
            model = objective_model(args.target, space=space)
        except ValueError as err:
            raise ConfigError(f"space file {args.space}: {err}") from err
        names = space.names
    requests = _parse_function_requests(args.functions, names)
    samples = lhs_sample(model.n_dims, args.n, args.seed)
    try:
        result = sobol_indices(model, samples, dim_names=names)
    except ValueError as err:  # a constant sampled model: no index is defined
        raise _NumericalFailure(err) from err
    _write_json(out / "sobol_result.json", result.to_json_dict())
    _write_table(out, "sobol_indices", result.csv_text(), args.format)

    for axes in requests:
        tag = "-".join(names[a].replace("/", "_") for a in axes)
        if len(axes) == 1:
            est = estimate_sobol_function_1d(model, axes[0], args.grid, args.inner, seed=args.seed)
        else:
            est = estimate_sobol_function_2d(
                model, axes[0], axes[1], args.grid, args.inner, seed=args.seed
            )
        _write_table(out, f"sobol_function_{tag}", est.csv_text(), args.format)

    if args.target == "poly":
        ref = analytic_poly_reference()
        estimated = {
            "1": float(result.first_order_indices[0]),
            "2": float(result.first_order_indices[1]),
            "3": float(result.first_order_indices[2]),
            "12": float(result.second_order_indices[0, 1]),
            "13": float(result.second_order_indices[0, 2]),
            "23": float(result.second_order_indices[1, 2]),
        }
        comparison = {
            "n_samples": args.n,
            "seed": args.seed,
            "f0": {"estimated": result.f0, "analytic": ref.f0},
            "indices": {
                k: {"estimated": v, "analytic": ref.indices[k]} for k, v in estimated.items()
            },
        }
        _write_json(out / "analytic_comparison.json", comparison)
    print(f"wrote sensitivity study for {model.name} (N={args.n}, seed={args.seed}) to {out}")
    return 0


def _parse_point(text: str) -> np.ndarray:
    try:
        values = [float(v) for v in text.split(",")]
    except ValueError as err:
        raise ConfigError(f"malformed parameter point {text!r}") from err
    if len(values) != 5:
        raise ConfigError("a design point needs five comma-separated values")
    point = np.asarray(values)
    nus = point[3:]  # nu = 0.5 makes the P modulus singular (Layer rejects it too)
    if not (np.isfinite(point).all() and (point[:3] > 0.0).all() and ((nus >= 0.0) & (nus < 0.5)).all()):
        raise ConfigError(
            f"a design point needs finite values, positive ratios and Poisson's ratios in [0, 0.5), got {text!r}"
        )
    return point


def _exact_columns(kinds: list[str], samples: SampleSet) -> Iterator[tuple[str, np.ndarray]]:
    """Each kind with the solver's values of its objective on the original
    sample matrix, from one model call per polarization."""
    for pol in Polarization:
        group = [kind for kind in kinds if ObjectiveKind(kind).polarization is pol]
        if group:
            values = _evaluate(objective_model(*group), samples.original)
            yield from zip(group, values.reshape(samples.n_samples, -1).T)


def cmd_design(args: argparse.Namespace) -> int:
    if args.mode != "eval" and args.params is not None:
        raise ConfigError(f"--params applies to --mode eval, not to --mode {args.mode}")
    out = _out_dir(args)
    kinds = list(KINDS) if args.kind == "all" else [args.kind]
    if args.mode == "eval":
        if not args.params:
            raise ConfigError("eval mode needs --params E2/E1,rho2/rho1,h2/h1,nu1,nu2")
        point = _parse_point(args.params)
        eqs = load_design_equations()
        payload = {
            "mode": "eval",
            "params": point.tolist(),
            "seed": args.seed,
            "predictions_omega_hat": {k: float(eqs[k].evaluate(point)) for k in kinds},
        }
        _write_json(out / "design_eval.json", payload)
        print(json.dumps(payload["predictions_omega_hat"], indent=2, sort_keys=True))
        return 0

    samples = lhs_sample(5, args.n, args.seed)
    payload = {"mode": args.mode, "n_samples": args.n, "seed": args.seed}
    if args.mode == "error":
        payload["delta"] = {
            kind: scaled_l2_error(exact, design_model(kind), samples)
            for kind, exact in _exact_columns(kinds, samples)
        }
        _write_json(out / "design_error.json", payload)
        print(json.dumps(payload["delta"], indent=2, sort_keys=True))
        return 0

    payload["curves"] = {
        kind: truncation_curve(exact, kind, samples).to_json_dict()
        for kind, exact in _exact_columns(kinds, samples)
    }
    _write_json(out / "design_truncation.json", payload)
    for kind in kinds:
        print(kind, " ".join(format(d, ".4f") for d in payload["curves"][kind]["delta_by_k"]))
    return 0


def _int_at_least(low: int):
    """argparse type: an integer of at least ``low``."""

    def integer(text: str) -> int:
        value = int(text)  # argparse reports a ValueError as an invalid integer value
        if value < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")
        return value

    return integer


def _positive_float(text: str) -> float:
    """argparse type: a finite float above zero."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"expected a finite number > 0, got {text!r}")
    return value


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--seed", type=_int_at_least(0), default=0, help="RNG seed recorded in every artifact"
    )
    parser.add_argument(
        "--threads", type=int, default=1, help="accepted for compatibility; has no effect"
    )
    parser.add_argument("--out", type=str, default=None, help="output directory (default $PHONOGAP_OUT or .)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on first use and then shared by every
    ``main`` call of the process; parsing leaves no state in it."""
    p = argparse.ArgumentParser(
        prog="phonogap",
        description="1D phononic band gaps: dispersion, sensitivity analysis, design equations",
    )
    sub = p.add_subparsers(dest="cmd", required=True)

    pd = sub.add_parser("dispersion", help="dispersion curve CSV + band-gap summary")
    pd.add_argument("--cell", required=True, help="unit-cell JSON file")
    pd.add_argument("--pol", choices=["S", "P", "both"], default="both")
    pd.add_argument("--omega-max", type=_positive_float, default=None, help="default: 8*pi/transit time")
    pd.add_argument("--n-points", type=_int_at_least(2), default=2000)
    _add_common(pd)
    pd.set_defaults(func=cmd_dispersion)

    pb = sub.add_parser("bandgap", help="first band gap per polarization")
    pb.add_argument("--cell", required=True, help="unit-cell JSON file")
    pb.add_argument("--pol", choices=["S", "P", "both"], default="both")
    _add_common(pb)
    pb.set_defaults(func=cmd_bandgap)

    ps = sub.add_parser("sobol", help="variance-based sensitivity study")
    ps.add_argument("--target", choices=["poly", *KINDS], required=True)
    ps.add_argument("--n", type=_int_at_least(100), default=2000, help="Monte Carlo sample size")
    ps.add_argument("--space", default=None, help="parameter-space JSON (default: canonical)")
    ps.add_argument(
        "--functions",
        default=None,
        help="Sobol' functions to export, e.g. 'x2;x2,x3' or 'rho2/rho1;rho2/rho1,h2/h1'",
    )
    ps.add_argument("--grid", type=_int_at_least(2), default=64, help="grid nodes per function axis")
    ps.add_argument("--inner", type=_int_at_least(2), default=128, help="inner samples per grid node")
    _add_common(ps)
    ps.set_defaults(func=cmd_sobol)

    pg = sub.add_parser("design", help="design-equation evaluation and error analysis")
    pg.add_argument("--kind", choices=["all", *KINDS], default="all")
    pg.add_argument("--mode", choices=["eval", "error", "truncation"], required=True)
    pg.add_argument("--params", default=None, help="five comma-separated values for eval mode")
    pg.add_argument("--n", type=_int_at_least(2), default=2000, help="samples for error/truncation modes")
    _add_common(pg)
    pg.set_defaults(func=cmd_design)

    for tables in (pd, ps):  # bandgap and design write JSON only
        tables.add_argument("--format", choices=["csv", "json"], default="csv", help="tabular output format")
    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return 2
    except (GapNotClosedError, ModelEvaluationError, _NumericalFailure) as err:
        # band-gap model failures carry the physical point in their message
        print(f"numerical failure: {err}", file=sys.stderr)
        return 1
    except OSError as err:
        # input files are read under ConfigError handlers: this is an output path
        print(f"configuration error: cannot write output: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
