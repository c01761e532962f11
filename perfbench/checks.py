"""Output checks, run by run.py on each pass's artifacts while the worker
waits, so that neither their time nor their memory is measured.

Each check returns a list of problems; an empty list means the command's
output is correct.  The gates are those of the acceptance criteria:

* gaps: a seeded subset of rows and cells against
  ``tests/oracles.brute_force_first_gap`` within criterion 06's 1e-6;
* band-gap indices: criterion 07's top index and its range, ranked over
  the first-order indices;
* design error and truncation: criterion 08's bounds and
  ``delta_by_k[0]`` within 1 +- 0.02;
* polynomial model: criterion 01's index bands, at twice their
  half-width, from its sample size up, and criterion 02's R^2 >= 0.99
  against the closed-form ANOVA.

Two gates are wider than the tests' because every pass draws a new
sample, and both fail for some seeds at the criteria's own sample size
(measured on 300 and 30 seeds): criterion 01's bands are about 2.5
seed-to-seed standard deviations wide and miss for 5% of seeds at
N=3000; criterion 07's WS ranking can put the noisy second-order index
S[E2/E1,h2/h1] above S[h2/h1] (within 0.044 of it at N=2000, above it
for 3 of 17 seeds at N=1000).
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np
from oracles import brute_force_first_gap
from phonogap.crystal import Polarization, UnitCell, objective, two_layer_cell
from phonogap.sampling import canonical_space, lhs_sample, map_to_space
from phonogap.sobol import analytic_poly_reference

GAP_TOL = 1e-6  # criterion 06
RANKINGS = {  # criterion 07: top first-order index and its allowed range
    "SS": ("S[rho2/rho1]", 0.8, math.inf),
    "WS": ("S[h2/h1]", 0.25, 0.55),
    "SP": ("S[rho2/rho1]", 0.7, math.inf),
}
DELTA_BOUNDS = {"SS": 0.02, "WS": 0.20, "SP": 0.01, "WP": 0.28}  # criterion 08
POLY_BAND_N = 3000  # criterion 01's sample size
POLY_BANDS = {"S[x2]": (0.33, 0.53), "S[x2,x3]": (0.37, 0.77)}  # criterion 01, half-widths doubled
POLY_SMALL = 0.16  # criterion 01's 0.08, doubled
R2_MIN = 0.99  # criterion 02, for its two functions
R2_FUNCTIONS = {"x2": "2", "x2,x3": "23"}


def digest(path: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(p for p in path.rglob("*") if p.is_file()):
        h.update(str(f.relative_to(path)).encode() + b"\0")
        h.update(f.read_bytes())
    return h.hexdigest()


def size(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _options(argv: list[str]) -> dict[str, str]:
    return {k: v for k, v in zip(argv[1::2], argv[2::2])}


def check_command(record: dict) -> list[str]:
    if record["error"]:
        return [record["error"]]
    if record["code"] != 0:
        return [f"exit code {record['code']}"]
    opts = _options(record["argv"])
    out = Path(record["out"])
    try:
        sub = record["argv"][0]
        if sub == "sobol":
            return check_sobol(opts, out)
        if sub == "design":
            return check_design(opts, out, record.get("spot", 0))
        if sub == "bandgap":
            return check_gap_summary(opts, out, record.get("spot", 0))
        if sub == "dispersion":
            return check_gap_summary(opts, out, 0) + check_dispersion(opts, out)
        return [f"no check for subcommand {sub}"]
    except (OSError, KeyError, ValueError, TypeError, IndexError, RuntimeError) as err:
        return [f"check failed: {type(err).__name__}: {err}"]


def _index_table(result: dict) -> list[tuple[str, float]]:
    rows = [(f"S[{n}]", v) for n, v in zip(result["dim_names"], result["first_order_indices"])]
    for pair, entry in result.get("second_order", {}).items():
        rows.append((f"S[{pair.replace('|', ',')}]", entry["index"]))
    return rows


def check_sobol(opts: dict, out: Path) -> list[str]:
    result = json.loads((out / "sobol_result.json").read_text())
    table = _index_table(result)
    if not all(math.isfinite(v) for _, v in table):
        return ["non-finite Sobol' index"]
    if opts["--target"] == "poly":
        return check_poly(opts, out, dict(table), result)
    problems = []
    if opts["--target"] in RANKINGS:
        label, lo, hi = RANKINGS[opts["--target"]]
        top_label, top = max(table[: len(result["dim_names"])], key=lambda kv: kv[1])
        if top_label != label or not lo <= top <= hi:
            problems.append(f"{opts['--target']} top index {top_label}={top:.4f}, want {label} in [{lo}, {hi}]")
    if "--functions" in opts:
        problems += check_surface(out, int(opts["--grid"]))
    return problems


def _read_rows(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    return header, rows


def check_surface(out: Path, grid: int) -> list[str]:
    (path,) = out.glob("sobol_function_*.csv")
    _, rows = _read_rows(path)
    values = np.array([float(r[2]) for r in rows])
    if values.shape != (grid * grid,) or not np.isfinite(values).all():
        return [f"{path.name}: expected {grid * grid} finite values"]
    table = values.reshape(grid, grid)
    # a two-way interaction residual is centred along both axes
    if max(np.abs(table.mean(axis=0)).max(), np.abs(table.mean(axis=1)).max()) > 1e-9:
        return [f"{path.name}: interaction surface is not centred"]
    return []


def _r2(estimate: np.ndarray, exact: np.ndarray) -> float:
    return 1.0 - np.sum((estimate - exact) ** 2) / np.sum((exact - exact.mean()) ** 2)


def check_poly(opts: dict, out: Path, index: dict[str, float], result: dict) -> list[str]:
    problems = []
    comparison = json.loads((out / "analytic_comparison.json").read_text())
    if comparison["indices"]["2"]["estimated"] != index["S[x2]"]:
        problems.append("analytic_comparison.json disagrees with sobol_result.json")
    if int(opts["--n"]) >= POLY_BAND_N:
        for label, (lo, hi) in POLY_BANDS.items():
            if not lo <= index[label] <= hi:
                problems.append(f"{label}={index[label]:.4f} outside [{lo}, {hi}]")
        small = [index[k] for k in ("S[x1]", "S[x3]", "S[x1,x2]", "S[x1,x3]")]
        small.append(result["residual_higher_order_plus_noise"])
        if not max(map(abs, small)) < POLY_SMALL:
            problems.append(f"an index that should vanish reaches {max(map(abs, small)):.4f}")
    ref = analytic_poly_reference()
    for part in opts["--functions"].split(";"):
        names = part.split(",")
        _, rows = _read_rows(out / f"sobol_function_{'-'.join(names)}.csv")
        cols = np.array(rows, dtype=float).T
        expected = int(opts.get("--grid", 64)) ** len(names)
        if cols.shape != (len(names) + 1, expected) or not np.isfinite(cols).all():
            problems.append(f"Sobol' function {part}: expected {expected} finite rows")
        elif part in R2_FUNCTIONS:
            exact = ref.functions[R2_FUNCTIONS[part]](*(8.0 * c - 4.0 for c in cols[:-1]))
            r2 = _r2(cols[-1], exact)
            if not r2 >= R2_MIN:
                problems.append(f"Sobol' function {part}: R^2={r2:.5f} < {R2_MIN}")
    return problems


def _gap_problems(cell: UnitCell, pol: Polarization, start: float | None, end: float | None, label: str) -> list[str]:
    ref = brute_force_first_gap(cell, pol)
    if ref is None or start is None:
        return [] if ref is None and start is None else [f"{label} {pol.value}: gap {start, end}, oracle {ref}"]
    err = max(abs(start - ref[0]), abs(end - ref[1]))
    return [] if err <= GAP_TOL else [f"{label} {pol.value}: gap edges off the oracle by {err:.3e}"]


def check_design(opts: dict, out: Path, spot: int) -> list[str]:
    problems = []
    seed, n = int(opts["--seed"]), int(opts["--n"])
    if opts["--mode"] == "error":
        deltas = json.loads((out / "design_error.json").read_text())["delta"]
        for kind, bound in DELTA_BOUNDS.items():
            if not deltas[kind] <= bound:
                problems.append(f"delta[{kind}]={deltas[kind]:.4f} > {bound}")
    else:
        curves = json.loads((out / "design_truncation.json").read_text())["curves"]
        for kind, curve in curves.items():
            deltas = curve["delta_by_k"]
            if not (all(map(math.isfinite, deltas)) and abs(deltas[0] - 1.0) <= 0.02):
                problems.append(f"truncation {kind}: delta_by_k[0]={deltas[0]:.4f}, want 1 +- 0.02")
    if not spot:
        return problems
    rows = np.random.default_rng([seed, 2]).choice(n, spot, replace=False)
    points = map_to_space(lhs_sample(5, n, seed).original[rows], canonical_space())
    for r, pt in zip(rows, points):
        for pol in (Polarization.S, Polarization.P):
            start = objective(pt, f"S{pol.value}")
            width = objective(pt, f"W{pol.value}")
            problems += _gap_problems(two_layer_cell(*pt), pol, start, start + width, f"row {r}")
    return problems


def check_gap_summary(opts: dict, out: Path, spot: int) -> list[str]:
    gaps = json.loads((out / "bandgap_summary.json").read_text())["first_band_gap"]
    problems = []
    for pol, gap in gaps.items():
        if gap is not None and not (0 < gap["start"] < gap["end"] and gap["width"] == gap["end"] - gap["start"]):
            problems.append(f"malformed gap {pol}: {gap}")
    if spot and not problems:
        cell = UnitCell.from_json(Path(opts["--cell"]).read_text())
        for pol in (Polarization.S, Polarization.P):
            gap = gaps[pol.value] or {"start": None, "end": None}
            problems += _gap_problems(cell, pol, gap["start"], gap["end"], Path(opts["--cell"]).name)
    return problems


def check_dispersion(opts: dict, out: Path) -> list[str]:
    gaps = json.loads((out / "bandgap_summary.json").read_text())["first_band_gap"]
    n_points = int(opts.get("--n-points", 2000))
    problems = []
    for pol, gap in gaps.items():
        header, rows = _read_rows(out / f"dispersion_{pol}.csv")
        if header != ["omega_hat", "half_trace", "k_hat_h", "in_gap"] or len(rows) != n_points:
            problems.append(f"dispersion_{pol}.csv: expected {n_points} rows under the documented header")
            continue
        cols = list(zip(*rows))
        omega, ht = np.array(cols[0], dtype=float), np.array(cols[1], dtype=float)
        k = np.array([v or "nan" for v in cols[2]], dtype=float)
        in_gap = np.array(cols[3]) == "1"
        if not (np.all(np.diff(omega) > 0) and np.isfinite(ht).all()):
            problems.append(f"dispersion_{pol}.csv: frequencies not increasing or non-finite half trace")
        if not np.array_equal(in_gap, np.abs(ht) > 1.0) or not np.array_equal(in_gap, np.isnan(k)):
            problems.append(f"dispersion_{pol}.csv: in_gap disagrees with half_trace or k_hat_h")
        if not np.all((k[~in_gap] >= 0.0) & (k[~in_gap] <= math.pi)):
            problems.append(f"dispersion_{pol}.csv: k_hat_h outside [0, pi]")
        if gap is not None:
            inside = (omega > gap["start"] * (1 + 1e-9)) & (omega < gap["end"] * (1 - 1e-9))
            below = omega < gap["start"] * (1 - 1e-9)
            if not in_gap[inside].all() or (np.abs(ht[below]) > 1.0 + 1e-9).any():
                problems.append(f"dispersion_{pol}.csv: pass/stop bands disagree with the first gap")
    return problems
