"""The benchmark's workloads: the CLI commands of one pass, made from a seed.

A run repeats passes in a closed loop.  Pass ``k`` of a run with seed
``s`` draws everything from ``pass_seed(s, k)``, so the same seed gives
the same commands and inputs, and no two passes of a run repeat work.

Each command is a dict: ``argv`` (without ``--out``, which the worker
adds), ``spot`` (how many rows or cells the checker compares against the
brute-force oracle) and ``repeat`` (rerun after the loop to check that
the same seed gives byte-identical artifacts).
"""
from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

# study: the paper's four-objective study at its own sample size.
STUDY_N = 2000
STUDY_SURFACE = ("--functions", "rho2/rho1,h2/h1", "--grid", "24", "--inner", "16")
STUDY_SPOT_ROWS = 3
# poly: the sample sizes of scripts/poly_benchmark.py, CLI default grid.
POLY_SIZES = (100, 250, 500, 1000, 2000, 3000, 4000)
POLY_FUNCTIONS = "x1;x2;x2,x3"
# multilayer: generated 3-6 layer cells, two commands each.
CELLS_PER_PASS = 40
SPOT_CELLS = 1


def pass_seed(seed: int, k: int) -> int:
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


def study(seed: int, inputs: Path) -> list[dict]:
    common = ["--n", str(STUDY_N), "--seed", str(seed)]
    cmds = [{"argv": ["sobol", "--target", "SS", *common, *STUDY_SURFACE]}]
    cmds += [{"argv": ["sobol", "--target", kind, *common]} for kind in ("WS", "SP", "WP")]
    cmds.append({"argv": ["design", "--mode", "error", *common], "spot": STUDY_SPOT_ROWS, "repeat": True})
    cmds.append({"argv": ["design", "--mode", "truncation", *common]})
    return cmds


def poly(seed: int, inputs: Path) -> list[dict]:
    return [
        {
            "argv": ["sobol", "--target", "poly", "--n", str(n), "--seed", str(seed), "--functions", POLY_FUNCTIONS],
            "repeat": n == POLY_SIZES[0],
        }
        for n in POLY_SIZES
    ]


def random_cell(rng: np.random.Generator) -> dict:
    """A 3-6 layer cell; every layer after the reference draws its ratios
    from the canonical five-ratio box."""
    n_layers = int(rng.integers(3, 7))
    layers = [{"h": 1.0, "rho": 1.0, "e": 1.0, "nu": float(rng.uniform(0.0, 0.463))}]
    for _ in range(n_layers - 1):
        layers.append(
            {
                "h": float(10.0 ** rng.uniform(math.log10(0.11), math.log10(9.0))),
                "rho": float(10.0 ** rng.uniform(0.0, 3.0)),
                "e": float(10.0 ** rng.uniform(1.0, 4.0)),
                "nu": float(rng.uniform(0.0, 0.463)),
            }
        )
    return {"layers": layers}


def cell_files(seed: int) -> list[str]:
    rng = np.random.default_rng(seed)
    return [json.dumps(random_cell(rng), indent=2) + "\n" for _ in range(CELLS_PER_PASS)]


def multilayer(seed: int, inputs: Path) -> list[dict]:
    inputs.mkdir(parents=True, exist_ok=True)
    spot = set(np.random.default_rng([seed, 1]).choice(CELLS_PER_PASS, SPOT_CELLS, replace=False).tolist())
    cmds = []
    for c, text in enumerate(cell_files(seed)):
        path = inputs / f"cell{c}.json"
        path.write_text(text)
        common = ["--cell", str(path), "--seed", str(seed)]
        cmds.append({"argv": ["bandgap", *common], "spot": int(c in spot), "repeat": c == 0})
        cmds.append({"argv": ["dispersion", *common], "repeat": c == 0})
    return cmds


WORKLOADS = {"study": study, "poly": poly, "multilayer": multilayer}


def input_digest(workload: str, seed: int) -> str:
    """Digest of what a pass generates from ``seed`` before the program
    runs: the cell files, or the Latin Hypercube sample the first command
    draws from its ``--seed``."""
    h = hashlib.sha256()
    if workload == "multilayer":
        for text in cell_files(seed):
            h.update(text.encode())
    else:
        from phonogap.sampling import lhs_sample

        n_dims, n = (5, STUDY_N) if workload == "study" else (3, POLY_SIZES[0])
        h.update(lhs_sample(n_dims, n, seed).original.tobytes())
    return h.hexdigest()
