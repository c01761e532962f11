"""Full sensitivity study of the first band gap over the 5-ratio space.

For each objective (start/width x S/P wave) this runs the paired-sample
Monte Carlo estimators on the transfer-matrix solver and writes the
index tables plus the dominant Sobol'-function surfaces.

Run:
  python scripts/run_sensitivity_study.py --n 2000 --seed 20260808 --out results/study
"""
from __future__ import annotations

import argparse
import csv
import json
import time
from pathlib import Path

from phonogap.crystal import objective_model
from phonogap.sampling import canonical_space, lhs_sample
from phonogap.sobol import (
    estimate_sobol_function_1d,
    estimate_sobol_function_2d,
    result_to_json,
    sobol_indices,
)

# dominant components worth exporting per objective, by dimension name
FUNCTION_EXPORTS = {
    "SS": [("rho2/rho1",), ("h2/h1",), ("rho2/rho1", "h2/h1")],
    "WS": [("h2/h1",), ("E2/E1", "h2/h1"), ("rho2/rho1", "h2/h1")],
    "SP": [("rho2/rho1",), ("nu1",), ("rho2/rho1", "nu1")],
    "WP": [("h2/h1",), ("E2/E1", "h2/h1"), ("rho2/rho1", "h2/h1")],
}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=2000)
    ap.add_argument("--seed", type=int, default=20260808)
    ap.add_argument("--grid", type=int, default=48, help="nodes per Sobol'-function axis")
    ap.add_argument("--inner", type=int, default=96, help="inner samples per node")
    ap.add_argument("--skip-functions", action="store_true")
    ap.add_argument("--out", type=Path, default=Path("results/study"))
    args = ap.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)

    space = canonical_space()
    samples = lhs_sample(space.n_dims, args.n, args.seed)

    for kind in ("SS", "WS", "SP", "WP"):
        t0 = time.monotonic()
        model = objective_model(kind, space)
        result = sobol_indices(model, samples, dim_names=space.names)
        (args.out / f"sobol_{kind}.json").write_text(result_to_json(result))
        with open(args.out / f"sobol_{kind}.csv", "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(result.to_csv_rows())
        ranked = sorted(result.index_table(), key=lambda kv: -kv[1])[:3]
        print(
            f"{kind}: top indices "
            + ", ".join(f"{k}={v:.3f}" for k, v in ranked)
            + f"  ({time.monotonic() - t0:.1f}s)"
        )
        if args.skip_functions:
            continue
        for dims in FUNCTION_EXPORTS[kind]:
            axes = tuple(space.names.index(d) for d in dims)
            if len(axes) == 1:
                est = estimate_sobol_function_1d(
                    model, axes[0], args.grid, args.inner, seed=args.seed
                )
            else:
                est = estimate_sobol_function_2d(
                    model, axes[0], axes[1], args.grid, args.inner, seed=args.seed
                )
            tag = "-".join(d.replace("/", "_") for d in dims)
            with open(args.out / f"function_{kind}_{tag}.csv", "w", newline="") as fh:
                csv.writer(fh, lineterminator="\n").writerows(est.to_csv_rows())

    meta = {"n": args.n, "seed": args.seed, "space": json.loads(space.to_json())}
    (args.out / "study_meta.json").write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    print(f"study artifacts in {args.out}")


if __name__ == "__main__":
    main()
