"""Error analysis of the reduced-order design equations.

Computes the scaled L2 error of each design equation against the
transfer-matrix solver and the truncation curve (error vs number of
fitted terms included), on a fresh seeded sample.

Run:
  python scripts/validate_design_equations.py --n 2000 --seed 20260808 --out results/design
"""
from __future__ import annotations

import argparse
import csv
import json
from pathlib import Path

from phonogap.design import KINDS, design_model, scaled_l2_error, truncation_curve
from phonogap.crystal import objective_model
from phonogap.sampling import lhs_sample


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=2000)
    ap.add_argument("--seed", type=int, default=20260808)
    ap.add_argument("--out", type=Path, default=Path("results/design"))
    args = ap.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)

    samples = lhs_sample(5, args.n, args.seed)
    report = {"n_samples": args.n, "seed": args.seed, "delta": {}, "delta_by_k": {}}
    for kind in KINDS:
        delta = scaled_l2_error(objective_model(kind), design_model(kind), samples)
        curve = truncation_curve(kind, samples)
        report["delta"][kind] = delta
        report["delta_by_k"][kind] = list(curve.deltas)
        print(f"{kind}: delta={delta:.4f}  curve=" + " ".join(f"{d:.3f}" for d in curve.deltas))

    (args.out / "design_validation.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n"
    )
    with open(args.out / "truncation_curves.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["kind", "k", "delta"])
        for kind in KINDS:
            for k, d in enumerate(report["delta_by_k"][kind]):
                writer.writerow([kind, str(k), format(d, ".17g")])
    print(f"design validation artifacts in {args.out}")


if __name__ == "__main__":
    main()
