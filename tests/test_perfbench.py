"""Smoke test of the traced benchmark: ``perfbench/spans.Tracer`` must
still find, and wrap, the phonogap names it rebinds."""
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from phonogap.crystal import Layer, UnitCell

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import json, sys
from spans import Tracer
import phonogap.cli

tracer = Tracer()
tracer.install()
main = tracer.timed("cli.main", phonogap.cli.main)
codes, counts = [], []
for argv in json.loads(sys.argv[1]):
    first = len(tracer.spans)
    codes.append(main(argv))
    metrics = tracer.pass_metrics(first)
    counts.append({k: metrics[k] for k in ("crystal.model_rows", "sobol.model_calls")})
print(json.dumps({"codes": codes, "counts": counts, "spans": sorted({s[0] for s in tracer.spans if s})}))
"""


def test_traced_commands_record_the_estimator_spans(tmp_path):
    cell = tmp_path / "cell.json"
    cell.write_text(
        UnitCell((Layer(0.3, 1.0, 1.0, 0.2), Layer(0.4, 3.0, 20.0, 0.3), Layer(0.3, 8.0, 300.0, 0.1))).to_json()
    )
    commands = [
        ["sobol", "--target", "poly", "--n", "100", "--functions", "x1;x2,x3", "--grid", "4", "--inner", "4"],
        ["design", "--mode", "truncation", "--n", "50"],
        ["design", "--mode", "error", "--n", "50"],
        ["bandgap", "--cell", str(cell)],
    ]
    commands = [[*argv, "--out", str(tmp_path / str(i))] for i, argv in enumerate(commands)]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "perfbench"), str(ROOT / "src")])}
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, json.dumps(commands)],
        check=True, capture_output=True, text=True, env=env,
    )
    report = json.loads(proc.stdout.splitlines()[-1])
    print(report["counts"])
    assert report["codes"] == [0, 0, 0, 0]
    assert {"sobol.function_1d", "sobol.function_2d", "cli.main"} <= set(report["spans"])
    # each design command solves the 50 rows once per polarization; the
    # error mode also calls the four surrogates, and each poly surface
    # fits in one call
    assert [c["crystal.model_rows"] for c in report["counts"]] == [0, 2 * 50, 2 * 50, 0]
    assert [c["sobol.model_calls"] for c in report["counts"]] == [3, 2, 2 + 4, 0]


def test_ci_runs_tier1_and_gates_each_benchmark_smoke_run():
    yaml = pytest.importorskip("yaml")
    steps = yaml.safe_load((ROOT / ".github" / "workflows" / "tests.yml").read_text())["jobs"]["tier1"]["steps"]
    verify = re.search(r"\*\*Tier-1 verify:\*\* `([^`]+)`", (ROOT / "ROADMAP.md").read_text()).group(1)
    assert [step["run"].strip() for step in steps if step.get("name") == "Tier-1 tests"] == [verify]
    runs = [step for step in steps if "perfbench/run.py" in step.get("run", "")]
    smoke = {re.search(r"--workload (\w+)", step["run"]).group(1): step for step in runs}
    assert sorted(smoke) == ["multilayer", "poly", "study"]
    for step in smoke.values():
        assert step["env"]["PYTHONWARNINGS"] == "error::RuntimeWarning"
        assert step["run"].rstrip().endswith("""grep -q '"correct": true'""")
