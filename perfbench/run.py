"""phonogap benchmark: one run of one workload.

    python3 perfbench/run.py --workload study --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  It times set-up in fresh interpreters,
then starts worker.py, which runs the workload's passes in a closed loop
through ``phonogap.cli.main``.  Between passes it checks the artifacts
(checks.py).  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Spans, digests and run metadata go to ``perfbench/out/``.  See README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 3  # before and after each worker
PROBE_EVERY_S = 5.0  # and one between passes at most this often
RUN_LIMIT_S = 170.0  # a run must end within 180 s

END_TO_END = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "frac"),
)


class WorkerError(RuntimeError):
    pass


class Worker:
    """A worker.py process; killed if it outlives the run's deadline."""

    def __init__(self, args: list[str], deadline: float):
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), *args],
            cwd=ROOT,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        self.timer = threading.Timer(max(deadline - time.monotonic(), 1.0), self.proc.kill)
        self.timer.start()
        try:
            self.read("ready")
        except BaseException:
            self.close()
            raise
        self.setup_s = time.perf_counter() - start

    def read(self, expect: str | None = None) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise WorkerError(f"worker ended early (exit code {self.proc.wait()})")
        msg = json.loads(line)
        if expect and expect not in msg:
            raise WorkerError(f"worker sent {sorted(msg)}, expected {expect}")
        return msg

    def ack(self) -> None:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.timer.cancel()
        self.proc.stdout.close()

    def __enter__(self) -> "Worker":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def measure(args: argparse.Namespace, seconds: float, traced: bool, out: Path, deadline: float) -> dict:
    """One worker's closed loop; checks every pass as it arrives.  Set-up
    probes run before, between passes and after, while the worker waits,
    so that their median spans the whole run."""
    import checks

    out.mkdir(parents=True, exist_ok=True)
    worker_args = [
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(seconds),
        "--trace", str(int(traced)), "--out", str(out),
    ]
    res = {"walls": [], "cpus": [], "bytes": [], "commands": [], "problems": []}
    setups = probe_setup(SETUP_PROBES, deadline)
    last_probe = time.monotonic()
    first_digests: dict[int, str] = {}
    with Worker(worker_args, deadline) as w:
        setups.append(w.setup_s)
        while True:
            msg = w.read()
            if "pass" in msg:
                res["walls"].append(msg["wall_s"])
                res["cpus"].append(msg["cpu_s"])
                pass_dir = out / f"pass{msg['pass']}"
                res["bytes"].append(checks.size(pass_dir) if pass_dir.exists() else 0)
                for i, rec in enumerate(msg["commands"]):
                    problems = checks.check_command(rec)
                    rec["digest"] = checks.digest(Path(rec["out"])) if Path(rec["out"]).exists() else None
                    rec["problems"] = problems
                    if msg["pass"] == 0:
                        first_digests[i] = rec["digest"]
                    res["commands"].append(rec)
                    for p in problems:
                        print(f"perfbench: pass {msg['pass']} {' '.join(rec['argv'])}: {p}", file=sys.stderr)
                shutil.rmtree(pass_dir, ignore_errors=True)
                if time.monotonic() - last_probe >= PROBE_EVERY_S:
                    setups += probe_setup(1, deadline)
                    last_probe = time.monotonic()
                w.ack()
            elif "repeat" in msg:
                for rec in msg["repeat"]:
                    i = int(Path(rec["out"]).name)
                    if rec["code"] != 0 or checks.digest(Path(rec["out"])) != first_digests[i]:
                        res["problems"].append(f"rerun of {' '.join(rec['argv'])} failed or is not byte-identical")
                shutil.rmtree(out / "repeat", ignore_errors=True)
                w.ack()
            else:
                res.update(msg)
                break
    res["setups"] = setups + probe_setup(SETUP_PROBES, deadline)
    return res


def probe_setup(count: int, deadline: float) -> list[float]:
    samples = []
    for _ in range(count):
        with Worker(["--probe"], deadline) as w:
            samples.append(w.setup_s)
    return samples


def seed_problems(workload: str, seed: int) -> list[str]:
    from workloads import input_digest, pass_seed

    first = input_digest(workload, pass_seed(seed, 0))
    problems = []
    if input_digest(workload, pass_seed(seed, 0)) != first:
        problems.append("the same seed generated different inputs")
    for other in (pass_seed(seed, 1), pass_seed(seed + 1, 0)):
        if input_digest(workload, other) == first:
            problems.append("a different seed generated the same inputs")
    return problems


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return done.stdout.strip() or None


def main() -> int:
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description="phonogap benchmark run")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    for needed in ("src/phonogap/cli.py", "tests/oracles.py"):
        if not (ROOT / needed).is_file():
            print(f"perfbench: {needed} not found under {ROOT}", file=sys.stderr)
            return 2
    if args.seconds <= 0 or args.seed < 0:
        print("perfbench: --seconds must be positive and --seed non-negative", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

    out = HERE / "out" / f"{args.workload}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    if args.trace:
        base = measure(args, args.seconds / 2, False, out / "untraced", deadline)
        traced = measure(args, args.seconds / 2, True, out / "traced", deadline)
        runs = [base, traced]
    else:
        base = measure(args, args.seconds, False, out, deadline)
        runs = [base]
    setups = [s for r in runs for s in r["setups"]]

    commands = [c for r in runs for c in r["commands"]]
    failed = sum(1 for c in commands if c["problems"])
    problems = [p for r in runs for p in r["problems"]] + seed_problems(args.workload, args.seed)
    for p in problems:
        print(f"perfbench: {p}", file=sys.stderr)

    if args.trace:
        from spans import PER_LAYER_METRICS

        layers = traced["per_layer"]
        for per_pass, written in zip(layers, traced["bytes"]):
            per_pass["cli.bytes_written"] = written
        # times are medians over passes; counts and their ratios repeat exactly, so pass 0's
        values = {
            name: statistics.median(p[name] for p in layers) if unit in ("s", "1/s") else layers[0][name]
            for name, unit in PER_LAYER_METRICS
            if name != "trace.overhead_frac"
        }
        values["trace.overhead_frac"] = statistics.median(traced["walls"]) / statistics.median(base["walls"]) - 1.0
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER_METRICS}
    else:
        values = {
            "wall_s": statistics.median(base["walls"]),
            "cpu_s": statistics.median(base["cpus"]),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": base["peak_rss_mb"],
            "ok_frac": (len(commands) - failed) / len(commands),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    meta = {
        "git_sha": git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": base["numpy"],
        "seed": args.seed,
        "argv": sys.argv,
        "passes": [len(r["walls"]) for r in runs],
        "pass_walls_s": [r["walls"] for r in runs],
        "setup_samples_s": setups,
        "failed_frac": failed / len(commands),
    }
    (out / "run.json").write_text(
        json.dumps({"meta": meta, "metrics": metrics, "problems": problems, "commands": commands}, indent=1) + "\n"
    )
    print("meta " + json.dumps(meta))
    print(
        json.dumps(
            {
                "correct": failed == 0 and not problems,
                "attempted": len(commands),
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except WorkerError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        sys.exit(1)
