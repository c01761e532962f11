"""One measured process: set up phonogap, then run a workload's passes in
a closed loop, each command through ``phonogap.cli.main(argv)`` in-process.

Started by run.py in a fresh interpreter.  It talks to run.py through one
JSON object per line on stdout:

* ``{"ready": ...}`` once phonogap is imported and its lazy caches are
  loaded (the end of set-up);
* ``{"pass": k, ...}`` after each timed pass, then it waits for one line
  on stdin (run.py checks the pass's artifacts meanwhile);
* ``{"repeat": ...}`` after rerunning the ``repeat`` commands of pass 0;
* ``{"done": ...}`` with peak RSS and, when traced, per-layer figures.

A pass starts only if the previous pass's duration still fits into
``--seconds``; at least one pass always runs.  Checks and the repeat run
happen outside the timed region.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def emit(payload: dict) -> None:
    sys.__stdout__.write(json.dumps(payload) + "\n")
    sys.__stdout__.flush()


def run_command(main, argv: list[str], out: Path) -> dict:
    """One CLI call; an uncaught exception is a failed command, not a crash."""
    record: dict = {"argv": argv, "out": str(out), "code": None, "error": None}
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            record["code"] = main([*argv, "--out", str(out)])
    except SystemExit as exc:  # argparse rejects a command with exit code 2
        record["code"] = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:
        record["error"] = f"{type(exc).__name__}: {exc}"
        traceback.print_exc(file=sys.stderr)
    return record


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--probe", action="store_true", help="exit once set up")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import phonogap
    import phonogap.cli
    from phonogap.design import load_design_equations

    load_design_equations()
    if not Path(phonogap.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"phonogap imported from {phonogap.__file__}, not from {ROOT / 'src'}")
    emit({"ready": True})
    if args.probe:
        return 0

    import numpy as np

    from workloads import WORKLOADS, pass_seed

    make_commands = WORKLOADS[args.workload]
    tracer = None
    cli_main = phonogap.cli.main
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
        cli_main = tracer.timed("cli.main", cli_main)
    t0 = time.perf_counter()

    per_layer = []
    first_commands = None
    measured = 0.0
    k = 0
    while True:
        seed = pass_seed(args.seed, k)
        commands = make_commands(seed, args.out / "inputs" / f"pass{k}")
        pass_dir = args.out / f"pass{k}"
        first_span = len(tracer.spans) if tracer else 0
        records = []
        cpu0 = time.process_time()
        start = time.perf_counter()
        for i, cmd in enumerate(commands):
            if tracer:
                tracer.command = f"{k}.{i}"
            records.append(run_command(cli_main, cmd["argv"], pass_dir / str(i)))
        wall = time.perf_counter() - start
        cpu = time.process_time() - cpu0
        if tracer:
            per_layer.append(tracer.pass_metrics(first_span))
        for cmd, rec in zip(commands, records):
            rec["spot"] = cmd.get("spot", 0)
        emit({"pass": k, "seed": seed, "wall_s": wall, "cpu_s": cpu, "commands": records})
        if first_commands is None:
            first_commands = commands
        sys.stdin.readline()
        measured += wall
        k += 1
        if measured + wall > args.seconds:
            break
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    if tracer:
        tracer.command = None
        tracer.write(args.out / "spans.csv", t0)
    repeats = [
        run_command(phonogap.cli.main, cmd["argv"], args.out / "repeat" / str(i))
        for i, cmd in enumerate(first_commands)
        if cmd.get("repeat")
    ]
    emit({"repeat": repeats})
    sys.stdin.readline()
    emit(
        {
            "done": True,
            "peak_rss_mb": maxrss_kb / 1024.0,
            "numpy": np.__version__,
            "per_layer": per_layer,
        }
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
