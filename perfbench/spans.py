"""Spans and counters for the traced run, recorded from outside phonogap.

``Tracer.install`` rebinds the public names that ``phonogap.cli``,
``phonogap.crystal`` and ``phonogap.sobol`` look up at call time, so that
each call into a layer opens a span.  Spans stay in memory as
``(name, start, end, parent, command)`` tuples and are written out once,
when the run ends.  Self times are derived from them afterwards: a span's
duration minus the union of its direct children's intervals.

Nesting is tracked per thread; the benchmark runs every command with the
default ``--threads 1``, so all spans of a command form one tree.
"""
from __future__ import annotations

import dataclasses
import functools
import threading
import time
from collections import Counter, defaultdict

# Spans whose self time is reported per layer.
ESTIMATOR_SPANS = ("sobol.sobol_indices", "sobol.function_1d", "sobol.function_2d")
DESIGN_SPANS = ("design.scaled_l2_error", "design.truncation_curve")
SAMPLING_SPANS = ("sampling.lhs_sample", "sampling.lhs_draw")

PER_LAYER_METRICS = (
    ("crystal.model_rows", "count"),
    ("crystal.model_busy_s", "s"),
    ("crystal.rows_per_s", "1/s"),
    ("crystal.unique_row_ratio", "ratio"),
    ("crystal.gap_calls", "count"),
    ("crystal.gap_busy_s", "s"),
    ("crystal.dispersion_busy_s", "s"),
    ("sobol.model_calls", "count"),
    ("sobol.rows_per_call", "rows/call"),
    ("sobol.self_s", "s"),
    ("sampling.calls", "count"),
    ("sampling.busy_s", "s"),
    ("design.self_s", "s"),
    ("design.surrogate_rows", "count"),
    ("cli.commands", "count"),
    ("cli.self_s", "s"),
    ("cli.bytes_written", "bytes"),
    ("trace.overhead_frac", "ratio"),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self.command: str | None = None
        self._local = threading.local()
        self._counts: Counter = Counter()
        self._unique_rows: set[tuple[str, bytes]] = set()

    # -- recording -----------------------------------------------------

    def timed(self, name: str, fn):
        """Wrap ``fn`` so that each call records one span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            parent = stack[-1] if stack else None
            index = len(self.spans)
            self.spans.append(None)  # reserve the slot children point at
            stack.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans[index] = (name, start, end, parent, self.command)

        return wrapper

    def _model_factory(self, factory, span: str | None, bandgap: bool):
        """Wrap a ``ModelFunction`` factory so every model it returns counts
        its calls and rows (and, for ``span``, records a span per call)."""

        @functools.wraps(factory)
        def make(*args, **kwargs):
            model = factory(*args, **kwargs)
            inner = self.timed(span, model.fn) if span else model.fn
            kind = args[0] if args else kwargs.get("kind", "")
            pol = str(getattr(kind, "value", kind))[-1:]

            def fn(u):
                out = inner(u)
                rows = len(u)
                self._counts["sobol.model_calls"] += 1
                self._counts["sobol.model_rows"] += rows
                if bandgap:
                    self._counts["crystal.model_rows"] += rows
                    self._unique_rows.update((pol, r.tobytes()) for r in u)
                return out

            return dataclasses.replace(model, fn=fn)

        return make

    def install(self) -> None:
        import phonogap.cli as cli
        import phonogap.crystal as crystal
        import phonogap.design as design
        import phonogap.sobol as sobol

        objective_model = self._model_factory(crystal.objective_model, "crystal.model", True)
        crystal.objective_model = objective_model  # design.truncation_curve imports it lazily
        cli.objective_model = objective_model
        cli.analytic_poly_model = self._model_factory(cli.analytic_poly_model, "sobol.poly_model", False)
        # Surrogate time stays inside the design spans: counted, not spanned.
        cli.design_model = self._model_factory(cli.design_model, None, False)

        cli.lhs_sample = self.timed("sampling.lhs_sample", cli.lhs_sample)
        if hasattr(sobol, "_lhs_matrix"):  # per-node draws of the Sobol'-function estimators
            sobol._lhs_matrix = self.timed("sampling.lhs_draw", sobol._lhs_matrix)
        cli.sobol_indices = self.timed("sobol.sobol_indices", cli.sobol_indices)
        cli.estimate_sobol_function_1d = self.timed("sobol.function_1d", cli.estimate_sobol_function_1d)
        cli.estimate_sobol_function_2d = self.timed("sobol.function_2d", cli.estimate_sobol_function_2d)
        cli.scaled_l2_error = self.timed("design.scaled_l2_error", cli.scaled_l2_error)
        cli.truncation_curve = self.timed("design.truncation_curve", cli.truncation_curve)
        # Only the CLI's own calls: general cells read from cell files.
        cli.first_band_gap = self.timed("crystal.first_band_gap", cli.first_band_gap)
        cli.dispersion_curve = self.timed("crystal.dispersion_curve", cli.dispersion_curve)

        evaluate = design.DesignEquation.evaluate

        @functools.wraps(evaluate)
        def counted_evaluate(eq, params, *args, **kwargs):
            out = evaluate(eq, params, *args, **kwargs)
            self._counts["design.surrogate_rows"] += len(out) if hasattr(out, "__len__") else 1
            return out

        design.DesignEquation.evaluate = counted_evaluate

    # -- reduction -----------------------------------------------------

    def pass_metrics(self, first_span: int) -> dict[str, float]:
        """Per-layer figures of the spans recorded since ``first_span``;
        resets the counters for the next pass."""
        indexed = list(enumerate(self.spans[first_span:], start=first_span))
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for _, (_, start, end, parent, _) in indexed:
            if parent is not None:
                children[parent].append((start, end))

        def of(names):
            return [(i, s) for i, s in indexed if s[0] in names]

        def busy(names) -> float:
            return sum(s[2] - s[1] for _, s in of(names))

        def count(names) -> int:
            return len(of(names))

        def self_time(names) -> float:
            return sum((s[2] - s[1]) - _covered(children[i]) for i, s in of(names))

        c = self._counts
        rows = c["crystal.model_rows"]
        model_busy = busy(("crystal.model",))
        metrics = {
            "crystal.model_rows": rows,
            "crystal.model_busy_s": model_busy,
            "crystal.rows_per_s": rows / model_busy if model_busy > 0 else 0.0,
            "crystal.unique_row_ratio": len(self._unique_rows) / rows if rows else 0.0,
            "crystal.gap_calls": count(("crystal.first_band_gap",)),
            "crystal.gap_busy_s": busy(("crystal.first_band_gap",)),
            "crystal.dispersion_busy_s": busy(("crystal.dispersion_curve",)),
            "sobol.model_calls": c["sobol.model_calls"],
            "sobol.rows_per_call": c["sobol.model_rows"] / c["sobol.model_calls"] if c["sobol.model_calls"] else 0.0,
            "sobol.self_s": self_time(ESTIMATOR_SPANS),
            "sampling.calls": count(SAMPLING_SPANS),
            "sampling.busy_s": busy(SAMPLING_SPANS),
            "design.self_s": self_time(DESIGN_SPANS),
            "design.surrogate_rows": c["design.surrogate_rows"],
            "cli.commands": count(("cli.main",)),
            "cli.self_s": self_time(("cli.main",)),
        }
        self._counts = Counter()
        self._unique_rows = set()
        return metrics

    def write(self, path, t0: float) -> None:
        """Spans as CSV, times in seconds from ``t0``."""
        with open(path, "w") as fh:
            fh.write("index,name,start,end,parent,command\n")
            for i, s in enumerate(self.spans):
                if s is None:
                    continue
                name, start, end, parent, command = s
                fh.write(
                    f"{i},{name},{start - t0:.9f},{end - t0:.9f},"
                    f"{'' if parent is None else parent},{command}\n"
                )


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total
