"""Span tracing for one CLI job, from outside the program.

Run as ``python tracer.py SPANS_OUT JOB_ID <rodpade argv...>`` with the
package importable.  It wraps public functions of each layer, runs
``rodpade.cli.main`` exactly as ``python -m rodpade`` would, and writes the
spans to SPANS_OUT when the job ends; stdout is left to the program.

Several modules import layer functions by name (``from .weyl import
adjoint``), so every binding of a wrapped function in every loaded
``rodpade`` module is replaced, not only the defining one.  Moment timing
wraps the generator handed to ``MomentSeq(fn, label)`` in ``mpl`` and
``logpow``, so only cache misses are timed.
"""

from __future__ import annotations

import importlib
import json
import sys
from collections import Counter
from time import perf_counter

# (module, function, span name)
TARGETS = (
    ("rodpade.cli", "main", "cli.main"),
    ("rodpade.mpl", "build_Rn", "weyl.build"),
    ("rodpade.logpow", "build_Rn_log", "weyl.build"),
    ("rodpade.weyl", "adjoint", "weyl.adjoint"),
    ("rodpade.weyl", "op_apply", "weyl.apply"),
    ("rodpade.transform", "delta_det", "transform.delta"),
    ("rodpade.transform", "theta_det", "transform.theta"),
    ("rodpade.transform", "divided_difference_Q", "transform.q"),
    ("rodpade.transform", "verify_pade", "transform.verify"),
    ("rodpade.transform", "remainder_tail", "transform.remainder"),
    ("rodpade.mpl", "pade_table", "mpl.table"),
    ("rodpade.logpow", "logpow_table", "logpow.table"),
    ("rodpade.holonomic", "solve_V1", "holonomic.solve"),
    ("rodpade.criterion", "bounds_audit", "criterion.audit"),
    ("rodpade.criterion", "remainder_decay", "criterion.decay"),
    ("rodpade.criterion", "evaluate_criterion", "criterion.eval"),
)
MOMENT_MODULES = (("rodpade.mpl", "mpl.moments"), ("rodpade.logpow", "logpow.moments"))

# per-layer metric -> span name whose time it reports
TIME_METRICS = {
    "weyl.build_s": "weyl.build",
    "weyl.adjoint_s": "weyl.adjoint",
    "weyl.apply_s": "weyl.apply",
    "transform.delta_s": "transform.delta",
    "transform.theta_s": "transform.theta",
    "transform.q_s": "transform.q",
    "transform.verify_s": "transform.verify",
    "transform.remainder_s": "transform.remainder",
    "mpl.moments_s": "mpl.moments",
    "logpow.moments_s": "logpow.moments",
    "mpl.table_s": "mpl.table",
    "logpow.table_s": "logpow.table",
    "holonomic.solve_s": "holonomic.solve",
    "criterion.audit_s": "criterion.audit",
    "criterion.decay_s": "criterion.decay",
    "criterion.eval_s": "criterion.eval",
    "cli.main_s": "cli.main",
}
CALL_METRICS = {
    "weyl.adjoint_calls": "weyl.adjoint",
    "weyl.apply_calls": "weyl.apply",
    "mpl.table_builds": "mpl.table",
    "holonomic.solve_calls": "holonomic.solve",
}
SUM_METRICS = ("transform.delta_points", "moments.count", "criterion.audit_rows")
MAX_METRICS = ("weyl.max_degree", "moments.max_index")


class Recorder:
    """Spans of one job, kept in memory: [name, start, end, parent, outermost]."""

    def __init__(self, job_id: int):
        self.job_id = job_id
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.maxes: dict[str, int] = {}
        self._stack: list[int] = []
        self._active: Counter = Counter()

    def call(self, name, fn, *args, **kwargs):
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, not self._active[name]]
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        self._active[name] += 1
        span[1] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = perf_counter()
            self._active[name] -= 1
            self._stack.pop()

    def note_max(self, key: str, value) -> None:
        if value is not None and value > self.maxes.get(key, -1):
            self.maxes[key] = int(value)

    def to_json(self, missing: list[str]) -> dict:
        return {
            "job": self.job_id,
            "spans": self.spans,
            "counts": dict(self.counts),
            "maxes": self.maxes,
            "missing": missing,
        }


def _poly_degree(p) -> int | None:
    return len(p.coeffs) - 1 if p.coeffs else None


def _delta_points(table) -> int:
    """D + 1, with D the column-degree bound of the polynomial matrix."""
    bound = 0
    for col in zip(*table):
        degs = [len(p.coeffs) - 1 for p in col if p.coeffs]
        bound += max(degs, default=0)
    return bound + 1


def _sizes(rec: Recorder, name: str, args, result) -> None:
    """Counts and sizes recorded at the layer boundary, outside the span."""
    if name == "weyl.adjoint":
        rec.note_max("weyl.max_degree", max((_poly_degree(t) or 0 for t in result.terms), default=0))
    elif name == "weyl.apply":
        rec.note_max("weyl.max_degree", _poly_degree(result))
    elif name == "transform.delta":
        rec.counts["transform.delta_points"] += _delta_points(args[0])
    elif name == "criterion.audit":
        rec.counts["criterion.audit_rows"] += len(result.rows)


def _wrapper(rec: Recorder, name: str, fn):
    def traced(*args, **kwargs):
        result = rec.call(name, fn, *args, **kwargs)
        _sizes(rec, name, args, result)
        return result

    return traced


def _moment_seq_class(rec: Recorder, name: str, base):
    class TracedMomentSeq(base):
        def __init__(self, fn, label):
            def timed(k, prefix):
                rec.counts["moments.count"] += 1
                rec.note_max("moments.max_index", k)
                return rec.call(name, fn, k, prefix)

            super().__init__(timed, label)

    return TracedMomentSeq


def install(rec: Recorder) -> list[str]:
    """Wrap every binding of every target; returns the targets not found."""
    missing = []
    for module_name in sorted({t[0] for t in TARGETS} | {m for m, _ in MOMENT_MODULES}):
        try:
            importlib.import_module(module_name)
        except ImportError:
            missing.append(module_name)
    modules = [m for key, m in list(sys.modules.items()) if key.split(".")[0] == "rodpade" and m]
    for module_name, attr, name in TARGETS:
        original = getattr(sys.modules.get(module_name), attr, None)
        if original is None:
            missing.append(f"{module_name}.{attr}")
            continue
        wrapped = _wrapper(rec, name, original)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)
    for module_name, name in MOMENT_MODULES:
        module = sys.modules.get(module_name)
        if module is None or not hasattr(module, "MomentSeq"):
            missing.append(f"{module_name}.MomentSeq")
            continue
        module.MomentSeq = _moment_seq_class(rec, name, module.MomentSeq)
    return missing


def self_times(spans: list[list]) -> list[float]:
    """Span duration minus the time covered by its direct children."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def aggregate(docs: list[dict]) -> dict[str, float]:
    """Per-layer metrics over the traced jobs: times, calls and sums per job, maxima overall."""
    jobs = max(len(docs), 1)
    totals: Counter = Counter()
    calls: Counter = Counter()
    sums: Counter = Counter()
    maxes: dict[str, int] = {}
    cli_self = 0.0
    for doc in docs:
        spans = doc["spans"]
        own = self_times(spans)
        for (name, start, end, _, outermost), self_s in zip(spans, own):
            calls[name] += 1
            if outermost:
                totals[name] += end - start
            if name == "cli.main":
                cli_self += self_s
        sums.update(doc["counts"])
        for key, value in doc["maxes"].items():
            maxes[key] = max(maxes.get(key, 0), value)
    metrics = {key: totals[span] / jobs for key, span in TIME_METRICS.items()}
    metrics.update({key: calls[span] / jobs for key, span in CALL_METRICS.items()})
    metrics.update({key: sums[key] / jobs for key in SUM_METRICS})
    metrics.update({key: maxes.get(key, 0) for key in MAX_METRICS})
    metrics["cli.self_s"] = cli_self / jobs
    return metrics


def main(argv: list[str]) -> int:
    spans_out, job_id, cli_argv = argv[0], int(argv[1]), argv[2:]
    rec = Recorder(job_id)
    missing = install(rec)
    cli = sys.modules["rodpade.cli"]
    try:
        return cli.main(cli_argv)
    finally:
        sys.stdout.flush()
        with open(spans_out, "w", encoding="utf-8") as fh:
            json.dump(rec.to_json(missing), fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
