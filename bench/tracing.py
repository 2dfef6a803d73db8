"""Spans around ealab's public functions, installed from outside the package.

Each wrapper replaces a function at the name its callers look it up by (for
example ``ealab.criteria.apply`` and ``ealab.cli.apply``), records a span
(name, start, end, parent span, task id) in memory and bumps the counters
measured at that boundary.  Self times and ratios are derived from the
spans afterwards.
"""

from __future__ import annotations

import functools
import json
import time
from array import array
from collections import Counter

EIG = "linalg.hermitian_eigenvalues"
PPT = "criteria.ppt_min_eigenvalue"

# Layers reported as "<name>.calls" and "<name>.self_ms".
TIMED = (
    "channels.apply",
    "channels.tensor_power",
    "channels.Channel",
    "linalg.kron",
    "states.haar_pure",
    "states.DensityOperator",
    "linalg.partial_transpose",
    EIG,
    PPT,
    "criteria.falsify",
    "criteria.heuristic",
    "cli.main",
)
CALLS_ONLY = ("criteria.bisect",)
COUNTERS = (
    ("channels.apply.kraus_ops", "count"),
    ("channels.apply.bytes_computed", "bytes"),
    ("channels.kraus_materialized", "count"),
    ("criteria.falsify.trials", "count"),
    ("criteria.falsify.hits", "count"),
    ("criteria.bisect.criterion_evals", "count"),
    ("cli.output_bytes", "bytes"),
)
DERIVED = (
    ("states.validation_eigensolves", "count"),
    ("linalg.eigensolve_useful_ratio", "ratio"),
    ("criteria.heuristic.objective_evals", "count"),
    ("trace.spans", "count"),
    ("trace.overhead_ms", "ms"),
    ("trace.overhead_pct", "%"),
)


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit."""
    units = {}
    for name in TIMED:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_ms"] = "ms"
    for name in CALLS_ONLY:
        units[f"{name}.calls"] = "count"
    units.update(COUNTERS)
    units.update(DERIVED)
    return units


class Tracer:
    def __init__(self):
        self.span_names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.task = array("q")
        self.counts: Counter = Counter()
        self.current_task = 0
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.span_names)
            self.span_names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, count=None):
        """``fn`` recording one span per call; ``count(counts, args, result)``."""
        sid = self._id(name)
        clock = time.perf_counter_ns
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.name)
            self.name.append(sid)
            self.parent.append(stack[-1])
            self.task.append(self.current_task)
            self.end.append(0)
            stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
            if count is not None:
                count(self.counts, args, result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, count=None, fn=None) -> None:
        orig = getattr(owner, attr)
        self._patched.append((owner, attr, orig))
        setattr(owner, attr, self.wrap(name, fn or orig, count))

    def restore(self) -> None:
        while self._patched:
            owner, attr, orig = self._patched.pop()
            setattr(owner, attr, orig)

    def install(self, ealab) -> None:
        """Wrap the layer boundaries of an imported ``ealab`` package."""
        cli, criteria, channels = ealab.cli, ealab.criteria, ealab.channels
        linalg, states = ealab.linalg, ealab.states

        def count_apply(c, args, result):
            e = args[0]
            n = len(e.kraus)
            c["channels.apply.kraus_ops"] += n
            c["channels.apply.bytes_computed"] += 16 * (
                2 * n * e.out_dim * e.in_dim + e.in_dim**2 + e.out_dim**2
            )

        def count_channel(c, args, result):
            c["channels.kraus_materialized"] += len(args[0].kraus)

        def count_falsify(c, args, report):
            c["criteria.falsify.trials"] += report.trials_used
            c["criteria.falsify.hits"] += int(report.found)

        orig_bisect = cli.bisect_threshold

        def bisect(criterion, *rest, **kwargs):
            def counted(x):
                self.counts["criteria.bisect.criterion_evals"] += 1
                return criterion(x)

            return orig_bisect(counted, *rest, **kwargs)

        self.patch(cli, "main", "cli.main")
        self.patch(cli, "k_lea_falsify", "criteria.falsify", count_falsify)
        self.patch(cli, "bisect_threshold", "criteria.bisect", fn=bisect)
        self.patch(criteria, "two_lea_verdict_heuristic", "criteria.heuristic")
        for mod in (criteria, cli):
            self.patch(mod, "apply", "channels.apply", count_apply)
            self.patch(mod, "tensor_power", "channels.tensor_power")
            self.patch(mod, "ppt_min_eigenvalue", PPT)
        self.patch(channels.Channel, "__post_init__", "channels.Channel", count_channel)
        self.patch(channels, "kron", "linalg.kron")
        self.patch(criteria, "haar_pure", "states.haar_pure")
        self.patch(states.DensityOperator, "__post_init__", "states.DensityOperator")
        self.patch(criteria, "partial_transpose", "linalg.partial_transpose")
        # linalg's own name is the one min_eigenvalue (state validation) uses.
        for mod in (linalg, criteria, channels):
            self.patch(mod, "hermitian_eigenvalues", EIG)

    def summarize(self) -> dict[str, float]:
        """Per-layer metrics derived from the spans and counters."""
        n = len(self.name)
        ids = self._ids
        child_ns = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child_ns[p] += self.end[i] - self.start[i]
        calls = Counter()
        self_ns = Counter()
        for i in range(n):
            sid = self.name[i]
            calls[sid] += 1
            self_ns[sid] += self.end[i] - self.start[i] - child_ns[i]

        def parent_is(i, name):
            p = self.parent[i]
            return p >= 0 and self.name[p] == ids.get(name)

        eig = ids.get(EIG)
        eig_spans = [i for i in range(n) if self.name[i] == eig]
        useful = sum(parent_is(i, PPT) for i in eig_spans)
        validation = sum(parent_is(i, "states.DensityOperator") for i in eig_spans)
        ppt = ids.get(PPT)
        objective = sum(
            1 for i in range(n) if self.name[i] == ppt and parent_is(i, "criteria.heuristic")
        )
        out: dict[str, float] = {}
        for name in TIMED:
            sid = ids.get(name, -1)
            out[f"{name}.calls"] = calls.get(sid, 0)
            out[f"{name}.self_ms"] = self_ns.get(sid, 0) / 1e6
        for name in CALLS_ONLY:
            out[f"{name}.calls"] = calls.get(ids.get(name, -1), 0)
        for name, _ in COUNTERS:
            out[name] = self.counts.get(name, 0)
        out["states.validation_eigensolves"] = validation
        out["linalg.eigensolve_useful_ratio"] = useful / len(eig_spans) if eig_spans else 0.0
        out["criteria.heuristic.objective_evals"] = objective
        out["trace.spans"] = n
        return out

    def write(self, path) -> None:
        """One JSON array per span: name, start ns, end ns, parent index, task."""
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(len(self.name)):
                fh.write(json.dumps([
                    self.span_names[self.name[i]], self.start[i], self.end[i],
                    self.parent[i], self.task[i],
                ]) + "\n")
