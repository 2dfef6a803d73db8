"""Seeded inputs for the benchmark workloads.

Every workload is two streams of operations.  Stream 0 is the primary
operation and stream 1 the auxiliary one; the runner splits the measured time
between them by ``STREAM_WEIGHTS``.  The seed fixes every channel parameter,
random Kraus set, search seed and lambda grid.  The program under test only
ever sees the channel-description files written here and the CLI arguments
built here.

Each stream cycles through a pool of operations.  The cycles are built so
that calls which are certain to spend their whole search budget (depolarizing
channels on the provably annihilating side of a threshold) outnumber all the
others together.  The per-stream median call time then falls on those calls
whatever the seed decides for the random channels, which keeps the median
steady from seed to seed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

WORKLOADS = ("falsify-multiparty", "two-party", "sweep-thresholds")

# Fixed on every commit so that runs stay comparable.
HEURISTIC_RESTARTS = 4
FALSIFY_BUDGET = {2: 40, 3: 40, 4: 3}
SWEEP_STEP = 0.0025
SWEEP_ROWS = 41
POOL_CYCLES = 32
SWEEP_GRIDS = 6
# A traced run makes a fixed number of passes over each stream's cycle,
# scaled by --seconds / TRACE_SECONDS, so its counts repeat exactly for a
# seed and run length and its self times cover fixed work.
TRACE_SECONDS = 30
TRACE_CYCLES = {
    "falsify-multiparty": (8, 1),
    "two-party": (50, 1),
    "sweep-thresholds": (16, 800),
}

EB = 1.0 / 3.0
TWO_LEA = 1.0 / math.sqrt(3.0)

# Depolarizing parameter ranges.  "lo" is entanglement-breaking, "mid" sits
# between 1/3 and the k = 4 GHZ witness threshold (about 0.51), "near" is just
# below 1/sqrt(3), and "hi"/"above" are beyond 1/sqrt(3), where the embedded
# Bell-pair probe finds a counterexample at every k.
LAMBDA = {
    "lo": (0.05, 0.33),
    "mid": (0.36, 0.48),
    "near": (0.45, 0.57),
    "hi": (0.60, 0.95),
    "above": (0.585, 0.70),
}

# One entry per call of a cycle: ("dep", range name) or ("kraus", rank).
FALSIFY_CYCLES = {
    3: [("dep", "lo"), ("kraus", 3), ("dep", "mid"), ("dep", "lo"),
        ("kraus", 4), ("dep", "mid"), ("dep", "hi")],
    4: [("dep", "lo"), ("kraus", 3), ("dep", "mid"), ("dep", "lo"),
        ("kraus", 4), ("dep", "mid"), ("dep", "hi")],
    2: [("dep", "near"), ("kraus", 1), ("dep", "near"), ("kraus", 2),
        ("dep", "near"), ("kraus", 3), ("dep", "near"), ("kraus", 4),
        ("dep", "near"), ("dep", "above"), ("dep", "near")],
}
HEURISTIC_CYCLE = [("dep", "near"), ("dep", "near"), ("dep", "near"), ("kraus", None),
                   ("dep", "near"), ("dep", "near"), ("dep", "above"), ("dep", "near")]
# Share of the measured time each stream gets.  Heuristic calls take half a
# second or more, so they get the larger share, which gives their median
# enough calls; k = 3 and k = 4 split their workload evenly.
STREAM_WEIGHTS = {
    "falsify-multiparty": (1, 1),
    "two-party": (1, 2),
    "sweep-thresholds": (1, 1),
}


@dataclass(frozen=True)
class Op:
    """One timed operation: a CLI call or a library call."""

    kind: str  # "falsify", "heuristic", "sweep" or "thresholds"
    argv: tuple[str, ...] = ()
    spec: dict | None = None  # single-site channel description
    k: int = 0
    budget: int = 0
    seed: int = 0
    lo: float = 0.0
    rows: int = 0
    grid: int = -1  # sweeps of one grid must write identical bytes


class Stream:
    """An endless cycle over a pool of operations.

    Falsifier calls on a later pass over the pool get a fresh search seed, so
    no two calls of a run repeat the same search.
    """

    def __init__(self, label: str, pool: list[Op], cycle: int = 1, weight: int = 1,
                 reference: str = "interp"):
        self.label = label
        self.pool = pool
        self.cycle = cycle  # calls per pass over the composition pattern
        self.weight = weight  # share of the measured time, relative to the other stream
        self.reference = reference  # routine in bench/speed.py that times this stream
        self.issued = 0

    def next(self) -> Op:
        op = self.pool[self.issued % len(self.pool)]
        rerun = self.issued // len(self.pool)
        self.issued += 1
        if op.kind == "falsify" and rerun:
            seed = op.seed + rerun * 7919
            argv = op.argv[:-1] + (str(seed),)
            op = replace(op, seed=seed, argv=argv)
        return op


def random_kraus_spec(rng: np.random.Generator, rank: int) -> dict:
    """Qubit channel of the given Kraus rank from a Haar-random isometry."""
    g = rng.standard_normal((2 * rank, 2)) + 1j * rng.standard_normal((2 * rank, 2))
    q, _ = np.linalg.qr(g)
    ops = [q[2 * i : 2 * i + 2, :] for i in range(rank)]
    return {
        "kind": "kraus",
        "ops": [
            [[[float(x.real), float(x.imag)] for x in row] for row in k]
            for k in ops
        ],
    }


def depolarizing_spec(rng: np.random.Generator, band: str) -> dict:
    lo, hi = LAMBDA[band]
    return {"kind": "depolarizing", "lambda": float(rng.uniform(lo, hi)), "d": 2}


def _spec(rng, entry) -> dict:
    family, arg = entry
    if family == "dep":
        return depolarizing_spec(rng, arg)
    rank = int(rng.integers(1, 5)) if arg is None else arg
    return random_kraus_spec(rng, rank)


def _falsify_pool(rng, k: int, workdir: Path) -> list[Op]:
    budget = FALSIFY_BUDGET[k]
    pool = []
    for c in range(POOL_CYCLES):
        for j, entry in enumerate(FALSIFY_CYCLES[k]):
            spec = _spec(rng, entry)
            path = workdir / f"k{k}-{c:02d}-{j:02d}.json"
            path.write_text(json.dumps(spec), encoding="utf-8")
            seed = int(rng.integers(0, 2**31))
            argv = ("falsify", "--spec", str(path), "--k", str(k),
                    "--budget", str(budget), "--seed", str(seed))
            pool.append(Op("falsify", argv, spec, k=k, budget=budget, seed=seed))
    return pool


def _heuristic_pool(rng) -> list[Op]:
    pool = []
    for c in range(POOL_CYCLES):
        for entry in HEURISTIC_CYCLE:
            spec = _spec(rng, entry)
            pool.append(Op("heuristic", spec=spec, seed=int(rng.integers(0, 2**31))))
    return pool


def _sweep_pool(rng, workdir: Path) -> list[Op]:
    # Grids stay inside (0, 1): at lambda = 0 or 1 the depolarizing channel
    # has fewer Kraus operators, which would make rows cheaper.
    last_start = int(round(1.0 / SWEEP_STEP)) - SWEEP_ROWS
    pool = []
    for g in range(SWEEP_GRIDS):
        start = int(rng.integers(1, last_start))
        lo = start * SWEEP_STEP
        hi = (start + SWEEP_ROWS - 1) * SWEEP_STEP
        out = workdir / f"sweep-{g}.csv"
        argv = ("sweep", "--lo", repr(lo), "--hi", repr(hi),
                "--step", repr(SWEEP_STEP), "--out", str(out))
        pool.append(Op("sweep", argv, lo=lo, rows=SWEEP_ROWS, grid=g))
    return pool


def build(workload: str, seed: int, workdir: Path) -> tuple[Stream, Stream]:
    """The two streams of a workload, with their input files under ``workdir``."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    workdir.mkdir(parents=True, exist_ok=True)
    w0, w1 = STREAM_WEIGHTS[workload]
    if workload == "falsify-multiparty":
        return (Stream("falsify --k 3", _falsify_pool(rng, 3, workdir), len(FALSIFY_CYCLES[3]), w0),
                Stream("falsify --k 4", _falsify_pool(rng, 4, workdir), len(FALSIFY_CYCLES[4]), w1,
                       reference="kernel"))
    if workload == "two-party":
        return (Stream("falsify --k 2", _falsify_pool(rng, 2, workdir), len(FALSIFY_CYCLES[2]), w0),
                Stream("two_lea_verdict_heuristic", _heuristic_pool(rng), len(HEURISTIC_CYCLE),
                       w1))
    if workload == "sweep-thresholds":
        return (Stream("sweep", _sweep_pool(rng, workdir), weight=w0),
                Stream("thresholds", [Op("thresholds", ("thresholds",))], weight=w1))
    raise ValueError(f"unknown workload {workload!r}")
