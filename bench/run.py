"""ealab benchmark: one workload, one process, one closed-loop client.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; ealab is imported from ``src/``.
With ``--trace 0`` the last line of stdout is a JSON result carrying the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics of a
traced run, whose spans are also written to ``.bench_work/``.  Lines before
it describe the environment and every metric by name with its unit.
See bench/README.md for the workloads and metric definitions.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before numpy is imported anywhere in this process
# or in the set-up probes it starts.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import io
import json
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import inputs
import oracles
from speed import NOMINAL_UNIT_S, SpeedProbe
from tracing import Tracer, metric_units

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_PROBES = 7
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0)
SETUP_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "import ealab, ealab.cli; print(repr(time.monotonic()))"
)
END_TO_END_UNITS = {
    "work_per_s": "1/s",
    "call_p50_ms": "ms",
    "aux_call_p50_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


@dataclass
class Record:
    stream: int
    op: inputs.Op
    seconds: float
    work: int
    problems: list[str]
    # Reference-speed seconds (see bench/speed.py); set by a measured run.
    norm: float = 0.0


def environment(numpy, scipy) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(l.split(":", 1)[1].strip() for l in fh if l.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def measure_setup() -> list[float]:
    """Seconds from interpreter start to ``import ealab.cli`` done, per probe.

    Wall time, not reference-speed time: a probe is mostly process start-up
    and reading modules, which the reference routines do not track.
    """
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        p = subprocess.run([sys.executable, "-c", SETUP_PROBE, str(SRC)],
                           capture_output=True, text=True, timeout=120, cwd=ROOT)
        if p.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {p.stderr.strip()}")
        times.append(float(p.stdout) - t0)
    return times


class Runner:
    """Executes operations through ealab's public surface and checks them."""

    def __init__(self, ealab, streams):
        self.ealab = ealab
        self.streams = streams
        self.sweeps = oracles.SweepChecker()
        self.tracer: Tracer | None = None
        self.speed: SpeedProbe | None = None
        # Heuristic calls take a Channel; build them before anything is timed.
        self.channels = {
            id(op.spec): ealab.channel_from_spec(op.spec)
            for s in streams for op in s.pool if op.kind == "heuristic"
        }

    def _cli(self, op):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            t0 = time.perf_counter()
            code = self.ealab.cli.main(list(op.argv))
            dt = time.perf_counter() - t0
        return dt, code, out.getvalue(), err.getvalue()

    def execute(self, stream: int, op, task: int) -> Record:
        if self.tracer is not None:
            self.tracer.current_task = task
        try:
            return self._execute(stream, op)
        except Exception:  # an operation that raises counts as failed
            return Record(stream, op, 0.0, 0, [traceback.format_exc()])

    def _execute(self, stream: int, op) -> Record:
        if op.kind == "heuristic":
            channel = self.channels[id(op.spec)]
            t0 = time.perf_counter()
            verdict = self.ealab.criteria.two_lea_verdict_heuristic(
                channel, restarts=inputs.HEURISTIC_RESTARTS, seed=op.seed)
            dt = time.perf_counter() - t0
            return Record(stream, op, dt, 0, oracles.check_heuristic(op, verdict))
        dt, code, out, err = self._cli(op)
        problems = [f"stderr: {err.strip()}"] if err else []
        work, csv = 0, b""
        if op.kind == "falsify":
            issues, work = oracles.check_falsify(op, code, out)
            problems += issues
        elif op.kind == "sweep":
            csv = Path(op.argv[-1]).read_bytes()
            problems += self.sweeps.check(op, code, out, csv)
            work = op.rows
        else:
            problems += oracles.check_thresholds(code, out)
        if self.tracer is not None:
            self.tracer.counts["cli.output_bytes"] += len(out.encode()) + len(csv)
        return Record(stream, op, dt, work, problems)

    def measure(self, seconds: float = 0.0, quota: tuple[int, int] | None = None):
        """Closed loop over the two streams.

        Runs until ``seconds`` pass and each stream ran at least once, or,
        given a ``quota``, until each stream made exactly its quota of calls.
        The next call goes to the stream with calls left that has used less
        time so far for its weight, so the streams split the run by their
        weights whatever their speed.
        With a speed probe set, every call is followed by its stream's
        reference routine, and the call's reference-speed time is its wall
        time scaled by the speed measured just before and just after it.
        """
        used = [0.0, 0.0]
        calls = [0, 0]
        records = []
        last = ("", 0.0)  # reference routine and per-unit time of the latest probe
        t_end = time.perf_counter() + seconds

        def open_streams():
            if quota is not None:
                return [s for s in (0, 1) if calls[s] < quota[s]]
            if time.perf_counter() < t_end:
                return [0, 1]
            return [s for s in (0, 1) if not calls[s]]

        while live := open_streams():
            s = min(live, key=lambda s: used[s] / self.streams[s].weight)
            kind = self.streams[s].reference
            if self.speed and last[0] != kind:
                typical = used[s] / calls[s] if calls[s] else 0.1
                last = (kind, self.speed.measure(kind, typical))
            rec = self.execute(s, self.streams[s].next(), len(records))
            if self.speed:
                after = self.speed.measure(kind, rec.seconds)
                rec.norm = rec.seconds * NOMINAL_UNIT_S[kind] / ((last[1] + after) / 2)
                last = (kind, after)
            used[s] += rec.seconds
            calls[s] += 1
            records.append(rec)
        return records

    def replay(self, records: list[Record]) -> list[Record]:
        return [self.execute(r.stream, r.op, i) for i, r in enumerate(records)]


def tail(values: list[float]) -> tuple[float, float] | None:
    """Highest ladder percentile with at least ten samples beyond it."""
    n = len(values)
    for p in TAIL_LADDER:
        if n * (1 - p / 100) >= 10:
            return p, float(statistics.quantiles(values, n=1000)[int(p * 10) - 1])
    return None


def describe_stream(label: str, recs: list[Record]) -> str:
    ms = [r.norm * 1e3 for r in recs]
    wall = [r.seconds * 1e3 for r in recs]
    line = f"stream {label!r}: calls={len(ms)} p50={statistics.median(ms):.4f} ms"
    t = tail(ms)
    if t:
        line += f" p{t[0]:g}={t[1]:.4f} ms"
    else:
        line += " (fewer than 100 calls: no tail percentile)"
    return line + (f" at reference speed; wall p50={statistics.median(wall):.4f} ms"
                   f" total={sum(wall) / 1e3:.3f} s")


def cycle_rate(records: list[Record], cycle: int) -> float:
    """Median over complete passes of a stream's cycle of work per second.

    Every pass has the same composition, so the median over passes is
    robust to bursts of machine noise that a total-over-total rate absorbs.
    """
    passes = [records[i : i + cycle] for i in range(0, len(records) - cycle + 1, cycle)]
    return statistics.median(
        sum(r.work for r in p) / sum(r.norm for r in p) for p in passes or [records]
    )


ALIASES = {
    "falsify-multiparty": ("falsify_trials_per_s[k=3]", "falsify_call_p50_ms[k=3, full budget]",
                           "falsify_call_p50_ms[k=4, full budget]"),
    "two-party": ("falsify_trials_per_s[k=2]", "falsify_call_p50_ms[k=2, full budget]",
                  "heuristic_call_p50_ms"),
    "sweep-thresholds": ("sweep_rows_per_s", "sweep_call_p50_ms", "thresholds_call_p50_ms"),
}


def full_budget(r: Record) -> bool:
    """A falsify call on a depolarizing channel that found nothing.

    Its work is fixed by k and the budget: probes plus budget trials, each on
    5^k Kraus operators.
    """
    return (r.op.kind == "falsify" and r.op.spec["kind"] == "depolarizing"
            and r.work == 2 ** (r.op.k - 1) + 1 + r.op.budget)


def call_p50_ms(recs: list[Record]) -> float:
    """Median call time; over a falsify stream's full-budget calls only.

    A falsify stream's other calls stop at a seed-dependent point, and all of
    them are shorter, so over all calls the median would be a low order
    statistic of the full-budget calls, which varies from seed to seed.
    """
    fixed = [r for r in recs if full_budget(r)]
    return statistics.median(r.norm for r in fixed or recs) * 1e3


def end_to_end(workload, streams, records, setup) -> tuple[dict, list[str]]:
    per_stream = [[r for r in records if r.stream == s] for s in (0, 1)]
    failed = sum(bool(r.problems) for r in records)
    values = {
        "work_per_s": cycle_rate(per_stream[0], streams[0].cycle),
        "call_p50_ms": call_p50_ms(per_stream[0]),
        "aux_call_p50_ms": call_p50_ms(per_stream[1]),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    lines = [describe_stream(st.label, recs) for st, recs in zip(streams, per_stream)]
    for (name, value), alias in zip(values.items(), ALIASES[workload] + ("", "")):
        alias = f" ({alias})" if alias else ""
        lines.append(f"metric {name} = {value:.6g} {END_TO_END_UNITS[name]}{alias}")
    falsify = [r for r in records if r.op.kind == "falsify"]
    if falsify:
        trials = sum(r.work for r in falsify)
        ms = [r.norm * 1e3 for r in falsify]
        lines.append(f"metric falsify_trials_per_s = {trials / sum(ms) * 1e3:.6g} 1/s"
                     f" (all {len(ms)} falsify calls: {trials} trials in {sum(ms) / 1e3:.3f} s)")
        lines.append(f"metric falsify_call_p50_ms = {statistics.median(ms):.6g} ms"
                     f" (all {len(ms)} falsify calls)")
        if len(ms) >= 100:
            p90 = statistics.quantiles(ms, n=10)[8]
            lines.append(f"metric falsify_call_p90_ms = {p90:.6g} ms")
        for k in sorted({r.op.k for r in falsify}):
            full = [r.norm * 1e3 / r.work for r in falsify if r.op.k == k and full_budget(r)]
            if full:
                lines.append(f"falsify_trial_ms[k={k}] = {statistics.median(full):.6g} ms"
                             f" (median over {len(full)} full-budget depolarizing calls)")
    lines.append(f"metric failed_ratio = {failed / len(records):.6g} 1"
                 f" ({failed} of {len(records)})")
    lines.append("setup probes (s): " + " ".join(f"{s:.4f}" for s in setup))
    return values, lines


def per_layer(tracer, traced, untraced) -> tuple[dict, list[str]]:
    values = tracer.summarize()
    traced_s = sum(r.seconds for r in traced)
    untraced_s = sum(r.seconds for r in untraced)
    values["trace.overhead_ms"] = (traced_s - untraced_s) * 1e3
    values["trace.overhead_pct"] = 100 * (traced_s - untraced_s) / untraced_s
    units = metric_units()
    lines = [f"metric {k} = {v:.6g} {units[k]}" for k, v in values.items()]
    total = values["linalg.hermitian_eigenvalues.calls"]
    useful = round(values["linalg.eigensolve_useful_ratio"] * total)
    lines.append(f"eigensolves: {useful} feeding a verdict, "
                 f"{values['states.validation_eigensolves']} validating, {total} in all")
    lines.append(f"traced {len(traced)} calls in {traced_s:.3f} s, "
                 f"same calls untraced in {untraced_s:.3f} s")
    return values, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ealab" / "__init__.py").is_file():
        print(f"error: no ealab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy
    import scipy
    import ealab
    import ealab.cli

    if Path(ealab.__file__).resolve().parent != SRC / "ealab":
        print(f"error: imported ealab from {ealab.__file__}", file=sys.stderr)
        return 2

    workdir = WORK / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    # Unwind on SIGTERM too, so a running set-up probe is killed and reaped
    # and the input directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        streams = inputs.build(args.workload, args.seed, workdir)
        runner = Runner(ealab, streams)
        print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
              f"trace {args.trace}")
        print("env " + json.dumps(environment(numpy, scipy), sort_keys=True))
        if args.trace:
            runner.tracer = tracer = Tracer()
            tracer.install(ealab)
            try:
                scale = args.seconds / inputs.TRACE_SECONDS
                records = runner.measure(quota=tuple(
                    max(1, round(n * scale)) * st.cycle
                    for n, st in zip(inputs.TRACE_CYCLES[args.workload], streams)))
            finally:
                tracer.restore()
                runner.tracer = None
            replayed = runner.replay(records)
            values, lines = per_layer(tracer, records, replayed)
            tracer.write(WORK / f"spans-{args.workload}.jsonl")
            records += replayed
            units = metric_units()
        else:
            runner.speed = SpeedProbe()
            runner.speed.warm_up()
            setup = measure_setup()
            records = runner.measure(args.seconds)
            values, lines = end_to_end(args.workload, streams, records, setup)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = [r for r in records if r.problems]
    for r in failed[:10]:
        print(f"FAILED {r.op.kind} {' '.join(r.op.argv)}: {'; '.join(r.problems)}",
              file=sys.stderr)
    for line in lines:
        print(line)
    print(json.dumps({
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
