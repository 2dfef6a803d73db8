"""Tiny-size check of the benchmark itself.

    python3 bench/selfcheck.py

Runs every workload for one second with tracing off and on, and requires
each run to pass all output checks and to report exactly the metrics, with
the units, that BENCHMARK.json lists.  Then copies only BENCHMARK.json and
bench/ into a scratch directory and requires the benchmark to fail there
without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "bench/run.py", "--workload", workload,
           "--seed", "0", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            p = run(ROOT, workload, trace)
            tag = f"{workload} --trace {trace}"
            before = len(problems)
            if p.returncode != 0:
                problems.append(f"{tag}: exit {p.returncode}: {p.stderr.strip()}")
                continue
            result = json.loads(p.stdout.splitlines()[-1])
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{tag}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{tag}: checks failed: {p.stderr.strip()}")
            if got != wanted[trace]:
                problems.append(f"{tag}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(got) ^ set(wanted[trace]))}")
            print(f"ok {tag}: {result['attempted']} operations"
                  if len(problems) == before else f"FAIL {tag}")

    bare = ROOT / ".bench_work" / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "bench", bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        p = run(bare, spec["workloads"][0]["name"], 0)
        if p.returncode == 0 or p.stdout.strip().endswith("}"):
            problems.append("benchmark did not fail without the ealab sources")
        else:
            print(f"ok bare directory: exit {p.returncode}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for line in problems:
        print(line, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
