"""Mutation gate: every mutant in the table must be killed by its tests.

Each mutant is an exact text substitution in one file under ``src/ealab``,
listed with the tests that must kill it (test files, or pytest node ids
where a file holds a slow test the mutant does not need).  The gate copies
``src/``, ``tests/`` and ``pyproject.toml`` into a temporary directory, runs
the listed tests once unmutated, then applies each mutant in turn and runs
its tests with ``pytest -x``.  The gate fails, and prints the mutant's diff,
when a pattern does not occur exactly once (the table has rotted) or when a
mutant's tests all pass (a test is missing).  Never make a mutant die by
editing a test's assertion: a survivor means a test to add.  List tests that
kill a mutant on every run: a hypothesis search draws new examples each time,
so it may find a mutant once and miss it the next time.

Usage, from the repository root::

    python3 tools/mutants.py

Exit status 0 when every mutant is killed, 1 otherwise.  The file
name keeps it out of pytest collection: it is not a tier-1 test.
"""

from __future__ import annotations

import difflib
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to the repository root
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = (
    Mutant(
        "screen-margin-sign",
        "src/ealab/linalg.py",
        "else ~_screen_above(a, above + CHOLESKY_MARGIN)",
        "else ~_screen_above(a, above - CHOLESKY_MARGIN)",
        (
            "tests/test_screen.py::TestScreenIsExact::"
            "test_every_skipped_cut_lies_above_the_running_minimum",
            "tests/test_screen.py::TestPositivityScreen",
        ),
    ),
    Mutant(
        "cut-tie-rule-dropped",
        "src/ealab/criteria.py",
        "if _entangled(low, tol) and low <= worst[h] + CUT_TIE_ATOL",
        "if _entangled(low, tol)",
        (
            "tests/test_product_engine.py::TestBatchedFalsifier::"
            "test_the_lowest_cut_is_named_not_the_first_negative_one",
        ),
    ),
    Mutant(
        "eb-min-eig-one-minus-three-lambda",
        "src/ealab/criteria.py",
        "return ((1.0 - 2.0 * lam) - lam) / 4.0",
        "return (1.0 - 3.0 * lam) / 4.0",
        ("tests/test_criteria.py::TestEbMinEig",),
    ),
    Mutant(
        "seesaw-second-partial-transpose-dropped",
        "src/ealab/criteria.py",
        "flip = partial_transpose(_projectors(vecs[falls, :, 0]), dims, (1,))",
        "flip = _projectors(vecs[falls, :, 0])",
        ("tests/test_criteria.py::TestSeesaw",),
    ),
    Mutant(
        "projectors-without-conj",
        "src/ealab/linalg.py",
        "amps[..., :, None] * amps.conj()[..., None, :]",
        "amps[..., :, None] * amps[..., None, :]",
        ("tests/test_states.py",),
    ),
    Mutant(
        "as-stack-accepts-non-square",
        "src/ealab/linalg.py",
        "if a.ndim < 2 or a.shape[-1] != a.shape[-2] or a.shape[-1] < 1:",
        "if a.ndim < 2 or a.shape[-1] < 1:",
        ("tests/test_linalg.py",),
    ),
    Mutant(
        "ppt-min-eigenvalue-unvalidated-partition",
        "src/ealab/criteria.py",
        "    part.validate_for(len(rho.dims))\n"
        "    return float(_lowest_eigenvalues(",
        "    return float(_lowest_eigenvalues(",
        ("tests/test_criteria.py::TestPartition",),
    ),
    Mutant(
        "ppt-status-unsorted-blocks",
        "src/ealab/criteria.py",
        "if tuple(sorted(blocks)) in _PPT_EXACT_BLOCKS:",
        "if tuple(blocks) in _PPT_EXACT_BLOCKS:",
        ("tests/test_criteria.py::TestPptVerdict",),
    ),
    Mutant(
        "sweep-ghz-blocks-two-by-two",
        "src/ealab/cli.py",
        "(mu3, (2, 4))",
        "(mu3, (2, 2))",
        ("tests/test_cli.py::TestGoldenOutputs::test_sweep",),
    ),
    Mutant(
        "sweep-cube-through-numpy-power",
        "src/ealab/cli.py",
        "np.array([lam**3 for lam in lams], dtype=float)",
        "x**3",
        ("tests/test_cli.py::TestGoldenOutputs::test_full_resolution_sweep",),
    ),
    Mutant(
        "qubit-count-unbounded",
        "src/ealab/states.py",
        "    _composite_dim(2 for _ in range(n))\n    return n\n",
        "    return n\n",
        # never the huge counts: unbounded, they would not return
        ("tests/test_states.py::test_ten_qubits_are_the_bound",),
    ),
    Mutant(
        "embedded-max-entangled-unchecked-dims",
        "src/ealab/criteria.py",
        "    ds = _factor_dims(dims)\n    part.validate_for(len(ds))",
        "    ds = tuple(dims)\n    part.validate_for(len(ds))",
        (
            "tests/test_falsify.py::TestFalsifier::test_unfit_channel_or_system_is_named",
            "tests/test_states.py::test_range_and_index_messages",
        ),
    ),
    Mutant(
        "apply-sites-superoperator-without-conj",
        "src/ealab/channels.py",
        "(flat.T @ flat.conj())",
        "(flat.T @ flat)",
        ("tests/test_product_engine.py::TestSiteContraction",),
    ),
    Mutant(
        "seesaw-adjoint-is-k",
        "src/ealab/criteria.py",
        "np.linalg.eigh(_apply_sites(_adjoint(single.kraus), flip, 2))",
        "np.linalg.eigh(_apply_sites(single.kraus, flip, 2))",
        ("tests/test_criteria.py::TestSeesaw::test_best_input_is_a_fixed_point",),
    ),
    Mutant(
        "falsify-ignores-failed-density-check",
        "src/ealab/criteria.py",
        "failure = _first_invalid_density(out)",
        "failure = None",
        (
            "tests/test_product_engine.py::TestBatchedFalsifier::"
            "test_batch_failures_after_the_first_hit_do_not_raise",
        ),
    ),
    Mutant(
        "haar-norm-without-imaginary-part",
        "src/ealab/states.py",
        "norm = np.sqrt(re @ re.swapaxes(1, 2) + im @ im.swapaxes(1, 2))",
        "norm = np.sqrt(re @ re.swapaxes(1, 2))",
        ("tests/test_states.py::TestHaar",),
    ),
    Mutant(
        "bell-row-over-sqrt-first-block",
        "src/ealab/states.py",
        "1.0 / math.sqrt(m)",
        "1.0 / math.sqrt(d_a)",
        ("tests/test_falsify.py::TestProbeRows::test_each_row_has_unit_norm",),
    ),
    Mutant(
        "haar-stream-fresh-per-run",
        "src/ealab/criteria.py",
        "            if rng is None:",
        "            if True:",
        (
            "tests/test_product_engine.py::TestHaarStream::test_haar_j_is_row_j_of_one_draw",
            "tests/test_product_engine.py::TestOutputRuns::test_two_runs_per_search_at_small_k",
        ),
    ),
    Mutant(
        "counterexample-from-previous-row",
        "src/ealab/criteria.py",
        "state = PureState(amps[t - start], dims)",
        "state = PureState(amps[t - start - 1], dims)",
        ("tests/test_product_engine.py::TestHaarStream::test_haar_j_is_row_j_of_one_draw",),
    ),
    Mutant(
        "block-dims-unchecked-factors",
        "src/ealab/criteria.py",
        "        ds = _factor_dims(dims)\n        if max(self.first",
        "        ds = tuple(dims)\n        if max(self.first",
        ("tests/test_criteria.py::TestPartition",),
    ),
    Mutant(
        "json-matrix-leaf-check-dropped",
        "src/ealab/channels.py",
        "                for x in pair:\n                    _json_real(x)\n",
        "                for x in ():\n                    _json_real(x)\n",
        ("tests/test_channels.py::TestJsonSpecs",),
    ),
    Mutant(
        "json-prepare-dims-falsy-read-as-absent",
        "src/ealab/channels.py",
        "if value is not None and not isinstance(value, list):",
        "if value and not isinstance(value, list):",
        ("tests/test_channels.py::TestJsonSpecs",),
    ),
    Mutant(
        "max-entangled-unbounded",
        "src/ealab/states.py",
        "if 16 * d * d > _STACK_BYTES:",
        "if False:",
        ("tests/test_states.py::TestMaxEntangled",),
    ),
    Mutant(
        "max-entangled-projector-unbounded",
        "src/ealab/states.py",
        "if 16 * d**4 > TENSOR_POWER_MAX_BYTES:",
        "if False:",
        # never the real bound: unbounded, d = 65 would allocate gigabytes
        ("tests/test_states.py::TestWerner::test_bound_is_exact",),
    ),
    Mutant(
        "json-list-accepts-any-iterable",
        "src/ealab/channels.py",
        "    if not isinstance(value, list):\n        raise TypeError(f\"expected a list, got",
        "    if not hasattr(value, \"__iter__\"):\n        raise TypeError(f\"expected a list, got",
        ("tests/test_channels.py::TestJsonSpecs",),
    ),
    Mutant(
        "falsify-run-failure-raised-before-screening",
        "src/ealab/criteria.py",
        "        failure = _first_invalid_density(out)\n",
        "        failure = _first_invalid_density(out)\n"
        "        if failure is not None:\n"
        "            raise ValueError(f\"trial {start + failure[0]}: {failure[1]}\")\n",
        (
            "tests/test_product_engine.py::TestOutputRuns::"
            "test_a_hit_beats_a_failed_check_later_in_its_run",
        ),
    ),
    Mutant(
        "density-trace-check-dropped",
        "src/ealab/states.py",
        "ok = np.maximum(defect, np.abs(trace - 1.0)) <= MATRIX_ATOL",
        "ok = defect <= MATRIX_ATOL",
        ("tests/test_states.py::TestInvariants",),
    ),
    Mutant(
        "cmd-falsify-exit-0-on-counterexample",
        "src/ealab/cli.py",
        "return 1 if report.found else 0",
        "return 0",
        ("tests/test_cli.py::TestFalsify::test_counterexample_exits_1",),
    ),
)


def _pytest(work: Path, tests, env) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    return subprocess.run(cmd, cwd=work, env=env, capture_output=True, text=True)


def _diff(m: Mutant, before: str, after: str) -> str:
    lines = difflib.unified_diff(
        before.splitlines(keepends=True), after.splitlines(keepends=True),
        f"a/{m.path}", f"b/{m.path}", n=1,
    )
    return "".join(lines)


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="ealab-mutants-") as tmp:
        work = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, work / part, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy2(ROOT / "pyproject.toml", work / "pyproject.toml")
        env = dict(os.environ, PYTHONPATH=str(work / "src"), PYTHONDONTWRITEBYTECODE="1")
        # the copy, not an installed ealab, must be the one the tests import
        where = subprocess.run(
            [sys.executable, "-c", "import ealab; print(ealab.__file__)"],
            cwd=work, env=env, capture_output=True, text=True,
        ).stdout.strip()
        if not Path(where).resolve().is_relative_to(work.resolve()):
            print(f"FAIL: the tests import ealab from {where!r}, not from the copy")
            return 1

        start = time.perf_counter()
        tests = list(dict.fromkeys(t for m in MUTANTS for t in m.tests))
        base = _pytest(work, tests, env)
        if base.returncode != 0:
            print("FAIL: the listed tests do not pass unmutated\n" + base.stdout[-4000:])
            return 1
        print(f"unmutated: {len(tests)} test selections pass ({time.perf_counter() - start:.1f} s)")

        failed = []
        for m in MUTANTS:
            path = work / m.path
            before = path.read_text()
            count = before.count(m.old)
            if count != 1:
                print(f"FAIL {m.name}: pattern occurs {count} times in {m.path}, not once")
                print(_diff(m, m.old, m.new), end="")
                failed.append(m.name)
                continue
            after = before.replace(m.old, m.new)
            path.write_text(after)
            t0 = time.perf_counter()
            try:
                run = _pytest(work, m.tests, env)
            finally:
                path.write_text(before)
            elapsed = time.perf_counter() - t0
            if run.returncode == 1:  # pytest's code for failed tests
                print(f"killed   {m.name} ({elapsed:.1f} s)")
            else:
                why = "survived" if run.returncode == 0 else f"pytest exited {run.returncode}"
                print(f"FAIL {m.name}: {why} ({elapsed:.1f} s)\n{_diff(m, before, after)}")
                if run.returncode != 0:
                    print(run.stdout[-2000:] + run.stderr[-2000:])
                failed.append(m.name)

    total = time.perf_counter() - start
    print(f"{len(MUTANTS) - len(failed)} of {len(MUTANTS)} mutants killed in {total:.1f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
