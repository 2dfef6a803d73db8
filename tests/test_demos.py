"""Checks in a fresh interpreter: the demo scripts and the weight of the CLI import."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import ealab

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def run_python(*args):
    # the subprocess imports the same ealab sources as this test session
    env = dict(os.environ)
    src = str(Path(ealab.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=300
    )


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_exits_cleanly(demo):
    proc = run_python(str(demo))
    assert proc.returncode == 0, proc.stderr


def test_annihilating_demo_certifies_its_pair_channel():
    # at the float 1/sqrt(3) exact 1 - 3 lambda^2 is negative and the verdict
    # is Inconclusive; the demo runs one float below, at TWO_LEA_EDGE
    demo = next(d for d in DEMOS if d.name == "annihilating_without_breaking.py")
    proc = run_python(str(demo))
    assert proc.returncode == 0, proc.stderr
    assert "=> verdict SeparableCertified: the pair channel annihilates all" in proc.stdout


def test_cli_import_loads_no_scipy():
    code = "import sys, ealab.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cli_import_loads_no_numpy_random():
    # numpy 2 loads numpy.random on first use; older numpy loads it with
    # numpy itself, so the baseline is what a bare ``import numpy`` loads
    code = (
        "import sys, {}; "
        "print(sorted(m for m in sys.modules if m.startswith('numpy.random')))"
    )
    bare, cli = (run_python("-c", code.format(module)) for module in ("numpy", "ealab.cli"))
    assert bare.returncode == cli.returncode == 0, bare.stderr + cli.stderr
    assert cli.stdout == bare.stdout
