"""The benchmark tracer still finds every name it wraps.

``bench/tracing.py`` replaces functions at the module attributes their
callers look up (some imported only for it, such as ``criteria.apply``); a
cleanup that drops one of those names breaks the traced benchmark run.
"""

import importlib.util
import json
from pathlib import Path

import ealab
import ealab.cli

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("ealab_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_records_spans(tmp_path, capsys):
    tracing = load_tracing()
    spec = tmp_path / "channel.json"
    spec.write_text(json.dumps({"kind": "depolarizing", "lambda": 0.6, "d": 2}))
    main = ealab.cli.main
    tracer = tracing.Tracer()
    try:
        tracer.install(ealab)
        assert ealab.cli.main(["thresholds"]) == 0
        assert ealab.cli.main(["falsify", "--spec", str(spec), "--k", "2", "--budget", "4"]) == 1
    finally:
        tracer.restore()
    capsys.readouterr()
    assert ealab.cli.main is main
    summary = tracer.summarize()
    assert summary["trace.spans"] > 0
    assert summary["cli.main.calls"] == 2
    assert summary["criteria.falsify.calls"] == 1
    assert summary["linalg.hermitian_eigenvalues.calls"] > 0


def test_traced_sweep_builds_no_channel_and_no_stack(tmp_path, capsys):
    # every sweep column is a closed form: no channel, no state, no partial
    # transpose and no eigensolve
    tracing = load_tracing()
    tracer = tracing.Tracer()
    out = tmp_path / "sweep.csv"
    try:
        tracer.install(ealab)
        argv = ["sweep", "--lo", "0.3", "--hi", "0.4", "--step", "0.0025", "--out", str(out)]
        assert ealab.cli.main(argv) == 0
    finally:
        tracer.restore()
    capsys.readouterr()
    summary = tracer.summarize()
    assert summary["channels.Channel.calls"] == 0
    assert summary["states.DensityOperator.calls"] == 0
    assert summary["criteria.ppt_min_eigenvalue.calls"] == 0
    assert summary["linalg.partial_transpose.calls"] == 0
    assert summary["linalg.hermitian_eigenvalues.calls"] == 0
