"""Mutation gate: every mutant in the table must be killed by its tests.

Each mutant is an exact text substitution in one file under ``src/ealab``,
listed with the tests that must kill it (test files, or pytest node ids
where a file holds a slow test the mutant does not need).  The gate copies
``src/``, ``tests/`` and ``pyproject.toml`` into a temporary directory, runs
the listed tests once unmutated, then applies each mutant in turn and runs
its tests with ``pytest -x``.  The gate fails, and prints the mutant's diff,
when a pattern does not occur exactly once (the table has rotted), when a
mutant's tests all pass (a test is missing), or when they run past
``PYTEST_TIMEOUT_S`` (reported as timed out).  Never make a mutant die by
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

# A pytest run past this many seconds is killed and counted as a failure,
# so a mutant that removes a loop's exit fails the gate instead of hanging
# it; a run of the listed tests takes seconds.
PYTEST_TIMEOUT_S = 300


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
        "seesaw-map-without-partial-transpose",
        "src/ealab/criteria.py",
        "m = partial_transpose(_apply_sites(single.kraus, units, 2), (2, 2), (1,)).reshape(16, 16)",
        "m = _apply_sites(single.kraus, units, 2).reshape(16, 16)",
        (
            "tests/test_criteria.py::TestSeesaw",
            "tests/test_criteria.py::TestPairPtMap::test_matches_the_materialized_pair_channel",
        ),
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
        "    return partial_transpose(",
        "    return partial_transpose(",
        ("tests/test_criteria.py::TestPartition",),
    ),
    Mutant(
        "ppt-argument-type-unchecked",
        "src/ealab/criteria.py",
        "    rho, part = _instance(rho, DensityOperator), _instance(part, Partition)\n",
        "",
        ("tests/test_criteria.py::test_ppt_argument_of_the_wrong_type_is_named",),
    ),
    Mutant(
        "ppt-status-unsorted-blocks",
        "src/ealab/criteria.py",
        "and tuple(sorted(blocks)) in _PPT_EXACT_BLOCKS",
        "and tuple(blocks) in _PPT_EXACT_BLOCKS",
        ("tests/test_criteria.py::TestPptVerdict",),
    ),
    # a float minimum in [-tol, margin] certified again
    Mutant(
        "ppt-status-certifies-without-margin",
        "src/ealab/criteria.py",
        "proven = low > CHOLESKY_MARGIN and tuple(sorted(blocks))",
        "proven = tuple(sorted(blocks))",
        (
            "tests/test_criteria.py::TestMarginCertificates::"
            "test_tolerance_never_widens_a_certificate",
            "tests/test_criteria.py::TestMarginCertificates::"
            "test_is_eb_past_one_third_is_inconclusive",
            "tests/test_criteria.py::TestPptVerdict::test_classically_correlated_is_inconclusive",
        ),
    ),
    Mutant(
        "mixing-threshold-without-margin",
        "src/ealab/criteria.py",
        "bound = ppt_min_eigenvalue(omega, _PAIR_CUT) - CHOLESKY_MARGIN",
        "bound = ppt_min_eigenvalue(omega, _PAIR_CUT)",
        (
            "tests/test_criteria.py::TestSeparableMixingThreshold::"
            "test_max_entangled_gives_one_third",
            "tests/test_criteria.py::TestMarginCertificates::"
            "test_mixing_threshold_in_the_band_is_not_degenerate",
        ),
    ),
    Mutant(
        "verdicts-ignore-proven",
        "src/ealab/criteria.py",
        "np.where(proven, 1, 2)",
        "1",
        (
            "tests/test_criteria.py::TestPptVerdict::test_two_qutrit_positive_is_inconclusive",
            "tests/test_criteria.py::TestExactEdges::"
            "test_tolerance_band_past_the_edge_is_inconclusive",
        ),
    ),
    Mutant(
        "sweep-ghz-blocks-two-by-two",
        "src/ealab/criteria.py",
        "(mu3, -math.inf)",
        "(mu3, TWO_LEA_EDGE)",
        ("tests/test_cli.py::TestGoldenOutputs::test_sweep",),
    ),
    # each edge one float up, where its exact closed form is negative
    Mutant(
        "two-lea-edge-one-float-up",
        "src/ealab/criteria.py",
        "TWO_LEA_EDGE = 0.5773502691896257",
        "TWO_LEA_EDGE = 0.5773502691896258",
        (
            "tests/test_criteria.py::TestTwoLeaVerdict::test_boundary_inclusive",
            "tests/test_cli.py::TestSweep::test_row_at_pair_boundary",
        ),
    ),
    Mutant(
        "eb-edge-one-float-up",
        "src/ealab/criteria.py",
        "EB_EDGE = 0.3333333333333333",
        "EB_EDGE = 0.33333333333333337",
        (
            "tests/test_criteria.py::TestExactEdges::test_one_float_past_each_edge_is_inconclusive",
            "tests/test_criteria.py::TestExactEdges::"
            "test_edge_is_the_largest_float_with_a_nonnegative_exact_sign",
        ),
    ),
    # each closed-form caller of _verdicts, its certificate taken from tol
    Mutant(
        "closed-form-certificate-from-tolerance",
        "src/ealab/criteria.py",
        "_verdicts(low, lam <= TWO_LEA_EDGE, tol)",
        "_verdicts(low, low >= -tol, tol)",
        (
            "tests/test_criteria.py::TestExactEdges::"
            "test_tolerance_band_past_the_edge_is_inconclusive",
        ),
    ),
    Mutant(
        "sweep-certificate-from-tolerance",
        "src/ealab/criteria.py",
        "_verdicts(lows, x <= edge, tol)",
        "_verdicts(lows, lows >= -tol, tol)",
        (
            "tests/test_criteria.py::TestExactEdges::"
            "test_tolerance_band_past_the_edge_is_inconclusive",
        ),
    ),
    Mutant(
        "two-lea-verdict-tolerance-unchecked",
        "src/ealab/criteria.py",
        '    low, tol = _two_lea_min(lam), _real(tol, "tolerance", 0.0, sys.float_info.max)\n',
        "    low = _two_lea_min(lam)\n",
        (
            "tests/test_criteria.py::TestToleranceValidation::"
            "test_bad_tolerance_rejected[two_lea_depolarizing-nan]",
        ),
    ),
    Mutant(
        "sweep-tolerance-unchecked",
        "src/ealab/criteria.py",
        '    tol = _real(tol, "tolerance", 0.0, sys.float_info.max)\n'
        "    x = np.array(lams, dtype=float)\n",
        "    x = np.array(lams, dtype=float)\n",
        (
            "tests/test_criteria.py::TestToleranceValidation::"
            "test_bad_tolerance_rejected[sweep_columns-nan]",
            "tests/test_criteria.py::TestToleranceValidation::"
            "test_bad_tolerance_rejected[sweep_columns_empty_grid-nan]",
        ),
    ),
    Mutant(
        "sweep-tolerance-before-lambdas",
        "src/ealab/criteria.py",
        '    lams = [_real(lam, "depolarizing parameter", 0.0, 1.0) for lam in lams]\n'
        '    tol = _real(tol, "tolerance", 0.0, sys.float_info.max)\n',
        '    tol = _real(tol, "tolerance", 0.0, sys.float_info.max)\n'
        '    lams = [_real(lam, "depolarizing parameter", 0.0, 1.0) for lam in lams]\n',
        ("tests/test_criteria.py::TestToleranceValidation::test_lambda_checked_before_tolerance",),
    ),
    Mutant(
        "sweep-cube-through-numpy-power",
        "src/ealab/criteria.py",
        "np.array([lam**3 for lam in lams], dtype=float)",
        "x**3",
        ("tests/test_cli.py::TestGoldenOutputs::test_full_resolution_sweep",),
    ),
    Mutant(
        "qubit-count-unbounded",
        "src/ealab/linalg.py",
        "    _composite_dim(2 for _ in range(n))\n    return n\n",
        "    return n\n",
        # never the huge counts: unbounded, they would not return
        ("tests/test_states.py::test_ten_qubits_are_the_bound",),
    ),
    Mutant(
        "byte-bound-never-refuses",
        "src/ealab/linalg.py",
        "        if n > bound:\n",
        "        if False:\n",
        # only inputs that still build small when nothing is refused
        (
            "tests/test_states.py::test_ten_qubits_are_the_bound",
            "tests/test_product_engine.py::TestTensorAndComposeBound::test_tensor_bound_is_exact",
        ),
    ),
    Mutant(
        "tensor-unbounded",
        "src/ealab/channels.py",
        "    _bounded_bytes((a.kraus.size * b.kraus.size,), TENSOR_POWER_MAX_BYTES, what)\n",
        "",
        # never the refusal under tracemalloc: unbounded, it would build 410 GB
        ("tests/test_product_engine.py::TestTensorAndComposeBound::test_tensor_bound_is_exact",),
    ),
    Mutant(
        "compose-unbounded",
        "src/ealab/channels.py",
        "    _bounded_bytes((n * e.out_dim * f.in_dim,), TENSOR_POWER_MAX_BYTES, what)\n",
        "",
        ("tests/test_product_engine.py::TestTensorAndComposeBound::test_compose_bound_is_exact",),
    ),
    Mutant(
        "seesaw-entangled-sign-dropped",
        "src/ealab/criteria.py",
        "if _entangled(witness, tol) else",
        "if witness < tol else",
        (
            "tests/test_criteria.py::TestSeesaw::"
            "test_a_witness_below_the_tolerance_is_not_entangled",
        ),
    ),
    Mutant(
        "embedded-max-entangled-unchecked-dims",
        "src/ealab/criteria.py",
        "    ds = _factor_dims(dims)\n    _instance(part, Partition).validate_for",
        "    ds = tuple(dims)\n    _instance(part, Partition).validate_for",
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
        "seesaw-adjoint-is-m",
        "src/ealab/criteria.py",
        "    return m, m.conj().T\n",
        "    return m, m\n",
        (
            "tests/test_criteria.py::TestSeesaw::test_best_input_is_a_fixed_point",
            "tests/test_criteria.py::TestPairPtMap::test_adjoint_identity",
        ),
    ),
    Mutant(
        "seesaw-fall-test-not-strict",
        "src/ealab/criteria.py",
        "falls = low < value[rows]",
        "falls = low <= value[rows]",
        ("tests/test_criteria.py::TestSeesaw::test_rounds_run_on_the_live_starts_only",),
    ),
    Mutant(
        "seesaw-best-from-the-uncompacted-stack",
        "src/ealab/criteria.py",
        "rows, psi, phi = rows[falls], psi[falls], vecs[falls, :, 0]",
        "rows, phi = rows[falls], vecs[falls, :, 0]",
        ("tests/test_criteria.py::TestSeesaw::test_rounds_run_on_the_live_starts_only",),
    ),
    Mutant(
        "eigh-without-errstate",
        "src/ealab/linalg.py",
        "@np.errstate(\n"
        "    call=_eigh_nonconvergence, invalid=\"call\", over=\"ignore\", divide=\"ignore\", "
        "under=\"ignore\"\n"
        ")\n",
        "",
        ("tests/test_linalg.py::TestEigh",),
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
        "    _bounded_bytes((d * d,), _STACK_BYTES, f\"a maximally entangled state of local "
        "dimension {d}\")\n",
        "",
        ("tests/test_states.py::TestMaxEntangled",),
    ),
    Mutant(
        "max-entangled-projector-unbounded",
        "src/ealab/states.py",
        "    _bounded_bytes((d**4,), TENSOR_POWER_MAX_BYTES, what)\n",
        "",
        # never the real bound: unbounded, d = 65 would allocate gigabytes
        ("tests/test_states.py::TestWerner::test_bound_is_exact",),
    ),
    # each builder's check line deleted; only tests with a bound patched
    # small, so that the unbounded mutant still builds small inputs
    Mutant(
        "random-channel-unbounded",
        "src/ealab/channels.py",
        "    _bounded_bytes((k, d_out, d_in), TENSOR_POWER_MAX_BYTES, what)\n",
        "",
        ("tests/test_channels.py::TestBuilderBounds::test_bound_is_exact",),
    ),
    Mutant(
        "identity-channel-unbounded",
        "src/ealab/channels.py",
        "    _bounded_bytes((d, d), TENSOR_POWER_MAX_BYTES, "
        "f\"an identity channel of dimension {d}\")\n",
        "",
        ("tests/test_channels.py::TestBuilderBounds::test_bound_is_exact",),
    ),
    Mutant(
        "constant-channel-unbounded",
        "src/ealab/channels.py",
        "    _bounded_bytes((n, n), TENSOR_POWER_MAX_BYTES, "
        "f\"a constant channel with a {n}x{n} Choi matrix\")\n",
        "",
        ("tests/test_channels.py::TestBuilderBounds::test_bound_is_exact",),
    ),
    Mutant(
        "haar-pure-unbounded",
        "src/ealab/states.py",
        "    _bounded_bytes((dim,), _STACK_BYTES, f\"a Haar-random state of dimension {dim}\")"
        "\n",
        "",
        ("tests/test_states.py::TestSamplerBounds::test_haar_bound_is_exact",),
    ),
    Mutant(
        "random-density-unbounded",
        "src/ealab/states.py",
        "    _bounded_bytes((d, d), TENSOR_POWER_MAX_BYTES, f\"a random {d}x{d} density matrix\")"
        "\n",
        "",
        ("tests/test_states.py::TestSamplerBounds::test_random_density_bound_is_exact",),
    ),
    Mutant(
        "embedded-max-entangled-unbounded",
        "src/ealab/criteria.py",
        "    _bounded_bytes((dim,), _STACK_BYTES, "
        "f\"a maximally entangled state of dimension {dim}\")\n",
        "",
        ("tests/test_falsify.py::TestEmbeddedProbe::test_bound_is_exact",),
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
        "ppt-status-tolerance-unchecked",
        "src/ealab/criteria.py",
        '    tol = _real(tol, "tolerance", 0.0, sys.float_info.max)\n    if math.isnan(low):\n',
        "    if math.isnan(low):\n",
        # every other caller checks the tolerance itself
        (
            "tests/test_criteria.py::TestToleranceValidation::"
            "test_bad_tolerance_rejected[ppt_status-nan]",
        ),
    ),
    Mutant(
        "ppt-verdict-tolerance-after-eigensolve",
        "src/ealab/criteria.py",
        '    tol = _real(tol, "tolerance", 0.0, sys.float_info.max)\n'
        "    low = ppt_min_eigenvalue(rho, part)\n",
        "    low = ppt_min_eigenvalue(rho, part)\n"
        '    tol = _real(tol, "tolerance", 0.0, sys.float_info.max)\n',
        (
            "tests/test_criteria.py::TestToleranceValidation::"
            "test_tolerance_checked_before_any_work[ppt_verdict]",
        ),
    ),
    Mutant(
        "is-eb-tolerance-after-choi",
        "src/ealab/criteria.py",
        '    tol = _real(tol, "tolerance", 0.0, sys.float_info.max)\n'
        "    return ppt_verdict(choi_of(_channel(e)), _PAIR_CUT, tol=tol)\n",
        "    return ppt_verdict(choi_of(_channel(e)), _PAIR_CUT, tol=tol)\n",
        (
            "tests/test_criteria.py::TestToleranceValidation::"
            "test_tolerance_checked_before_any_work[is_eb]",
        ),
    ),
    Mutant(
        "channel-argument-type-unchecked",
        "src/ealab/channels.py",
        "    return _instance(e, Channel)\n",
        "    return e\n",
        ("tests/test_criteria.py::test_channel_argument_of_the_wrong_type_is_named",),
    ),
    # each type check of a channel argument dropped on its own
    *(
        Mutant(f"{name}-channel-type-unchecked", "src/ealab/channels.py", old, new, (
            f"tests/test_criteria.py::test_channel_argument_of_the_wrong_type_is_named[{name}]",
        ))
        for name, old, new in (
            ("apply", "e, (rho, dims) = _channel(e), _state_matrix(state)",
             "rho, dims = _state_matrix(state)"),
            ("tensor-first", "a, b = _channel(a), _channel(b)", "b = _channel(b)"),
            ("tensor-second", "a, b = _channel(a), _channel(b)", "a = _channel(a)"),
            ("tensor_power", 'e, k = _channel(e), _whole(k, "tensor power", 1)',
             'k = _whole(k, "tensor power", 1)'),
            ("choi_of", "    e = _channel(e)\n    return DensityOperator(choi_from_kraus",
             "    return DensityOperator(choi_from_kraus"),
        )
    ),
    Mutant(
        "measure-prepare-type-unchecked",
        "src/ealab/channels.py",
        "d_in = _instance(mp, MeasurePrepare).povm[0]",
        "d_in = mp.povm[0]",
        (
            "tests/test_states.py::"
            "test_state_argument_of_the_wrong_type_is_named[measure_prepare_channel]",
        ),
    ),
    Mutant(
        "embedded-max-entangled-partition-type-unchecked",
        "src/ealab/criteria.py",
        "    _instance(part, Partition).validate_for(len(ds))",
        "    part.validate_for(len(ds))",
        (
            "tests/test_states.py::"
            "test_state_argument_of_the_wrong_type_is_named[embedded_max_entangled]",
        ),
    ),
    Mutant(
        "state-argument-type-unchecked",
        "src/ealab/states.py",
        "    if not isinstance(x, cls):\n"
        "        raise ValueError(f\"expected a {cls.__name__}, got {type(x).__name__}\")\n",
        "",
        ("tests/test_states.py::test_state_argument_of_the_wrong_type_is_named",),
    ),
    Mutant(
        "ppt-status-nan-minimum-certifies",
        "src/ealab/criteria.py",
        "    if math.isnan(low):\n        raise ValueError(\"partial-transpose minimum is NaN\")\n",
        "",
        ("tests/test_criteria.py::TestPptVerdict::test_nan_minimum_is_refused",),
    ),
    Mutant(
        "bisect-infinite-endpoint-accepted",
        "src/ealab/criteria.py",
        "    if not (math.isfinite(lo) and math.isfinite(hi)):\n",
        "    if False:\n",
        (
            "tests/test_criteria.py::TestBisection::"
            "test_infinite_endpoint_rejected_before_any_call",
        ),
    ),
    Mutant(
        "bisect-nan-endpoint-blamed-on-order",
        "src/ealab/criteria.py",
        "    if not (math.isfinite(lo) and math.isfinite(hi)):\n"
        "        raise ValueError(f\"bracket endpoints must be finite, got ({lo}, {hi})\")\n"
        "    if not lo < hi:\n"
        "        raise ValueError(f\"bracket must satisfy lo < hi, got ({lo}, {hi})\")\n",
        "    if not lo < hi:\n"
        "        raise ValueError(f\"bracket must satisfy lo < hi, got ({lo}, {hi})\")\n"
        "    if not (math.isfinite(lo) and math.isfinite(hi)):\n"
        "        raise ValueError(f\"bracket endpoints must be finite, got ({lo}, {hi})\")\n",
        (
            "tests/test_criteria.py::TestBisection::"
            "test_infinite_endpoint_rejected_before_any_call",
        ),
    ),
    Mutant(
        "array-conversion-typeerror-escapes",
        "src/ealab/linalg.py",
        "        return np.asarray(m, dtype=complex)\n"
        "    except (TypeError, ValueError, OverflowError) as exc:",
        "        return np.asarray(m, dtype=complex)\n"
        "    except (ValueError, OverflowError) as exc:",
        ("tests/test_linalg.py::test_unconvertible_input_is_named",),
    ),
    Mutant(
        "real-conversion-typeerror-escapes",
        "src/ealab/linalg.py",
        "        r = float(x)\n    except (TypeError, ValueError, OverflowError) as exc:",
        "        r = float(x)\n    except (ValueError, OverflowError) as exc:",
        ("tests/test_linalg.py::test_unreadable_real_is_named",),
    ),
    Mutant(
        "tolerance-infinity-accepted",
        "src/ealab/criteria.py",
        '    tol = _real(tol, "tolerance", 0.0, sys.float_info.max)\n    budget, seed = ',
        '    tol = _real(tol, "tolerance", 0.0, math.inf)\n    budget, seed = ',
        # an infinite tolerance would find no counterexample, ever
        tuple(
            "tests/test_criteria.py::TestToleranceValidation::"
            f"test_bad_tolerance_rejected[{name}-inf]"
            for name in ("k_lea_falsify", "ea_falsify")
        ),
    ),
    Mutant(
        "kraus-from-choi-dims-unchecked",
        "src/ealab/channels.py",
        "    if in_dim * out_dim != m.shape[0]:\n",
        "    if False:\n",
        ("tests/test_channels.py::TestChoi::test_kraus_from_choi_checks_its_dimensions",),
    ),
    Mutant(
        "schmidt-imaginary-part-dropped",
        "src/ealab/states.py",
        "        if np.any(c.imag):\n",
        "        if False:\n",
        (
            "tests/test_states.py::TestInvariants::"
            "test_schmidt_decomposition_refuses_an_imaginary_part",
        ),
    ),
    Mutant(
        "freeze-hands-over-a-view",
        "src/ealab/states.py",
        "if b.base is not None or not b.flags.c_contiguous",
        "if not b.flags.c_contiguous",
        ("tests/test_channels.py::TestChannelType::test_frozen_input_is_kept",),
    ),
    Mutant(
        "kraus-stack-empty-axis-accepted",
        "src/ealab/channels.py",
        "if ops.ndim != 3 or 0 in ops.shape:",
        "if ops.ndim != 3:",
        ("tests/test_channels.py::TestChannelType::test_rejection_messages",),
    ),
    Mutant(
        "bisect-stalled-bracket-continues",
        "src/ealab/criteria.py",
        "        if not lo < mid < hi:  # adjacent floats: the bracket cannot shrink\n"
        "            break\n",
        "",
        (
            "tests/test_criteria.py::TestBisection::"
            "test_zero_tolerance_stops_at_adjacent_floats",
        ),
    ),
    Mutant(
        "items-returns-its-argument-unread",
        "src/ealab/linalg.py",
        "        return tuple(x)\n    except TypeError:\n",
        "        return x\n    except TypeError:\n",
        ("tests/test_linalg.py::test_non_collections_are_refused_by_name",),
    ),
    Mutant(
        "spec-unknown-field-accepted",
        "src/ealab/channels.py",
        "    if unknown:\n",
        "    if False:\n",
        (
            "tests/test_channels.py::TestJsonSpecs::test_unknown_field_rejected_by_name",
            "tests/test_cli.py::TestFalsify::test_misspelled_field_exits_2",
        ),
    ),
    Mutant(
        "schmidt-basis-orthonormality-dropped",
        "src/ealab/states.py",
        "            if not defect <= MATRIX_ATOL:\n"
        "                raise ValueError(\n"
        "                    f\"Schmidt basis columns",
        "            if False:\n"
        "                raise ValueError(\n"
        "                    f\"Schmidt basis columns",
        (
            "tests/test_states.py::TestInvariants::"
            "test_schmidt_bases_must_be_orthonormal",
        ),
    ),
    Mutant(
        "cmd-falsify-exit-0-on-counterexample",
        "src/ealab/cli.py",
        "return 1 if report.found else 0",
        "return 0",
        ("tests/test_cli.py::TestFalsify::test_counterexample_exits_1",),
    ),
)


def _pytest(work: Path, tests, env) -> subprocess.CompletedProcess | None:
    """One pytest run of ``tests``, or ``None`` when it passes ``PYTEST_TIMEOUT_S``."""
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    try:
        return subprocess.run(
            cmd, cwd=work, env=env, capture_output=True, text=True, timeout=PYTEST_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return None


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
        if base is None or base.returncode != 0:
            tail = "timed out" if base is None else base.stdout[-4000:]
            print("FAIL: the listed tests do not pass unmutated\n" + tail)
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
            if run is None:
                print(f"FAIL {m.name}: timed out ({elapsed:.1f} s)\n{_diff(m, before, after)}")
                failed.append(m.name)
            elif run.returncode == 1:  # pytest's code for failed tests
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
