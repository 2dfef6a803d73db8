"""Tests for the falsifier's Cholesky screen.

A Haar batch whose per-cut partial transposes a Cholesky proves above the
running minimum skips their eigensolves, and an output batch that a Cholesky
proves positive skips the positivity eigensolve.  Neither may change any
field of a report.
"""

import numpy as np
import pytest

import ealab.criteria
from ealab import depolarizing, k_lea_falsify, random_channel
from ealab.linalg import CHOLESKY_MARGIN, MATRIX_ATOL, _spectra_above
from ealab.states import _first_invalid_density

BUDGETS = {2: 40, 3: 40, 4: 40, 5: 20, 6: 30}
CHANNELS = {
    **{f"depolarizing-{lam}": (lambda lam=lam: depolarizing(lam, 2))
       for lam in (0.2, 0.4, 0.5, 0.55)},
    **{f"random-rank-{r}": (lambda r=r: random_channel(2, kraus_rank=r, seed=r))
       for r in (1, 2, 3, 4)},
}


def report_fields(report):
    """Every field of a report, floats as their exact hex strings."""
    return (
        report.found,
        report.counterexample_label,
        report.counterexample_partition,
        report.trials_used,
        float(report.min_eig_seen).hex(),
        None if report.counterexample is None else report.counterexample.amplitudes.tobytes(),
    )


def always_fails(*args, **kwargs):
    raise np.linalg.LinAlgError("forced failure")


class TestSpectraAbove:
    def test_positive_stack_passes_and_floor_is_respected(self):
        stack = np.stack([np.diag([0.1, 0.9]), np.diag([0.3, 0.7])]).astype(complex)
        assert _spectra_above(stack, 0.05)
        assert not _spectra_above(stack, 0.1)
        assert not _spectra_above(stack, 0.2)

    def test_one_failing_matrix_fails_the_stack(self):
        stack = np.stack([np.eye(2) / 2, np.diag([1.5, -0.5]), np.eye(2) / 2])
        assert not _spectra_above(stack.astype(complex), -0.1)

    def test_uses_the_symmetrized_matrix(self):
        # (a + a^dagger)/2 is the identity; the Hermitian matrix with a's lower
        # triangle has eigenvalues -0.8 and 2.8
        a = np.array([[1.0, -1.8], [1.8, 1.0]], dtype=complex)
        assert _spectra_above(a, 0.5)
        assert not _spectra_above(a, 1.0)

    def test_input_is_left_unchanged(self):
        stack = np.stack([np.eye(3) / 3] * 2).astype(complex)
        copy = stack.copy()
        _spectra_above(stack, 0.1)
        assert np.array_equal(stack, copy)


class TestScreenIsExact:
    @pytest.mark.parametrize("name", sorted(CHANNELS))
    @pytest.mark.parametrize("k", sorted(BUDGETS))
    def test_reports_match_the_exact_path_bit_for_bit(self, k, name, monkeypatch):
        single = CHANNELS[name]()
        screened = k_lea_falsify(single, k, budget=BUDGETS[k], seed=7)
        monkeypatch.setattr(np.linalg, "cholesky", always_fails)
        exact = k_lea_falsify(single, k, budget=BUDGETS[k], seed=7)
        assert report_fields(screened) == report_fields(exact)

    @pytest.mark.parametrize(
        "single, k, budget",
        [
            (depolarizing(0.4, 2), 3, 200),
            (depolarizing(0.5, 2), 4, 100),
            (random_channel(2, kraus_rank=4, seed=2), 3, 200),
            (random_channel(2, kraus_rank=3, seed=5), 5, 30),
        ],
    )
    def test_every_skipped_cut_lies_above_the_running_minimum(
        self, single, k, budget, monkeypatch
    ):
        skipped = []

        def recording(pt, floor):
            passed = _spectra_above(pt, floor)
            if passed:
                skipped.append((pt, floor - CHOLESKY_MARGIN))
            return passed

        monkeypatch.setattr(ealab.criteria, "_spectra_above", recording)
        k_lea_falsify(single, k, budget=budget, seed=1)
        assert skipped
        for pt, seen in skipped:
            sym = (pt + pt.conj().swapaxes(-1, -2)) / 2
            assert np.linalg.eigvalsh(sym)[:, 0].min() > seen

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_k4_full_budget_eigensolves_few_matrices(self, seed, monkeypatch):
        # 8072 matrices without the screen: 1009 trials x 7 cuts, plus the
        # positivity check of every output
        matrices = []
        eigvalsh = np.linalg.eigvalsh

        def counted(a, *args, **kwargs):
            matrices.append(int(np.prod(np.shape(a)[:-2])))
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        report = k_lea_falsify(depolarizing(0.4, 2), 4, budget=1000, seed=seed)
        assert not report.found
        assert report.trials_used == 1009
        assert sum(matrices) <= 100


class TestPositivityScreen:
    def test_slightly_negative_outputs_within_tolerance_pass(self):
        inside = np.diag([0.5 + 0.5 * MATRIX_ATOL, 0.5 + 0.5 * MATRIX_ATOL, -MATRIX_ATOL])
        stack = np.stack([np.eye(3) / 3, inside]).astype(complex)
        assert _first_invalid_density(stack) is None

    def test_negative_output_just_past_tolerance_is_named(self):
        outside = np.diag([0.5 + MATRIX_ATOL, 0.5 + MATRIX_ATOL, -2 * MATRIX_ATOL])
        stack = np.stack([np.eye(3) / 3, np.eye(3) / 3, outside, np.eye(3) / 3])
        index, message = _first_invalid_density(stack.astype(complex))
        assert index == 2
        assert message == "matrix is not positive semidefinite (min eigenvalue -2.000e-10)"
