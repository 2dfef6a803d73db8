"""Tests for the Cholesky screen and the one routine that uses it.

``linalg._lowest_eigenvalues`` skips the eigensolve of each matrix that a
Cholesky proves above a bound: a partial transpose above the falsifier's
running minimum, or an output proven positive.  It may not change any field
of a report.
"""

import math

import numpy as np
import pytest

import ealab.criteria
import ealab.linalg
from ealab import depolarizing, k_lea_falsify, random_channel
from ealab.linalg import CHOLESKY_MARGIN, MATRIX_ATOL, _lowest_eigenvalues, _screen_above
from ealab.states import _first_invalid_density

BUDGETS = {2: 40, 3: 40, 4: 40, 5: 20, 6: 30, 7: 2}
CHANNELS = {
    **{f"depolarizing-{lam}": (lambda lam=lam: depolarizing(lam, 2))
       for lam in (0.2, 0.4, 0.5, 0.55)},
    **{f"random-rank-{r}": (lambda r=r: random_channel(2, kraus_rank=r, seed=r))
       for r in (1, 2, 3, 4)},
}
# k = 7 holds 63 cuts of 128x128 matrices and its exact path takes about
# 10 s, so it runs one channel at a budget of 2 (65 probes, 2 Haar draws)
EXACT_CASES = [(k, name) for k in range(2, 7) for name in sorted(CHANNELS)]
EXACT_CASES.append((7, "depolarizing-0.4"))


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


def proves_nothing(a, floor):
    return np.zeros(a.shape[:-2], bool)


class TestScreenAbove:
    def test_positive_stack_passes_and_floor_is_respected(self):
        stack = np.stack([np.diag([0.1, 0.9]), np.diag([0.3, 0.7])]).astype(complex)
        assert _screen_above(stack, 0.05).tolist() == [True, True]
        assert _screen_above(stack, 0.1).tolist() == [False, True]
        assert _screen_above(stack, 0.2).tolist() == [False, True]
        assert _screen_above(stack, 0.3).tolist() == [False, False]

    def test_only_the_bad_matrices_fail(self):
        # numpy's Cholesky gufunc is private API: this guards that it marks
        # exactly the matrices it cannot factor, a NaN one included
        floor = 0.1
        good = np.diag([0.2, 0.3, 0.5])
        not_pd = np.diag([1.5, -0.5, 0.0])
        nan = good.copy()
        nan[2, 0] = np.nan
        barely = np.diag([floor + 1e-9, 0.5, 0.5 - 1e-9])
        stack = np.stack([good, not_pd, good, nan, good, barely, good]).astype(complex)
        copy = stack.copy()
        assert _screen_above(stack, floor).tolist() == [
            True, False, True, False, True, True, True
        ]
        assert np.array_equal(stack, copy, equal_nan=True)

    def test_a_nan_anywhere_fails(self):
        good = np.diag([0.2, 0.3, 0.5]).astype(complex)
        for i in range(3):
            for j in range(3):
                nan = good.copy()
                nan[i, j] = np.nan
                assert _screen_above(np.stack([good, nan, good]), 0.1).tolist() == [
                    True, False, True
                ]

    def test_uses_the_symmetrized_matrix(self):
        # (a + a^dagger)/2 is the identity; the Hermitian matrix with a's lower
        # triangle has eigenvalues -0.8 and 2.8
        a = np.array([[1.0, -1.8], [1.8, 1.0]], dtype=complex)
        assert _screen_above(a[None], 0.5).tolist() == [True]
        assert _screen_above(a[None], 1.0).tolist() == [False]

    def test_input_is_left_unchanged(self):
        stack = np.stack([np.eye(3) / 3] * 2).astype(complex)
        copy = stack.copy()
        _screen_above(stack, 0.1)
        assert np.array_equal(stack, copy)


class TestLowestEigenvalues:
    @staticmethod
    def stack():
        rng = np.random.default_rng(3)
        g = rng.standard_normal((12, 5, 5)) + 1j * rng.standard_normal((12, 5, 5))
        rho = g @ g.conj().swapaxes(-1, -2)
        rho /= np.trace(rho, axis1=-2, axis2=-1).real[:, None, None]
        # shift half of them so that their minima straddle the bounds below
        return rho - np.arange(12)[:, None, None] % 2 * 0.02 * np.eye(5)

    @pytest.mark.parametrize(
        "above, n_proven", [(-0.05, 12), (-0.01, 7), (0.0, 7), (0.004, 5), (0.02, 0)]
    )
    def test_inf_exactly_where_the_screen_proves_the_bound(self, above, n_proven):
        a = self.stack()
        proven = _screen_above(a, above + CHOLESKY_MARGIN)
        exact = np.linalg.eigvalsh((a + a.conj().swapaxes(-1, -2)) / 2)[:, 0]
        low = _lowest_eigenvalues(a, above)
        assert proven.sum() == n_proven
        assert np.isinf(low).tolist() == proven.tolist()
        assert (low[~proven] == exact[~proven]).all()
        assert (exact[proven] > above).all()

    def test_infinite_bound_is_one_eigensolve_and_no_cholesky(self, eigensolved, monkeypatch):
        screens = []
        monkeypatch.setattr(ealab.linalg, "_screen_above", lambda *args: screens.append(args))
        a = self.stack()
        low = _lowest_eigenvalues(a)
        assert eigensolved == [len(a)]
        assert screens == []
        assert low.shape == (len(a),)

    @pytest.mark.parametrize("above", [math.inf, 0.0])
    def test_empty_stack_gives_an_empty_result(self, above, eigensolved):
        low = _lowest_eigenvalues(np.zeros((0, 3, 3), complex), above)
        assert low.shape == (0,)
        assert sum(eigensolved) == 0

    @pytest.mark.parametrize("above", [math.inf, 0.0, -MATRIX_ATOL])
    def test_input_is_left_unchanged(self, above):
        a = self.stack()
        copy = a.copy()
        _lowest_eigenvalues(a, above)
        assert np.array_equal(a, copy)


class TestScreenIsExact:
    @pytest.mark.parametrize("k, name", EXACT_CASES)
    def test_reports_match_the_exact_path_bit_for_bit(self, k, name, monkeypatch):
        single = CHANNELS[name]()
        screened = k_lea_falsify(single, k, budget=BUDGETS[k], seed=7)
        monkeypatch.setattr(ealab.linalg, "_screen_above", proves_nothing)
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
        # the falsifier's cuts, not its positivity checks, which states calls
        calls = []

        def recording(pt, above=math.inf):
            low = _lowest_eigenvalues(pt, above)
            if above < math.inf:
                mask = np.isinf(low)
                assert (mask == _screen_above(pt, above + CHOLESKY_MARGIN)).all()
                calls.append((pt[mask], above, mask.mean()))
            return low

        monkeypatch.setattr(ealab.criteria, "_lowest_eigenvalues", recording)
        report = k_lea_falsify(single, k, budget=budget, seed=1)
        # some cut of some batch is skipped only in part
        assert any(0 < share < 1 for _, _, share in calls)
        seens = [seen for _, seen, _ in calls]
        assert seens == sorted(seens, reverse=True)
        assert report.min_eig_seen <= seens[-1]
        for skipped, seen, _ in calls:
            sym = (skipped + skipped.conj().swapaxes(-1, -2)) / 2
            assert (np.linalg.eigvalsh(sym)[:, 0] > seen).all()
        assert sum(len(skipped) for skipped, _, _ in calls) > 0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_k4_full_budget_eigensolves_few_matrices(self, seed, eigensolved):
        # 8072 matrices without the screen: 1009 trials x 7 cuts, plus the
        # positivity check of every output
        report = k_lea_falsify(depolarizing(0.4, 2), 4, budget=1000, seed=seed)
        assert not report.found
        assert report.trials_used == 1009
        assert sum(eigensolved) <= 100

    @pytest.mark.parametrize(
        "lam, k, budget, seed, unscreened, bound",
        [
            (0.05, 3, 200, 1, 615, 60),
            (0.2, 4, 300, 0, 532, 55),
            # the probe batches (trials 0-59 of 133) are screened too
            (0.4, 6, 100, 0, 1860, 200),
        ],
    )
    def test_eigensolves_only_matrices_that_may_set_a_record(
        self, lam, k, budget, seed, unscreened, bound, eigensolved
    ):
        # ``unscreened``: matrices eigensolved when every cut of a batch went
        # to the eigensolver as soon as one of its matrices failed the screen
        report = k_lea_falsify(depolarizing(lam, 2), k, budget=budget, seed=seed)
        assert not report.found
        assert sum(eigensolved) <= bound < unscreened


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

    def test_only_the_outputs_the_screen_fails_are_eigensolved(self, eigensolved):
        inside = np.diag([0.5 + 0.5 * MATRIX_ATOL, 0.5 + 0.5 * MATRIX_ATOL, -MATRIX_ATOL])
        stack = np.stack([np.eye(3) / 3, inside, np.eye(3) / 3, np.eye(3) / 3])
        assert _first_invalid_density(stack.astype(complex)) is None
        assert eigensolved == [1]
