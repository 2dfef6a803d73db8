"""The closed-form sweep: ``criteria._sweep_columns`` against a row-by-row
engine reference, and the exactness of its printed Werner minimum."""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ealab.cli import _CSV_ROW
from ealab.criteria import VERDICT_TOL, _sweep_columns
from helpers import EB_EDGES, reference_sweep_row


@st.composite
def grids(draw):
    """Lambdas in [0, 1] with 0 and 1, where depolarizing has fewer Kraus
    operators, each inserted at a drawn position."""
    lams = draw(st.lists(st.floats(0.0, 1.0), max_size=30))
    for edge in (0.0, 1.0):
        lams.insert(draw(st.integers(0, len(lams))), edge)
    return lams


# The engine's Werner eigenvalue and the closed form (1 - 3 lambda)/4 differ
# in their last bits (5.55e-17 against 1.39e-17 at fl(1/3)); the largest
# difference seen on 20000 random lambdas was 1.7e-16.
WERNER_ENGINE_ATOL = 1e-15


def assert_rows_match_reference(lams, tol):
    """Each row of ``_sweep_columns(lams, tol)``: every column but
    ``werner_min_eig`` byte for byte, and that one within
    ``WERNER_ENGINE_ATOL`` of the engine's eigenvalue."""
    columns = _sweep_columns(lams, tol)
    assert [len(column) for column in columns] == [len(lams)] * 7
    for row, lam in zip(zip(*columns), lams):
        ref = reference_sweep_row(lam, tol)
        fields, ref_fields = (_CSV_ROW % row).split(","), (_CSV_ROW % ref).split(",")
        del fields[3], ref_fields[3]
        assert fields == ref_fields
        assert abs(row[3] - ref[3]) <= WERNER_ENGINE_ATOL


class TestMatchesReference:
    @settings(max_examples=40, deadline=None)
    @given(grids(), st.sampled_from([0.0, 1e-9, 0.05]))
    def test_csv_equal_per_row_reference(self, lams, tol):
        assert_rows_match_reference(lams, tol)

    def test_long_grid_with_repeated_edges(self):
        lams = [float(lam) for lam in np.linspace(0.0, 1.0, 1064)]
        for i in (511, 512, 1024):
            lams[i] = 0.0
            lams[i + 1] = 1.0
        assert_rows_match_reference(lams, 1e-9)

    @pytest.mark.parametrize("lam", [0.0, 1 / 3, 0.5, 1 / np.sqrt(3), 0.5567, 1.0])
    def test_one_row_call(self, lam):
        assert_rows_match_reference([lam], 1e-9)

    def test_empty_grid(self):
        assert _sweep_columns([], VERDICT_TOL) == ([],) * 7


@pytest.mark.parametrize("lam", [-0.1, 1.1, np.nan])
def test_lambda_out_of_range_rejected(lam):
    with pytest.raises(ValueError, match="depolarizing parameter"):
        _sweep_columns([0.5, lam], VERDICT_TOL)


def traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# 2500 rows peak near 0.6 MiB, all of it the rows themselves; the bound is
# the one the sweep met (1.1 MiB) when it eigensolved a stack per 512 rows.
SWEEP_PEAK_BOUND = 2 * 2**20


class TestBoundedMemory:
    LAMS = list(np.linspace(0.0, 1.0, 2500))

    def test_peak_is_bounded(self):
        assert traced_peak(lambda: _sweep_columns(self.LAMS, VERDICT_TOL)) < SWEEP_PEAK_BOUND


class TestWernerColumnExact:
    """``werner_min_eig`` is (1 - 3 lambda)/4 evaluated as
    ((1 - 2 lambda) - lambda)/4: on [1/4, 1] the first difference is exact
    (Sterbenz), so the printed value is the exact value correctly rounded;
    below 1/4 it is within 2**-55 of it (2.1e-17 at most on 120001 lambdas).
    """

    GRID = [
        *np.random.default_rng(17).uniform(0.0, 1.0, 4000).tolist(),
        *np.random.default_rng(18).uniform(0.0, 0.25, 1000).tolist(),
        *(lam for edges in EB_EDGES.values() for lam in edges),
        0.0, 0.25, 1 / 3, 0.5, 1.0,
    ]

    def exact_rows(self, on_sterbenz_range):
        lams, _, _, werner_min_eig, *_ = _sweep_columns(self.GRID, VERDICT_TOL)
        rows = [
            (lam, eb, (1 - 3 * Fraction(lam)) / 4)
            for lam, eb in zip(lams, werner_min_eig)
            if (lam >= 0.25) == on_sterbenz_range
        ]
        assert rows
        return rows

    def test_printed_value_is_the_exact_minimum_from_a_quarter(self):
        for lam, eb, exact in self.exact_rows(True):
            assert eb == float(exact), lam

    def test_printed_value_is_near_the_exact_minimum_below_a_quarter(self):
        for lam, eb, exact in self.exact_rows(False):
            assert abs(Fraction(eb) - exact) <= Fraction(2) ** -55, lam
