"""The stacked sweep: ``cli.sweep_rows`` against a row-by-row reference."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ealab import cli
from ealab.cli import SWEEP_CHUNK_ROWS, sweep_row, sweep_rows
from helpers import reference_sweep_row


@st.composite
def grids(draw):
    """Lambdas in [0, 1] with 0 and 1, where depolarizing has fewer Kraus
    operators, each inserted at a drawn position."""
    lams = draw(st.lists(st.floats(0.0, 1.0), max_size=30))
    for edge in (0.0, 1.0):
        lams.insert(draw(st.integers(0, len(lams))), edge)
    return lams


def csv_lines(rows):
    return [row.csv() for row in rows]


class TestMatchesReference:
    @settings(max_examples=40, deadline=None)
    @given(grids(), st.integers(1, 7), st.sampled_from([0.0, 1e-9, 0.05]))
    def test_csv_bytes_equal_per_row_reference(self, lams, chunk, tol):
        # a small chunk puts the grid across several chunks
        with mock.patch.object(cli, "SWEEP_CHUNK_ROWS", chunk):
            stacked = csv_lines(sweep_rows(lams, tol))
        assert stacked == [reference_sweep_row(lam, tol).csv() for lam in lams]

    def test_grid_across_real_chunks(self):
        # 0 and 1 sit on both sides of the first and second chunk boundaries
        n = 2 * SWEEP_CHUNK_ROWS + 40
        lams = list(np.linspace(0.0, 1.0, n))
        for i in (SWEEP_CHUNK_ROWS - 1, SWEEP_CHUNK_ROWS, 2 * SWEEP_CHUNK_ROWS):
            lams[i] = 0.0
            lams[i + 1] = 1.0
        stacked = csv_lines(sweep_rows(lams))
        assert len(stacked) == n
        assert stacked == [reference_sweep_row(float(lam)).csv() for lam in lams]

    @pytest.mark.parametrize("lam", [0.0, 1 / 3, 0.5, 1 / np.sqrt(3), 0.5567, 1.0])
    def test_one_row_call(self, lam):
        assert sweep_row(lam) == sweep_rows([lam])[0] == reference_sweep_row(lam)

    def test_empty_grid(self):
        assert sweep_rows([]) == []


@pytest.mark.parametrize("lam", [-0.1, 1.1, np.nan])
def test_lambda_out_of_range_rejected(lam):
    with pytest.raises(ValueError, match="depolarizing parameter"):
        sweep_rows([0.5, lam])


def traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# 2500 rows (five chunks) peak near 1.1 MiB in 512-row chunks, most of it
# the rows themselves, and near 2.7 MiB as one stack.
SWEEP_PEAK_BOUND = 2 * 2**20


class TestBoundedMemory:
    LAMS = list(np.linspace(0.0, 1.0, 2500))

    def test_chunked_peak_is_bounded(self):
        assert traced_peak(lambda: sweep_rows(self.LAMS)) < SWEEP_PEAK_BOUND

    def test_one_stack_would_exceed_the_bound(self):
        with mock.patch.object(cli, "SWEEP_CHUNK_ROWS", len(self.LAMS)):
            assert traced_peak(lambda: sweep_rows(self.LAMS)) > SWEEP_PEAK_BOUND
