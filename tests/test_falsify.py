"""Tests for the randomized entanglement-annihilation falsifier."""

import math
import tracemalloc

import numpy as np
import pytest

import ealab.criteria
from ealab import (
    Partition,
    apply,
    bipartitions,
    depolarizing,
    ea_falsify,
    embedded_max_entangled,
    ghz,
    identity_channel,
    k_lea_falsify,
    ppt_min_eigenvalue,
    random_channel,
    tensor_power,
    w_state,
)
from ealab.states import NORM_ATOL, _bell_row, _ghz_row, _w_row
from helpers import report_fields


def reverify(report, channel, dims):
    """Recompute the witnessing PT eigenvalue of a reported counterexample."""
    out = apply(channel, report.counterexample, out_dims=dims)
    return ppt_min_eigenvalue(out, report.counterexample_partition)


class TestEmbeddedProbe:
    def test_contiguous_split_matches_max_entangled(self):
        psi = embedded_max_entangled((2, 2), Partition((0,), (1,)))
        assert np.allclose(psi.amplitudes, np.array([1, 0, 0, 1]) / np.sqrt(2))

    def test_split_with_interleaved_factors(self):
        psi = embedded_max_entangled((2, 2, 2), Partition((0, 2), (1,)))
        rho = psi.density()
        # maximally entangled across the split: both marginals maximally mixed
        assert np.allclose(rho.marginal((1,)).matrix, np.eye(2) / 2)
        assert ppt_min_eigenvalue(rho, Partition((0, 2), (1,))) < -0.4

    def test_bound_is_exact(self, monkeypatch):
        part = Partition((0,), (1, 2))
        monkeypatch.setattr(ealab.criteria, "_STACK_BYTES", 128)
        assert embedded_max_entangled((2, 2, 2), part).amplitudes.nbytes == 128
        monkeypatch.setattr(ealab.criteria, "_STACK_BYTES", 127)
        with pytest.raises(ValueError) as exc:
            embedded_max_entangled((2, 2, 2), part)
        assert str(exc.value) == (
            "a maximally entangled state of dimension 8 needs 128 bytes, above the 127-byte bound"
        )

    def test_huge_state_is_refused_before_allocating(self):
        # computed, not run: 2**30 amplitudes zero-filled, 16 GiB
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="above the 16777216-byte bound"):
                embedded_max_entangled((2**15, 2**15), Partition((0,), (1,)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestFalsifier:
    def test_eb_channel_yields_nothing(self):
        report = k_lea_falsify(depolarizing(1 / 3, 2), 2, budget=1000, seed=0)
        assert not report.found
        assert report.min_eig_seen >= -1e-9
        # probes (GHZ, W, one embedded pair) plus the full Haar budget
        assert report.trials_used == 1003

    def test_ghz_probe_catches_triple_noise(self):
        report = k_lea_falsify(depolarizing(0.6, 2), 3, budget=100, seed=0)
        assert report.found
        assert report.counterexample_label == "probe:GHZ"
        assert report.trials_used == 1

    def test_identity_falls_to_haar_sample(self):
        report = ea_falsify(
            identity_channel(4), (2, 2), budget=10, seed=0, include_probes=False
        )
        assert report.found
        assert report.counterexample_label.startswith("haar:")

    def test_pair_noise_above_boundary(self):
        report = k_lea_falsify(depolarizing(0.9, 2), 2, budget=100, seed=3)
        assert report.found
        assert report.counterexample_label.startswith("probe:")

    def test_low_noise_triple_survives_search(self):
        report = k_lea_falsify(depolarizing(0.2, 2), 3, budget=1000, seed=1)
        assert not report.found

    def test_counterexamples_reverify(self):
        cases = [
            (tensor_power(depolarizing(0.6, 2), 3), (2, 2, 2)),
            (tensor_power(depolarizing(0.9, 2), 2), (2, 2)),
            (identity_channel(4), (2, 2)),
        ]
        for channel, dims in cases:
            report = ea_falsify(channel, dims, budget=50, seed=5)
            assert report.found
            assert reverify(report, channel, dims) < -1e-9

    def test_determinism_across_runs(self):
        a = k_lea_falsify(depolarizing(0.65, 2), 2, budget=50, seed=11)
        b = k_lea_falsify(depolarizing(0.65, 2), 2, budget=50, seed=11)
        assert report_fields(a) == report_fields(b)

    def test_seed_changes_haar_stream(self):
        a = ea_falsify(identity_channel(4), (2, 2), budget=1, seed=1, include_probes=False)
        b = ea_falsify(identity_channel(4), (2, 2), budget=1, seed=2, include_probes=False)
        assert not np.allclose(
            a.counterexample.amplitudes, b.counterexample.amplitudes
        )

    def test_partitions_checked_cover_all_splits(self):
        report = k_lea_falsify(depolarizing(0.2, 2), 3, budget=1, seed=0)
        assert set(report.partitions_checked) == set(bipartitions(3))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            ea_falsify(identity_channel(4), (2, 2, 2), budget=1, seed=0)

    def test_huge_budget_allocates_nothing_up_front(self):
        # the batch ranges are generated lazily, so a budget that is never
        # reached costs no memory
        tracemalloc.start()
        try:
            report = k_lea_falsify(depolarizing(0.6, 2), 2, budget=10**11)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.counterexample_label == "probe:GHZ"
        assert report.trials_used == 1
        assert peak < 20 * 2**20

    def test_k_must_be_at_least_two(self):
        with pytest.raises(ValueError):
            k_lea_falsify(depolarizing(0.5, 2), 1, budget=1, seed=0)

    @pytest.mark.parametrize("k", [2**63, 10**30])
    def test_huge_k_is_refused_before_any_state(self, k, monkeypatch):
        def no_search(*args):
            raise AssertionError("the search started")

        monkeypatch.setattr(ealab.criteria, "_falsify", no_search)
        message = "2048 or more needs 67108864 bytes, above the 16777216-byte bound"
        with pytest.raises(ValueError, match=message):
            k_lea_falsify(depolarizing(0.5, 2), k)

    @pytest.mark.parametrize(
        "search, message",
        [
            (lambda: ea_falsify(random_channel(4, 2, seed=0), (2, 2)),
             "entanglement annihilation concerns channels from a composite system to "
             "itself; got a dimension-changing channel"),
            (lambda: ea_falsify(identity_channel(4), (4,)),
             "falsification needs a composite system (>= 2 factors)"),
            (lambda: ea_falsify(identity_channel(4), 4),
             "falsification needs a composite system (>= 2 factors)"),
            (lambda: embedded_max_entangled(4, Partition((0,), (1,))),
             "partition 0|1 does not cover all 1 factors"),
            (lambda: k_lea_falsify(random_channel(2, 3, seed=0), 2),
             "k-local analysis expects an endomorphic channel"),
        ],
        ids=["dimension-changing", "single-factor", "scalar-dims", "embedded-scalar-dims",
             "non-endomorphic"],
    )
    def test_unfit_channel_or_system_is_named(self, search, message):
        with pytest.raises(ValueError) as exc:
            search()
        assert str(exc.value) == message


def bell_reference(dims, part):
    """``embedded_max_entangled`` amplitudes built as a block matrix with
    1/sqrt(m) on its diagonal, its factors moved back into factor order."""
    d_a, d_b = part.block_dims(dims)
    m = min(d_a, d_b)
    mat = np.zeros((d_a, d_b), dtype=complex)
    mat[np.arange(m), np.arange(m)] = 1.0 / np.sqrt(m)
    perm = part.first + part.second
    return mat.reshape([dims[p] for p in perm]).transpose(np.argsort(perm)).reshape(-1)


def probe_rows(dims):
    """(row, public state, reference amplitudes) per falsifier probe of dims."""
    cases = []
    if all(d == 2 for d in dims):
        n = len(dims)
        ghz_ref = np.zeros(2**n, dtype=complex)
        ghz_ref[[0, -1]] = 1.0 / np.sqrt(2)
        w_ref = np.zeros(2**n, dtype=complex)
        w_ref[[1 << j for j in range(n)]] = 1.0 / np.sqrt(n)
        cases += [(_ghz_row(n), ghz(n), ghz_ref), (_w_row(n), w_state(n), w_ref)]
    for part in bipartitions(len(dims)):
        public = embedded_max_entangled(dims, part)
        cases.append((_bell_row(dims, part.first, part.second), public, bell_reference(dims, part)))
    return cases


PROBE_DIMS = pytest.mark.parametrize(
    "dims", [(2,) * k for k in range(2, 11)] + [(2, 3), (3, 2, 2), (2, 3, 2)],
    ids=lambda ds: "x".join(map(str, ds)),
)


class TestProbeRows:
    """The falsifier's probes are plain amplitude rows, never checked as
    ``PureState``s on the way in: each must be its public state, bit for bit,
    and a unit vector."""

    @PROBE_DIMS
    def test_each_row_is_its_public_state(self, dims):
        for row, public, reference in probe_rows(dims):
            assert row.dtype == complex and row.shape == (math.prod(dims),)
            assert row.tobytes() == public.amplitudes.tobytes() == reference.tobytes()
            assert public.dims == dims

    @PROBE_DIMS
    def test_each_row_has_unit_norm(self, dims):
        for row, _, _ in probe_rows(dims):
            assert abs(np.linalg.norm(row) - 1.0) <= NORM_ATOL

    def test_a_ghz_probe_counterexample_is_ghz(self):
        report = k_lea_falsify(identity_channel(2), 3, budget=0)
        assert report.counterexample_label == "probe:GHZ"
        state = report.counterexample
        assert state.dims == (2, 2, 2)
        assert state.amplitudes.tobytes() == ghz(3).amplitudes.tobytes()

    @pytest.mark.parametrize("dims", [(2, 3), (3, 2, 2)])
    def test_a_cut_probe_counterexample_is_its_embedded_state(self, dims):
        report = ea_falsify(identity_channel(math.prod(dims)), dims, budget=0)
        part = bipartitions(len(dims))[0]
        assert report.counterexample_label == f"probe:psi+:{part.label()}"
        state = report.counterexample
        assert state.dims == dims
        assert state.amplitudes.tobytes() == embedded_max_entangled(dims, part).amplitudes.tobytes()


class TestBipartitionsCache:
    @pytest.mark.parametrize("n", [2, 3, 7, 10])
    def test_repeated_calls_return_the_same_tuple(self, n):
        assert bipartitions(n) is bipartitions(n)
        assert bipartitions(np.int64(n)) is bipartitions(n)

    @pytest.mark.parametrize("n, message", [
        (1, "need at least 2 factors, got 1"),
        (11, "a density matrix of dimension 2048 or more needs 67108864 bytes, "
             "above the 16777216-byte bound"),
        (2.5, "factor count must be an integer, got 2.5"),
        (math.nan, "factor count must be an integer, got nan"),
        ("3", "factor count must be an integer, got '3'"),
        ([3], "factor count must be an integer, got [3]"),
    ])
    def test_refused_counts_keep_their_messages(self, n, message):
        with pytest.raises(ValueError) as exc:
            bipartitions(n)
        assert str(exc.value) == message
