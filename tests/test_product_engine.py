"""Tests for the site-by-site channel engine and the batched falsifier.

The references here are the materialized tensor power applied through the
Kraus-stack ``apply``, a trial-by-trial search written from the public
per-state API, and the Choi route of ``helpers.apply_via_choi``.
"""

import json
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ealab.channels
import ealab.criteria
from ealab import (
    Channel,
    Partition,
    PureState,
    apply,
    apply_local,
    bipartitions,
    choi_of,
    compose,
    depolarizing,
    ea_falsify,
    embedded_max_entangled,
    ghz,
    haar_pure,
    hermitian_eigenvalues,
    identity_channel,
    k_lea_falsify,
    partial_transpose,
    ppt_min_eigenvalue,
    random_channel,
    random_density,
    tensor,
    tensor_power,
    two_lea_verdict_heuristic,
    w_state,
)
from ealab.channels import _apply_sites
from ealab.cli import main
from ealab.criteria import _STACK_BYTES, CUT_TIE_ATOL, VERDICT_TOL
from ealab.linalg import _adjoint, _partial_transposes
from helpers import (
    apply_sites_tensordot,
    apply_via_choi,
    haar_stream_rows,
    random_hermitian,
    report_fields,
)

channel_args = st.tuples(
    st.integers(1, 4),  # Kraus rank
    st.integers(0, 2**31 - 1),  # channel seed
)


def reference_falsify(single, k, budget, seed, tol=VERDICT_TOL):
    """Trial-by-trial search: (label, state, partition, trials_used, min_eig_seen)."""
    dims = (single.in_dim,) * k
    parts = bipartitions(k)
    power = tensor_power(single, k)
    probes = [("probe:GHZ", ghz(k)), ("probe:W", w_state(k))] if single.in_dim == 2 else []
    probes += [(f"probe:psi+:{p.label()}", embedded_max_entangled(dims, p)) for p in parts]
    rows = haar_stream_rows(seed, budget, single.in_dim**k)
    seen = math.inf
    for t in range(len(probes) + budget):
        if t < len(probes):
            label, state = probes[t]
        else:
            j = t - len(probes)
            label, state = f"haar:{j}", PureState(rows[j], dims)
        out = apply(power, state, out_dims=dims)
        lows = [ppt_min_eigenvalue(out, p) for p in parts]
        worst = min(lows)
        seen = min(seen, worst)
        if worst < -tol:
            cut = next(
                p for p, low in zip(parts, lows)
                if low < -tol and low <= worst + CUT_TIE_ATOL
            )
            return label, state, cut, t + 1, seen
    return None, None, None, len(probes) + budget, seen


class TestApplyLocal:
    @settings(max_examples=30, deadline=None)
    @given(channel_args, st.integers(2, 4), st.integers(0, 2**31 - 1))
    def test_equals_materialized_power(self, args, k, state_seed):
        rank, channel_seed = args
        single = random_channel(2, kraus_rank=rank, seed=channel_seed)
        rho = random_density((2,) * k, rank=2, seed=state_seed)
        local = apply_local(single, rho)
        materialized = apply(tensor_power(single, k), rho)
        assert local.dims == materialized.dims == (2,) * k
        assert np.max(np.abs(local.matrix - materialized.matrix)) <= 1e-12

    @pytest.mark.parametrize("rank", [1, 9])
    def test_qutrit_pair_both_contractions(self, rank):
        # rank 1 acts with the Kraus operators, rank 9 with the superoperator
        single = random_channel(3, kraus_rank=rank, seed=rank)
        psi = haar_pure((3, 3), 4)
        local = apply_local(single, psi).matrix
        assert np.max(np.abs(local - apply(tensor_power(single, 2), psi).matrix)) <= 1e-12

    def test_rejects_mismatched_factors(self):
        with pytest.raises(ValueError, match="factor dimensions"):
            apply_local(depolarizing(0.5, 2), haar_pure((2, 3), 0))

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("rank", [1, 3, 4])
    def test_pure_state_gives_its_projector_output(self, k, rank):
        # a pure input skips the density check of its projector, nothing else
        single = random_channel(2, kraus_rank=rank, seed=rank)
        psi = haar_pure((2,) * k, k)
        rho = psi.density()
        assert np.array_equal(apply_local(single, psi).matrix, apply_local(single, rho).matrix)
        power = tensor_power(single, k)
        assert np.array_equal(apply(power, psi).matrix, apply(power, rho).matrix)


class TestSiteContraction:
    @pytest.mark.parametrize(
        "d_in, d_out, rank",
        # rank 1 and (2, 3, 2) act Kraus by Kraus, the rest with the superoperator
        [(2, 2, 1), (2, 2, 2), (2, 2, 4), (2, 2, 5), (3, 3, 1), (3, 3, 9), (2, 3, 2), (3, 2, 4)],
    )
    @pytest.mark.parametrize("sites", [1, 2, 3])
    def test_matches_tensordot_bit_for_bit(self, d_in, d_out, rank, sites):
        single = random_channel(d_in, d_out, kraus_rank=rank, seed=rank + sites)
        rng = np.random.default_rng((d_in, d_out, rank, sites))
        # the map on its input stack, and its adjoint (a strided K^dag, as
        # the heuristic passes it) on an output stack
        for kraus, d in ((single.kraus, d_in), (_adjoint(single.kraus), d_out)):
            stack = np.stack([random_hermitian(d**sites, rng) for _ in range(5)])
            got = _apply_sites(kraus, stack, sites)
            assert got.tobytes() == apply_sites_tensordot(kraus, stack, sites).tobytes()


class TestTensorPowerBound:
    def test_six_fold_depolarizing_refused_before_allocating(self):
        # 5^6 operators of 64 x 64 complex entries: about 1 GB
        with pytest.raises(ValueError, match="bytes"):
            tensor_power(depolarizing(0.5, 2), 6)

    def test_bound_is_exact(self, monkeypatch):
        # 25 operators of 4 x 4 complex entries: 6400 bytes
        monkeypatch.setattr(ealab.channels, "TENSOR_POWER_MAX_BYTES", 6400)
        assert len(tensor_power(depolarizing(0.5, 2), 2).kraus) == 25
        monkeypatch.setattr(ealab.channels, "TENSOR_POWER_MAX_BYTES", 6399)
        with pytest.raises(ValueError, match="6400 bytes"):
            tensor_power(depolarizing(0.5, 2), 2)

    @pytest.mark.parametrize("k", [10**4, 10**18])
    def test_huge_power_refused_at_once(self, k):
        # the size is multiplied up factor by factor, never formed as 80**k
        start = time.perf_counter()
        message = (
            r"^tensor power \d+ \(apply_local acts site by site without it\) or a lower "
            r"power needs 1024000000 bytes, above the 268435456-byte bound$"
        )
        with pytest.raises(ValueError, match=message):
            tensor_power(depolarizing(0.5, 2), k)
        assert time.perf_counter() - start < 0.1

    @pytest.mark.parametrize("k", [10**4, 10**18])
    @pytest.mark.parametrize("phase", [1.0, np.exp(0.3j)], ids=["identity", "phase"])
    def test_power_of_a_one_by_one_operator_is_the_channel(self, phase, k):
        # a single 1x1 Kraus operator passes the byte bound at every k
        single = identity_channel(1) if phase == 1.0 else Channel([[[phase]]])
        start = time.perf_counter()
        power = tensor_power(single, k)
        assert time.perf_counter() - start < 1.0
        assert np.array_equal(choi_of(power).matrix, choi_of(single).matrix)

    def test_two_one_by_one_operators_stay_bounded(self):
        message = r"^tensor power 10000 \(apply_local .*\) or a lower power needs \d+ bytes"
        with pytest.raises(ValueError, match=message):
            tensor_power(Channel([[[0.6]], [[0.8]]]), 10**4)


class TestTensorAndComposeBound:
    # depolarizing(0.5, 2) holds 5 operators of 2x2: its tensor square holds
    # 25 of 4x4 (6400 bytes), and the composition of two squares 625 of 4x4
    # (160000 bytes)

    def test_tensor_bound_is_exact(self, monkeypatch):
        e = depolarizing(0.5, 2)
        monkeypatch.setattr(ealab.channels, "TENSOR_POWER_MAX_BYTES", 6400)
        assert tensor(e, e).kraus.nbytes == 6400
        monkeypatch.setattr(ealab.channels, "TENSOR_POWER_MAX_BYTES", 6399)
        with pytest.raises(ValueError) as exc:
            tensor(e, e)
        assert str(exc.value) == (
            "a tensor product with 25 Kraus operators of 4x4 needs 6400 bytes, "
            "above the 6399-byte bound"
        )

    def test_compose_bound_is_exact(self, monkeypatch):
        e = depolarizing(0.5, 2)
        monkeypatch.setattr(ealab.channels, "TENSOR_POWER_MAX_BYTES", 160000)
        square = tensor(e, e)
        assert compose(square, square).kraus.nbytes == 160000
        monkeypatch.setattr(ealab.channels, "TENSOR_POWER_MAX_BYTES", 159999)
        with pytest.raises(ValueError) as exc:
            compose(square, square)
        assert str(exc.value) == (
            "a composition with 625 Kraus operators of 4x4 needs 160000 bytes, "
            "above the 159999-byte bound"
        )

    @pytest.mark.parametrize(
        "combine, operand",
        [
            # 625^2 operators of 256x256: about 410 GB
            (tensor, lambda: tensor_power(depolarizing(0.5, 2), 4)),
            # 257^2 operators of 16x16: about 270 MB
            (compose, lambda: depolarizing(0.5, 16)),
        ],
        ids=["tensor", "compose"],
    )
    def test_refused_before_allocating(self, combine, operand):
        e = operand()
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="-byte bound"):
                combine(e, e)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestBatchedLinalg:
    def test_stacked_partial_transpose_and_spectrum(self):
        rng = np.random.default_rng(3)
        stack = np.stack([random_hermitian(8, rng) for _ in range(5)])
        flipped = partial_transpose(stack, (2, 2, 2), (0, 2))
        evals = hermitian_eigenvalues(flipped)
        for m, f, e in zip(stack, flipped, evals):
            single = partial_transpose(m, (2, 2, 2), (0, 2))
            assert np.array_equal(f, single)
            assert np.allclose(e, hermitian_eigenvalues(single), atol=1e-13)

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3, 2), (2, 2, 2, 2), (3, 2)])
    def test_partial_transposes_of_every_cut_stack_the_single_ones(self, dims):
        d = math.prod(dims)
        rng = np.random.default_rng(d)
        stack = np.stack([random_hermitian(d, rng) for _ in range(3)])
        flips = [p.second for p in bipartitions(len(dims))] + [(), (0,)]
        got = _partial_transposes(stack, dims, flips)
        assert got.shape == (3, len(flips), d, d)
        for j, flipped in enumerate(flips):
            assert np.array_equal(got[:, j], partial_transpose(stack, dims, flipped))

    def test_stack_with_one_non_hermitian_member_rejected(self):
        stack = np.stack([np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]])])
        with pytest.raises(ValueError, match="not Hermitian"):
            hermitian_eigenvalues(stack)


class TestBatchedFalsifier:
    @settings(max_examples=25, deadline=None)
    @given(
        channel_args,
        st.sampled_from([(2, 12), (3, 6), (4, 2)]),
        st.integers(0, 2**31 - 1),
        st.booleans(),
    )
    def test_matches_trial_by_trial_reference(self, args, k_budget, seed, one_site):
        rank, channel_seed = args
        k, budget = k_budget
        single = random_channel(2, kraus_rank=rank, seed=channel_seed)
        if one_site:
            report = ea_falsify(tensor_power(single, k), (2,) * k, budget=budget, seed=seed)
        else:
            report = k_lea_falsify(single, k, budget=budget, seed=seed)
        label, state, cut, used, seen = reference_falsify(single, k, budget, seed)
        assert report.found == (label is not None)
        assert report.counterexample_label == label
        assert report.counterexample_partition == cut
        assert report.trials_used == used
        assert abs(report.min_eig_seen - seen) <= 1e-12
        if report.found:
            assert np.array_equal(report.counterexample.amplitudes, state.amplitudes)

    @settings(max_examples=20, deadline=None)
    @given(channel_args, st.integers(2, 3), st.integers(0, 2**31 - 1))
    def test_counterexamples_reverify_through_choi(self, args, k, seed):
        rank, channel_seed = args
        single = random_channel(2, kraus_rank=rank, seed=channel_seed)
        report = k_lea_falsify(single, k, budget=8, seed=seed)
        if not report.found:
            assert report.min_eig_seen >= -VERDICT_TOL
            return
        dims = (2,) * k
        out = apply_via_choi(choi_of(tensor_power(single, k)), report.counterexample.density().matrix)
        flipped = partial_transpose(out, dims, report.counterexample_partition.second)
        low = hermitian_eigenvalues(flipped)[0]
        assert low < -VERDICT_TOL
        assert abs(low - report.min_eig_seen) <= CUT_TIE_ATOL + 1e-12

    def test_tied_cuts_report_the_first_partition(self):
        # The W probe's three cuts agree to within a few ulps, so which is
        # lowest depends on summation order; the report names 02|1, the
        # first in bipartitions order.
        single = random_channel(2, kraus_rank=3, seed=2)
        report = k_lea_falsify(single, 3, budget=5, seed=0)
        assert report.counterexample_label == "probe:W"
        assert report.counterexample_partition == Partition((0, 2), (1,))
        out = apply(tensor_power(single, 3), w_state(3))
        lows = [ppt_min_eigenvalue(out, p) for p in bipartitions(3)]
        assert max(lows) - min(lows) < CUT_TIE_ATOL
        assert report.min_eig_seen == pytest.approx(min(lows), abs=1e-15)

    @pytest.mark.parametrize("seed", [0, 2])
    def test_the_lowest_cut_is_named_not_the_first_negative_one(self, seed):
        # noiseless sites, no probes: Haar trial 0 is entangled across every
        # cut, and at these seeds its lowest cut is not the first
        report = k_lea_falsify(identity_channel(2), 3, budget=1, seed=seed, include_probes=False)
        parts = bipartitions(3)
        lows = [ppt_min_eigenvalue(report.counterexample.density(), p) for p in parts]
        assert max(lows) < -VERDICT_TOL and lows[0] > min(lows) + CUT_TIE_ATOL
        assert report.counterexample_partition == parts[int(np.argmin(lows))]

    @pytest.mark.parametrize("k, budget", [(5, 6), (6, 2)])
    @pytest.mark.parametrize("lam", [0.2, 1 / 3])
    def test_entanglement_breaking_sites_never_entangle(self, k, budget, lam):
        # at lambda <= 1/3 every site breaks entanglement, so every output is
        # separable across every cut; VERDICT_TOL absorbs rounding at D = 2^k
        report = k_lea_falsify(depolarizing(lam, 2), k, budget=budget, seed=k)
        assert not report.found
        assert report.trials_used == 2 + (2 ** (k - 1) - 1) + budget
        assert report.min_eig_seen >= -VERDICT_TOL

    def test_batch_failures_after_the_first_hit_do_not_raise(self):
        # sum K^dag K = diag(1 + eps, 1) passes the channel check; two sites
        # scale an output trace by 1 + eps * (1 + |a00|^2 - |a11|^2), which
        # leaves unit trace within 1e-10 for some Haar inputs and not others.
        # Every accepted output of this near-identity pair is entangled.
        eps = 0.99e-10
        single = Channel((np.diag([np.sqrt(1 + eps), 1.0]),))

        first_two = {s: trace_errors(eps, s, 2) for s in range(200)}
        passes_first = next(s for s, e in first_two.items() if e[0] < 0.9e-10 < 1.1e-10 < e[1])
        fails_first = next(s for s, e in first_two.items() if e[0] > 1.1e-10)
        report = k_lea_falsify(single, 2, budget=8, seed=passes_first, include_probes=False)
        assert report.counterexample_label == "haar:0"
        assert report.trials_used == 1
        with pytest.raises(ValueError, match="unit trace") as info:
            k_lea_falsify(single, 2, budget=8, seed=fails_first, include_probes=False)
        assert str(info.value).startswith("trial 0: ")


class TestBatchedDraw:
    """Every Haar row the searches evaluate is the one-vector reference draw
    that follows the rows before it in ``default_rng(seed)``, byte for byte,
    whatever batch holds it."""

    @staticmethod
    def evaluated_rows(monkeypatch):
        """Every input stack the searches project, in call order."""
        calls = []
        original = ealab.criteria._projectors

        def recording(amps):
            calls.append(amps.copy())
            return original(amps)

        monkeypatch.setattr(ealab.criteria, "_projectors", recording)
        return calls

    @staticmethod
    def assert_haar_rows(rows, first, seed, dim):
        assert len(rows) > first
        reference = haar_stream_rows(seed, len(rows) - first, dim)
        assert rows[first:].tobytes() == reference.tobytes()

    @pytest.mark.parametrize("k, budget", [(2, 40), (3, 40), (4, 30), (5, 12)])
    @pytest.mark.parametrize("seed", [0, 17, 2**32, 2**64 + 3])
    def test_k_lea_falsify(self, k, budget, seed, monkeypatch):
        calls = self.evaluated_rows(monkeypatch)
        # entanglement-breaking sites: every trial of the budget is evaluated
        report = k_lea_falsify(depolarizing(0.3, 2), k, budget=budget, seed=seed)
        assert not report.found
        rows = np.concatenate(calls)
        assert len(rows) == report.trials_used
        self.assert_haar_rows(rows, report.trials_used - budget, seed, 2**k)

    @pytest.mark.parametrize("dims", [(2, 3), (3, 3)])
    @pytest.mark.parametrize("seed", [0, 17, 2**32, 2**64 + 3])
    def test_ea_falsify(self, dims, seed, monkeypatch):
        d = math.prod(dims)
        calls = self.evaluated_rows(monkeypatch)
        # below 1/(d + 1) the depolarizing channel breaks entanglement
        report = ea_falsify(depolarizing(0.5 / (d + 1), d), dims, budget=40, seed=seed)
        assert not report.found
        rows = np.concatenate(calls)
        assert len(rows) == report.trials_used
        self.assert_haar_rows(rows, report.trials_used - 40, seed, d)

    @pytest.mark.parametrize(
        "restarts, seed", [(1, 0), (6, 3), (40, 9), (6, 2**32), (40, 2**64 + 3)]
    )
    def test_heuristic_restarts(self, restarts, seed, monkeypatch):
        calls = self.evaluated_rows(monkeypatch)
        two_lea_verdict_heuristic(depolarizing(0.5, 2), restarts=restarts, seed=seed)
        # the first round projects every start: GHZ, W, then the restarts
        starts = calls[0]
        assert len(starts) == 2 + restarts
        assert starts[2:].tobytes() == haar_stream_rows(seed, restarts, 4).tobytes()


class TestCutStacks:
    def test_k7_stacks_stay_within_the_stack_bound(self, monkeypatch):
        shapes = []
        original = ealab.criteria._lowest_eigenvalues

        def recording(a, above=math.inf):
            shapes.append(a.shape)
            assert a.nbytes <= _STACK_BYTES
            return original(a, above)

        monkeypatch.setattr(ealab.criteria, "_lowest_eigenvalues", recording)
        report = k_lea_falsify(depolarizing(0.3, 2), 7, budget=4, seed=0, include_probes=False)
        assert not report.found
        # every cut of every trial went to the screen exactly once
        assert sum(math.prod(s[:2]) for s in shapes) == 4 * 63
        assert all(len(s) == 4 and s[0] == 4 and s[2:] == (128, 128) for s in shapes)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_small_batches_screen_every_cut_in_one_call(self, k, monkeypatch):
        shapes = []
        original = ealab.criteria._lowest_eigenvalues

        def recording(a, above=math.inf):
            shapes.append(a.shape)
            return original(a, above)

        monkeypatch.setattr(ealab.criteria, "_lowest_eigenvalues", recording)
        k_lea_falsify(depolarizing(0.3, 2), k, budget=4, seed=0, include_probes=False)
        assert shapes == [(4, 2 ** (k - 1) - 1, 2**k, 2**k)]


def recorded(monkeypatch, name):
    """Wrap ``ealab.criteria.<name>``; return the list of its argument tuples."""
    calls = []
    original = getattr(ealab.criteria, name)

    def recording(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(ealab.criteria, name, recording)
    return calls


def trace_failing(eps):
    """A qubit map with sum K^dag K = diag(1 + eps, 1): it passes the channel
    check, and two sites add ``trace_errors(eps, seed, n)[j]`` to the trace
    of the output of Haar trial j."""
    return Channel((np.diag([np.sqrt(1 + eps), 1.0]),))


def trace_errors(eps, seed, n):
    """What two sites of ``trace_failing(eps)`` add to the output traces of
    Haar trials 0 to n - 1 at ``seed``: eps (1 + |a_00|^2 - |a_11|^2)."""
    a = haar_stream_rows(seed, n, 4)
    return eps * (1 + abs(a[:, 0]) ** 2 - abs(a[:, 3]) ** 2)


class TestOutputRuns:
    """Outputs are made for runs of consecutive batches: one Haar draw, one
    contraction and one density check per run.  The screen still works
    batch by batch, with the floors of a batch-by-batch search."""

    @pytest.mark.parametrize(
        "k, probes, sizes",
        [
            (2, True, [4, 8, 16, 15]),
            (2, False, [4, 8, 16, 12]),
            (3, True, [4, 8, 16, 17]),
            (3, False, [4, 8, 16, 12]),
            (4, True, [4, 8, 16, 21]),
            (4, False, [4, 8, 16, 12]),
        ],
    )
    def test_screen_batches_and_floors_are_the_doubling_batches(
        self, k, probes, sizes, monkeypatch
    ):
        single, budget, seed = depolarizing(0.45, 2), 40, 4
        dims, parts = (2,) * k, bipartitions(k)
        calls = recorded(monkeypatch, "_lowest_eigenvalues")
        report = k_lea_falsify(single, k, budget=budget, seed=seed, include_probes=probes)
        assert not report.found
        # one entry per batch: its size and floor, over its groups of cuts
        batches, cuts = [], 0
        for pt, above in calls:
            if cuts == 0:
                batches.append((len(pt), above))
            assert (len(pt), above) == batches[-1]
            cuts = (cuts + pt.shape[1]) % len(parts)
        assert cuts == 0
        assert [size for size, _ in batches] == sizes
        # each floor is the lowest PT eigenvalue of every earlier trial
        power = tensor_power(single, k)
        inputs = [ghz(k), w_state(k)] + [embedded_max_entangled(dims, p) for p in parts]
        inputs = inputs if probes else []
        inputs += [PureState(row, dims) for row in haar_stream_rows(seed, budget, 2**k)]
        worst = [
            min(ppt_min_eigenvalue(apply(power, psi, out_dims=dims), p) for p in parts)
            for psi in inputs
        ]
        starts = np.cumsum([0] + sizes[:-1])
        assert batches[0][1] == math.inf
        for (_, above), start in zip(batches[1:], starts[1:]):
            assert above == pytest.approx(min(worst[:start]), abs=1e-12)

    @pytest.mark.parametrize("k", [2, 3])
    def test_two_runs_per_search_at_small_k(self, k, monkeypatch):
        contracted = recorded(monkeypatch, "_apply_sites")
        checked = recorded(monkeypatch, "_first_invalid_density")
        drawn = recorded(monkeypatch, "_haar_rows")
        report = k_lea_falsify(depolarizing(0.3, 2), k, budget=40, seed=0)
        assert not report.found
        # the first batch alone, then the rest of the search in one run
        assert [len(stack) for _, stack, _ in contracted] == [4, report.trials_used - 4]
        assert [len(stack) for (stack,) in checked] == [4, report.trials_used - 4]
        # at k = 2 the first batch holds 3 probes and Haar trial 0; every
        # run draws the next rows of the search's one generator
        assert [n for _, n, _ in drawn] == ([1, 39] if k == 2 else [40])
        assert all(rng is drawn[0][0] for rng, _, _ in drawn)

    @pytest.mark.parametrize(
        "k, budget, rows",
        [
            # 5 probes: the first batch holds only probes
            (3, 40, [40]),
            # 9 probes: probes 4-8 share the second batch with Haar trials 0-2
            (4, 3, [3]),
            (3, 0, []),
        ],
    )
    def test_a_run_of_probes_alone_seeds_nothing(self, k, budget, rows, monkeypatch):
        built = []
        default_rng = np.random.default_rng

        def recording(seed):
            built.append(seed)
            return default_rng(seed)

        monkeypatch.setattr(np.random, "default_rng", recording)
        drawn = recorded(monkeypatch, "_haar_rows")
        report = k_lea_falsify(depolarizing(0.3, 2), k, budget=budget, seed=5)
        assert not report.found
        # the generator is built at the first Haar row, once per search
        assert built == [5] * bool(rows)
        assert [n for _, n, _ in drawn] == rows

    @pytest.mark.parametrize("k", [3, 4])
    def test_a_probe_hit_builds_no_generator(self, k, monkeypatch):
        # from k = 3 the first run, where GHZ hits, holds only probes
        monkeypatch.setattr(np.random, "default_rng", None)  # a call would raise
        report = k_lea_falsify(depolarizing(0.9, 2), k, budget=10**6, seed=0)
        assert report.counterexample_label.startswith("probe:")

    # at this seed and eps the first 27 Haar inputs are clear of the
    # unit-trace bound 1e-10, and trial 27, the last of batch 12-28 in the
    # run of trials 4-39, is the first to fail it
    EPS, SEED = 0.7e-10, 2607

    def assert_first_failure_is_trial_27(self):
        errors = trace_errors(self.EPS, self.SEED, 40)
        assert max(errors[:27]) < 0.95e-10 < 1.05e-10 < errors[27]

    def test_a_hit_beats_a_failed_check_later_in_its_run(self):
        # Haar trial 5 (batch 4-12) is entangled
        self.assert_first_failure_is_trial_27()
        single = compose(depolarizing(0.6, 2), trace_failing(self.EPS))
        report = k_lea_falsify(single, 2, budget=40, seed=self.SEED, include_probes=False)
        assert report.counterexample_label == "haar:5"
        assert report.trials_used == 6

    def test_a_failed_check_with_no_earlier_hit_names_its_trial(self):
        # entanglement-breaking sites: no trial is a counterexample
        self.assert_first_failure_is_trial_27()
        single = compose(depolarizing(0.3, 2), trace_failing(self.EPS))
        with pytest.raises(ValueError) as info:
            k_lea_falsify(single, 2, budget=40, seed=self.SEED, include_probes=False)
        assert str(info.value).startswith("trial 27: matrix does not have unit trace")


# Searches without probes whose counterexample is a Haar trial of a later
# run: sites just past the noise where some Haar inputs stay entangled.
HAAR_HITS = [(2, 0.6, 1, "haar:16"), (3, 0.57, 1, "haar:14"), (4, 0.545, 0, "haar:15")]


class TestHaarStream:
    """Haar trial j, labelled ``haar:j``, is row j of the search's one
    ``default_rng(seed)`` stream, so a report does not depend on how the
    trials are batched or grouped into runs."""

    @staticmethod
    def one_piece_row(seed, j, dim):
        """Row j of the first j + 1 rows of ``default_rng(seed)``, drawn in
        one ``standard_normal`` call and normalized by ``np.linalg.norm``."""
        x = np.random.default_rng(seed).standard_normal((j + 1, 2 * dim))[j]
        v = x[:dim] + 1j * x[dim:]
        return v / np.linalg.norm(v)

    @pytest.mark.parametrize("k, lam, seed, label", HAAR_HITS)
    def test_haar_j_is_row_j_of_one_draw(self, k, lam, seed, label):
        single = depolarizing(lam, 2)
        report = k_lea_falsify(single, k, budget=40, seed=seed, include_probes=False)
        assert report.counterexample_label == label
        j = int(label.removeprefix("haar:"))
        assert report.trials_used == j + 1
        expected = self.one_piece_row(seed, j, 2**k)
        assert report.counterexample.amplitudes.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("seed", [0, 3, 2**32, 2**64 + 3])
    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (2, 2, 2)])
    def test_haar_pure_is_haar_0(self, dims, seed):
        # noiseless: every Haar input is entangled, so trial 0 is reported
        channel = identity_channel(math.prod(dims))
        report = ea_falsify(channel, dims, budget=3, seed=seed, include_probes=False)
        assert report.counterexample_label == "haar:0"
        expected = haar_pure(dims, seed).amplitudes
        assert report.counterexample.amplitudes.tobytes() == expected.tobytes()

    @pytest.mark.parametrize(
        "k, lam, seed, probes",
        [(k, lam, seed, False) for k, lam, seed, _ in HAAR_HITS]
        + [(2, 0.3, 4, True), (3, 0.5, 1, True), (4, 0.5, 2, True), (3, 0.6, 0, True)],
    )
    def test_reports_do_not_depend_on_the_batching(self, k, lam, seed, probes, monkeypatch):
        def search():
            single = depolarizing(lam, 2)
            return k_lea_falsify(single, k, budget=40, seed=seed, include_probes=probes)

        whole = search()
        # room for three density matrices a stack and one cut a block: every
        # batch holds at most three trials and is a run of its own
        matrix = 16 * 4**k
        monkeypatch.setattr(ealab.criteria, "_STACK_BYTES", 3 * matrix)
        monkeypatch.setattr(ealab.criteria, "_BLOCK_BYTES", matrix)
        drawn = recorded(monkeypatch, "_haar_rows")
        small = search()
        assert all(n <= 3 for _, n, _ in drawn)
        assert len(drawn) > 1 or whole.counterexample_label == "probe:GHZ"
        assert report_fields(small) == report_fields(whole)


class TestFalsifierBoundary:
    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError, match="budget"):
            k_lea_falsify(depolarizing(0.5, 2), 2, budget=-10, seed=0)

    def test_zero_trial_search_rejected(self):
        with pytest.raises(ValueError, match="no trials"):
            ea_falsify(identity_channel(4), (2, 2), budget=0, include_probes=False)

    def test_composite_too_large_rejected_before_any_state(self):
        # one 2^11-dimensional density matrix takes 64 MiB
        with pytest.raises(ValueError, match="bytes"):
            k_lea_falsify(depolarizing(0.5, 2), 11, budget=1, seed=0)

    def test_one_dimensional_factor_rejected(self):
        with pytest.raises(ValueError, match="dimension >= 2"):
            ea_falsify(identity_channel(2), (1, 2), budget=1, seed=0)

    def test_probes_alone_are_a_search(self):
        report = k_lea_falsify(depolarizing(0.2, 2), 2, budget=0, seed=0)
        assert report.trials_used == 3
        assert math.isfinite(report.min_eig_seen)

    @pytest.mark.parametrize("flags", [("--budget", "-10")])
    def test_cli_exits_2_without_a_report(self, flags, tmp_path, capsys):
        spec = tmp_path / "channel.json"
        spec.write_text(json.dumps({"kind": "depolarizing", "lambda": 0.2, "d": 2}))
        code = main(["falsify", "--spec", str(spec), "--k", "2", "--seed", "0", *flags])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ")
