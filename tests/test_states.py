"""Tests for state constructors and samplers."""

import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import ealab
import ealab.channels
import ealab.linalg
import ealab.states
from ealab import (
    DensityOperator,
    MeasurePrepare,
    Partition,
    PureState,
    SchmidtDecomposition,
    bipartitions,
    classically_correlated_pair,
    depolarizing,
    ea_falsify,
    ea_mixing_channel,
    embedded_max_entangled,
    ghz,
    haar_pure,
    identity_channel,
    k_lea_falsify,
    max_entangled,
    max_entangled_projector,
    min_eigenvalue,
    partial_transpose,
    random_density,
    schmidt,
    schmidt_pure,
    tensor_pure,
    w_state,
    werner,
)
from ealab.states import NORM_ATOL, _first_invalid_density, _haar_rows
from helpers import haar_amplitudes_two_draws, haar_stream_rows, random_density_two_draws


@pytest.mark.parametrize(
    "sample, shown",
    [
        (lambda: haar_pure((2, 2), -1), "-1"),
        (lambda: haar_pure((2,), np.int64(-3)), "-3"),
        (lambda: haar_pure((2,), (4, -1)), "(4, -1)"),
        (lambda: ealab.channels.random_channel(2, seed=-1), "-1"),
        (lambda: random_density((2,), rank=1, seed=-1), "-1"),
    ],
)
def test_negative_seed_is_named(sample, shown):
    with pytest.raises(ValueError) as exc:
        sample()
    assert str(exc.value) == f"seed must be nonnegative, got {shown}"


@pytest.mark.parametrize(
    "seed", [1.5, np.nan, np.inf, -np.inf, None, "3", (1.5, 2)], ids=repr
)
@pytest.mark.parametrize(
    "sample",
    [
        lambda s: haar_pure((2,), s),
        lambda s: ealab.random_channel(2, seed=s),
        lambda s: random_density((2,), 1, s),
        lambda s: k_lea_falsify(depolarizing(0.5, 2), 2, budget=1, seed=s),
        lambda s: ealab.two_lea_verdict_heuristic(depolarizing(0.5, 2), 0, seed=s),
    ],
    ids=["haar_pure", "random_channel", "random_density", "k_lea_falsify", "heuristic"],
)
def test_non_integral_seed_is_named(sample, seed):
    with pytest.raises(ValueError, match="^seed must be an integer"):
        sample(seed)


@pytest.mark.parametrize("seed", [((101, 0), 7), [[101, 0], 7], (np.int64(3), (4, (5,)))])
def test_nested_seed_draws_numpys_stream(seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(6)
    v = x[:3] + 1j * x[3:]
    assert haar_pure(3, seed).amplitudes.tobytes() == (v / np.linalg.norm(v)).tobytes()


@pytest.mark.parametrize("dims", [2.0, np.float64(2), np.int64(2), np.array(2)])
def test_scalar_dimension_is_one_factor(dims):
    psi = haar_pure(dims, 0)
    assert psi.dims == (2,)
    assert psi.amplitudes.tobytes() == haar_pure(2, 0).amplitudes.tobytes()


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: werner(1.5), "mixing parameter must lie in [0, 1], got 1.5"),
        (lambda: schmidt_pure(-0.1), "Schmidt weight must lie in [0, 1], got -0.1"),
        (lambda: ealab.two_lea_pt_eigenvalues(np.nan, 0.5), "lambda must lie in [0, 1], got nan"),
        (lambda: ealab.two_lea_pt_eigenvalues(0.5, 2), "q0 must lie in [0, 1], got 2.0"),
        (lambda: ealab.ghz_three_lea_min_eig(-0.2), "lambda must lie in [0, 1], got -0.2"),
        (lambda: schmidt(ghz(3), (0, 3)), "left block (0, 3) out of range for 3 factors"),
        (lambda: ghz(1), "need at least 2 qubits, got 1"),
        (lambda: w_state(0), "need at least 2 qubits, got 0"),
        (lambda: ea_falsify(identity_channel(4), (2, -2)),
         "factor dimensions must be positive, got (2, -2)"),
        (lambda: embedded_max_entangled((2, -2), Partition((0,), (1,))),
         "factor dimensions must be positive, got (2, -2)"),
        (lambda: SchmidtDecomposition([0.8, 0.5], np.eye(2), np.eye(2)),
         "squared coefficients must sum to one"),
        (lambda: DensityOperator(np.ones((2, 3)) / 2, (2,)),
         "expected a square matrix, got shape (2, 3)"),
        (lambda: DensityOperator(np.eye(2)[None] / 2, (2,)),
         "expected a square matrix, got shape (1, 2, 2)"),
    ],
)
def test_range_and_index_messages(build, message):
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == message


# n qubits, or n factors of bipartitions, within the falsifier's composite bound
_QUBIT_BUILDERS = pytest.mark.parametrize(
    "build", [ghz, w_state, bipartitions], ids=["ghz", "w_state", "bipartitions"]
)


@_QUBIT_BUILDERS
def test_ten_qubits_are_the_bound(build):
    build(10)
    with pytest.raises(ValueError) as exc:
        build(11)
    assert str(exc.value) == (
        "a density matrix of dimension 2048 or more needs at least 67108864 bytes, "
        "above the falsifier's 16777216-byte bound"
    )


@_QUBIT_BUILDERS
@pytest.mark.parametrize("n", [10**30, 2**63])
def test_huge_qubit_counts_are_refused_at_once(build, n):
    start = time.perf_counter()
    with pytest.raises(ValueError, match="above the falsifier's 16777216-byte bound"):
        build(n)
    assert time.perf_counter() - start < 1.0


class TestInvariants:
    def test_pure_state_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="normalized"):
            PureState(np.array([1.0, 1.0]), (2,))

    def test_pure_state_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            PureState(np.array([1.0, 0.0, 0.0]), (2, 2))

    def test_density_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            DensityOperator(np.array([[0.5, 0.5], [0.0, 0.5]]), (2,))

    def test_density_rejects_wrong_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityOperator(np.eye(2), (2,))

    def test_density_rejects_negative(self):
        with pytest.raises(ValueError, match="positive semidefinite"):
            DensityOperator(np.diag([1.5, -0.5]), (2,))

    def test_pure_state_rejects_nan(self):
        with pytest.raises(ValueError, match="normalized"):
            PureState(np.array([np.nan, 1.0]), (2,))

    @pytest.mark.parametrize("entry", [(0, 0), (0, 1)])
    def test_density_rejects_nan(self, entry):
        m = np.diag([0.5, 0.5]).astype(complex)
        m[entry] = np.nan
        with pytest.raises(ValueError):
            DensityOperator(m, (2,))

    def test_density_check_flags_nan(self):
        stack = np.stack([np.eye(2) / 2, np.diag([np.nan, 0.5])]).astype(complex)
        index, message = _first_invalid_density(stack)
        assert index == 1
        assert "Hermitian" in message
        assert _first_invalid_density(stack[:1]) is None

    def test_density_check_names_the_first_failure(self, eigensolved):
        valid = np.eye(2) / 2
        not_psd = np.diag([1.5, -0.5])
        stack = np.stack([valid, valid, not_psd, np.eye(2)]).astype(complex)
        index, message = _first_invalid_density(stack)
        assert index == 2
        assert "positive semidefinite" in message
        index, message = _first_invalid_density(stack[[0, 3, 2]])
        assert index == 1
        assert "unit trace" in message
        # no operator after the first invalid one is eigensolved: only the
        # one not positive semidefinite, and only when it comes first
        for bad in ([[0.5, 0.1], [0.0, 0.5]], np.diag([np.nan, 0.5])):
            eigensolved.clear()
            index, message = _first_invalid_density(
                np.stack([valid, bad, not_psd, valid]).astype(complex)
            )
            assert (index, eigensolved) == (1, [])
            assert "Hermitian" in message
            index, message = _first_invalid_density(
                np.stack([valid, not_psd, bad, valid]).astype(complex)
            )
            assert (index, eigensolved) == (1, [1])
            assert "positive semidefinite" in message

    @pytest.mark.parametrize("coefficients", [[np.nan, 0.0], [1.0, np.nan]])
    def test_schmidt_decomposition_rejects_nan(self, coefficients):
        with pytest.raises(ValueError):
            SchmidtDecomposition(coefficients, np.eye(2), np.eye(2))

    @given(
        st.lists(st.floats(-10, 10), min_size=4, max_size=32),
        st.floats(-2 * NORM_ATOL, 2 * NORM_ATOL),
    )
    def test_normalized_amplitudes_give_valid_projectors(self, parts, stretch):
        # the falsifier checks only the amplitude norm of its inputs
        n = len(parts) // 2
        amp = np.array(parts[:n]) + 1j * np.array(parts[n : 2 * n])
        norm = np.linalg.norm(amp)
        assume(norm > 0)
        amp = amp / norm * (1.0 + stretch)
        assume(abs(np.linalg.norm(amp) - 1.0) <= NORM_ATOL)
        rho = np.outer(amp, amp.conj())
        assert _first_invalid_density(rho[None]) is None

    def test_arrays_are_frozen(self):
        psi = max_entangled(2)
        with pytest.raises(ValueError):
            psi.amplitudes[0] = 0.0


class TestHermiticityCheckedOnce:
    @pytest.fixture
    def defect_calls(self, monkeypatch):
        calls = []
        original = ealab.linalg.hermiticity_defect

        def counted(m):
            calls.append(np.shape(m))
            return original(m)

        for module in (ealab.linalg, ealab.states, ealab.channels):
            monkeypatch.setattr(module, "hermiticity_defect", counted)
        return calls

    def test_density_operator(self, defect_calls):
        DensityOperator(np.eye(4) / 4, (2, 2))
        assert len(defect_calls) == 1

    def test_measure_prepare_effects(self, defect_calls):
        preps = (werner(0.5), classically_correlated_pair())
        defect_calls.clear()
        effect = np.diag([1.0, 0.5, 0.5, 0.0])
        MeasurePrepare((effect, np.eye(4) - effect), preps)
        # one check of the stacked effects
        assert defect_calls == [(2, 4, 4)]

    def test_falsifier_batch(self, defect_calls):
        # one validation of the output stack, then one check of the stacked
        # partial transposes of all three cuts inside hermitian_eigenvalues
        single = depolarizing(0.2, 2)
        report = k_lea_falsify(single, 3, budget=4, seed=0, include_probes=False)
        assert not report.found
        assert defect_calls == [(4, 8, 8), (4, 3, 8, 8)]

    def test_ea_mixing_channel(self, defect_calls):
        bell = max_entangled(2).density()
        defect_calls.clear()
        ea_mixing_channel(0.3 * np.eye(4), bell)
        # the threshold's PT spectrum, the mixture prepare and the stacked
        # effects; neither an effect nor the Choi operator is checked again
        assert defect_calls == [(4, 4), (1, 4, 4), (2, 4, 4)]


class TestMaxEntangled:
    def test_qubit_amplitudes(self):
        psi = max_entangled(2)
        assert np.allclose(psi.amplitudes, np.array([1, 0, 0, 1]) / np.sqrt(2))

    def test_marginals_maximally_mixed(self):
        for d in (2, 3):
            rho = max_entangled(d).density()
            for k in (0, 1):
                assert np.allclose(rho.marginal((k,)).matrix, np.eye(d) / d)

    def test_self_overlap(self):
        psi = max_entangled(3)
        assert abs(psi.overlap(psi)) ** 2 == pytest.approx(1.0)

    def test_rejects_small_dimension(self):
        with pytest.raises(ValueError):
            max_entangled(1)

    def test_amplitudes_past_the_stack_bound_are_refused(self):
        # 1024^2 amplitudes fill the 16 MiB bound; d = 10^8 would need 142 PiB
        assert max_entangled(1024).dim == 1024**2
        with pytest.raises(ValueError) as exc:
            max_entangled(1025)
        assert str(exc.value) == (
            "a maximally entangled state of local dimension 1025 needs 16810000 "
            "bytes of amplitudes, above the 16777216-byte bound"
        )
        with pytest.raises(ValueError, match="above the 16777216-byte bound"):
            max_entangled(10**8)

    @pytest.mark.parametrize("d", range(2, 10))
    def test_amplitudes_are_the_diagonal_construction(self, d):
        # reference: the stride-(d + 1) diagonal, written out by hand
        amp = np.zeros(d * d, dtype=complex)
        amp[:: d + 1] = 1.0 / np.sqrt(d)
        assert max_entangled(d).amplitudes.tobytes() == amp.tobytes()


class TestWerner:
    def test_fully_mixed_end(self):
        assert np.allclose(werner(0.0, 2).matrix, np.eye(4) / 4)

    def test_pure_end(self):
        psi = max_entangled(2)
        assert np.allclose(werner(1.0, 2).matrix, psi.density().matrix)

    def test_separability_boundary(self):
        w = werner(1 / 3, 2)
        flipped = partial_transpose(w.matrix, (2, 2), (1,))
        assert abs(min_eigenvalue(flipped)) < 1e-12

    def test_range_check(self):
        with pytest.raises(ValueError):
            werner(1.2, 2)
        with pytest.raises(ValueError):
            werner(-0.1, 2)

    def test_first_dimension_past_the_byte_bound_is_refused(self):
        # 64^4 entries of 16 bytes fill the 2**28-byte bound; d = 65 passes
        # it, and d = 1000 would need 14.6 TiB
        message = (
            "a 4225x4225 matrix of local dimension 65 needs 285610000 bytes, "
            "above the 268435456-byte bound"
        )
        tracemalloc.start()
        try:
            for build in (lambda: werner(0.5, 65), lambda: max_entangled_projector(65)):
                with pytest.raises(ValueError) as exc:
                    build()
                assert str(exc.value) == message
            with pytest.raises(ValueError, match="above the 268435456-byte bound"):
                werner(0.5, 1000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_bound_is_exact(self, monkeypatch):
        # 3^4 entries of 16 bytes: 1296 bytes
        monkeypatch.setattr(ealab.states, "TENSOR_POWER_MAX_BYTES", 1296)
        assert werner(0.5, 3).matrix.shape == (9, 9)
        assert max_entangled_projector(3).shape == (9, 9)
        with pytest.raises(ValueError, match="needs 4096 bytes"):
            werner(0.5, 4)
        with pytest.raises(ValueError, match="needs 4096 bytes"):
            max_entangled_projector(4)

    def test_every_extended_depolarizing_dimension_fits(self):
        # depolarizing refuses d > 63 by its own Kraus-stack bound, so every
        # d it rebuilds from the Werner matrix (lambda < 0) fits this one
        assert 16 * 63**4 <= ealab.linalg.TENSOR_POWER_MAX_BYTES
        assert len(depolarizing(-0.01, 5, allow_extended=True).kraus) == 25
        with pytest.raises(ValueError, match="dimension 64 would materialize"):
            depolarizing(-0.0001, 64, allow_extended=True)


class TestGhzAndW:
    def test_ghz_pair_marginals(self):
        rho = ghz(3).density()
        theta = classically_correlated_pair()
        for drop in range(3):
            keep = tuple(i for i in range(3) if i != drop)
            assert np.allclose(rho.marginal(keep).matrix, theta.matrix)

    def test_ghz_two_qubits_is_max_entangled(self):
        assert np.allclose(ghz(2).amplitudes, max_entangled(2).amplitudes)

    def test_w_amplitudes_big_endian(self):
        amp = w_state(3).amplitudes
        hot = {1, 2, 4}
        for idx in range(8):
            expected = 1 / np.sqrt(3) if idx in hot else 0.0
            assert amp[idx] == pytest.approx(expected)

    def test_w_pair_marginals_entangled(self):
        rho = w_state(3).density()
        for drop in range(3):
            keep = tuple(i for i in range(3) if i != drop)
            pair = rho.marginal(keep)
            flipped = partial_transpose(pair.matrix, (2, 2), (1,))
            assert min_eigenvalue(flipped) < -1e-3

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            ghz(1)
        with pytest.raises(ValueError):
            w_state(1)


def test_classically_correlated_pair_is_ppt():
    theta = classically_correlated_pair()
    flipped = partial_transpose(theta.matrix, (2, 2), (1,))
    assert min_eigenvalue(flipped) >= -1e-12
    assert np.trace(theta.matrix) == pytest.approx(1.0)


class TestSchmidtPure:
    def test_balanced_is_max_entangled(self):
        assert np.allclose(schmidt_pure(0.5).amplitudes, max_entangled(2).amplitudes)

    def test_extreme_is_product(self):
        assert np.allclose(schmidt_pure(1.0).amplitudes, [1, 0, 0, 0])

    @pytest.mark.parametrize("q0", [0.0, 0.3, 0.8])
    def test_reduced_states_diagonal(self, q0):
        rho = schmidt_pure(q0).density()
        for k in (0, 1):
            assert np.allclose(rho.marginal((k,)).matrix, np.diag([q0, 1 - q0]))

    def test_range_check(self):
        with pytest.raises(ValueError):
            schmidt_pure(1.5)


class TestSchmidt:
    def test_max_entangled_coefficients(self):
        dec = schmidt(max_entangled(2), (0,))
        assert np.allclose(dec.coefficients, [1 / np.sqrt(2)] * 2)

    def test_product_state_coefficients(self):
        psi = PureState(np.array([1.0, 0, 0, 0]), (2, 2))
        dec = schmidt(psi, (0,))
        assert np.allclose(dec.coefficients, [1.0, 0.0])

    def test_ghz_one_vs_two(self):
        # oracle: 2x4 SVD of the reshaped amplitudes has two equal singular values
        dec = schmidt(ghz(3), (0,))
        assert np.allclose(dec.coefficients, [1 / np.sqrt(2), 1 / np.sqrt(2)])

    def test_reconstruction_round_trip(self):
        for seed in range(5):
            psi = haar_pure((2, 2, 2), seed)
            dec = schmidt(psi, (1,))
            rebuilt = dec.reconstruct()
            # reconstruct() returns block order (factor 1 | factors 0, 2)
            reordered = (
                psi.amplitudes.reshape(2, 2, 2).transpose(1, 0, 2).reshape(-1)
            )
            assert np.max(np.abs(rebuilt - reordered)) < 1e-10

    def test_bases_orthonormal(self):
        psi = haar_pure((2, 3), 42)
        dec = schmidt(psi, (0,))
        for basis in (dec.left_basis, dec.right_basis):
            gram = basis.conj().T @ basis
            assert np.max(np.abs(gram - np.eye(gram.shape[0]))) < 1e-10

    def test_rejects_degenerate_partition(self):
        with pytest.raises(ValueError):
            schmidt(max_entangled(2), (0, 1))


class TestHaar:
    def test_determinism(self):
        a = haar_pure((2, 2), 99)
        b = haar_pure((2, 2), 99)
        assert np.array_equal(a.amplitudes, b.amplitudes)

    def test_distinct_seeds_differ(self):
        a = haar_pure((2, 2), 1)
        b = haar_pure((2, 2), 2)
        assert not np.allclose(a.amplitudes, b.amplitudes)

    def test_unit_norm(self):
        psi = haar_pure((4,), 7)
        assert np.linalg.norm(psi.amplitudes) == pytest.approx(1.0, abs=1e-12)

    @given(st.integers(2, 64), st.integers(0, 2**63 - 1), st.integers(1, 4))
    def test_one_draw_matches_the_two_draw_stream(self, dim, seed, rank):
        # real and imaginary parts drawn in one call are the same stream as
        # two calls, so every seeded sample stays byte-identical
        psi = haar_pure((dim,), seed)
        reference = haar_amplitudes_two_draws(np.random.default_rng(seed), dim)
        assert psi.amplitudes.tobytes() == reference.tobytes()
        rank = min(rank, dim)
        rho = random_density((dim,), rank=rank, seed=seed)
        assert rho.matrix.tobytes() == random_density_two_draws(dim, rank, seed).tobytes()

    def test_first_component_moment(self):
        # oracle: Haar expectation of |<0|psi>|^2 on dimension d is 1/d
        n = 100_000
        total = 0.0
        for i in range(n):
            total += abs(haar_pure((4,), (123, i)).amplitudes[0]) ** 2
        assert abs(total / n - 0.25) < 0.01


class TestHaarRows:
    """``_haar_rows(rng, n, dim)`` draws the next n rows of ``rng``'s stream
    in one piece; a row does not depend on the draw that holds it."""

    @pytest.mark.parametrize("seed", [0, 17, 2**32, 2**64 + 3])
    @pytest.mark.parametrize("dim", [2, 4, 6, 8])
    def test_rows_are_the_two_draw_stream(self, dim, seed):
        rows = _haar_rows(np.random.default_rng(seed), 40, dim)
        assert rows.tobytes() == haar_stream_rows(seed, 40, dim).tobytes()

    @pytest.mark.parametrize("sizes", [[1, 39], [4, 8, 16, 12], [0, 40, 0]])
    def test_pieces_continue_one_stream(self, sizes):
        rng = np.random.default_rng(7)
        pieces = np.concatenate([_haar_rows(rng, n, 8) for n in sizes])
        assert pieces.tobytes() == _haar_rows(np.random.default_rng(7), 40, 8).tobytes()


class TestRandomDensity:
    def test_rank_one_is_pure(self):
        rho = random_density((2, 2), rank=1, seed=5)
        purity = np.trace(rho.matrix @ rho.matrix).real
        assert purity == pytest.approx(1.0, abs=1e-10)

    def test_valid_state(self):
        rho = random_density((2, 2, 2), rank=4, seed=6)
        assert np.trace(rho.matrix) == pytest.approx(1.0)
        assert min_eigenvalue(rho.matrix) > -1e-12

    def test_determinism(self):
        a = random_density((3,), rank=2, seed=8)
        b = random_density((3,), rank=2, seed=8)
        assert np.array_equal(a.matrix, b.matrix)

    def test_rank_zero_rejected(self):
        with pytest.raises(ValueError):
            random_density((2,), rank=0, seed=0)


def test_tensor_pure_concatenates_dims():
    prod = tensor_pure(max_entangled(2), haar_pure((2,), 3))
    assert prod.dims == (2, 2, 2)
    assert np.linalg.norm(prod.amplitudes) == pytest.approx(1.0)


@pytest.mark.parametrize("lam", [0.0, 0.3, 0.7, 1.0])
def test_werner_is_half_depolarized_max_entangled(lam):
    # cross-module identity: noising one half of the maximally entangled
    # pair produces the Werner state with the same parameter
    from ealab import apply, depolarizing, identity_channel, tensor

    half_noisy = tensor(depolarizing(lam, 2), identity_channel(2))
    out = apply(half_noisy, max_entangled(2))
    assert np.max(np.abs(out.matrix - werner(lam, 2).matrix)) < 1e-12
