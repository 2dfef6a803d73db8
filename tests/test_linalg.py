"""Tests for the dense tensor linear algebra primitives."""

import numpy as np
import pytest

import ealab
from ealab import (
    ghz,
    hermitian_eigenvalues,
    kron,
    kron_all,
    max_entangled_projector,
    min_eigenvalue,
    partial_trace,
    partial_transpose,
    permute_factors,
)
from helpers import random_hermitian, random_state_matrix


def test_kron_identity():
    assert np.array_equal(kron(np.eye(2), np.eye(2)), np.eye(4))


def test_kron_trace_multiplicative():
    rng = np.random.default_rng(3)
    for _ in range(5):
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        assert np.trace(kron(a, b)) == pytest.approx(np.trace(a) * np.trace(b))


def test_kron_hand_expansion():
    # ((1,0) diag) ox ((0,1) diag) places the single unit at index 1
    out = kron(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
    assert np.array_equal(out, np.diag([0.0, 1.0, 0.0, 0.0]))


def test_kron_associative():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    c = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    assert np.max(np.abs(kron(kron(a, b), c) - kron(a, kron(b, c)))) < 1e-14


def test_kron_of_rectangular_matrices():
    rng = np.random.default_rng(12)
    a = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    b = rng.standard_normal((2, 2))
    assert np.array_equal(kron(a, b), np.kron(a, b))
    assert kron_all([a, b, a]).shape == (8, 18)


@pytest.mark.parametrize("bad", [np.ones(2), np.ones((2, 2, 2))])
def test_kron_rejects_non_matrices(bad):
    with pytest.raises(ValueError, match="two matrices"):
        kron(bad, np.eye(2))
    with pytest.raises(ValueError, match="two matrices"):
        kron(np.eye(2), bad)


def test_kron_all_matches_pairwise():
    rng = np.random.default_rng(4)
    ops = [rng.standard_normal((2, 2)) for _ in range(3)]
    assert np.allclose(kron_all(ops), kron(kron(ops[0], ops[1]), ops[2]))


class TestPartialTrace:
    def test_product_state_marginal(self):
        rng = np.random.default_rng(5)
        rho_a = random_state_matrix(2, rng)
        rho_b = random_state_matrix(3, rng)
        joint = kron(rho_a, rho_b)
        assert np.allclose(partial_trace(joint, (2, 3), (0,)), rho_a)
        assert np.allclose(partial_trace(joint, (2, 3), (1,)), rho_b)

    def test_max_entangled_marginal_is_mixed(self):
        p = max_entangled_projector(2)
        assert np.allclose(partial_trace(p, (2, 2), (0,)), np.eye(2) / 2)
        assert np.allclose(partial_trace(p, (2, 2), (1,)), np.eye(2) / 2)

    def test_ghz_pair_marginal_is_classically_correlated(self):
        rho = ghz(3).density().matrix
        expected = np.diag([0.5, 0.0, 0.0, 0.5])
        for drop in range(3):
            keep = tuple(i for i in range(3) if i != drop)
            assert np.allclose(partial_trace(rho, (2, 2, 2), keep), expected)

    def test_keep_all_is_identity(self):
        rng = np.random.default_rng(6)
        m = random_hermitian(6, rng)
        assert np.allclose(partial_trace(m, (2, 3), (0, 1)), m)

    def test_trace_preserved(self):
        rng = np.random.default_rng(7)
        m = random_hermitian(8, rng)
        reduced = partial_trace(m, (2, 2, 2), (1,))
        assert np.trace(reduced) == pytest.approx(np.trace(m))

    def test_errors(self):
        m = np.eye(4)
        with pytest.raises(ValueError):
            partial_trace(m, (2, 3), (0,))
        with pytest.raises(ValueError):
            partial_trace(m, (2, 2), ())
        with pytest.raises(ValueError):
            partial_trace(m, (2, 2), (2,))


class TestPartialTranspose:
    def test_involution(self):
        rng = np.random.default_rng(8)
        m = random_hermitian(8, rng)
        twice = partial_transpose(
            partial_transpose(m, (2, 2, 2), (0, 2)), (2, 2, 2), (0, 2)
        )
        assert np.allclose(twice, m)

    def test_product_state_stays_positive(self):
        rng = np.random.default_rng(9)
        rho_a = random_state_matrix(2, rng)
        rho_b = random_state_matrix(2, rng)
        joint = kron(rho_a, rho_b)
        flipped = partial_transpose(joint, (2, 2), (1,))
        assert np.allclose(flipped, kron(rho_a, rho_b.T))
        assert min_eigenvalue(flipped) > -1e-12

    def test_max_entangled_min_eig(self):
        # oracle: brute-force 4x4 eigensolve of the flipped projector
        flipped = partial_transpose(max_entangled_projector(2), (2, 2), (1,))
        evals = np.linalg.eigvalsh(flipped)
        assert evals[0] == pytest.approx(-0.5, abs=1e-12)
        assert min_eigenvalue(flipped) == pytest.approx(-0.5, abs=1e-12)

    def test_trace_and_hermiticity_preserved(self):
        rng = np.random.default_rng(10)
        m = random_hermitian(4, rng)
        flipped = partial_transpose(m, (2, 2), (0,))
        assert abs(np.trace(flipped) - np.trace(m)) < 1e-12
        assert np.max(np.abs(flipped - flipped.conj().T)) < 1e-12

    def test_complement_plus_full_transpose(self):
        rng = np.random.default_rng(12)
        m = random_hermitian(8, rng)
        left = partial_transpose(m, (2, 2, 2), (1,))
        right = partial_transpose(m, (2, 2, 2), (0, 2)).T
        assert np.allclose(left, right)

    def test_dims_mismatch(self):
        with pytest.raises(ValueError):
            partial_transpose(np.eye(4), (2, 3), (0,))


class TestHermitianEigenvalues:
    def test_sorted_diagonal(self):
        assert np.allclose(hermitian_eigenvalues(np.diag([3.0, 1.0, 2.0])), [1, 2, 3])

    def test_max_entangled_pt_spectrum(self):
        flipped = partial_transpose(max_entangled_projector(2), (2, 2), (1,))
        assert np.allclose(
            hermitian_eigenvalues(flipped), [-0.5, 0.5, 0.5, 0.5], atol=1e-12
        )

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            hermitian_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_nan_in_a_stack(self):
        stack = np.stack([np.eye(2), np.diag([np.nan, 1.0])])
        with pytest.raises(ValueError, match="not Hermitian"):
            hermitian_eigenvalues(stack)

    @pytest.mark.parametrize("dim", [2, 5, 9, 16])
    def test_eigenvalue_sum_equals_trace(self, dim):
        rng = np.random.default_rng(dim)
        m = random_hermitian(dim, rng)
        evals = hermitian_eigenvalues(m)
        assert abs(np.sum(evals) - np.trace(m).real) < 1e-10


def test_permute_factors_swaps_kron_order():
    rng = np.random.default_rng(13)
    a = random_hermitian(2, rng)
    b = random_hermitian(3, rng)
    swapped = permute_factors(kron(a, b), (2, 3), (1, 0))
    assert np.allclose(swapped, kron(b, a))


def test_permute_factors_rejects_non_permutation():
    with pytest.raises(ValueError):
        permute_factors(np.eye(4), (2, 2), (0, 0))



def _whole_cases():
    """Each entry point's user-given count: the name its error gives, an
    integral value that it accepts, and a call taking the value."""
    qubit = ealab.depolarizing(0.5, 2)
    rho = ealab.max_entangled(2).density()
    m = np.eye(4) / 4
    cases = {
        "ea_falsify dims": ("factor dimension", 2, lambda x: ealab.ea_falsify(
            ealab.identity_channel(4), (x, 2), budget=1)),
        "k": ("k", 2, lambda x: ealab.k_lea_falsify(qubit, x, budget=1)),
        "budget": ("budget", 2, lambda x: ealab.k_lea_falsify(qubit, 2, budget=x)),
        "falsify seed": ("seed", 2, lambda x: ealab.k_lea_falsify(qubit, 2, budget=1, seed=x)),
        "restarts": ("restarts", 2, lambda x: ealab.two_lea_verdict_heuristic(qubit, x)),
        "heuristic seed": ("seed", 2, lambda x: ealab.two_lea_verdict_heuristic(
            qubit, restarts=0, seed=x)),
        "depolarizing": ("dimension", 2, lambda x: ealab.depolarizing(0.5, x)),
        "identity_channel": ("dimension", 2, ealab.identity_channel),
        "tensor_power": ("tensor power", 2, lambda x: ealab.tensor_power(qubit, x)),
        "random_channel d_in": ("d_in", 2, ealab.random_channel),
        "random_channel d_out": ("d_out", 2, lambda x: ealab.random_channel(2, x)),
        "kraus_rank": ("kraus_rank", 2, lambda x: ealab.random_channel(2, kraus_rank=x)),
        "constant_channel": ("in_dim", 2, lambda x: ealab.constant_channel(rho, x)),
        "Partition": ("partition index", 0, lambda x: ealab.Partition((x,), (1,))),
        "bipartitions": ("factor count", 2, ealab.bipartitions),
        "max_entangled": ("local dimension", 2, ealab.max_entangled),
        "ghz": ("qubit count", 2, ealab.ghz),
        "random_density": ("rank", 2, lambda x: ealab.random_density((2,), x, 0)),
        "haar_pure": ("factor dimension", 2, lambda x: ealab.haar_pure((x, 2), 0)),
        "marginal": ("keep index", 0, lambda x: rho.marginal((x,))),
        "partial_trace": ("keep index", 0, lambda x: partial_trace(m, (2, 2), (x,))),
        "partial_transpose": ("transposed index", 0,
                              lambda x: partial_transpose(m, (2, 2), (x,))),
        "permute_factors": ("perm", 1, lambda x: permute_factors(m, (2, 2), (x, 0))),
    }
    return [pytest.param(*case, id=key) for key, case in cases.items()]


@pytest.mark.parametrize("name, good, call", _whole_cases())
@pytest.mark.parametrize("value", [0.7, 1.5, 2.9, np.nan, np.inf, -np.inf])
def test_non_integral_counts_are_refused_by_name(name, good, call, value):
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got"):
        call(value)


@pytest.mark.parametrize("name, good, call", _whole_cases())
def test_integral_floats_are_accepted(name, good, call):
    call(float(good))
