"""Tests for the dense tensor linear algebra primitives."""

import dataclasses
from fractions import Fraction

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


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: ealab.linalg.as_operator(np.ones((2, 3))), "expected a square matrix, got shape (2, 3)"),
        (lambda: ealab.linalg.as_operator(np.ones((1, 2, 2))),
         "expected a square matrix, got shape (1, 2, 2)"),
        (lambda: ealab.linalg.as_operator(np.ones((0, 0))), "expected a square matrix, got shape (0, 0)"),
        (lambda: hermitian_eigenvalues(np.ones((3, 2, 3))),
         "expected a square matrix or a stack of them, got shape (3, 2, 3)"),
        (lambda: partial_transpose(np.ones(4), (2, 2), (1,)),
         "expected a square matrix or a stack of them, got shape (4,)"),
        (lambda: kron_all([]), "kron_all needs at least one operator"),
    ],
    ids=["operator-rectangular", "operator-stack", "operator-empty", "stack-rectangular",
         "stack-vector", "kron_all-empty"],
)
def test_shape_messages(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


_KRAUS_SHAPE = r"Kraus operators must share one nonempty \(out, in\) shape"
_UNCONVERTIBLE = {
    "Channel": (lambda d: ealab.Channel(d), _KRAUS_SHAPE),
    "Channel-list": (lambda d: ealab.Channel([d]), _KRAUS_SHAPE),
    "DensityOperator": (lambda d: ealab.DensityOperator(d, (2,)), "a square matrix"),
    "PureState": (lambda d: ealab.PureState(d, (2,)), "an amplitude vector"),
    "partial_transpose": (lambda d: partial_transpose(d, (2, 2), (1,)),
                          "a square matrix or a stack of them"),
    "partial_trace": (lambda d: partial_trace(d, (2, 2), (1,)), "a square matrix"),
    "permute_factors": (lambda d: permute_factors(d, (2, 2), (1, 0)), "a square matrix"),
    "hermitian_eigenvalues": (hermitian_eigenvalues, "a square matrix or a stack of them"),
    "min_eigenvalue": (min_eigenvalue, "a square matrix or a stack of them"),
    "hermiticity_defect": (ealab.linalg.hermiticity_defect, "a square matrix or a stack of them"),
    "as_operator": (ealab.linalg.as_operator, "a square matrix"),
    "kron": (lambda d: kron(d, np.eye(2)), "a matrix"),
    "kron_all": (lambda d: kron_all([d]), "a matrix"),
    "kraus_from_choi": (lambda d: ealab.kraus_from_choi(d, 2, 2), "a square matrix"),
    "MeasurePrepare": (lambda d: ealab.MeasurePrepare([d], [ealab.werner(0.5)]), "a square matrix"),
    "ea_mixing_channel": (lambda d: ealab.ea_mixing_channel(d, ealab.werner(0.9)),
                          "a square matrix"),
    "SchmidtDecomposition": (lambda d: ealab.SchmidtDecomposition([1.0], d, np.eye(2)),
                             "a complex array"),
    "SchmidtDecomposition-coefficients": (
        lambda d: ealab.SchmidtDecomposition(d, np.eye(2), np.eye(2)), "real Schmidt coefficients"
    ),
}


@pytest.mark.parametrize(
    "value", [{"a": 1}, ["a", "b"], [10**400]], ids=["dict", "words", "huge-int"]
)
@pytest.mark.parametrize("name", list(_UNCONVERTIBLE))
def test_unconvertible_input_is_named(name, value):
    # numpy's own TypeError, ValueError or OverflowError never reaches the caller
    call, expected = _UNCONVERTIBLE[name]
    if not expected.startswith("Kraus"):
        expected = f"expected {expected}, got {type(value).__name__}: "
    with pytest.raises(ValueError, match=f"^{expected}"):
        call(value)


# The public calls that read a scalar real through ``linalg._real``: the
# name their error gives, and a run of the call on one value of that real.
_PAIR = ealab.Partition((0,), (1,))
_READS_A_REAL = {
    "depolarizing": ("depolarizing parameter", lambda x: ealab.depolarizing(x)),
    "werner": ("mixing parameter", lambda x: ealab.werner(x)),
    "schmidt_pure": ("Schmidt weight", lambda x: ealab.schmidt_pure(x)),
    "two_lea_pt_eigenvalues": ("q0", lambda x: ealab.two_lea_pt_eigenvalues(0.5, x)),
    "two_lea_min_eig_depolarizing": ("lambda", lambda x: ealab.two_lea_min_eig_depolarizing(x)),
    "eb_min_eig_depolarizing": ("lambda", lambda x: ealab.criteria.eb_min_eig_depolarizing(x)),
    "ghz_three_lea_min_eig": ("lambda", lambda x: ealab.ghz_three_lea_min_eig(x)),
    "two_lea_verdict_depolarizing": (
        "lambda", lambda x: ealab.two_lea_verdict_depolarizing(x)
    ),
    "is_eb-tol": ("tolerance", lambda x: ealab.is_eb(ealab.identity_channel(2), tol=x)),
    "ppt_verdict-tol": ("tolerance", lambda x: ealab.ppt_verdict(ealab.werner(0.5), _PAIR, tol=x)),
    "two_lea_verdict_depolarizing-tol": (
        "tolerance", lambda x: ealab.two_lea_verdict_depolarizing(0.5, tol=x)
    ),
    "two_lea_verdict_heuristic-tol": (
        "tolerance",
        lambda x: ealab.two_lea_verdict_heuristic(ealab.depolarizing(0.5), restarts=1, tol=x),
    ),
    "k_lea_falsify-tol": (
        "tolerance", lambda x: ealab.k_lea_falsify(ealab.depolarizing(0.5), 2, budget=2, tol=x)
    ),
    "ea_falsify-tol": (
        "tolerance",
        lambda x: ealab.ea_falsify(ealab.identity_channel(4), (2, 2), budget=2, tol=x),
    ),
    "bisect_threshold-tol": (
        "tolerance", lambda x: ealab.bisect_threshold(lambda t: t - 0.3, (0.0, 1.0), tol=x)
    ),
    "bisect_threshold-endpoint": (
        "bracket endpoint", lambda x: ealab.bisect_threshold(lambda t: t - 0.3, (x, 1.0))
    ),
}


@pytest.mark.parametrize("value", [None, {}, [0.5]], ids=["none", "dict", "list"])
@pytest.mark.parametrize("call", list(_READS_A_REAL))
def test_unreadable_real_is_named(call, value):
    # float()'s own TypeError never reaches the caller
    name, run = _READS_A_REAL[call]
    expected = f"{name} must be a real number, got {type(value).__name__}: "
    with pytest.raises(ValueError, match=f"^{expected}"):
        run(value)


def _bits(v):
    """``v`` as a comparable value that tells apart any two floats, arrays
    or results that differ in a single bit."""
    if dataclasses.is_dataclass(v):
        return type(v).__name__, tuple(_bits(getattr(v, f.name)) for f in dataclasses.fields(v))
    if isinstance(v, np.ndarray):
        return v.dtype.str, v.shape, v.tobytes()
    if isinstance(v, (tuple, list)):
        return tuple(_bits(x) for x in v)
    if isinstance(v, float):
        return "float", v.hex()
    return repr(v)


# Each real in the forms float() reads, for each kind of argument.
_READABLE = {
    "tolerance": [0, np.float32(1e-9), np.int64(0), Fraction(1, 10**9), np.array(1e-9), "1e-9"],
    "bracket endpoint": [0, np.float32(0.25), np.int64(0), Fraction(1, 10), np.array(0.25),
                         "0.25"],
}
_READABLE_PARAMETER = [1, np.float32(0.5), np.int64(1), Fraction(1, 3), np.array(0.5), "0.5"]


@pytest.mark.parametrize("form", range(6), ids=["int", "float32", "int64", "Fraction",
                                                "0-d-array", "str"])
@pytest.mark.parametrize("call", list(_READS_A_REAL))
def test_readable_real_gives_the_float_result(call, form):
    name, run = _READS_A_REAL[call]
    value = _READABLE.get(name, _READABLE_PARAMETER)[form]
    assert _bits(run(value)) == _bits(run(float(value)))


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


class TestEigh:
    """``linalg._eigh`` calls numpy's private ``eigh_lo`` gufunc directly."""

    @pytest.mark.parametrize("batch", range(1, 9))
    def test_matches_numpy_byte_for_byte(self, batch):
        rng = np.random.default_rng(batch)
        a = rng.standard_normal((batch, 4, 4)) + 1j * rng.standard_normal((batch, 4, 4))
        for stack in (a, a + a.conj().swapaxes(1, 2)):  # both read the lower triangle
            w, v = ealab.linalg._eigh(stack)
            expected_w, expected_v = np.linalg.eigh(stack)
            assert w.dtype == expected_w.dtype and v.dtype == expected_v.dtype
            assert w.tobytes() == expected_w.tobytes()
            assert v.tobytes() == expected_v.tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonconvergence_raises_as_numpy_does(self, bad):
        stack = np.stack([np.eye(4), np.full((4, 4), bad)]).astype(complex)
        with pytest.raises(np.linalg.LinAlgError) as expected:
            np.linalg.eigh(stack)
        with pytest.raises(np.linalg.LinAlgError) as got:
            ealab.linalg._eigh(stack)
        assert str(got.value) == str(expected.value) == "Eigenvalues did not converge"


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
    integral value that it accepts, its lower bound (``None`` where the
    bound depends on the other arguments), and a call taking the value."""
    qubit = ealab.depolarizing(0.5, 2)
    rho = ealab.max_entangled(2).density()
    m = np.eye(4) / 4
    cases = {
        "ea_falsify dims": ("factor dimension", 2, None, lambda x: ealab.ea_falsify(
            ealab.identity_channel(4), (x, 2), budget=1)),
        "k": ("k", 2, 2, lambda x: ealab.k_lea_falsify(qubit, x, budget=1)),
        "budget": ("budget", 2, 0, lambda x: ealab.k_lea_falsify(qubit, 2, budget=x)),
        "falsify seed": ("seed", 2, 0, lambda x: ealab.k_lea_falsify(
            qubit, 2, budget=1, seed=x)),
        "restarts": ("restarts", 2, 0, lambda x: ealab.two_lea_verdict_heuristic(qubit, x)),
        "heuristic seed": ("seed", 2, 0, lambda x: ealab.two_lea_verdict_heuristic(
            qubit, restarts=0, seed=x)),
        "depolarizing": ("dimension", 2, 2, lambda x: ealab.depolarizing(0.5, x)),
        "identity_channel": ("dimension", 2, 1, ealab.identity_channel),
        "tensor_power": ("tensor power", 2, 1, lambda x: ealab.tensor_power(qubit, x)),
        "random_channel d_in": ("d_in", 2, 1, ealab.random_channel),
        "random_channel d_out": ("d_out", 2, 1, lambda x: ealab.random_channel(2, x)),
        "kraus_rank": ("kraus_rank", 2, 1, lambda x: ealab.random_channel(2, kraus_rank=x)),
        "constant_channel": ("in_dim", 2, 1, lambda x: ealab.constant_channel(rho, x)),
        "Partition": ("partition index", 0, 0, lambda x: ealab.Partition((x,), (1,))),
        "bipartitions": ("factor count", 2, 2, ealab.bipartitions),
        "max_entangled": ("local dimension", 2, 2, ealab.max_entangled),
        "werner": ("local dimension", 2, 2, lambda x: ealab.werner(0.3, x)),
        "ghz": ("qubit count", 2, 2, ealab.ghz),
        "random_density": ("rank", 2, 1, lambda x: ealab.random_density((2,), x, 0)),
        "haar_pure": ("factor dimension", 2, 1, lambda x: ealab.haar_pure((x, 2), 0)),
        "marginal": ("keep index", 0, 0, lambda x: rho.marginal((x,))),
        "partial_trace": ("keep index", 0, 0, lambda x: partial_trace(m, (2, 2), (x,))),
        "partial_transpose": ("transposed index", 0, 0,
                              lambda x: partial_transpose(m, (2, 2), (x,))),
        "permute_factors": ("perm", 1, None, lambda x: permute_factors(m, (2, 2), (x, 0))),
        "schmidt": ("left block index", 0, 0, lambda x: ealab.schmidt(ghz(2), (x,))),
    }
    return [pytest.param(*case, id=key) for key, case in cases.items()]


# Entry points whose lower bound keeps a message of its own ("d >= 2",
# "need at least 2 qubits", a range, ...), pinned by other tests.
_OWN_BOUND_MESSAGE = {
    "depolarizing", "kraus_rank", "bipartitions", "ghz", "random_density",
    "haar_pure",
}


@pytest.mark.parametrize("name, good, least, call", _whole_cases())
@pytest.mark.parametrize("value", [0.7, 1.5, 2.9, np.nan, np.inf, -np.inf])
def test_non_integral_counts_are_refused_by_name(name, good, least, call, value):
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got"):
        call(value)


@pytest.mark.parametrize("name, good, least, call", _whole_cases())
def test_integral_floats_are_accepted(name, good, least, call):
    call(float(good))


@pytest.mark.parametrize(
    "name, least, call, own_message",
    [
        pytest.param(name, least, call, case.id in _OWN_BOUND_MESSAGE, id=case.id)
        for case in _whole_cases()
        for name, _, least, call in [case.values]
        if least is not None
    ],
)
@pytest.mark.parametrize("below", [1, 2])
def test_counts_below_their_bound_are_refused(name, least, call, own_message, below):
    call(least)
    bound = "nonnegative" if least == 0 else f"at least {least}"
    message = None if own_message else f"^{name} must be {bound}, got {least - below}$"
    with pytest.raises(ValueError, match=message):
        call(least - below)


def _collection_cases():
    """The entry points whose index set or collection argument is read by
    ``linalg._items``: the argument's name and a call taking the value."""
    m = np.eye(4) / 4
    rho = ealab.max_entangled(2).density()
    cases = {
        "Partition": ("partition", lambda x: ealab.Partition(x, (1,))),
        "partial_trace": ("keep", lambda x: partial_trace(m, (2, 2), x)),
        "partial_transpose": ("transposed", lambda x: partial_transpose(m, (2, 2), x)),
        "marginal": ("keep", lambda x: rho.marginal(x)),
        "schmidt": ("left block", lambda x: ealab.schmidt(ghz(2), x)),
        "permute_factors": ("perm", lambda x: permute_factors(m, (2, 2), x)),
        "MeasurePrepare": ("povm", lambda x: ealab.MeasurePrepare(x, x)),
        "kron_all": ("ops", kron_all),
        "bisect_threshold": ("bracket", lambda x: ealab.bisect_threshold(lambda t: t - 0.5, x)),
    }
    return [pytest.param(*case, id=key) for key, case in cases.items()]


@pytest.mark.parametrize("name, call", _collection_cases())
@pytest.mark.parametrize("value", [None, 3], ids=["None", "int"])
def test_non_collections_are_refused_by_name(name, call, value):
    with pytest.raises(ValueError) as exc:
        call(value)
    assert str(exc.value) == f"{name} must be a collection, got {type(value).__name__}"


def test_collections_are_read_once_whatever_their_type():
    # any iterable is read, a one-shot iterator too, and read only once
    m = random_state_matrix(4, np.random.default_rng(0))
    kept = partial_trace(m, (2, 2), (1,)).tobytes()
    assert partial_trace(m, (2, 2), iter([1])).tobytes() == kept
    assert partial_trace(m, (2, 2), {1: None}).tobytes() == kept
    assert partial_transpose(m, (2, 2), np.array([1])).tobytes() == partial_transpose(
        m, (2, 2), (1,)
    ).tobytes()
    assert permute_factors(m, (2, 2), iter([1, 0])).tobytes() == permute_factors(
        m, (2, 2), (1, 0)
    ).tobytes()
    assert kron_all(iter([np.eye(2), np.eye(2)])).tobytes() == np.eye(4, dtype=complex).tobytes()
    assert ealab.Partition(iter([1, 0]), range(2, 4)) == ealab.Partition((0, 1), (2, 3))
