"""Construction and sampling of the states used throughout the library.

Covers the maximally entangled state, Werner states, GHZ and W states, the
classically correlated two-qubit state, Schmidt-parameterized pure states,
and seeded Haar-random sampling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .linalg import (
    _STACK_BYTES,
    MATRIX_ATOL,
    TENSOR_POWER_MAX_BYTES,
    _as_array,
    _bounded_bytes,
    _factor_dims,
    _factor_subset,
    _lowest_eigenvalues,
    _party_count,
    _projectors,
    _real,
    _whole,
    as_operator,
    hermiticity_defect,
    partial_trace,
)

NORM_ATOL = 1e-12


def _freeze(a) -> np.ndarray:
    """A read-only complex array of ``a``, converted by ``linalg._as_array``.

    A C-contiguous array that owns its data is handed over, not copied, when
    it was freshly converted or is already read-only, so a constructor that
    builds a large array and freezes it pays no second copy; a view, a
    non-contiguous array and the caller's own writeable array are copied.
    """
    b = _as_array(a, "a complex array")
    if b.base is not None or not b.flags.c_contiguous or (b is a and b.flags.writeable):
        b = b.copy(order="K")
    b.setflags(write=False)
    return b


@dataclass(frozen=True, eq=False)
class PureState:
    """Unit vector on a composite space with explicit factor dimensions."""

    amplitudes: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self):
        amp = _as_array(self.amplitudes, "an amplitude vector").reshape(-1)
        ds = _factor_dims(self.dims, amp.size)
        norm = np.linalg.norm(amp)
        if not abs(norm - 1.0) <= NORM_ATOL:
            raise ValueError(f"amplitudes are not normalized (norm {norm!r})")
        object.__setattr__(self, "amplitudes", _freeze(amp))
        object.__setattr__(self, "dims", ds)

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def density(self) -> "DensityOperator":
        """Rank-one projector onto this state."""
        return DensityOperator(_projectors(self.amplitudes), self.dims)

    def overlap(self, other: "PureState") -> complex:
        return complex(np.vdot(self.amplitudes, _instance(other, PureState).amplitudes))


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """Positive unit-trace operator with explicit factor dimensions."""

    matrix: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self):
        m = as_operator(self.matrix)
        ds = _factor_dims(self.dims, m.shape[0])
        failure = _first_invalid_density(m[None])
        if failure is not None:
            raise ValueError(failure[1])
        object.__setattr__(self, "matrix", _freeze(m))
        object.__setattr__(self, "dims", ds)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def marginal(self, keep: Sequence[int]) -> "DensityOperator":
        """Reduced state on the kept factors."""
        kept = _factor_subset(keep, len(self.dims), "keep")
        m = partial_trace(self.matrix, self.dims, kept)
        return DensityOperator(m, tuple(self.dims[i] for i in kept))


def _instance(x, cls: type):
    """``x`` if it is a ``cls``, else a ``ValueError`` that names its type."""
    if not isinstance(x, cls):
        raise ValueError(f"expected a {cls.__name__}, got {type(x).__name__}")
    return x


def _first_invalid_density(stack: np.ndarray) -> tuple[int, str] | None:
    """First operator of a stack ``(B, D, D)`` that is not a density operator.

    Returns its index and a message naming the first invariant it breaks of
    Hermiticity, unit trace and positivity (``linalg._lowest_eigenvalues``),
    each within ``MATRIX_ATOL`` (NaN fails each), or ``None``.
    ``DensityOperator`` and the falsifier use it.
    """
    defect = hermiticity_defect(stack)
    trace = np.trace(stack, axis1=-2, axis2=-1)
    ok = np.maximum(defect, np.abs(trace - 1.0)) <= MATRIX_ATOL
    n = len(ok) if ok.all() else int(ok.argmin())  # the first failed check
    low = _lowest_eigenvalues(stack[:n], -MATRIX_ATOL)
    i = int(next(iter(np.flatnonzero(low < -MATRIX_ATOL)), n))  # first negative, or n
    if i < n:
        return i, f"matrix is not positive semidefinite (min eigenvalue {low[i]:.3e})"
    if i == len(ok):
        return None
    if not defect[i] <= MATRIX_ATOL:
        return i, f"matrix is not Hermitian (max deviation {defect[i]:.3e})"
    return i, f"matrix does not have unit trace (trace {complex(trace[i])!r})"


@dataclass(frozen=True, eq=False)
class SchmidtDecomposition:
    """Biorthogonal expansion of a bipartite pure state.

    ``coefficients`` are the descending nonnegative Schmidt coefficients
    (their squares sum to one); column ``j`` of ``left_basis`` and
    ``right_basis`` carries the j-th Schmidt vector of each block, so the
    state is ``sum_j c_j kron(left_j, right_j)`` in block order.
    """

    coefficients: np.ndarray
    left_basis: np.ndarray
    right_basis: np.ndarray

    def __post_init__(self):
        c = _as_array(self.coefficients, "real Schmidt coefficients").reshape(-1)
        if np.any(c.imag):
            raise ValueError("Schmidt coefficients must be real, got an imaginary part")
        c = c.real
        if not (np.all(-c <= NORM_ATOL) and np.all(np.diff(c) <= NORM_ATOL)):
            raise ValueError("coefficients must be nonnegative and descending")
        if not abs(np.sum(c**2) - 1.0) <= MATRIX_ATOL:
            raise ValueError("squared coefficients must sum to one")
        object.__setattr__(self, "coefficients", _freeze(c).real)
        object.__setattr__(self, "left_basis", _freeze(self.left_basis))
        object.__setattr__(self, "right_basis", _freeze(self.right_basis))

    def reconstruct(self) -> np.ndarray:
        """Amplitude vector in (left block, right block) factor order."""
        mat = (self.left_basis * self.coefficients) @ self.right_basis.T
        return mat.reshape(-1)


def max_entangled(d: int) -> PureState:
    """Maximally entangled state (1/sqrt(d)) sum_j |jj> on dims (d, d).

    A ``d`` whose d^2 amplitudes would pass ``linalg._STACK_BYTES``
    (d > 1024) is rejected before any allocation."""
    d = _whole(d, "local dimension", 2)
    _bounded_bytes((d * d,), _STACK_BYTES, f"a maximally entangled state of local dimension {d}")
    return PureState(_bell_row((d, d), (0,), (1,)), (d, d))


def max_entangled_projector(d: int) -> np.ndarray:
    """Projector matrix onto the maximally entangled state.

    A ``d`` whose d^2 x d^2 complex matrix would pass
    ``linalg.TENSOR_POWER_MAX_BYTES`` (d > 64) is rejected before any
    allocation, and so is a ``werner`` state of that ``d``."""
    d = _whole(d, "local dimension", 2)
    what = f"a {d * d}x{d * d} matrix of local dimension {d}"
    _bounded_bytes((d**4,), TENSOR_POWER_MAX_BYTES, what)
    return _projectors(max_entangled(d).amplitudes)


def werner(lam: float, d: int = 2) -> DensityOperator:
    """Werner state ``lam * P_+  +  (1 - lam) * (I/d) ox (I/d)``."""
    lam = _real(lam, "mixing parameter", 0.0, 1.0)
    d = _whole(d, "local dimension", 2)
    return DensityOperator(_werner_matrix(lam, d), (d, d))


def _werner_matrix(lam, d: int) -> np.ndarray:
    """``lam * P_+ + (1 - lam) * I/d^2`` for a float ``lam``, with no check:
    the one expression ``werner`` and the extended-range ``depolarizing`` use."""
    return lam * max_entangled_projector(d) + (1 - lam) * np.eye(d * d) / d**2


def _ghz_row(n: int) -> np.ndarray:
    """Amplitudes of ``ghz(n)``, for a qubit count ``n`` already checked."""
    amp = np.zeros(2**n, dtype=complex)
    amp[0] = amp[-1] = 1.0 / math.sqrt(2)
    return amp


def _w_row(n: int) -> np.ndarray:
    """Amplitudes of ``w_state(n)``, for a qubit count ``n`` already checked."""
    amp = np.zeros(2**n, dtype=complex)
    value = 1.0 / math.sqrt(n)
    for j in range(n):
        amp[1 << j] = value
    return amp


def _bell_row(ds: tuple[int, ...], first: tuple[int, ...], second: tuple[int, ...]) -> np.ndarray:
    """Amplitudes of the maximally entangled state across the blocks
    ``first | second`` of factors ``ds``, all already checked: 1/sqrt(m) at
    the basis states whose two blocks both hold index j < m, m the smaller
    block dimension.  ``max_entangled`` and ``embedded_max_entangled`` use it."""
    amp = np.zeros(math.prod(ds), dtype=complex)  # before the offsets: a huge d fails at once
    at_a, at_b = _block_offsets(ds, first), _block_offsets(ds, second)
    d_a, d_b = len(at_a), len(at_b)
    m = min(d_a, d_b)
    value = 1.0 / math.sqrt(m)
    for j in range(m):
        amp[at_a[j] + at_b[j]] = value
    return amp


def _block_offsets(ds: tuple[int, ...], block: tuple[int, ...]) -> list[int]:
    """Offsets in an amplitude vector on factors ``ds`` of the basis states
    of the block's factors, in the block's index order (its first factor
    most significant), the other factors at 0."""
    offsets = [0]
    for f in block:
        stride = math.prod(ds[f + 1 :])
        offsets = [o + x * stride for o in offsets for x in range(ds[f])]
    return offsets


def ghz(n: int = 3) -> PureState:
    """GHZ state (|0...0> + |1...1>)/sqrt(2) on n qubits."""
    n = _party_count(n, "qubit")
    return PureState(_ghz_row(n), (2,) * n)


def w_state(n: int = 3) -> PureState:
    """Uniform single-excitation superposition on n qubits."""
    n = _party_count(n, "qubit")
    return PureState(_w_row(n), (2,) * n)


def classically_correlated_pair() -> DensityOperator:
    """Two-qubit state (|00><00| + |11><11|)/2; every GHZ pair marginal."""
    return DensityOperator(np.diag([0.5, 0.0, 0.0, 0.5]), (2, 2))


def schmidt_pure(q0: float) -> PureState:
    """Two-qubit state sqrt(q0)|00> + sqrt(1-q0)|11>."""
    q0 = _real(q0, "Schmidt weight", 0.0, 1.0)
    amp = np.zeros(4, dtype=complex)
    amp[0] = np.sqrt(q0)
    amp[3] = np.sqrt(1.0 - q0)
    return PureState(amp, (2, 2))


def schmidt(psi: PureState, left: Sequence[int]) -> SchmidtDecomposition:
    """Schmidt decomposition across the (left block | remaining factors) cut.

    ``left`` lists the factor indices of the first block; the second block
    is the complement, both kept in original factor order.  Computed from
    the singular value decomposition of the reshaped amplitude matrix.
    """
    n = len(_instance(psi, PureState).dims)
    left_idx = _factor_subset(left, n, "left block")
    right_idx = tuple(i for i in range(n) if i not in left_idx)
    if not left_idx or not right_idx:
        raise ValueError("partition must split the factors into two nonempty blocks")
    perm = left_idx + right_idx
    tens = psi.amplitudes.reshape(psi.dims).transpose(perm)
    d_left = math.prod(psi.dims[i] for i in left_idx)
    d_right = math.prod(psi.dims[i] for i in right_idx)
    u, s, vh = np.linalg.svd(tens.reshape(d_left, d_right), full_matrices=False)
    return SchmidtDecomposition(s, u, vh.T)


def _seeded_rng(seed) -> np.random.Generator:
    """``numpy.random.default_rng(seed)`` for an integer seed or nested tuples
    of them, each entry checked by ``_whole``; a negative one names the seed."""
    def checked(s):
        if isinstance(s, (tuple, list)):
            return tuple(checked(x) for x in s)
        n = _whole(s, "seed")
        if n < 0:
            raise ValueError(f"seed must be nonnegative, got {seed}")
        return n

    return np.random.default_rng(checked(seed))


def _haar_rows(rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
    """The next ``n`` Haar-random unit vectors of ``rng``'s stream, ``(n, dim)``:
    row ``j`` is the real parts, then the imaginary parts, of i.i.d. standard
    normals ``2 * dim * j`` to ``2 * dim * (j + 1)``.

    One ``standard_normal((n, 2 * dim))`` draws them all, the same values as
    ``n`` draws of one row.  The rows are normalized as one stack, with the
    arithmetic of ``np.linalg.norm`` on one complex vector,
    ``sqrt(re.dot(re) + im.dot(im))``, which a stacked ``matmul`` of the rows
    repeats bit for bit; so a row does not depend on the stack it is drawn in.
    """
    x = rng.standard_normal((n, 2 * dim))
    v = x[:, :dim] + 1j * x[:, dim:]
    re, im = v.real[:, None, :], v.imag[:, None, :]
    norm = np.sqrt(re @ re.swapaxes(1, 2) + im @ im.swapaxes(1, 2))
    return v / norm[:, 0]


def haar_pure(dims, seed) -> PureState:
    """Haar-random pure state, deterministic per seed.

    Sampled as a normalized vector of i.i.d. standard complex Gaussians, the
    first ``_haar_rows`` row of ``default_rng(seed)``: for an integer seed,
    the falsifier's trial ``haar:0`` at that seed.  ``seed`` is a
    nonnegative integer or a nested tuple of them.  A state whose amplitudes
    would pass ``linalg._STACK_BYTES`` is rejected before any draw.
    """
    ds = _factor_dims(dims)
    dim = math.prod(ds)
    _bounded_bytes((dim,), _STACK_BYTES, f"a Haar-random state of dimension {dim}")
    return PureState(_haar_rows(_seeded_rng(seed), 1, dim)[0], ds)


def random_density(dims, rank: int, seed) -> DensityOperator:
    """Random mixture of ``rank`` Haar pure states with Dirichlet weights; a
    matrix past ``linalg.TENSOR_POWER_MAX_BYTES`` is rejected before any draw."""
    ds = _factor_dims(dims)
    d = math.prod(ds)
    rank = _whole(rank, "rank")
    if rank < 1 or rank > d:
        raise ValueError(f"rank must lie in [1, {d}], got {rank}")
    _bounded_bytes((d, d), TENSOR_POWER_MAX_BYTES, f"a random {d}x{d} density matrix")
    rng = _seeded_rng(seed)
    weights = rng.dirichlet(np.ones(rank))
    m = np.zeros((d, d), dtype=complex)
    for w, v in zip(weights, _haar_rows(rng, rank, d)):
        m += w * _projectors(v)
    return DensityOperator(m, ds)


def tensor_pure(a: PureState, b: PureState) -> PureState:
    """Product state a ox b with concatenated factor dimensions."""
    a, b = _instance(a, PureState), _instance(b, PureState)
    return PureState(np.kron(a.amplitudes, b.amplitudes), a.dims + b.dims)

