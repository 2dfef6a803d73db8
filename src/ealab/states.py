"""Construction and sampling of the states used throughout the library.

Covers the maximally entangled state, Werner states, GHZ and W states, the
classically correlated two-qubit state, Schmidt-parameterized pure states,
and seeded Haar-random sampling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .linalg import (
    MATRIX_ATOL,
    _factor_dims,
    _factor_subset,
    _lowest_eigenvalues,
    _unit_interval,
    _whole,
    dims_product,
    hermiticity_defect,
    partial_trace,
)

NORM_ATOL = 1e-12


def _freeze(a) -> np.ndarray:
    """A read-only complex copy of ``a``.

    A read-only, C-contiguous complex array that owns its data is returned
    as is, so a constructor that builds a large array and freezes it hands
    it over without a second copy.
    """
    if (
        isinstance(a, np.ndarray)
        and a.dtype == complex
        and a.base is None
        and a.flags.c_contiguous
        and not a.flags.writeable
    ):
        return a
    a = np.array(a, dtype=complex)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class PureState:
    """Unit vector on a composite space with explicit factor dimensions."""

    amplitudes: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
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
        m = np.outer(self.amplitudes, self.amplitudes.conj())
        return DensityOperator(m, self.dims)

    def overlap(self, other: "PureState") -> complex:
        return complex(np.vdot(self.amplitudes, other.amplitudes))


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """Positive unit-trace operator with explicit factor dimensions."""

    matrix: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {m.shape}")
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
        kept = tuple(sorted({_whole(i, "keep index") for i in keep}))
        m = partial_trace(self.matrix, self.dims, kept)
        return DensityOperator(m, tuple(self.dims[i] for i in kept))


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
        c = np.asarray(self.coefficients, dtype=float).reshape(-1)
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
    """Maximally entangled state (1/sqrt(d)) sum_j |jj> on dims (d, d)."""
    d = _whole(d, "local dimension")
    if d < 2:
        raise ValueError(f"local dimension must be at least 2, got {d}")
    amp = np.zeros(d * d, dtype=complex)
    amp[:: d + 1] = 1.0 / np.sqrt(d)
    return PureState(amp, (d, d))


def max_entangled_projector(d: int) -> np.ndarray:
    """Projector matrix onto the maximally entangled state."""
    amp = max_entangled(d).amplitudes
    return np.outer(amp, amp.conj())


def werner(lam: float, d: int = 2) -> DensityOperator:
    """Werner state ``lam * P_+  +  (1 - lam) * (I/d) ox (I/d)``."""
    lam = _unit_interval(lam, "mixing parameter")
    return DensityOperator(_werner_matrix(lam, d), (d, d))


def _werner_matrix(lam, d: int) -> np.ndarray:
    """``lam * P_+ + (1 - lam) * I/d^2`` with no check, for a float ``lam`` or
    a stack of them shaped ``(B, 1, 1)``, entry for entry the same arithmetic."""
    return lam * max_entangled_projector(d) + (1 - lam) * np.eye(d * d) / d**2


def _qubit_count(n: int) -> int:
    """``n`` as an int, rejected below the two qubits of a composite."""
    n = _whole(n, "qubit count")
    if n < 2:
        raise ValueError(f"need at least 2 qubits, got {n}")
    return n


def ghz(n: int = 3) -> PureState:
    """GHZ state (|0...0> + |1...1>)/sqrt(2) on n qubits."""
    n = _qubit_count(n)
    amp = np.zeros(2**n, dtype=complex)
    amp[0] = amp[-1] = 1.0 / np.sqrt(2)
    return PureState(amp, (2,) * n)


def w_state(n: int = 3) -> PureState:
    """Uniform single-excitation superposition on n qubits."""
    n = _qubit_count(n)
    amp = np.zeros(2**n, dtype=complex)
    for j in range(n):
        amp[1 << j] = 1.0 / np.sqrt(n)
    return PureState(amp, (2,) * n)


def classically_correlated_pair() -> DensityOperator:
    """Two-qubit state (|00><00| + |11><11|)/2; every GHZ pair marginal."""
    return DensityOperator(np.diag([0.5, 0.0, 0.0, 0.5]), (2, 2))


def schmidt_pure(q0: float) -> PureState:
    """Two-qubit state sqrt(q0)|00> + sqrt(1-q0)|11>."""
    q0 = _unit_interval(q0, "Schmidt weight")
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
    n = len(psi.dims)
    left_idx = _factor_subset(left, n, "left block")
    right_idx = tuple(i for i in range(n) if i not in left_idx)
    if not left_idx or not right_idx:
        raise ValueError("partition must split the factors into two nonempty blocks")
    perm = left_idx + right_idx
    tens = psi.amplitudes.reshape(psi.dims).transpose(perm)
    d_left = dims_product([psi.dims[i] for i in left_idx])
    d_right = dims_product([psi.dims[i] for i in right_idx])
    u, s, vh = np.linalg.svd(tens.reshape(d_left, d_right), full_matrices=False)
    return SchmidtDecomposition(s, u, vh.T)


def _check_seed(seed) -> None:
    """Name a negative seed (or a negative entry of a seed tuple) instead of
    leaving it to numpy's unnamed message."""
    entries = seed if isinstance(seed, (tuple, list)) else (seed,)
    if any(isinstance(s, (int, np.integer)) and s < 0 for s in entries):
        raise ValueError(f"seed must be nonnegative, got {seed}")


def _seeded_rng(seed) -> np.random.Generator:
    """``numpy.random.default_rng(seed)`` after ``_check_seed``."""
    _check_seed(seed)
    return np.random.default_rng(seed)


def _haar_amplitudes(rng: np.random.Generator, dim: int) -> np.ndarray:
    x = rng.standard_normal(2 * dim)  # real parts, then imaginary parts
    v = x[:dim] + 1j * x[dim:]
    return v / np.linalg.norm(v)


def haar_pure(dims, seed) -> PureState:
    """Haar-random pure state, deterministic per seed.

    Sampled as a normalized vector of i.i.d. standard complex Gaussians.
    ``seed`` is anything ``numpy.random.default_rng`` accepts (a 64-bit
    integer in typical use).
    """
    ds = _factor_dims(dims)
    rng = _seeded_rng(seed)
    return PureState(_haar_amplitudes(rng, dims_product(ds)), ds)


def random_density(dims, rank: int, seed) -> DensityOperator:
    """Random mixture of ``rank`` Haar pure states with Dirichlet weights."""
    ds = _factor_dims(dims)
    d = dims_product(ds)
    rank = _whole(rank, "rank")
    if rank < 1 or rank > d:
        raise ValueError(f"rank must lie in [1, {d}], got {rank}")
    rng = _seeded_rng(seed)
    weights = rng.dirichlet(np.ones(rank))
    m = np.zeros((d, d), dtype=complex)
    for w in weights:
        v = _haar_amplitudes(rng, d)
        m += w * np.outer(v, v.conj())
    return DensityOperator(m, ds)


def tensor_pure(a: PureState, b: PureState) -> PureState:
    """Product state a ox b with concatenated factor dimensions."""
    return PureState(np.kron(a.amplitudes, b.amplitudes), a.dims + b.dims)

