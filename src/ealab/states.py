"""Construction and sampling of the states used throughout the library.

Covers the maximally entangled state, Werner states, GHZ and W states, the
classically correlated two-qubit state, Schmidt-parameterized pure states,
and seeded Haar-random sampling.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .linalg import (
    _STACK_BYTES,
    MATRIX_ATOL,
    TENSOR_POWER_MAX_BYTES,
    _composite_dim,
    _factor_dims,
    _factor_subset,
    _lowest_eigenvalues,
    _projectors,
    _unit_interval,
    _whole,
    as_operator,
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
        return DensityOperator(_projectors(self.amplitudes), self.dims)

    def overlap(self, other: "PureState") -> complex:
        return complex(np.vdot(self.amplitudes, other.amplitudes))


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
    """Maximally entangled state (1/sqrt(d)) sum_j |jj> on dims (d, d).

    A ``d`` whose d^2 amplitudes would pass ``linalg._STACK_BYTES``
    (d > 1024) is rejected before any allocation."""
    d = _whole(d, "local dimension", 2)
    if 16 * d * d > _STACK_BYTES:
        raise ValueError(
            f"a maximally entangled state of local dimension {d} needs {16 * d * d} "
            f"bytes of amplitudes, above the {_STACK_BYTES}-byte bound"
        )
    return PureState(_bell_row((d, d), (0,), (1,)), (d, d))


def max_entangled_projector(d: int) -> np.ndarray:
    """Projector matrix onto the maximally entangled state.

    A ``d`` whose d^2 x d^2 complex matrix would pass
    ``linalg.TENSOR_POWER_MAX_BYTES`` (d > 64) is rejected before any
    allocation, and so is a ``werner`` state of that ``d``."""
    d = _whole(d, "local dimension", 2)
    if 16 * d**4 > TENSOR_POWER_MAX_BYTES:
        raise ValueError(
            f"a {d * d}x{d * d} matrix of local dimension {d} needs {16 * d**4} "
            f"bytes, above the {TENSOR_POWER_MAX_BYTES}-byte bound"
        )
    return _projectors(max_entangled(d).amplitudes)


def werner(lam: float, d: int = 2) -> DensityOperator:
    """Werner state ``lam * P_+  +  (1 - lam) * (I/d) ox (I/d)``."""
    lam = _unit_interval(lam, "mixing parameter")
    d = _whole(d, "local dimension", 2)
    return DensityOperator(_werner_matrix(lam, d), (d, d))


def _werner_matrix(lam, d: int) -> np.ndarray:
    """``lam * P_+ + (1 - lam) * I/d^2`` for a float ``lam``, with no check:
    the one expression ``werner`` and the extended-range ``depolarizing`` use."""
    return lam * max_entangled_projector(d) + (1 - lam) * np.eye(d * d) / d**2


def _qubit_count(n: int) -> int:
    """``n`` as an int, rejected below the two qubits of a composite and past
    the ten that ``linalg._composite_dim`` bounds, before any allocation."""
    n = _whole(n, "qubit count")
    if n < 2:
        raise ValueError(f"need at least 2 qubits, got {n}")
    _composite_dim(2 for _ in range(n))
    return n


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
    n = _qubit_count(n)
    return PureState(_ghz_row(n), (2,) * n)


def w_state(n: int = 3) -> PureState:
    """Uniform single-excitation superposition on n qubits."""
    n = _qubit_count(n)
    return PureState(_w_row(n), (2,) * n)


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


# numpy.random.SeedSequence is O'Neill's seed_seq_fe.  Its mix_entropy
# hashes the entropy words into a pool of four uint32 words: the k-th hash
# call xors with _MIX_INIT * _MIX_MULT**k, multiplies by the next power and
# xorshifts by 16, and the mix of two words is _MIX_LEFT * x - _MIX_RIGHT * y,
# xorshifted by 16.  Its generate_state then hashes pool word i % 4 into
# output word i: xor with the i-th of the _SEED_HASH constants, multiply by
# the next, xorshift by 16.  All arithmetic is modulo 2**32.
_MASK32 = 0xFFFFFFFF
_MIX_INIT, _MIX_MULT = 0x43B0D7E5, 0x931E8875
_MIX_LEFT, _MIX_RIGHT = 0xCA01F9DD, 0x4973F715
_SEED_HASH = tuple(0x8B51F9DD * 0x58F38DED**i & _MASK32 for i in range(9))
_LANE_ONE = (1).to_bytes(8, "little")


def _words32(n: int) -> list[int]:
    """The 32-bit words, least significant first, that numpy's seed
    sequences read from a nonnegative int: ``[0]`` for zero."""
    if n <= _MASK32:
        return [n]
    return [n >> s & _MASK32 for s in range(0, n.bit_length(), 32)]


def _lane_states(entropy: list[int], ones: int) -> list[int]:
    """``SeedSequence(words).generate_state(4, np.uint64)`` for many word
    lists of one length at once, in Python ints.

    Each list is one 64-bit lane of the ints, lane 0 least significant:
    ``entropy[i]`` holds word i of every list, and ``ones`` holds 1 in every
    lane.  Returns the four state words, packed the same way.  A lane holds a
    32-bit value between steps.  The product of two such values fits in its
    lane and is masked back to 32 bits (the mix masks one product before it
    adds the other, so the sum fits too); ``-R * y`` is ``(2**32 - R) * y``,
    so no lane borrows from the next; and an xorshift masks the shifted
    value, which carries the next lane's low 16 bits into this lane's top.
    """
    mask = _MASK32 * ones
    const = _MIX_INIT

    def hashmix(v: int) -> int:
        nonlocal const
        v ^= const * ones
        const = const * _MIX_MULT & _MASK32
        v = v * const & mask
        return v ^ v >> 16 & mask

    def mix(x: int, y: int) -> int:
        v = (x * _MIX_LEFT & mask) + y * (2**32 - _MIX_RIGHT) & mask
        return v ^ v >> 16 & mask

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    # uint64 word j is output words 2j (low half) and 2j + 1 (high half),
    # both xorshifted at once
    halves, words = 0x0000FFFF0000FFFF * ones, []
    for j in range(4):
        a, b, c = _SEED_HASH[2 * j : 2 * j + 3]
        lo = (pool[2 * j % 4] ^ a * ones) * b & mask
        v = lo | ((pool[(2 * j + 1) % 4] ^ b * ones) * c & mask) << 32
        words.append(v ^ v >> 16 & halves)
    return words


@functools.cache
def _given_state_type() -> type:
    """A ``numpy.random.bit_generator.ISeedSequence`` that hands PCG64 the
    state words it holds.

    Built on first use: numpy 2 loads ``numpy.random`` lazily, and loading
    it would add to every ``import ealab``.
    """
    from numpy.random.bit_generator import ISeedSequence

    class GivenState(ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if (n_words, dtype) != (4, np.uint64):  # PCG64's one request
                raise ValueError(f"holds PCG64's 4 uint64 words, not {n_words} of {dtype}")
            return self.words

    return GivenState


def _keyed_rngs(seed: int, keys: Iterable[int]) -> list[np.random.Generator]:
    """``[numpy.random.default_rng((seed, key)) for key in keys]`` for a
    nonnegative int ``seed`` and keys, with one seeding pass per batch.

    ``default_rng((seed, key))`` seeds PCG64 from ``SeedSequence((seed, key))``,
    which mixes the 32-bit words of ``seed``, then those of ``key``, into a
    pool of four words and hashes the pool into PCG64's state with
    ``generate_state(4, np.uint64)``.  Here the keys are grouped by their
    number of words, and ``_lane_states`` does both steps for a whole group
    at once, one key per 64-bit lane of a Python int; PCG64's own seeding
    reads each key's state through the ``ISeedSequence`` interface.  Each
    generator starts in the state of ``default_rng((seed, key))``, and none
    is shared between calls.  On a contended 2-vCPU x86 server 40 keys take
    about 190 µs where one ``SeedSequence`` per key took about 470; at 4
    keys the two are about even, and a lone key takes about 40 µs instead
    of 14.
    """
    head, key_words = _words32(seed), [_words32(key) for key in keys]
    sizes = [len(words) for words in key_words]
    states = np.empty((len(key_words), 4), np.uint64)  # PCG64 reads a row's words in place
    for size in set(sizes):
        rows = [i for i, s in enumerate(sizes) if s == size]
        ones = int.from_bytes(_LANE_ONE * len(rows), "little")
        lanes = [
            int.from_bytes(np.array([key_words[i][j] for i in rows], "<u8").tobytes(), "little")
            for j in range(size)
        ]
        words = _lane_states([w * ones for w in head] + lanes, ones)
        packed = b"".join(v.to_bytes(8 * len(rows), "little") for v in words)
        states[rows] = np.frombuffer(packed, "<u8").reshape(4, len(rows)).T
    pcg64, generator, given = np.random.PCG64, np.random.Generator, _given_state_type()
    return [generator(pcg64(given(state))) for state in states]


def _haar_rows(rngs: Sequence[np.random.Generator], dim: int) -> np.ndarray:
    """Haar-random unit vectors ``(len(rngs), dim)``, row ``i`` drawn from
    ``rngs[i]``: real parts, then imaginary parts, of i.i.d. standard normals.

    Each generator fills its row of one buffer in turn (one generator listed
    twice draws two rows of its stream).  The rows are assembled and
    normalized as one stack, with the arithmetic of ``np.linalg.norm`` on one
    complex vector, ``sqrt(re.dot(re) + im.dot(im))``, which a stacked
    ``matmul`` of the rows repeats bit for bit; so a row does not depend on
    the stack it is drawn in.
    """
    x = np.empty((len(rngs), 2 * dim))
    for rng, row in zip(rngs, x):
        rng.standard_normal(out=row)
    v = x[:, :dim] + 1j * x[:, dim:]
    re, im = v.real[:, None, :], v.imag[:, None, :]
    norm = np.sqrt(re @ re.swapaxes(1, 2) + im @ im.swapaxes(1, 2))
    return v / norm[:, 0]


def haar_pure(dims, seed) -> PureState:
    """Haar-random pure state, deterministic per seed.

    Sampled as a normalized vector of i.i.d. standard complex Gaussians.
    ``seed`` is a nonnegative integer or a nested tuple of them.
    """
    ds = _factor_dims(dims)
    return PureState(_haar_rows([_seeded_rng(seed)], math.prod(ds))[0], ds)


def random_density(dims, rank: int, seed) -> DensityOperator:
    """Random mixture of ``rank`` Haar pure states with Dirichlet weights."""
    ds = _factor_dims(dims)
    d = math.prod(ds)
    rank = _whole(rank, "rank")
    if rank < 1 or rank > d:
        raise ValueError(f"rank must lie in [1, {d}], got {rank}")
    rng = _seeded_rng(seed)
    weights = rng.dirichlet(np.ones(rank))
    m = np.zeros((d, d), dtype=complex)
    for w, v in zip(weights, _haar_rows([rng] * rank, d)):
        m += w * _projectors(v)
    return DensityOperator(m, ds)


def tensor_pure(a: PureState, b: PureState) -> PureState:
    """Product state a ox b with concatenated factor dimensions."""
    return PureState(np.kron(a.amplitudes, b.amplitudes), a.dims + b.dims)

