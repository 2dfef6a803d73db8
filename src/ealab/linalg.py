"""Dense complex linear algebra on tensor-product spaces.

Operators are plain square complex numpy arrays.  ``partial_transpose``,
``hermiticity_defect``, ``hermitian_eigenvalues`` and ``min_eigenvalue`` also
accept a stack of operators with leading batch axes, ``(..., D, D)``, and act
on each operator of the stack.  Composite systems carry an
explicit tuple of factor dimensions; factor 0 is the most significant index
(big-endian), so a composite basis index decomposes as
``i = i0*(d1*...*d_{n-1}) + ... + i_{n-1}``, matching ``numpy.kron`` order.
All factor index sets are 0-based.
"""

from __future__ import annotations

import math
import sys
from functools import reduce
from typing import Iterable, Sequence

import numpy as np
from numpy.linalg import _umath_linalg

# The one tolerance of the matrix invariants: Hermiticity (accepted matrices
# are symmetrized before eigensolving), unit trace, positivity, trace
# preservation and POVM closure.  Absorbs rounding from repeated kron/apply.
MATRIX_ATOL = 1e-10

# A Cholesky factorization that succeeds in floating point factors A + dA
# with ||dA|| of order D*u*tr(A) (Higham, Accuracy and Stability of Numerical
# Algorithms, 2nd ed., section 10.1): a few times 1e-13 at most for the
# unit-trace operators of dimension up to 1024 that the falsifier holds.  A
# screen keeps this margin between the floor it tests and the bound it needs.
# It bounds a symmetric eigensolve as well.  criteria.ppt_status certifies
# only on 4x4 and 6x6 partial transposes with ||A||_F <= about 1, where the
# backward-stable eigvalsh moves each eigenvalue (Weyl) by less than about
# 1e-15; a Choi operator summed from Kraus operators adds error of that
# size.  A minimum above the margin proves the exact one positive, with
# three orders of magnitude to spare.
CHOLESKY_MARGIN = 1e-12

# Largest block of a stack that a check copies and works through at once:
# the conjugated Kraus rows of the trace-preservation check, and the partial
# transposes of the falsifier's cuts that go to one screened eigensolve.
# Past glibc's default 128 KiB trim and mmap thresholds a block and its
# temporaries fault their pages in again on every call: on a 2-vCPU Xeon,
# falsifier cut groups of 1 MiB made k = 4 and 5 searches 20-40% slower
# than one cut per call, and groups of 128 KiB made none slower.
_BLOCK_BYTES = 2**17

# Largest stack of density matrices the falsifier and the see-saw hold at
# once; ``_composite_dim`` refuses a composite (qubits past 10) whose density
# matrix passes it, and ``max_entangled`` d^2 amplitudes that pass it.
_STACK_BYTES = 2**24

# Largest Kraus stack that depolarizing, tensor, compose and tensor_power
# build, and largest d^2 x d^2 matrix of max_entangled_projector and werner,
# in bytes.  The k-fold power of a depolarized qubit holds 5^k operators of
# 2^k x 2^k complex entries: 51 MB at k = 5, 1 GB at k = 6.  Depolarizing in
# dimension d holds d^2 + 1 operators of d x d: 252 MB at d = 63.  The
# projector of local dimension 64 fills the bound exactly.
TENSOR_POWER_MAX_BYTES = 2**28


def _as_array(m, expected: str) -> np.ndarray:
    """``m`` as a complex array, the one conversion of a caller's argument;
    what numpy cannot convert raises ``ValueError`` naming ``expected``."""
    try:
        return np.asarray(m, dtype=complex)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"expected {expected}, got {type(m).__name__}: {exc}") from exc


def as_operator(m) -> np.ndarray:
    """Coerce input to a square complex matrix."""
    a = _as_stack(m, "a square matrix")
    if a.ndim != 2:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


def _as_stack(m, expected: str = "a square matrix or a stack of them") -> np.ndarray:
    """Coerce input to a complex square matrix or a stack of them: the one
    square-shape test; ``expected`` names the input in its error."""
    a = _as_array(m, expected)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2] or a.shape[-1] < 1:
        raise ValueError(f"expected {expected}, got shape {a.shape}")
    return a


def _adjoint(a: np.ndarray) -> np.ndarray:
    return a.conj().swapaxes(-1, -2)


def _projectors(amps: np.ndarray) -> np.ndarray:
    """Projector onto each unit vector of a stack ``(..., D)``, as ``(..., D, D)``;
    one vector ``(D,)`` gives one matrix."""
    return amps[..., :, None] * amps.conj()[..., None, :]


def _whole(x, name: str, least: int | None = None) -> int:
    """``x`` as an int, rejected (NaN and infinities too) unless integral.

    With ``least`` given, a value below it is rejected too: as
    ``"{name} must be nonnegative"`` when ``least`` is 0, else as
    ``"{name} must be at least {least}"``.
    """
    try:
        n = x if type(x) is int else int(x)
    except (TypeError, ValueError, OverflowError):
        n = None
    if n is None or n != x:
        raise ValueError(f"{name} must be an integer, got {x!r}")
    if least is not None and n < least:
        bound = "nonnegative" if least == 0 else f"at least {least}"
        raise ValueError(f"{name} must be {bound}, got {n}")
    return n


def _real(x, name: str, lo: float = -math.inf, hi: float = math.inf) -> float:
    """``x`` as a float, the one conversion of a caller's real.

    What ``float()`` cannot read raises ``ValueError`` naming ``name``, and
    so does a value outside [lo, hi], NaN too: as ``"{name} must be finite
    and nonnegative"`` for a tolerance's range [0, largest float], else as
    ``"{name} must lie in [lo, hi]"``.  The default whole line only
    converts, and leaves NaN and the infinities to the caller's own checks.
    """
    try:
        r = float(x)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{name} must be a real number, got {type(x).__name__}: {exc}") from exc
    if lo <= r <= hi or (lo, hi) == (-math.inf, math.inf):
        return r
    if lo == 0.0 and hi == sys.float_info.max:
        raise ValueError(f"{name} must be finite and nonnegative, got {x!r}")
    raise ValueError(f"{name} must lie in [{lo:g}, {hi:g}], got {r}")


def _factor_dims(dims, d: int | None = None) -> tuple[int, ...]:
    """Factor dimensions as a tuple of positive ints (a scalar is one factor).

    With ``d`` given, their product must equal it.
    """
    try:
        dims = tuple(dims)
    except TypeError:  # not iterable: a scalar, 0-d arrays included
        dims = (dims,)
    ds = tuple(_whole(x, "factor dimension") for x in dims)
    if not ds or any(x < 1 for x in ds):
        raise ValueError(f"factor dimensions must be positive, got {ds}")
    if d is not None and math.prod(ds) != d:
        raise ValueError(f"factor dimensions {ds} do not match dimension {d}")
    return ds


def _bounded_bytes(factors: Iterable[int], bound: int, what: str) -> None:
    """Raise ``ValueError`` when a complex array of ``prod(factors)`` entries
    would take more than ``bound`` bytes: the package's one size rule.  The
    count grows one factor at a time and stops once past ``bound``, before
    any allocation, so a lazy stream of factors is read no further than
    needed; the count in the message is then a lower bound, which ``what``
    says ("or more").
    """
    n = 16
    for f in factors:
        n *= f
        if n > bound:
            raise ValueError(f"{what} needs {n} bytes, above the {bound}-byte bound")


def _composite_dim(dims: Iterable[int]) -> int:
    """Dimension of a composite whose density matrix fits in ``_STACK_BYTES``.

    Multiplies the factors in turn, so that a composite past the bound is
    rejected after a few factors whatever their number.  A factor of
    dimension below 2 carries no entanglement and is rejected too.
    """
    dim = 1
    for d in dims:
        if d < 2:
            raise ValueError(f"every factor needs dimension >= 2, got {d}")
        dim *= d
        _bounded_bytes((dim * dim,), _STACK_BYTES, f"a density matrix of dimension {dim} or more")
    return dim


def _party_count(n, noun: str) -> int:
    """``n`` as an int, refused below 2 parties and past the 10 qubits of
    ``_composite_dim``; ``noun`` ("qubit", "factor") names them in messages."""
    n = _whole(n, f"{noun} count")
    if n < 2:
        raise ValueError(f"need at least 2 {noun}s, got {n}")
    _composite_dim(2 for _ in range(n))
    return n


def check_dims(m, dims: Sequence[int]) -> tuple[np.ndarray, tuple[int, ...]]:
    """Validate that ``dims`` factorizes the dimension of ``m``."""
    a = as_operator(m)
    return a, _factor_dims(dims, a.shape[0])


def _factor_subset(indices: Iterable[int], n: int, name: str) -> tuple[int, ...]:
    idx = tuple(sorted({_whole(i, f"{name} index") for i in indices}))
    if any(i < 0 or i >= n for i in idx):
        raise ValueError(f"{name} {idx} out of range for {n} factors")
    return idx


def kron(a, b) -> np.ndarray:
    """Kronecker product of two matrices with the big-endian index convention.

    The operands may have any shapes, square or not, so Kraus operators of
    dimension-changing channels tensor like any others.
    """
    x, y = _as_array(a, "a matrix"), _as_array(b, "a matrix")
    if x.ndim != 2 or y.ndim != 2:
        raise ValueError(f"kron needs two matrices, got shapes {x.shape} and {y.shape}")
    return np.kron(x, y)


def kron_all(ops: Sequence) -> np.ndarray:
    """Left-folded ``kron`` of a nonempty sequence of matrices."""
    if not ops:
        raise ValueError("kron_all needs at least one operator")
    # [[1]] is the unit of kron, so one operator still comes back checked
    return reduce(kron, ops, np.ones((1, 1), dtype=complex))


def partial_trace(m, dims: Sequence[int], keep: Iterable[int]) -> np.ndarray:
    """Trace out all factors not listed in ``keep``.

    The result acts on the kept factors in their original order and has the
    same trace as the input.
    """
    a, ds = check_dims(m, dims)
    n = len(ds)
    kept = _factor_subset(keep, n, "keep")
    if not kept:
        raise ValueError("keep must list at least one factor")
    t = a.reshape(ds + ds)
    bra = list(range(n))
    ket = [i + n if i in kept else i for i in range(n)]
    out = [i for i in kept] + [i + n for i in kept]
    d_keep = math.prod(ds[i] for i in kept)
    return np.einsum(t, bra + ket, out).reshape(d_keep, d_keep)


def partial_transpose(m, dims: Sequence[int], transposed: Iterable[int]) -> np.ndarray:
    """Transpose only the listed tensor factors (of every operator of a stack)."""
    a = _as_stack(m)
    ds = _factor_dims(dims, a.shape[-1])
    n = len(ds)
    flipped = _factor_subset(transposed, n, "transposed")
    lead = a.shape[:-2]
    t = a.reshape(lead + ds + ds)
    return t.transpose(_transposed_axes(len(lead), n, flipped)).reshape(a.shape)


def _transposed_axes(lead: int, n: int, flipped: Iterable[int]) -> list[int]:
    """Axis order of a ``(lead axes) + dims + dims`` tensor with the ket and
    bra axes of each ``flipped`` factor swapped."""
    axes = list(range(lead + 2 * n))
    for i in flipped:
        axes[lead + i], axes[lead + n + i] = axes[lead + n + i], axes[lead + i]
    return axes


def _partial_transposes(
    a: np.ndarray, dims: tuple[int, ...], flips: Sequence[Sequence[int]]
) -> np.ndarray:
    """``partial_transpose`` of each operator of a stack ``(B, D, D)`` over
    each factor set of ``flips``, as one stack ``(B, len(flips), D, D)``.

    One copy per factor set, into the result; ``dims`` and the sets must
    already be valid, as they are for the cuts of ``criteria.bipartitions``.
    """
    n, batch, d = len(dims), a.shape[0], a.shape[-1]
    t = a.reshape((batch,) + dims + dims)
    out = np.empty((batch, len(flips)) + dims + dims, dtype=a.dtype)
    for j, flipped in enumerate(flips):
        out[:, j] = t.transpose(_transposed_axes(1, n, flipped))
    return out.reshape(batch, len(flips), d, d)


def permute_factors(m, dims: Sequence[int], perm: Sequence[int]) -> np.ndarray:
    """Reorder tensor factors so new factor ``k`` is old factor ``perm[k]``."""
    a, ds = check_dims(m, dims)
    n = len(ds)
    p = tuple(_whole(i, "perm") for i in perm)
    if sorted(p) != list(range(n)):
        raise ValueError(f"perm {p} is not a permutation of {n} factors")
    t = a.reshape(ds + ds)
    axes = list(p) + [i + n for i in p]
    d = a.shape[0]
    return t.transpose(axes).reshape(d, d)


def hermiticity_defect(m):
    """Largest absolute entry of ``m - m^dagger``; an array of them for a stack."""
    a = _as_stack(m)
    dev = np.abs(a - _adjoint(a))
    return float(dev.max()) if a.ndim == 2 else dev.max(axis=(-2, -1))


def hermitian_eigenvalues(m) -> np.ndarray:
    """Ascending real spectrum of a Hermitian matrix (of each matrix of a stack).

    Rejects inputs whose deviation from their adjoint exceeds ``MATRIX_ATOL``
    (or is NaN); accepted inputs are symmetrized before the eigensolve.
    """
    a = _as_stack(m)
    defect = np.max(hermiticity_defect(a), initial=0.0)
    if not defect <= MATRIX_ATOL:
        raise ValueError(
            f"matrix is not Hermitian within {MATRIX_ATOL:g} (max deviation {defect:.3e})"
        )
    return _symmetrized_eigenvalues(a)


def _symmetrized_eigenvalues(a: np.ndarray) -> np.ndarray:
    """``hermitian_eigenvalues`` minus its check, for operators that passed it."""
    return np.linalg.eigvalsh((a + _adjoint(a)) / 2)


def _screen_above(a: np.ndarray, floor: float) -> np.ndarray:
    """Per matrix of a stack, True when a Cholesky proves every eigenvalue of
    the symmetrized matrix ``(a + a^dagger)/2`` above ``floor``.

    The proof holds up to the backward error ``CHOLESKY_MARGIN`` covers, and
    ``a`` must be finite.  ``False`` proves nothing: the matrix may lie at or
    below ``floor``, or only too close to it to decide.  numpy's Cholesky
    gufunc fills each matrix it fails to factor with NaN, and a NaN entry
    reaches the last diagonal entry of the factor.
    """
    m = a + _adjoint(a)  # twice the symmetrized matrix, exactly
    diag = np.arange(m.shape[-1])
    m[..., diag, diag] -= 2 * floor
    with np.errstate(invalid="ignore"):
        low = _umath_linalg.cholesky_lo(m, signature="D->D")
    return ~np.isnan(low[..., -1, -1])


def _lowest_eigenvalues(a: np.ndarray, above: float = math.inf) -> np.ndarray:
    """Lowest eigenvalue of each matrix of a stack, or ``+inf`` where
    ``_screen_above(a, above + CHOLESKY_MARGIN)`` proves it above ``above``:
    the one place where a Cholesky stands in for an eigensolve, for callers
    that ask only whether a minimum lies at or below ``above``.  The rest go
    to ``hermitian_eigenvalues``, where bench/tracing.py counts them, and a
    whole stack goes uncopied; an infinite ``above`` runs no Cholesky.  ``a``
    must be finite.
    """
    rest = None if above == math.inf else ~_screen_above(a, above + CHOLESKY_MARGIN)
    if rest is None or rest.all():
        return hermitian_eigenvalues(a)[..., 0]
    low = np.full(rest.shape, math.inf)
    if rest.any():
        low[rest] = hermitian_eigenvalues(a[rest])[:, 0]
    return low


def min_eigenvalue(m):
    """Smallest eigenvalue of a Hermitian matrix; an array of them for a stack."""
    low = hermitian_eigenvalues(m)[..., 0]
    return float(low) if low.ndim == 0 else low
