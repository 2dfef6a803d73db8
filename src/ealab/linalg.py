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
CHOLESKY_MARGIN = 1e-12


def as_operator(m) -> np.ndarray:
    """Coerce input to a square complex matrix."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


def _as_stack(m) -> np.ndarray:
    """Coerce input to a complex square matrix or a stack of them."""
    a = np.asarray(m, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2] or a.shape[-1] < 1:
        raise ValueError(
            f"expected a square matrix or a stack of them, got shape {a.shape}"
        )
    return a


def _adjoint(a: np.ndarray) -> np.ndarray:
    return a.conj().swapaxes(-1, -2)


def _whole(x, name: str) -> int:
    """``x`` as an int, rejected (NaN and infinities too) unless integral."""
    if type(x) is int:
        return x
    try:
        n = int(x)
    except (TypeError, ValueError, OverflowError):
        n = None
    if n is None or n != x:
        raise ValueError(f"{name} must be an integer, got {x!r}")
    return n


def dims_product(dims: Sequence[int]) -> int:
    p = 1
    for d in dims:
        p *= _whole(d, "factor dimension")
    return p


def _factor_dims(dims, d: int | None = None) -> tuple[int, ...]:
    """Factor dimensions as a tuple of positive ints (an int is one factor).

    With ``d`` given, their product must equal it.
    """
    if isinstance(dims, (int, np.integer)):
        dims = (dims,)
    ds = tuple(_whole(x, "factor dimension") for x in dims)
    if not ds or any(x < 1 for x in ds):
        raise ValueError(f"factor dimensions must be positive, got {ds}")
    if d is not None and dims_product(ds) != d:
        raise ValueError(f"factor dimensions {ds} do not match dimension {d}")
    return ds


def check_dims(m, dims: Sequence[int]) -> tuple[np.ndarray, tuple[int, ...]]:
    """Validate that ``dims`` factorizes the dimension of ``m``."""
    a = as_operator(m)
    return a, _factor_dims(dims, a.shape[0])


def _unit_interval(x, name: str) -> float:
    """``x`` as a float, rejected (NaN too) outside [0, 1]."""
    x = float(x)
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {x}")
    return x


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
    x, y = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
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
    d_keep = dims_product([ds[i] for i in kept])
    return np.einsum(t, bra + ket, out).reshape(d_keep, d_keep)


def partial_transpose(m, dims: Sequence[int], transposed: Iterable[int]) -> np.ndarray:
    """Transpose only the listed tensor factors (of every operator of a stack)."""
    a = _as_stack(m)
    ds = _factor_dims(dims, a.shape[-1])
    n = len(ds)
    flipped = _factor_subset(transposed, n, "transposed")
    lead = a.shape[:-2]
    b = len(lead)
    t = a.reshape(lead + ds + ds)
    axes = list(range(b + 2 * n))
    for i in flipped:
        axes[b + i], axes[b + n + i] = axes[b + n + i], axes[b + i]
    return t.transpose(axes).reshape(a.shape)


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
    defect = hermiticity_defect(a)
    if a.ndim > 2:
        defect = float(defect.max(initial=0.0))
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
