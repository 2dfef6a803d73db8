"""Quantum channels: Kraus and Choi forms, the depolarizing family,
measure-and-prepare channels, composition, tensoring, and state application.

A channel is one read-only Kraus stack, given as matrices or a 3-D array;
complete positivity is then automatic and trace preservation is checked on
construction.  The trace-one Choi operator ``Omega = (E ox Id)[P_+]`` has
factor order (output, input), so the Choi operator of the depolarizing
channel is literally the Werner state.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from functools import lru_cache, reduce
from typing import Sequence

import numpy as np

from .linalg import (
    MATRIX_ATOL,
    TENSOR_POWER_MAX_BYTES,
    _BLOCK_BYTES,
    _adjoint,
    _as_array,
    _bounded_bytes,
    _items,
    _lowest_eigenvalues,
    _projectors,
    _real,
    _whole,
    as_operator,
    hermitian_eigenvalues,  # unused here; bench/tracing.py wraps it
    hermiticity_defect,
    kron,
    partial_trace,
)
from .states import (
    DensityOperator,
    PureState,
    _freeze,
    _instance,
    _seeded_rng,
    _werner_matrix,
)

CHOI_RANK_TOL = 1e-12

_KRAUS_SHAPE = "Kraus operators must share one nonempty (out, in) shape"


def _kraus_stack(kraus) -> np.ndarray:
    """``kraus`` frozen as one stack ``(n, out, in)`` with no empty axis, the
    Kraus-stack check of ``Channel`` and ``choi_from_kraus``."""
    try:
        ops = _freeze(kraus)
    except ValueError:  # ragged operators, or not numbers
        ops = np.empty(0)
    if ops.ndim != 3 or 0 in ops.shape:
        raise ValueError(_KRAUS_SHAPE)
    return ops


@dataclass(frozen=True, eq=False)
class Channel:
    """Trace-preserving map held as one read-only Kraus stack ``(n, out, in)``."""

    kraus: np.ndarray
    in_dim: int = field(init=False)
    out_dim: int = field(init=False)

    def __post_init__(self):
        try:
            empty = len(self.kraus) == 0
        except TypeError:  # a number, None, or anything else without a length
            raise ValueError(
                f"Kraus operators must be a stack of matrices, got "
                f"{type(self.kraus).__name__}"
            ) from None
        if empty:
            raise ValueError("a channel needs at least one Kraus operator")
        ops = _kraus_stack(self.kraus)
        _, out_dim, in_dim = ops.shape
        # sum K^dag K over blocks of the operators' stacked rows, so that the
        # conjugated copy is one block, not a second stack
        rows = ops.reshape(-1, in_dim)
        step = max(1, _BLOCK_BYTES // (16 * in_dim))
        gram = -np.eye(in_dim, dtype=complex)
        for start in range(0, len(rows), step):
            block = rows[start : start + step]
            gram += _adjoint(block) @ block
        defect = np.max(np.abs(gram))
        if not defect <= MATRIX_ATOL:
            raise ValueError(
                f"trace preservation violated: sum K^dag K deviates from the "
                f"identity by {defect:.3e}"
            )
        object.__setattr__(self, "kraus", ops)
        object.__setattr__(self, "in_dim", in_dim)
        object.__setattr__(self, "out_dim", out_dim)


def _channel(e) -> Channel:
    """``e``, checked to be a ``Channel`` by ``states._instance``."""
    return _instance(e, Channel)


@dataclass(frozen=True, eq=False)
class MeasurePrepare:
    """POVM together with the states prepared for each outcome."""

    povm: tuple[np.ndarray, ...]
    prepares: tuple[DensityOperator, ...]

    def __post_init__(self):
        effects = tuple(as_operator(f) for f in _items(self.povm, "povm"))
        preps = tuple(_instance(p, DensityOperator) for p in _items(self.prepares, "prepares"))
        if not effects or len(effects) != len(preps):
            raise ValueError("need matching nonempty POVM and prepare lists")
        d = effects[0].shape[0]
        if any(f.shape != (d, d) for f in effects):
            raise ValueError("POVM effects must share one dimension")
        stack = np.stack(effects)
        if not hermiticity_defect(stack).max() <= MATRIX_ATOL:
            raise ValueError("POVM effects must be Hermitian")
        low = _lowest_eigenvalues(stack, -MATRIX_ATOL).min()
        if not low >= -MATRIX_ATOL:
            raise ValueError(f"POVM effect is not positive semidefinite (min eig {low:.3e})")
        defect = np.max(np.abs(stack.sum(axis=0) - np.eye(d)))
        if not defect <= MATRIX_ATOL:
            raise ValueError(
                f"POVM does not sum to the identity (deviation {defect:.3e})"
            )
        d_out = preps[0].dim
        if any(p.dim != d_out for p in preps):
            raise ValueError("prepared states must share one dimension")
        object.__setattr__(self, "povm", tuple(_freeze(f) for f in effects))
        object.__setattr__(self, "prepares", preps)


def identity_channel(d: int) -> Channel:
    """Identity channel on dimension ``d``; a ``d`` whose d x d Kraus operator
    would pass ``TENSOR_POWER_MAX_BYTES`` is rejected before any allocation."""
    d = _whole(d, "dimension", 1)
    _bounded_bytes((d, d), TENSOR_POWER_MAX_BYTES, f"an identity channel of dimension {d}")
    return Channel(np.eye(d, dtype=complex)[None])


def depolarizing(lam: float, d: int = 2, allow_extended: bool = False) -> Channel:
    """Depolarizing channel ``X -> lam*X + (1-lam)*tr(X)*I/d``.

    The default parameter range is [0, 1].  With ``allow_extended`` the range
    widens to the full complete-positivity interval [-1/(d^2-1), 1].  A
    dimension whose stack of d^2 + 1 Kraus operators would exceed
    ``TENSOR_POWER_MAX_BYTES`` (d > 63) is rejected before any allocation.
    """
    d = _whole(d, "dimension")
    if d < 2:
        raise ValueError(f"depolarizing channel needs dimension d >= 2, got {d}")
    what = f"a depolarizing channel of dimension {d} with {d * d + 1} Kraus operators"
    _bounded_bytes(((d * d + 1) * d * d,), TENSOR_POWER_MAX_BYTES, what)
    lo = -1.0 / (d * d - 1) if allow_extended else 0.0
    lam = _real(lam, "depolarizing parameter", lo, 1.0)
    if lam < 0:
        # no Kraus mixture exists below lam = 0; rebuild from the Choi form
        return Channel(kraus_from_choi(_werner_matrix(lam, d), d, d))
    # sqrt(lam) I, then the d^2 matrix units |i><j| scaled by sqrt((1-lam)/d),
    # each left out when its weight is zero; filled in place and handed over
    units = d * d if lam < 1 else 0
    ops = np.zeros((int(lam > 0) + units, d, d), dtype=complex)
    if lam > 0:
        np.fill_diagonal(ops[0], np.sqrt(lam))
    if units:
        np.fill_diagonal(ops[-units:].reshape(units, units), np.sqrt((1 - lam) / d))
    ops.setflags(write=False)
    return Channel(ops)


def _state_matrix(state) -> tuple[np.ndarray, tuple[int, ...]]:
    """Matrix and factor dims of a state; a unit vector's projector needs no check."""
    if isinstance(state, PureState):
        return _projectors(state.amplitudes), state.dims
    if isinstance(state, DensityOperator):
        return state.matrix, state.dims
    raise ValueError(f"expected a PureState or a DensityOperator, got {type(state).__name__}")


def apply(e: Channel, state, out_dims=None) -> DensityOperator:
    """Apply a channel to a state (``PureState`` or ``DensityOperator``).

    Computes ``sum_n K_n rho K_n^dag`` as one batched product over the whole
    Kraus stack.  The output keeps the input's factor structure when the
    dimensions still match; pass ``out_dims`` to override.
    """
    e, (rho, dims) = _channel(e), _state_matrix(state)
    if rho.shape[0] != e.in_dim:
        raise ValueError(
            f"channel expects input dimension {e.in_dim}, state has {rho.shape[0]}"
        )
    out = (e.kraus @ rho @ _adjoint(e.kraus)).sum(axis=0)
    if out_dims is None:
        out_dims = dims if e.out_dim == e.in_dim else (e.out_dim,)
    return DensityOperator(out, out_dims)


@lru_cache(maxsize=None)
def _contraction_perms(
    n_axes: int, groups: tuple[tuple[int, ...], ...]
) -> tuple[tuple[int, ...], ...]:
    """Axis permutations for contracting groups of a tensor's axes in turn.

    Axes carry fixed labels ``0 .. n_axes - 1``.  Entry ``i`` moves the
    labels of ``groups[i]`` to the front, followed by the others in label
    order: the operand layout of ``np.tensordot`` on a tensor in label
    order.  The contraction leaves its output axes at the front, where the
    next permutation picks them up; the last entry restores label order.
    """
    order = list(range(n_axes))
    perms = []
    for group in groups:
        front = list(group) + [a for a in range(n_axes) if a not in group]
        perms.append(tuple(order.index(a) for a in front))
        order = front
    perms.append(tuple(order.index(a) for a in range(n_axes)))
    return tuple(perms)


def _apply_sites(kraus: np.ndarray, stack: np.ndarray, sites: int) -> np.ndarray:
    """Apply the map with Kraus stack ``kraus`` to each of ``sites`` factors
    of every operator in a stack.

    ``kraus`` has shape ``(n, d_out, d_in)``; pass its conjugate transpose
    ``K^dag`` to apply the adjoint map.  ``stack`` has shape ``(B, D, D)``
    with ``D = d_in ** sites``; the result has shape ``(B, D', D')`` with
    ``D' = d_out ** sites``.  Each site costs one ``np.dot`` of the
    superoperator ``S[a, b, i, j] = sum_n K_n[a, i] conj(K_n[b, j])``, built
    once per call as one matmul of the flattened Kraus stack, with the stack
    transposed so that the site's ket and bra axes lead, unless ``S`` would
    be more than twice the size of the Kraus stack; then each Kraus operator
    acts on the ket and bra index of the site in turn.  The operands of
    every ``np.dot`` are those ``np.tensordot`` would pass, so the result is
    too, bit for bit; the stack is moved back to factor order once, at the
    end.
    """
    n, d_out, d_in = kraus.shape
    batch = stack.shape[0]
    t = stack.reshape((batch,) + (d_in,) * (2 * sites))
    site_axes = [(1 + s, 1 + sites + s) for s in range(sites)]  # ket, bra
    if d_in * d_out <= 2 * n:
        flat = kraus.reshape(n, d_out * d_in)  # one BLAS product: S[(a, i), (b, j)]
        sup = (flat.T @ flat.conj()).reshape(d_out, d_in, d_out, d_in)
        sup = sup.transpose(0, 2, 1, 3).reshape(d_out**2, d_in**2)
        *perms, last = _contraction_perms(t.ndim, tuple(site_axes))
        for perm in perms:
            u = t.transpose(perm)
            t = np.dot(sup, u.reshape(d_in**2, -1)).reshape((d_out, d_out) + u.shape[2:])
    else:
        conj = kraus.conj()
        groups = tuple((axis,) for pair in site_axes for axis in pair)
        *perms, last = _contraction_perms(t.ndim, groups)
        for ket, bra in zip(perms[0::2], perms[1::2]):
            u = t.transpose(ket)
            kets, rest = u.reshape(d_in, -1), u.shape[1:]  # one copy for every K
            acc = 0
            for k, k_conj in zip(kraus, conj):
                x = np.dot(k, kets).reshape((d_out,) + rest).transpose(bra)
                acc = acc + np.dot(k_conj, x.reshape(d_in, -1)).reshape((d_out,) + x.shape[1:])
            t = acc
    d = d_out**sites
    return t.transpose(last).reshape(batch, d, d)


def apply_local(single: Channel, state) -> DensityOperator:
    """Apply ``single`` to every tensor factor of ``state``.

    Equals ``apply(tensor_power(single, k), state)`` for a state of ``k``
    factors of dimension ``single.in_dim``, but never forms the
    ``len(single.kraus) ** k`` Kraus operators of the tensor power: the
    channel acts on one factor at a time.
    """
    single = _channel(single)
    rho, dims = _state_matrix(state)
    k = len(dims)
    if dims != (single.in_dim,) * k:
        raise ValueError(
            f"channel acts on dimension {single.in_dim}, state has factor "
            f"dimensions {dims}"
        )
    out = _apply_sites(single.kraus, rho[None], k)[0]
    return DensityOperator(out, (single.out_dim,) * k)


def compose(e: Channel, f: Channel) -> Channel:
    """Composition e after f (first ``f``, then ``e``).

    The Kraus stack holds every product ``e.kraus[i] @ f.kraus[j]`` at index
    ``i * len(f.kraus) + j``.  A stack past ``TENSOR_POWER_MAX_BYTES`` is
    rejected before any allocation.
    """
    e, f = _channel(e), _channel(f)
    n = len(e.kraus) * len(f.kraus)
    what = f"a composition with {n} Kraus operators of {e.out_dim}x{f.in_dim}"
    _bounded_bytes((n * e.out_dim * f.in_dim,), TENSOR_POWER_MAX_BYTES, what)
    if f.out_dim != e.in_dim:
        raise ValueError(
            f"cannot compose: inner channel outputs dimension {f.out_dim}, "
            f"outer expects {e.in_dim}"
        )
    return Channel((e.kraus[:, None] @ f.kraus[None]).reshape(-1, e.out_dim, f.in_dim))


def tensor(a: Channel, b: Channel) -> Channel:
    """Local channel a ox b acting independently on two subsystems; a Kraus
    stack past ``TENSOR_POWER_MAX_BYTES`` is rejected before any allocation."""
    a, b = _channel(a), _channel(b)
    n, out_dim, in_dim = len(a.kraus) * len(b.kraus), a.out_dim * b.out_dim, a.in_dim * b.in_dim
    what = f"a tensor product with {n} Kraus operators of {out_dim}x{in_dim}"
    _bounded_bytes((a.kraus.size * b.kraus.size,), TENSOR_POWER_MAX_BYTES, what)
    return Channel(tuple(kron(ka, kb) for ka in a.kraus for kb in b.kraus))


def tensor_power(e: Channel, k: int) -> Channel:
    """The k-fold tensor power as one channel with (Kraus rank)^k operators.

    Raises before allocating when that Kraus stack would exceed
    ``TENSOR_POWER_MAX_BYTES``, after a few factors however large k is;
    ``apply_local`` applies the power site by site without materializing it.
    A channel whose only Kraus operator is 1x1 (a phase) is returned as it
    is: every power of it is the same map.
    """
    e, k = _channel(e), _whole(k, "tensor power", 1)
    if e.kraus.size == 1:
        return e
    what = f"tensor power {k} (apply_local acts site by site without it) or a lower power"
    _bounded_bytes(itertools.repeat(e.kraus.size, k), TENSOR_POWER_MAX_BYTES, what)
    return reduce(tensor, [e] * k)


def choi_from_kraus(kraus: Sequence[np.ndarray]) -> np.ndarray:
    """Choi matrix ``(E ox Id)[P_+]`` of a Kraus set, factor order (out, in).

    It is ``V^T conj(V) / d_in``, where row ``n`` of ``V`` is ``K_n`` flattened.
    Anything but a nonempty stack ``(n, out, in)`` raises ``ValueError``.
    """
    ops = _kraus_stack(kraus)
    v = ops.reshape(len(ops), -1)
    return v.T @ v.conj() / ops.shape[2]


def choi_of(e: Channel) -> DensityOperator:
    """Choi operator of a channel, a density operator on dims (out, in)."""
    e = _channel(e)
    return DensityOperator(choi_from_kraus(e.kraus), (e.out_dim, e.in_dim))


def kraus_from_choi(omega: np.ndarray, in_dim: int, out_dim: int) -> np.ndarray:
    """Kraus stack ``(n, out_dim, in_dim)`` from the eigenvectors of a Choi matrix.

    One operator per eigenvalue above ``CHOI_RANK_TOL``, so the set is
    minimal: as many operators as the Choi rank, at most ``in_dim * out_dim``.
    Discarding the eigenvalues at or below it keeps Choi round-trips
    numerically stable.  ``omega`` itself is not checked, but the dimensions
    must be positive integers whose product is its dimension.
    """
    m = as_operator(omega)
    in_dim, out_dim = _whole(in_dim, "in_dim", 1), _whole(out_dim, "out_dim", 1)
    if in_dim * out_dim != m.shape[0]:
        raise ValueError(
            f"in_dim {in_dim} times out_dim {out_dim} does not match "
            f"a Choi matrix of dimension {m.shape[0]}"
        )
    evals, vecs = np.linalg.eigh((m + _adjoint(m)) / 2)
    keep = evals > CHOI_RANK_TOL
    ops = np.sqrt(in_dim * evals[keep]) * vecs[:, keep]
    return ops.T.reshape(-1, out_dim, in_dim)


def channel_from_choi(omega: DensityOperator) -> Channel:
    """Reconstruct the channel represented by a Choi operator from outside.

    ``omega`` must carry dims (out, in) and satisfy the channel invariants:
    positivity (guaranteed by ``DensityOperator``) and a maximally mixed
    partial trace over the output factor, within ``MATRIX_ATOL``.  The
    result has the minimal Kraus set of ``kraus_from_choi``, which library
    constructors with a valid-by-construction Choi matrix call directly.
    """
    if len(_instance(omega, DensityOperator).dims) != 2:
        raise ValueError(f"Choi operator needs dims (out, in), got {omega.dims}")
    out_dim, in_dim = omega.dims
    marginal = partial_trace(omega.matrix, omega.dims, keep=(1,))
    defect = np.max(np.abs(marginal - np.eye(in_dim) / in_dim))
    if not defect <= MATRIX_ATOL:
        raise ValueError(
            f"not a channel: partial trace over the output factor deviates "
            f"from I/{in_dim} by {defect:.3e}"
        )
    return Channel(kraus_from_choi(omega.matrix, in_dim, out_dim))


def measure_prepare_channel(mp: MeasurePrepare) -> Channel:
    """Channel ``X -> sum_j tr(X F_j) rho_j`` from measure-and-prepare data.

    Built by ``kraus_from_choi`` from its Choi operator
    ``sum_j rho_j ox F_j^T / d_in`` on dims (out, in), so the Kraus set is
    minimal.  The validated parts make that operator a separable Choi
    operator, so it is not checked again and the result is entanglement-breaking.
    """
    d_in = _instance(mp, MeasurePrepare).povm[0].shape[0]
    omega = sum(np.kron(prep.matrix, f.T) for f, prep in zip(mp.povm, mp.prepares))
    return Channel(kraus_from_choi(omega / d_in, d_in, mp.prepares[0].dim))


def constant_channel(omega: DensityOperator, in_dim: int | None = None) -> Channel:
    """Channel contracting every input state to the fixed state ``omega``.

    A Choi matrix past ``TENSOR_POWER_MAX_BYTES`` is rejected before any
    allocation."""
    omega = _instance(omega, DensityOperator)
    d = omega.dim if in_dim is None else _whole(in_dim, "in_dim", 1)
    n = omega.dim * d
    _bounded_bytes((n, n), TENSOR_POWER_MAX_BYTES, f"a constant channel with a {n}x{n} Choi matrix")
    return measure_prepare_channel(MeasurePrepare((np.eye(d, dtype=complex),), (omega,)))


def random_channel(
    d_in: int, d_out: int | None = None, kraus_rank: int | None = None, seed=0
) -> Channel:
    """Random channel from a Haar-random Stinespring isometry; seed-deterministic.

    An isometry past ``TENSOR_POWER_MAX_BYTES`` is rejected before any draw."""
    d_in = _whole(d_in, "d_in", 1)
    d_out = d_in if d_out is None else _whole(d_out, "d_out", 1)
    k = d_in * d_out if kraus_rank is None else _whole(kraus_rank, "kraus_rank")
    if k < 1 or d_out * k < d_in:
        raise ValueError(f"kraus rank {k} too small for a {d_in}->{d_out} isometry")
    what = f"a random {d_in}->{d_out} channel with {k} Kraus operators"
    _bounded_bytes((k, d_out, d_in), TENSOR_POWER_MAX_BYTES, what)
    rng = _seeded_rng(seed)
    g = rng.standard_normal((d_out * k, d_in)) + 1j * rng.standard_normal((d_out * k, d_in))
    q, _ = np.linalg.qr(g)
    # the k row blocks of the Stinespring isometry are the Kraus operators
    return Channel(q.reshape(k, d_out, d_in))


# ---------------------------------------------------------------------------
# JSON channel descriptions (the wire format consumed by the CLI)
# ---------------------------------------------------------------------------
#
# A channel description is an object with a "kind" field:
#   {"kind": "depolarizing", "lambda": 0.5, "d": 2}
#   {"kind": "kraus", "ops": [<matrix>, ...]}
#   {"kind": "choi", "out_dim": 2, "in_dim": 2, "matrix": <matrix>}
#   {"kind": "measure_prepare", "povm": [<matrix>, ...],
#    "prepares": [<matrix>, ...], "prepare_dims": [2, 2]}
# where <matrix> is a row-major nested array whose entries are [re, im] pairs.
# "lambda", re and im must be JSON numbers and every dimension a JSON integer:
# a bool, a string, or a float dimension such as 2.9 is refused, never
# coerced.  "ops", "povm" and "prepares" must be JSON arrays: a string or an
# object is refused, not read as its characters or keys.  Only a missing,
# null or empty "prepare_dims" means one factor per prepared state; false, 0,
# "" and {} are refused.  A field its kind does not list below, a misspelled
# one such as "D" for "d" too, is refused, never ignored.

_SPEC_FIELDS = {
    "depolarizing": {"kind", "lambda", "d"},
    "kraus": {"kind", "ops"},
    "choi": {"kind", "out_dim", "in_dim", "matrix"},
    "measure_prepare": {"kind", "povm", "prepares", "prepare_dims"},
}


def matrix_from_json(rows) -> np.ndarray:
    """Complex matrix from nested rows of [re, im] pairs of finite numbers.

    Each re and im must pass ``_json_real``: a string or a bool is refused.
    Python's ``json`` reads ``NaN`` and ``Infinity``; they are refused here,
    before any check could trip over them.
    """
    try:
        arr = np.asarray(rows, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed matrix entry: {exc}") from exc
    if arr.ndim != 3 or arr.shape[2] != 2:
        raise ValueError(
            "matrices must be nested row-major arrays of [re, im] pairs"
        )
    try:
        for row in rows:
            for pair in row:
                for x in pair:
                    _json_real(x)
    except TypeError as exc:
        raise ValueError(f"malformed matrix entry: {exc}") from exc
    if not np.isfinite(arr).all():
        raise ValueError("matrix entries must be finite numbers, got NaN or an infinity")
    return arr[:, :, 0] + 1j * arr[:, :, 1]


def matrix_to_json(m) -> list:
    a = _as_array(m, "a matrix")
    return [[[float(x.real), float(x.imag)] for x in row] for row in a]


def _spec_field(spec: dict, key: str, convert, default=None):
    """``convert(spec[key])``, or ``default`` when the key is absent.

    A value of the wrong JSON type (``null`` for a number, a number for a
    list) or out of a float's range raises ``ValueError`` naming the field.
    """
    if key not in spec:
        return default
    try:
        return convert(spec[key])
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"field {key!r} has the wrong type or value: {exc}") from exc


def _json_int(value) -> int:
    """A JSON integer; a bool, float or string raises ``TypeError``."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def _json_real(value) -> float:
    """A JSON number as a float; a bool or string raises ``TypeError``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def _json_list(value) -> list:
    """A JSON array; a string, object, number, bool or null raises ``TypeError``."""
    if not isinstance(value, list):
        raise TypeError(f"expected a list, got {value!r}")
    return value


def _json_dims(value) -> tuple[int, ...]:
    """A JSON list of integers, or null, as a tuple; else ``TypeError``."""
    if value is not None and not isinstance(value, list):
        raise TypeError(f"expected a list of integers, got {value!r}")
    return tuple(_json_int(x) for x in value or ())


def channel_from_spec(spec: dict) -> Channel:
    """Build a channel from its JSON description (see module comment)."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ValueError("channel description must be an object with a 'kind' field")
    kind = spec["kind"]
    if not isinstance(kind, str) or kind not in _SPEC_FIELDS:
        raise ValueError(f"unknown channel kind {kind!r}")
    unknown = sorted(spec.keys() - _SPEC_FIELDS[kind], key=str)
    if unknown:
        names = ", ".join(map(repr, unknown))
        raise ValueError(f"{kind} description has unknown field(s) {names}")
    if kind == "depolarizing":
        if "lambda" not in spec:
            raise ValueError("depolarizing description needs a 'lambda' field")
        lam = _spec_field(spec, "lambda", _json_real)
        return depolarizing(lam, _spec_field(spec, "d", _json_int, 2))
    if kind == "kraus":
        ops = _spec_field(spec, "ops", _json_list)
        if not ops:
            raise ValueError("kraus description needs a nonempty 'ops' list")
        return Channel(tuple(matrix_from_json(k) for k in ops))
    if kind == "choi":
        for key in ("out_dim", "in_dim", "matrix"):
            if key not in spec:
                raise ValueError(f"choi description needs a '{key}' field")
        dims = tuple(_spec_field(spec, key, _json_int) for key in ("out_dim", "in_dim"))
        return channel_from_choi(DensityOperator(matrix_from_json(spec["matrix"]), dims))
    povm = _spec_field(spec, "povm", _json_list)  # kind == "measure_prepare"
    preps = _spec_field(spec, "prepares", _json_list)
    if not povm or not preps:
        raise ValueError("measure_prepare description needs 'povm' and 'prepares' lists")
    prep_mats = [matrix_from_json(p) for p in preps]
    pdims = _spec_field(spec, "prepare_dims", _json_dims, ())
    prepares = tuple(DensityOperator(p, pdims or (p.shape[0],)) for p in prep_mats)
    mp = MeasurePrepare(tuple(matrix_from_json(f) for f in povm), prepares)
    return measure_prepare_channel(mp)


def load_channel_spec(path) -> Channel:
    """Read a channel description from a JSON file; one nested too deeply to
    parse raises ``ValueError``, like any other malformed description."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            spec = json.load(fh)
        except RecursionError as exc:
            raise ValueError("description is nested too deeply to parse") from exc
    return channel_from_spec(spec)
