"""Separability and entanglement verdicts.

Provides the Peres-Horodecki (PPT) test and negativity, entanglement-breaking
certification through Choi separability, the closed-form partial-transpose
spectra of locally depolarized two-qubit and GHZ states, randomized
falsification of the entanglement-annihilating property, and threshold
location by bisection.

Verdict semantics, one rule: a partial-transpose minimum below ``-tol``
proves entanglement for any dimensions.  Separability is certified only on
2x2 and 2x3 splits, where PPT is sufficient, and only where the exact minimum
is proven nonnegative: a numeric one above ``linalg.CHOLESKY_MARGIN``, a
closed form at or below its float edge.  ``tol`` never widens a certificate.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterator, Sequence

import numpy as np

from .channels import (
    Channel,
    MeasurePrepare,
    _apply_sites,
    _channel,
    apply,  # unused here; bench/tracing.py wraps criteria.apply
    apply_local,
    choi_of,
    measure_prepare_channel,
    tensor_power,  # unused here; bench/tracing.py wraps criteria.tensor_power
)
from .linalg import (
    _BLOCK_BYTES,
    _STACK_BYTES,
    CHOLESKY_MARGIN,
    _bounded_bytes,
    _composite_dim,
    _eigh,
    _factor_dims,
    _factor_subset,
    _items,
    _lowest_eigenvalues,
    _partial_transposes,
    _party_count,
    _projectors,
    _real,
    _symmetrized_eigenvalues,
    _whole,
    as_operator,
    hermitian_eigenvalues,
    partial_transpose,
)
from .states import (
    DensityOperator,
    PureState,
    _bell_row,
    _first_invalid_density,
    _ghz_row,
    _haar_rows,
    _instance,
    _w_row,
    haar_pure,  # unused here; bench/tracing.py wraps criteria.haar_pure
)

# Verdicts tolerate this much numerical negativity before declaring
# entanglement; looser than linalg.MATRIX_ATOL = 1e-10 on purpose, so
# modeling noise at a boundary does not masquerade as genuine negativity.
VERDICT_TOL = 1e-9

# The largest floats lambda at which the exact closed forms are nonnegative:
# 1 - 3 lambda^2 (pair) and 1 - 3 lambda (Werner); a test proves each in integers.
TWO_LEA_EDGE = 0.5773502691896257  # 1/sqrt(3) rounded; 1 / math.sqrt(3) is one float up
EB_EDGE = 0.3333333333333333  # 1/3 as a float

BISECTION_TOL = 1e-9

# Rounds of the two-qubit see-saw per start in two_lea_verdict_heuristic.
SEESAW_MAX_ITER = 200

# Cuts whose partial-transpose minima lie within this distance count as tied:
# a counterexample names the first of them in bipartitions order, so that
# rounding in the last digits cannot change the reported partition.
CUT_TIE_ATOL = 1e-12
# Trials in the falsifier's first screen batch; ``_falsify`` describes its
# schedule.
_FIRST_BATCH = 4

# Block-dimension pairs where a positive partial transpose certifies
# separability (Peres-Horodecki is exact there and nowhere else).
_PPT_EXACT_BLOCKS = {(2, 2), (2, 3)}


class Verdict(Enum):
    ENTANGLED = "Entangled"
    SEPARABLE_CERTIFIED = "SeparableCertified"
    INCONCLUSIVE = "Inconclusive"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class Partition:
    """A 2-block partition of the factor indices of a composite system."""

    first: tuple[int, ...]
    second: tuple[int, ...]

    def __post_init__(self):
        a, b = _factor_subset(self.first, "partition"), _factor_subset(self.second, "partition")
        if not a or not b:
            raise ValueError("both partition blocks must be nonempty")
        if set(a) & set(b):
            raise ValueError(f"partition blocks overlap: {a} vs {b}")
        object.__setattr__(self, "first", a)
        object.__setattr__(self, "second", b)

    def validate_for(self, n: int) -> None:
        covered = set(self.first) | set(self.second)
        if covered != set(range(n)):
            raise ValueError(
                f"partition {self.label()} does not cover all {n} factors"
            )

    def label(self) -> str:
        return "|".join(
            "".join(str(i) for i in block) for block in (self.first, self.second)
        )

    def block_dims(self, dims: Sequence[int]) -> tuple[int, int]:
        ds = _factor_dims(dims)
        if max(self.first + self.second) >= len(ds):
            raise ValueError(f"partition {self.label()} names a factor outside dims {ds}")
        return math.prod(ds[i] for i in self.first), math.prod(ds[i] for i in self.second)


def bipartitions(n: int) -> tuple[Partition, ...]:
    """All unordered 2-block partitions of ``n`` factors (factor 0 first).

    The same tuple on every call with the same ``n``."""
    return _bipartitions(_party_count(n, "factor"))


@functools.cache
def _bipartitions(n: int) -> tuple[Partition, ...]:
    """``bipartitions(n)`` for an ``n`` it has checked: only ints in [2, 10]
    reach this cache."""
    parts = []
    for mask in range(1, 2 ** (n - 1)):
        second = tuple(i for i in range(1, n) if (mask >> (i - 1)) & 1)
        first = tuple(i for i in range(n) if i not in second)
        parts.append(Partition(first, second))
    return tuple(parts)


# The one cut of a two-factor system, first factor | second.
_PAIR_CUT = Partition((0,), (1,))


@dataclass(frozen=True)
class SeparabilityVerdict:
    """Outcome of a PPT test across one partition.

    ``heuristic`` marks verdicts obtained from a heuristic search over
    inputs, which can prove entanglement but never certify its absence.
    """

    status: Verdict
    witness_min_eig: float
    partition: Partition
    heuristic: bool = False


@dataclass(frozen=True, eq=False)
class FalsifierReport:
    """Result of a randomized search for entanglement-surviving inputs."""

    counterexample: PureState | None
    counterexample_label: str | None
    counterexample_partition: Partition | None
    trials_used: int
    min_eig_seen: float
    seed: int
    partitions_checked: tuple[Partition, ...]

    @property
    def found(self) -> bool:
        return self.counterexample is not None


@dataclass(frozen=True)
class ThresholdResult:
    """A critical parameter value located by bisection."""

    critical_value: float
    bracket: tuple[float, float]
    tol: float
    criterion_id: str
    degenerate_bracket: bool = False


def _pt(rho: DensityOperator, part: Partition) -> np.ndarray:
    """Partial transpose of ``rho`` over the second block of ``part``."""
    rho, part = _instance(rho, DensityOperator), _instance(part, Partition)
    part.validate_for(len(rho.dims))
    return partial_transpose(rho.matrix, rho.dims, part.second)


def ppt_min_eigenvalue(rho: DensityOperator, part: Partition) -> float:
    """Smallest eigenvalue of the partial transpose over the second block."""
    return float(_lowest_eigenvalues(_pt(rho, part)))


def _entangled(low, tol: float):
    """``ppt_status``'s test for Entangled, ``low < -tol``, elementwise on an
    array of minima."""
    return low < -tol


# Indexed 0, 1, 2 by _verdicts: the values in Verdict order.
_VERDICT_VALUES = np.array([verdict.value for verdict in Verdict], dtype=object)


def _verdicts(low, proven, tol: float) -> np.ndarray:
    """The one verdict rule, elementwise on minima ``low``: Entangled where
    ``_entangled(low, tol)``, else SeparableCertified where the caller has
    ``proven`` the exact minimum nonnegative, else Inconclusive."""
    return _VERDICT_VALUES[np.where(_entangled(low, tol), 0, np.where(proven, 1, 2))]


def ppt_status(low: float, blocks: tuple[int, int], tol: float) -> Verdict:
    """Peres-Horodecki status of a partial-transpose minimum ``low`` across a
    cut whose two blocks have dimensions ``blocks``: Entangled below ``-tol``,
    else SeparableCertified where PPT is exact for those dimensions and
    ``low`` lies above ``CHOLESKY_MARGIN``, else Inconclusive.  A bad ``tol`` or
    a NaN ``low`` raises ``ValueError``."""
    tol = _real(tol, "tolerance", 0.0, sys.float_info.max)
    if math.isnan(low):
        raise ValueError("partial-transpose minimum is NaN")
    proven = low > CHOLESKY_MARGIN and tuple(sorted(blocks)) in _PPT_EXACT_BLOCKS
    return Verdict(_verdicts(low, proven, tol))


def negativity(rho: DensityOperator, part: Partition) -> float:
    """Sum of absolute values of negative partial-transpose eigenvalues."""
    evals = hermitian_eigenvalues(_pt(rho, part))
    return float(-np.sum(evals[evals < 0.0]))


def ppt_verdict(
    rho: DensityOperator, part: Partition, tol: float = VERDICT_TOL
) -> SeparabilityVerdict:
    """Three-valued Peres-Horodecki verdict across one partition, by
    ``ppt_status``; a bad ``tol`` is rejected before the eigensolve."""
    tol = _real(tol, "tolerance", 0.0, sys.float_info.max)
    low = ppt_min_eigenvalue(rho, part)
    return SeparabilityVerdict(ppt_status(low, part.block_dims(rho.dims), tol), low, part)


def is_eb(e: Channel, tol: float = VERDICT_TOL) -> SeparabilityVerdict:
    """Entanglement-breaking test: PPT verdict on the Choi operator.

    Exact for qubit-to-qubit and qubit/qutrit channels; larger channels can
    only be refuted (Entangled) or left Inconclusive.  A certificate needs a
    Choi minimum above ``linalg.CHOLESKY_MARGIN``.  A bad ``tol`` is
    rejected before the Choi operator is built.
    """
    tol = _real(tol, "tolerance", 0.0, sys.float_info.max)
    return ppt_verdict(choi_of(_channel(e)), _PAIR_CUT, tol=tol)


# ---------------------------------------------------------------------------
# Closed-form spectra for the locally depolarized states
# ---------------------------------------------------------------------------


def two_lea_pt_eigenvalues(lam: float, q0: float) -> tuple[float, float, float, float]:
    """Partial-transpose spectrum of a locally depolarized two-qubit pair.

    Both qubits of the Schmidt state ``sqrt(q0)|00> + sqrt(q1)|11>`` pass
    through the depolarizing channel with parameter ``lam``.  Returns the
    four eigenvalues of the partially transposed output; only the last can
    be negative.
    """
    lam = _real(lam, "lambda", 0.0, 1.0)
    q0 = _real(q0, "q0", 0.0, 1.0)
    q1 = 1.0 - q0
    base = 0.25 * (1.0 - lam) ** 2
    root = math.sqrt(q0 * q1)
    return (
        base + lam * q0,
        base + lam * q1,
        0.25 * (1.0 - lam * lam) + lam * lam * root,
        _pair_pt_low(lam, root),
    )


# The closed forms below are written once each, unchecked, for a float or
# elementwise for a float64 array: numpy's +, -, * and / round each element
# as Python's float operators do, so the checked scalar functions and the
# sweep's columns share every bit.


def _pair_pt_low(lam, root):
    """The last eigenvalue of ``two_lea_pt_eigenvalues`` for ``root`` =
    sqrt(q0 q1): (1 - lambda^2)/4 - lambda^2 sqrt(q0 q1)."""
    return 0.25 * (1.0 - lam * lam) - lam * lam * root


def _two_lea_min(lam):
    """Unchecked ``two_lea_min_eig_depolarizing``: sqrt(q0 q1) = 1/2 at q0 = 1/2."""
    return _pair_pt_low(lam, 0.5)


def _eb_min(lam):
    """Unchecked ``eb_min_eig_depolarizing``."""
    return ((1.0 - 2.0 * lam) - lam) / 4.0


def _ghz_min(lam, cube):
    """Unchecked ``ghz_three_lea_min_eig`` for ``cube`` = ``lam**3``, which
    ``ghz_three_lea_min_eig`` and ``_sweep_columns`` compute with Python's
    ``**`` (libm ``pow``) per element: numpy's array power differs from it in
    the last bit at some lambdas."""
    return 0.5 * (0.25 * (1.0 - lam * lam) - cube)


def two_lea_min_eig_depolarizing(lam: float) -> float:
    """Lowest PT eigenvalue for the maximally entangled pair input.

    This is (1 - 3 lambda^2)/4, the Schmidt weight q0 = 1/2 of
    ``two_lea_pt_eigenvalues``.  It is the minimum over all two-qubit pure
    inputs only for lambda >= 1/2: below that a product input reaches the
    lower (1 - lambda)^2/4.  Both values are positive there, so the sign of
    this one still decides 2-local annihilation: it is nonnegative exactly
    for lambda <= 1/sqrt(3).
    """
    return _two_lea_min(_real(lam, "lambda", 0.0, 1.0))


def eb_min_eig_depolarizing(lam: float) -> float:
    """Lowest PT eigenvalue of the Werner state, the Choi operator of
    ``depolarizing(lam, 2)``: (1 - 3 lambda)/4, negative exactly past 1/3.

    On [1/4, 1] the difference ``1 - 2 lambda`` is exact, so the computed
    sign is exact near 1/3, where ``1 - 3 lambda`` can round to the wrong one.
    """
    return _eb_min(_real(lam, "lambda", 0.0, 1.0))


def ghz_three_lea_min_eig(lam: float) -> float:
    """Minimum PT eigenvalue of the locally depolarized GHZ state.

    Three qubits of a GHZ state each pass through the depolarizing channel;
    the partial transpose is taken across the one-vs-two split.  The value
    ``((1 - lambda^2)/4 - lambda^3)/2`` is the smallest eigenvalue for every
    lambda in [0, 1] and turns negative past the real root of
    ``4 x^3 + x^2 - 1 = 0`` (about 0.5567).
    """
    lam = _real(lam, "lambda", 0.0, 1.0)
    return _ghz_min(lam, lam**3)


def _sweep_columns(lams, tol: float) -> tuple[list, ...]:
    """The seven columns of ``ealab sweep`` at each lambda of ``lams``, in
    CSV order, as lists of Python floats and verdict strings.

    Every lambda is checked before any column is computed.  Each real
    column is one closed form above evaluated over the whole grid at once:
    ``min_mu_2lea``, ``ghz_mu_3lea``, and ``werner_min_eig``, the Werner
    minimum of ``eb_min_eig_depolarizing``, each bit for bit the value of
    its scalar function.  Each verdict is ``_verdicts`` of the value its row
    prints, certified at or below its edge, so the two agree against ``-tol``.
    """
    lams = [_real(lam, "depolarizing parameter", 0.0, 1.0) for lam in lams]
    tol = _real(tol, "tolerance", 0.0, sys.float_info.max)
    x = np.array(lams, dtype=float)
    mu2, eb = _two_lea_min(x), _eb_min(x)
    # each cube by Python's ** (libm pow), as ghz_three_lea_min_eig takes it
    mu3 = _ghz_min(x, np.array([lam**3 for lam in lams], dtype=float))
    # the GHZ cut, first qubit | other two, has 2x4 blocks: PPT certifies nothing
    verdicts = [
        _verdicts(lows, x <= edge, tol).tolist()
        for lows, edge in ((mu2, TWO_LEA_EDGE), (eb, EB_EDGE), (mu3, -math.inf))
    ]
    return (lams, mu2.tolist(), mu3.tolist(), eb.tolist(), *verdicts)


def two_lea_verdict_depolarizing(
    lam: float, tol: float = VERDICT_TOL
) -> SeparabilityVerdict:
    """Certified 2-local entanglement-annihilation verdict for depolarizing.

    Covariance under local unitaries reduces the input search to Schmidt
    states, so the closed-form worst case decides the property outright:
    outputs are two-qubit states, where PPT is exact: it certifies at lambda
    <= ``TWO_LEA_EDGE``, where the exact worst case is nonnegative.
    """
    lam = _real(lam, "lambda", 0.0, 1.0)
    low, tol = _two_lea_min(lam), _real(tol, "tolerance", 0.0, sys.float_info.max)
    status = Verdict(_verdicts(low, lam <= TWO_LEA_EDGE, tol))
    return SeparabilityVerdict(status, low, _PAIR_CUT)


def _pair_pt_map(single: Channel) -> tuple[np.ndarray, np.ndarray]:
    """The see-saw's linear map L(X) = [(E ox E)(X)]^Gamma on two-qubit
    operators as a 16x16 matrix ``m``, and its adjoint ``m.conj().T``.

    Row i of ``m`` is L of the i-th matrix unit, flattened row-major, so a
    row-major flattened X times ``m`` is L(X) flattened; times the adjoint it
    is L^dag(X) = (E ox E)^dag(X^Gamma), since the partial transpose is its
    own adjoint.
    """
    units = np.eye(16, dtype=complex).reshape(16, 4, 4)
    m = partial_transpose(_apply_sites(single.kraus, units, 2), (2, 2), (1,)).reshape(16, 16)
    return m, m.conj().T


def _pair_map_rows(stack: np.ndarray, m: np.ndarray) -> np.ndarray:
    """A ``_pair_pt_map`` matrix applied to each operator of a stack
    ``(B, 4, 4)``, as one product of B one-row matrices: unlike ``(B, 16) @
    m``, each result's bits do not depend on B."""
    return (stack.reshape(-1, 1, 16) @ m).reshape(-1, 4, 4)


def two_lea_verdict_heuristic(
    single: Channel,
    restarts: int = 32,
    seed: int = 0,
    tol: float = VERDICT_TOL,
) -> SeparabilityVerdict:
    """Heuristic 2-local verdict for an arbitrary qubit channel.

    Minimizes the output PT eigenvalue of ``single ox single`` over pure
    two-qubit inputs by a see-saw: given the input psi, phi is the lowest
    eigenvector of [(E ox E)(psi psi^dag)]^Gamma; given phi, psi is the
    lowest eigenvector of (E ox E)^dag(|phi><phi|^Gamma).  Neither step can
    raise the objective <phi|[(E ox E)(psi psi^dag)]^Gamma|phi>, and a start
    stops once it no longer falls, or after ``SEESAW_MAX_ITER`` rounds.  Both
    half steps are one linear map, L(X) = [(E ox E)(X)]^Gamma, and its
    adjoint, built once per call as the 16x16 matrix of ``_pair_pt_map``, so
    a half step is one vector-matrix product per live start and one batched
    ``linalg._eigh``.  Rounds run on the live starts only: a start leaves the
    stack in the round its value stops falling, and a call of R rounds makes
    2R - 1 eigensolves below the cap.  The starts, run as one stack, are the
    falsifier's GHZ and W probe rows and ``restarts`` Haar states, rows 0 to
    ``restarts - 1`` of one ``default_rng(seed)`` stream drawn as one stack
    (start r is the falsifier's ``haar:r`` at that seed), so ``seed`` must be
    nonnegative; Haar starts alone can stall at the product-state fixed point
    near the threshold.
    ``restarts`` is rejected, before any start is drawn, when the stack of
    the starts' density matrices would pass ``_STACK_BYTES``.

    The witness is the PT eigenvalue of the best input, recomputed through
    ``apply_local`` and ``ppt_min_eigenvalue``.  A negative witness proves
    the channel is not 2-locally entanglement-annihilating; a nonnegative
    one is only Inconclusive, since the search carries no global optimality
    certificate.
    """
    tol = _real(tol, "tolerance", 0.0, sys.float_info.max)
    if _channel(single).in_dim != 2 or single.out_dim != 2:
        raise ValueError("heuristic search expects a qubit-to-qubit channel")
    restarts, seed = _whole(restarts, "restarts", 0), _whole(seed, "seed", 0)
    what = f"restarts={restarts}, a stack of {restarts + 2} two-qubit density matrices,"
    _bounded_bytes((16 * (restarts + 2),), _STACK_BYTES, what)  # 4x4 entries per start
    haar = _haar_rows(np.random.default_rng(seed), restarts, 4)
    m, m_adjoint = _pair_pt_map(single)
    # Per start: input at its lowest value, and that value.  ``psi`` holds the
    # current inputs of the live starts only, ``rows`` their rows of both.
    psi = np.vstack([_ghz_row(2), _w_row(2), haar])
    best, value, rows = psi.copy(), np.full(len(psi), math.inf), np.arange(len(psi))
    for _ in range(SEESAW_MAX_ITER):
        evals, vecs = _eigh(_pair_map_rows(_projectors(psi), m))
        low = evals[:, 0]
        falls = low < value[rows]
        if not falls.any():
            break
        rows, psi, phi = rows[falls], psi[falls], vecs[falls, :, 0]
        value[rows], best[rows] = low[falls], psi
        psi = _eigh(_pair_map_rows(_projectors(phi), m_adjoint))[1][:, :, 0]
    best_psi = best[np.argmin(value)]
    witness = ppt_min_eigenvalue(apply_local(single, PureState(best_psi, (2, 2))), _PAIR_CUT)
    status = Verdict.ENTANGLED if _entangled(witness, tol) else Verdict.INCONCLUSIVE
    return SeparabilityVerdict(status, witness, _PAIR_CUT, heuristic=True)


# ---------------------------------------------------------------------------
# Randomized falsification of the entanglement-annihilating property
# ---------------------------------------------------------------------------


def embedded_max_entangled(dims: Sequence[int], part: Partition) -> PureState:
    """Maximally entangled state across one bipartition of a composite.

    Pairs the computational bases of the two blocks up to the smaller block
    dimension, then restores the original factor order.  A state whose
    amplitudes would pass ``_STACK_BYTES`` is rejected before any allocation.
    """
    ds = _factor_dims(dims)
    _instance(part, Partition).validate_for(len(ds))
    dim = math.prod(ds)
    _bounded_bytes((dim,), _STACK_BYTES, f"a maximally entangled state of dimension {dim}")
    return PureState(_bell_row(ds, part.first, part.second), ds)


def _batches(n_trials: int, cap: int) -> Iterator[range]:
    start, size = 0, min(_FIRST_BATCH, cap)
    while start < n_trials:
        yield range(start, min(start + size, n_trials))
        start += size
        size = min(2 * size, cap)


def _runs(n_trials: int, cap: int, least: int) -> Iterator[list[range]]:
    """The ``_batches`` ranges, grouped into runs of consecutive ranges whose
    outputs are made together: the first range alone, then whole ranges
    until a run holds at least ``least`` trials, never more than ``cap``.
    ``n_trials`` must be positive."""
    batches = _batches(n_trials, cap)
    yield [next(batches)]
    run, size = [], 0
    for trials in batches:
        if run and (size >= least or size + len(trials) > cap):
            yield run
            run, size = [], 0
        run.append(trials)
        size += len(trials)
    if run:
        yield run


def _falsify(
    channel: Channel,
    sites: int,
    dims: tuple[int, ...],
    budget: int,
    seed: int,
    tol: float,
    include_probes: bool,
) -> FalsifierReport:
    """Batched serial search shared by ``ea_falsify`` and ``k_lea_falsify``.

    ``channel`` acts on each of ``sites`` equal tensor factors of the
    composite with factor dimensions ``dims`` (one site: the whole system).
    The probes are one ``(P, D)`` array whose rows come from the helpers
    of ``ghz``, ``w_state`` and ``embedded_max_entangled``; only a probe a
    report names becomes a ``PureState``.  Trials run in index order and
    are screened batch by batch, over ``_batches``: ``_FIRST_BATCH``
    trials, then twice as many each time while a stack of their density
    matrices fits ``linalg._STACK_BYTES``.  Their outputs are made for runs
    of consecutive batches, over ``_runs``.  A run is a few stacked calls:
    one ``states._haar_rows`` draw for its Haar trials (none for a run of
    probes alone), one ``_apply_sites`` for the channel and one density
    check.  The first batch is a run of its own, so that a probe hit costs
    only its trials; after it, a run takes whole batches until it holds as
    many trials as fit in ``linalg._BLOCK_BYTES`` over every cut: at budget
    40 that makes two runs at k = 2 and 3, and from k = 4 up every run is
    one batch.  A batch is one ``linalg._lowest_eigenvalues``
    above the running minimum over the stacked partial transposes of every
    cut, or of as many cuts at a time as fit in ``linalg._BLOCK_BYTES``; it
    eigensolves only what a Cholesky cannot prove unable to change the
    minimum, and ``_entangled``, the rule of ``ppt_status``, decides which
    minima are Entangled.  The search has one random stream,
    ``default_rng(seed)``, built at its first Haar row: Haar trial j,
    labelled ``haar:j``, is row j of that stream, and a counterexample is
    reported from its row of the run's amplitudes.  Inputs are unit vectors
    (the probe rows by construction, Haar rows normalized), so their
    projectors go unchecked; each run of outputs passes the density check
    of ``DensityOperator``, and a failure raises only when no earlier trial
    is a counterexample, as in a trial-by-trial loop: the batches of a run
    before the failed output are screened first.
    """
    tol = _real(tol, "tolerance", 0.0, sys.float_info.max)
    budget, seed = _whole(budget, "budget", 0), _whole(seed, "seed", 0)
    dim = _composite_dim(dims)
    cap = _STACK_BYTES // (16 * dim * dim)
    parts = _bipartitions(len(dims))
    labels, rows = [], []
    if include_probes:
        if all(d == 2 for d in dims):
            labels += ["probe:GHZ", "probe:W"]
            rows += [_ghz_row(len(dims)), _w_row(len(dims))]
        labels += [f"probe:psi+:{part.label()}" for part in parts]
        rows += [_bell_row(dims, part.first, part.second) for part in parts]
    n_trials = len(rows) + budget
    if n_trials == 0:
        raise ValueError("the search has no trials: no probes and a zero budget")
    probes = np.array(rows, dtype=complex).reshape(-1, dim)
    flips = [p.second for p in parts]

    seen, rng = math.inf, None
    least = _BLOCK_BYTES // (16 * dim * dim * len(flips))
    for run in _runs(n_trials, cap, least):
        start, stop = run[0].start, run[-1].stop
        amps = probes[start:stop]
        if stop > len(probes):
            if rng is None:  # at the first Haar row: a run of probes draws nothing
                rng = np.random.default_rng(seed)
            haar = _haar_rows(rng, stop - max(start, len(probes)), dim)
            amps = np.concatenate([amps, haar])
        out = _apply_sites(channel.kraus, _projectors(amps), sites)
        failure = _first_invalid_density(out)
        valid = stop if failure is None else start + failure[0]  # trials before it pass the check
        for trials in run:
            n = min(trials.stop, valid) - trials.start
            # PT minima per trial and cut of this batch.  No earlier batch
            # hit, so seen >= -tol, and a cut left at +inf cannot change the
            # report.
            first = trials.start - start
            batch = out[first : first + n]
            group = max(1, _BLOCK_BYTES // (16 * dim * dim * max(n, 1)))
            lows = np.concatenate([
                _lowest_eigenvalues(_partial_transposes(batch, dims, flips[i : i + group]), seen)
                for i in range(0, len(flips), group)
            ], axis=1)
            worst = lows.min(axis=1)
            hits = np.flatnonzero(_entangled(worst, tol))
            if hits.size:
                h = int(hits[0])
                seen = min(seen, float(worst[: h + 1].min()))
                cut = next(
                    i for i, low in enumerate(lows[h])
                    if _entangled(low, tol) and low <= worst[h] + CUT_TIE_ATOL
                )
                t = trials.start + h
                label = labels[t] if t < len(probes) else f"haar:{t - len(probes)}"
                state = PureState(amps[t - start], dims)
                return FalsifierReport(state, label, parts[cut], t + 1, seen, seed, parts)
            if n < len(trials):
                raise ValueError(f"trial {valid}: {failure[1]}")
            seen = min(seen, float(worst.min()))
    return FalsifierReport(None, None, None, n_trials, seen, seed, parts)


def ea_falsify(
    e: Channel,
    dims: Sequence[int],
    budget: int = 1000,
    seed: int = 0,
    tol: float = VERDICT_TOL,
    include_probes: bool = True,
) -> FalsifierReport:
    """Search for an input whose output stays entangled across some split.

    Convexity reduces the entanglement-annihilating property to pure inputs,
    so the search draws Haar-random pure states and checks the PPT spectrum
    of every 2-block partition of the output.  Unless ``include_probes`` is
    off, probes come first: GHZ and W when every factor is a qubit, then
    the embedded maximally entangled state of each partition.

    ``budget`` counts the Haar trials; a negative budget or seed, or a
    search with no trials at all, is rejected before any trial.  The Haar
    trials are the successive rows of one stream,
    ``numpy.random.default_rng(seed)``, each drawn as ``haar_pure`` draws
    its state: ``haar:0`` is ``haar_pure(dims, seed)``, and reproducing
    ``haar:j`` alone means drawing the j rows before it.  The reported
    counterexample is the one with the smallest trial index, so the report
    depends only on the arguments.  Of the partitions across which the
    counterexample is entangled, the report names the first in
    ``bipartitions`` order whose minimum lies within ``CUT_TIE_ATOL`` of the
    lowest; ``min_eig_seen`` is the lowest partial-transpose eigenvalue over
    all trials used.
    """
    ds = _factor_dims(dims)
    total = math.prod(ds)
    if _channel(e).in_dim != total:
        raise ValueError(
            f"channel expects input dimension {e.in_dim}, dims {ds} give {total}"
        )
    if e.out_dim != e.in_dim:
        raise ValueError(
            "entanglement annihilation concerns channels from a composite "
            "system to itself; got a dimension-changing channel"
        )
    if len(ds) < 2:
        raise ValueError("falsification needs a composite system (>= 2 factors)")
    return _falsify(e, 1, ds, budget, seed, tol, include_probes)


def k_lea_falsify(
    single: Channel,
    k: int,
    budget: int = 1000,
    seed: int = 0,
    tol: float = VERDICT_TOL,
    include_probes: bool = True,
) -> FalsifierReport:
    """Falsify the k-local entanglement-annihilating property.

    Runs the ``ea_falsify`` search on k identical subsystems, each passing
    through ``single``.  The k-fold channel is applied site by site and
    never materialized; ``_falsify`` describes the batch schedule, and
    README the time per trial (for qubits, k up to 7 is practical).
    Composites whose density matrix would exceed the falsifier's memory
    bound (qubits past k = 10), and 1-dimensional sites, are rejected after
    a few factors whatever k is, before any state is built.
    """
    k = _whole(k, "k", 2)
    if _channel(single).in_dim != single.out_dim:
        raise ValueError("k-local analysis expects an endomorphic channel")
    _composite_dim(single.in_dim for _ in range(k))
    return _falsify(single, k, (single.in_dim,) * k, budget, seed, tol, include_probes)


# ---------------------------------------------------------------------------
# Threshold location
# ---------------------------------------------------------------------------


def bisect_threshold(
    criterion: Callable[[float], float],
    bracket: tuple[float, float],
    tol: float = BISECTION_TOL,
    criterion_id: str = "",
) -> ThresholdResult:
    """Locate a sign change of ``criterion`` by bisection.

    ``criterion`` must be callable.  The bracket is two finite endpoints
    ``lo < hi``, which must evaluate to opposite signs; continuity and a
    single crossing inside the bracket are the caller's responsibility.  A value that is not finite, at an endpoint
    or a midpoint, raises ``ValueError``.  Halving stops once the bracket is
    no wider than ``tol`` or its endpoints are adjacent floats.
    """
    tol = _real(tol, "tolerance", 0.0, sys.float_info.max)
    if not callable(criterion):
        raise ValueError(f"criterion must be callable, got {type(criterion).__name__}")
    bracket = _items(bracket, "bracket")
    if len(bracket) != 2:
        raise ValueError(f"bracket must be two endpoints (lo, hi), got {bracket}")
    lo, hi = _real(bracket[0], "bracket endpoint"), _real(bracket[1], "bracket endpoint")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"bracket endpoints must be finite, got ({lo}, {hi})")
    if not lo < hi:
        raise ValueError(f"bracket must satisfy lo < hi, got ({lo}, {hi})")

    def value(x: float) -> float:
        f = float(criterion(x))
        if not math.isfinite(f):
            raise ValueError(f"criterion is not finite at {x!r} (value {f!r})")
        return f

    f_lo = value(lo)
    f_hi = value(hi)
    if f_lo == 0.0:
        return ThresholdResult(lo, (lo, lo), tol, criterion_id, degenerate_bracket=True)
    if f_hi == 0.0:
        return ThresholdResult(hi, (hi, hi), tol, criterion_id, degenerate_bracket=True)
    if math.copysign(1.0, f_lo) == math.copysign(1.0, f_hi):
        raise ValueError(
            f"criterion has the same sign at both endpoints "
            f"({f_lo:.3e} and {f_hi:.3e})"
        )
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:  # adjacent floats: the bracket cannot shrink
            break
        f_mid = value(mid)
        if f_mid == 0.0:
            lo = hi = mid
            break
        if math.copysign(1.0, f_mid) == math.copysign(1.0, f_lo):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return ThresholdResult(0.5 * (lo + hi), (lo, hi), tol, criterion_id)


def separable_mixing_threshold(omega: DensityOperator) -> ThresholdResult:
    """Largest weight x for which ``x*omega + (1-x)*I/4`` stays separable.

    Defined for two-qubit states, where PPT decides separability exactly.
    Partial transposition fixes the identity, so the lowest PT eigenvalue of
    the mixture is ``x*mu + (1-x)/4`` (``mu``: that of ``omega``), zero at
    the exact threshold ``x = 1/(1 - 4*mu)``.  The computed mu less
    ``linalg.CHOLESKY_MARGIN``, a proven lower bound on the exact mu, takes
    its place; an input whose bound is positive is proven separable and
    reported as the degenerate full-bracket result x = 1, not an error.
    """
    if _instance(omega, DensityOperator).dims != (2, 2):
        raise ValueError(
            f"mixing threshold is only supported for two-qubit states, "
            f"got dims {omega.dims}"
        )
    bound = ppt_min_eigenvalue(omega, _PAIR_CUT) - CHOLESKY_MARGIN
    if bound > 0:
        return ThresholdResult(
            1.0, (0.0, 1.0), 0.0, "separable-mixing", degenerate_bracket=True
        )
    x = 1.0 / (1.0 - 4.0 * bound)
    return ThresholdResult(x, (x, x), 0.0, "separable-mixing")


def ea_mixing_channel(effect: np.ndarray, omega: DensityOperator) -> Channel:
    """Measure-and-prepare channel that annihilates two-qubit entanglement.

    Measures ``{effect, I - effect}`` and prepares ``omega`` or the complete
    mixture, so every output is ``x*omega + (1-x)*I/4`` with
    ``x = tr(rho effect)`` bounded by the largest effect eigenvalue.  When
    that bound stays below the separable mixing threshold of ``omega``, all
    outputs are separable even though ``omega`` itself may be entangled.
    ``MeasurePrepare`` first rejects an effect that is not positive semidefinite.
    """
    f = as_operator(effect)
    if _instance(omega, DensityOperator).dims != (2, 2):
        raise ValueError("the prepared state must be a two-qubit state")
    kappa = separable_mixing_threshold(omega).critical_value
    mixture = DensityOperator(np.eye(4) / 4.0, (2, 2))
    mp = MeasurePrepare((f, np.eye(4) - f), (omega, mixture))
    top = float(_symmetrized_eigenvalues(mp.povm[0])[-1])
    if top >= kappa:
        raise ValueError(
            f"largest effect eigenvalue {top:.12g} must stay below the "
            f"separable mixing threshold {kappa:.12g}"
        )
    return measure_prepare_channel(mp)
