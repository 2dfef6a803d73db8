"""Shared random generators for the test suite."""

from fractions import Fraction

import numpy as np

from ealab import DensityOperator, MeasurePrepare, random_density

# Lambdas within rounding of the EB boundary (1 + 4 tol)/3, keyed by tol: a
# verdict taken from a numerical Choi stack had the wrong sign at each.
EB_EDGES = {
    1e-12: [0.33333333333466664],
    1e-9: [0.33333333466666665],
    1e-3: [0.33466666666666667, 0.3346666666666667],
}


def random_hermitian(dim, rng):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (g + g.conj().T) / 2


def random_state_matrix(dim, rng):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = g @ g.conj().T
    return m / np.trace(m)


def haar_amplitudes_two_draws(rng, dim):
    """Haar amplitudes drawn as two calls, real parts then imaginary parts,
    normalized by ``np.linalg.norm``: the reference for each row of
    ``states._haar_rows``.
    """
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def haar_stream_rows(seed, n, dim):
    """Rows 0 to n - 1 of the Haar stream of ``default_rng(seed)``, drawn one
    after another by ``haar_amplitudes_two_draws``: the reference for the
    falsifier's trial ``haar:j`` (row j) and the see-saw's Haar start j.
    """
    rng = np.random.default_rng(seed)
    return np.array([haar_amplitudes_two_draws(rng, dim) for _ in range(n)]).reshape(n, dim)


def random_density_two_draws(dim, rank, seed):
    """Matrix of ``random_density((dim,), rank, seed)`` built on
    ``haar_amplitudes_two_draws``.
    """
    rng = np.random.default_rng(seed)
    weights = rng.dirichlet(np.ones(rank))
    m = np.zeros((dim, dim), dtype=complex)
    for w in weights:
        v = haar_amplitudes_two_draws(rng, dim)
        m += w * np.outer(v, v.conj())
    return m


def random_unitary(dim, rng):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_povm(dim, n_effects, rng):
    """POVM from normalized random positive operators."""
    raw = []
    for _ in range(n_effects):
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        raw.append(g @ g.conj().T)
    total = sum(raw)
    evals, vecs = np.linalg.eigh(total)
    inv_root = (vecs / np.sqrt(evals)) @ vecs.conj().T
    return [inv_root @ a @ inv_root for a in raw]


def random_measure_prepare(in_dim, out_dims, n_effects, seed):
    """Random measure-and-prepare data with mixed random prepares."""
    rng = np.random.default_rng(seed)
    povm = random_povm(in_dim, n_effects, rng)
    d_out = int(np.prod(out_dims))
    prepares = tuple(
        random_density(out_dims, rank=min(2, d_out), seed=(seed, 7 + j))
        for j in range(n_effects)
    )
    return MeasurePrepare(tuple(povm), prepares)


def random_separable_two_qubit(seed, n_terms=6):
    """Random mixture of two-qubit product pure states."""
    rng = np.random.default_rng(seed)
    m = np.zeros((4, 4), dtype=complex)
    weights = rng.dirichlet(np.ones(n_terms))
    for w in weights:
        a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        v = np.kron(a / np.linalg.norm(a), b / np.linalg.norm(b))
        m += w * np.outer(v, v.conj())
    return DensityOperator(m, (2, 2))


def apply_via_choi(choi: DensityOperator, rho: np.ndarray) -> np.ndarray:
    """Independent route for channel application through the Choi operator.

    Evaluates d_in * tr_in[ Omega (I_out ox rho^T) ] without touching the
    Kraus machinery.
    """
    out_dim, in_dim = choi.dims
    lifted = np.kron(np.eye(out_dim), rho.T)
    prod = choi.matrix @ lifted
    t = prod.reshape(out_dim, in_dim, out_dim, in_dim)
    return in_dim * np.einsum("ikjk->ij", t)


def choi_via_outer_products(kraus) -> np.ndarray:
    """Choi matrix summed one outer product per Kraus operator: the
    independent reference for the stacked ``choi_from_kraus``.
    """
    ops = [np.asarray(k, dtype=complex) for k in kraus]
    out_dim, in_dim = ops[0].shape
    d = out_dim * in_dim
    omega = np.zeros((d, d), dtype=complex)
    for k in ops:
        w = k.reshape(-1) / np.sqrt(in_dim)
        omega += np.outer(w, w.conj())
    return omega


def apply_sites_tensordot(kraus, stack, sites):
    """Site-by-site channel application through ``np.tensordot`` and
    ``np.moveaxis``, one site at a time: the reference that
    ``channels._apply_sites`` must match bit for bit, in both of its
    contractions (superoperator and Kraus by Kraus).
    """
    n, d_out, d_in = kraus.shape
    batch = stack.shape[0]
    t = stack.reshape((batch,) + (d_in,) * (2 * sites))
    if d_in * d_out <= 2 * n:
        # S[a, b, i, j] = sum_n K_n[a, i] conj(K_n[b, j]), one product over n
        sup = np.tensordot(kraus, kraus.conj(), axes=([0], [0])).transpose(0, 2, 1, 3)
        for s in range(sites):
            ket, bra = 1 + s, 1 + sites + s
            t = np.tensordot(sup, t, axes=([2, 3], [ket, bra]))
            t = np.moveaxis(t, (0, 1), (ket, bra))
    else:
        for s in range(sites):
            ket, bra = 1 + s, 1 + sites + s
            acc = 0
            for k in kraus:
                x = np.moveaxis(np.tensordot(k, t, axes=([1], [ket])), 0, ket)
                acc = acc + np.moveaxis(np.tensordot(k.conj(), x, axes=([1], [bra])), 0, bra)
            t = acc
    d = d_out**sites
    return t.reshape(batch, d, d)


def serial_seesaw_verdict(single, restarts=32, seed=0, tol=1e-9):
    """Start-by-start see-saw, as two_lea_verdict_heuristic ran before its
    starts were stacked: the reference its stacked search must match bit for
    bit.  Each half step is one one-row product with the shared matrix of
    ``criteria._pair_pt_map`` or its adjoint, whose own tests check it
    against the materialized pair channel.  Returns the verdict, the input it
    checked and, per start, how many times the forward half step evaluated
    it.  Its starts include the cut probe psi+:0|1, which equals GHZ on two
    qubits.
    """
    from ealab.channels import apply_local
    from ealab.criteria import (
        SEESAW_MAX_ITER,
        Partition,
        PureState,
        SeparabilityVerdict,
        Verdict,
        _pair_pt_map,
        embedded_max_entangled,
        ppt_min_eigenvalue,
    )
    from ealab.states import ghz, w_state

    dims = (2, 2)
    part = Partition((0,), (1,))
    m, m_adjoint = _pair_pt_map(single)
    starts = [s.amplitudes for s in (ghz(2), w_state(2), embedded_max_entangled(dims, part))]
    starts += list(haar_stream_rows(int(seed), restarts, 4))

    def lowest(v, mat):
        """Lowest eigenpair of the map ``mat`` applied to |v><v|."""
        evals, vecs = np.linalg.eigh((np.outer(v, v.conj()).reshape(1, 16) @ mat).reshape(4, 4))
        return float(evals[0]), vecs[:, 0]

    best, best_psi, evaluations = np.inf, starts[0], []
    for psi in starts:
        value = np.inf
        evaluations.append(0)
        for _ in range(SEESAW_MAX_ITER):
            low, phi = lowest(psi, m)
            evaluations[-1] += 1
            if not low < value:
                break
            value = low
            if value < best:
                best, best_psi = value, psi
            psi = lowest(phi, m_adjoint)[1]
    witness = ppt_min_eigenvalue(apply_local(single, PureState(best_psi, dims)), part)
    status = Verdict.ENTANGLED if witness < -tol else Verdict.INCONCLUSIVE
    return SeparabilityVerdict(status, witness, part, heuristic=True), best_psi, evaluations


def reference_sweep_row(lam, tol=1e-9):
    """One sweep row evaluated on its own, through ``werner``, ``apply_local``,
    ``ppt_verdict`` and ``is_eb``, as a tuple of its seven fields in CSV
    order: the engine's reference for ``criteria._sweep_columns``.  Every
    column but ``werner_min_eig`` must match byte for byte.  That one is the
    engine's Werner eigenvalue here and the closed form (1 - 3 lambda)/4 in
    the sweep, so the two agree only to rounding.  ``is_eb`` certifies only
    a float minimum above ``CHOLESKY_MARGIN``, never where the exact
    1 - 3 lambda is negative; inside the margin it is Inconclusive, and
    there the closed form's exact sign, when nonnegative, is the certificate.
    """
    from ealab.channels import apply_local, depolarizing
    from ealab.criteria import (
        Partition,
        ghz_three_lea_min_eig,
        is_eb,
        ppt_min_eigenvalue,
        ppt_verdict,
        two_lea_min_eig_depolarizing,
        two_lea_verdict_depolarizing,
    )
    from ealab.states import ghz, werner

    ghz_out = apply_local(depolarizing(lam, 2), ghz(3))
    v3 = ppt_verdict(ghz_out, Partition((0,), (1, 2)), tol=tol)
    veb = is_eb(depolarizing(lam, 2), tol=tol).status.value
    werner_ok = 1 - 3 * Fraction(lam) >= 0
    assert werner_ok or veb != "SeparableCertified", lam
    if veb == "Inconclusive" and werner_ok:
        veb = "SeparableCertified"
    return (
        lam,
        two_lea_min_eig_depolarizing(lam),
        ghz_three_lea_min_eig(lam),
        ppt_min_eigenvalue(werner(lam, 2), Partition((0,), (1,))),
        two_lea_verdict_depolarizing(lam, tol=tol).status.value,
        veb,
        v3.status.value,
    )


def report_fields(report):
    """Everything a ``FalsifierReport`` says, floats as exact hex strings and
    the counterexample as its dims and amplitude bytes: two searches agree
    bit for bit when these tuples are equal."""
    state = report.counterexample
    return (
        report.found,
        report.counterexample_label,
        report.counterexample_partition,
        report.trials_used,
        float(report.min_eig_seen).hex(),
        report.seed,
        None if state is None else (state.dims, state.amplitudes.tobytes()),
    )


def exact_parts(m):
    """The real and imaginary parts of a float array as object arrays of
    ``Fraction``: the floats are the exact values."""
    m = np.asarray(m, dtype=complex)
    parts = [[Fraction(float(x)) for x in part.ravel()] for part in (m.real, m.imag)]
    return tuple(np.array(part, dtype=object).reshape(m.shape) for part in parts)


def exact_choi_parts(kraus):
    """The exact Choi operator ``V^T conj(V) / d_in`` of ``choi_from_kraus``,
    summed in ``Fraction`` from the float Kraus entries, as (real, imaginary)
    object arrays on dims (out, in)."""
    re, im = exact_parts(np.asarray(kraus).reshape(len(kraus), -1))
    d_in = np.asarray(kraus).shape[2]
    return (re.T @ re + im.T @ im) / d_in, (im.T @ re - re.T @ im) / d_in


def exact_pt_positive_definite(re, im, dims):
    """Whether the Hermitian part of the partial transpose, over the second
    factor of ``dims``, of the exact matrix ``re + i im`` is positive
    definite: every pivot of the ``Fraction`` LDL^T factorization of its
    real form [[H_re, -H_im], [H_im, H_re]] is positive."""
    d0, d1 = dims

    def flip(a):
        return a.reshape(d0, d1, d0, d1).transpose(0, 3, 2, 1).reshape(d0 * d1, -1)

    re, im = flip(re), flip(im)
    re, im = (re + re.T) / 2, (im - im.T) / 2
    a = np.concatenate([np.concatenate([re, -im], 1), np.concatenate([im, re], 1)]).tolist()
    for k in range(len(a)):
        if a[k][k] <= 0:
            return False
        for i in range(k + 1, len(a)):
            f = a[i][k] / a[k][k]
            if f:
                a[i][k:] = [x - f * y for x, y in zip(a[i][k:], a[k][k:])]
    return True
