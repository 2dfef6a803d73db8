"""Shared random generators for the test suite."""

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
    bit.  Returns the verdict and the input it checked.  Its starts include
    the cut probe psi+:0|1, which equals GHZ on two qubits.
    """
    from ealab.channels import _apply_sites, apply_local
    from ealab.criteria import (
        SEESAW_MAX_ITER,
        Partition,
        PureState,
        SeparabilityVerdict,
        Verdict,
        embedded_max_entangled,
        partial_transpose,
        ppt_min_eigenvalue,
    )
    from ealab.states import ghz, w_state

    dims = (2, 2)
    part = Partition((0,), (1,))
    adjoint = single.kraus.conj().transpose(0, 2, 1)
    starts = [s.amplitudes for s in (ghz(2), w_state(2), embedded_max_entangled(dims, part))]
    starts += list(haar_stream_rows(int(seed), restarts, 4))

    def lowest(m):
        evals, vecs = np.linalg.eigh(m)
        return float(evals[0]), vecs[:, 0]

    best, best_psi = np.inf, starts[0]
    for psi in starts:
        value = np.inf
        for _ in range(SEESAW_MAX_ITER):
            out = _apply_sites(single.kraus, np.outer(psi, psi.conj())[None], 2)
            low, phi = lowest(partial_transpose(out[0], dims, (1,)))
            if not low < value:
                break
            value = low
            if value < best:
                best, best_psi = value, psi
            flip = partial_transpose(np.outer(phi, phi.conj()), dims, (1,))
            psi = lowest(_apply_sites(adjoint, flip[None], 2)[0])[1]
    witness = ppt_min_eigenvalue(apply_local(single, PureState(best_psi, dims)), part)
    status = Verdict.ENTANGLED if witness < -tol else Verdict.INCONCLUSIVE
    return SeparabilityVerdict(status, witness, part, heuristic=True), best_psi


def reference_sweep_row(lam, tol=1e-9):
    """One sweep row evaluated on its own, through ``werner``, ``apply_local``,
    ``ppt_verdict`` and ``is_eb``: the engine's reference for
    ``cli.sweep_rows``.  Every column but ``werner_min_eig`` must match byte
    for byte.  That one is the engine's Werner eigenvalue here and the
    closed form (1 - 3 lambda)/4 in the sweep, so the two agree only to
    rounding.
    """
    from ealab.channels import apply_local, depolarizing
    from ealab.cli import SweepRow
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
    return SweepRow(
        lam=lam,
        min_mu_2lea=two_lea_min_eig_depolarizing(lam),
        ghz_mu_3lea=ghz_three_lea_min_eig(lam),
        werner_min_eig=ppt_min_eigenvalue(werner(lam, 2), Partition((0,), (1,))),
        verdict_2lea=two_lea_verdict_depolarizing(lam, tol=tol).status.value,
        verdict_eb=is_eb(depolarizing(lam, 2), tol=tol).status.value,
        verdict_3lea_ppt=v3.status.value,
    )
