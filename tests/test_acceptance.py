"""Acceptance suite: one test per acceptance criterion.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` to see
them) and asserts the criterion at its stated tolerance.
"""

import math
import time

import numpy as np

from ealab import (
    DensityOperator,
    MeasurePrepare,
    Partition,
    Verdict,
    apply,
    bisect_threshold,
    channel_from_choi,
    choi_of,
    compose,
    depolarizing,
    ea_falsify,
    ghz,
    ghz_three_lea_min_eig,
    identity_channel,
    is_eb,
    k_lea_falsify,
    kron,
    max_entangled,
    measure_prepare_channel,
    partial_transpose,
    ppt_min_eigenvalue,
    ppt_verdict,
    random_channel,
    random_density,
    schmidt_pure,
    separable_mixing_threshold,
    tensor_power,
    two_lea_min_eig_depolarizing,
    two_lea_pt_eigenvalues,
    two_lea_verdict_depolarizing,
    werner,
)
from ealab.criteria import TWO_LEA_EDGE
from helpers import random_measure_prepare, random_separable_two_qubit

SPLIT_12 = Partition((0,), (1,))
SPLIT_1_23 = Partition((0,), (1, 2))


def report(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def golden_section_minimize(f, lo, hi, tol=1e-10):
    """Independent 1-D minimizer: coarse grid, then golden-section refinement."""
    grid = np.linspace(lo, hi, 101)
    center = grid[int(np.argmin([f(x) for x in grid]))]
    a = max(lo, center - 0.02)
    b = min(hi, center + 0.02)
    inv_phi = (np.sqrt(5.0) - 1.0) / 2.0
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    while b - a > tol:
        if f(c) < f(d):
            b, d = d, c
            c = b - inv_phi * (b - a)
        else:
            a, c = c, d
            d = a + inv_phi * (b - a)
    return 0.5 * (a + b)


def test_criterion_1_eb_threshold():
    start = time.perf_counter()

    def crit(lam):
        return ppt_min_eigenvalue(werner(lam, 2), SPLIT_12)

    res = bisect_threshold(crit, (0.1, 0.6), tol=1e-9, criterion_id="eb")
    elapsed = time.perf_counter() - start
    err = abs(res.critical_value - 1 / 3)
    report(
        "criterion 1 (EB threshold)",
        err < 1e-8 and elapsed < 1.0,
        f"critical={res.critical_value:.12g} |err|={err:.2e} time={elapsed:.3f}s",
    )


def test_criterion_2_two_lea_threshold():
    start = time.perf_counter()
    res = bisect_threshold(
        two_lea_min_eig_depolarizing, (0.3, 0.9), tol=1e-9, criterion_id="2lea"
    )
    err = abs(res.critical_value - 1 / np.sqrt(3))

    # the closed-form minimizer q0 = 1/2 against an independent numeric search
    worst_arg_err = 0.0
    for lam in (0.4, 0.6, 0.8):
        arg = golden_section_minimize(
            lambda q: two_lea_pt_eigenvalues(lam, q)[3], 0.0, 1.0
        )
        worst_arg_err = max(worst_arg_err, abs(arg - 0.5))
    elapsed = time.perf_counter() - start
    report(
        "criterion 2 (2-LEA threshold)",
        err < 1e-8 and worst_arg_err < 1e-6 and elapsed < 1.0,
        f"critical={res.critical_value:.12g} |err|={err:.2e} "
        f"|argmin-1/2|={worst_arg_err:.2e} time={elapsed:.3f}s",
    )


def test_criterion_3_three_lea_threshold():
    start = time.perf_counter()
    res = bisect_threshold(
        ghz_three_lea_min_eig, (0.3, 0.9), tol=1e-9, criterion_id="3lea"
    )
    roots = [r.real for r in np.roots([4.0, 1.0, 0.0, -1.0]) if abs(r.imag) < 1e-12]
    root = roots[0]
    elapsed = time.perf_counter() - start
    err = abs(res.critical_value - root)
    paper_err = abs(res.critical_value - 0.5567)
    report(
        "criterion 3 (3-LEA PPT threshold)",
        err < 1e-8 and paper_err < 5e-4 and elapsed < 1.0,
        f"critical={res.critical_value:.12g} |err vs root|={err:.2e} "
        f"|err vs 0.5567|={paper_err:.2e} time={elapsed:.3f}s",
    )


def test_criterion_4_analytic_vs_numeric_grid():
    start = time.perf_counter()
    worst = 0.0
    for lam in np.linspace(0.0, 1.0, 11):
        pair = tensor_power(depolarizing(lam, 2), 2)
        for q0 in np.linspace(0.0, 1.0, 11):
            out = apply(pair, schmidt_pure(q0))
            numeric = np.sort(
                np.linalg.eigvalsh(partial_transpose(out.matrix, (2, 2), (1,)))
            )
            analytic = np.sort(two_lea_pt_eigenvalues(lam, q0))
            worst = max(worst, float(np.max(np.abs(numeric - analytic))))
    elapsed = time.perf_counter() - start
    report(
        "criterion 4 (analytic vs numeric grid)",
        worst < 1e-12 and elapsed < 5.0,
        f"worst deviation={worst:.2e} over 121 grid points time={elapsed:.3f}s",
    )


def test_criterion_5_choi_identity():
    worst = 0.0
    for lam in (0.0, 0.25, 1 / 3, 0.5, 1.0):
        diff = np.abs(choi_of(depolarizing(lam, 2)).matrix - werner(lam, 2).matrix)
        worst = max(worst, float(np.max(diff)))
    report(
        "criterion 5 (Choi operator equals Werner state)",
        worst < 1e-12,
        f"worst entrywise deviation={worst:.2e}",
    )


def test_criterion_6_set_relation_demo():
    start = time.perf_counter()
    # the largest float at which exact 1 - 3 lambda^2 is nonnegative;
    # 1 / np.sqrt(3) lies one float above it, where the pair is not 2-LEA
    lam = TWO_LEA_EDGE

    pair = two_lea_verdict_depolarizing(lam)
    past = two_lea_verdict_depolarizing(math.nextafter(lam, 1))
    ok_a = (
        pair.status is Verdict.SEPARABLE_CERTIFIED
        and pair.witness_min_eig >= 0
        and past.status is Verdict.INCONCLUSIVE
    )

    ghz_out = apply(tensor_power(depolarizing(lam, 2), 3), ghz(3))
    ghz_eig = ppt_min_eigenvalue(ghz_out, SPLIT_1_23)
    ok_b = ghz_eig < -1e-4

    single = is_eb(depolarizing(lam, 2))
    ok_c = single.status is Verdict.ENTANGLED

    elapsed = time.perf_counter() - start
    report(
        "criterion 6 (annihilating without breaking)",
        ok_a and ok_b and ok_c and elapsed < 1.0,
        f"pair verdict={pair.status.value} (min={pair.witness_min_eig:.2e}, "
        f"{past.status.value} one float above), "
        f"GHZ PT eig={ghz_eig:.6f}, single-qubit EB verdict={single.status.value}, "
        f"time={elapsed:.3f}s",
    )


def test_criterion_7_structural_property_suites():
    start = time.perf_counter()
    rng = np.random.default_rng(100)

    # convexity: Choi mixtures of entanglement-breaking channels stay EB
    convex_ok = True
    for seed in range(50):
        a = measure_prepare_channel(
            random_measure_prepare(2, (2,), n_effects=2, seed=(101, seed))
        )
        b = measure_prepare_channel(
            random_measure_prepare(2, (2,), n_effects=3, seed=(102, seed))
        )
        p = rng.uniform(0.0, 1.0)
        mixed = DensityOperator(
            p * choi_of(a).matrix + (1 - p) * choi_of(b).matrix, (2, 2)
        )
        if is_eb(channel_from_choi(mixed)).status is not Verdict.SEPARABLE_CERTIFIED:
            convex_ok = False
            break

    # composition closure: EB stays EB against arbitrary pre/post channels
    compose_ok = True
    eb = depolarizing(0.3, 2)
    for seed in range(50):
        f = random_channel(2, seed=(103, seed))
        if is_eb(compose(eb, f)).status is not Verdict.SEPARABLE_CERTIFIED:
            compose_ok = False
            break
        if is_eb(compose(f, eb)).status is not Verdict.SEPARABLE_CERTIFIED:
            compose_ok = False
            break

    # measure-and-prepare with separable prepares: outputs stay separable
    prepares = tuple(random_separable_two_qubit((104, j)) for j in range(3))
    povm = random_measure_prepare(4, (2, 2), n_effects=3, seed=105).povm
    mp_channel = measure_prepare_channel(MeasurePrepare(povm, prepares))
    sample_ok = True
    for seed in range(200):
        rho = random_density((2, 2), rank=2, seed=(106, seed))
        out = apply(mp_channel, rho, out_dims=(2, 2))
        if ppt_verdict(out, SPLIT_12).status is not Verdict.SEPARABLE_CERTIFIED:
            sample_ok = False
            break

    kappa = separable_mixing_threshold(max_entangled(2).density()).critical_value
    kappa_ok = abs(kappa - 1 / 3) < 1e-6

    elapsed = time.perf_counter() - start
    report(
        "criterion 7 (structural property suites)",
        convex_ok and compose_ok and sample_ok and kappa_ok and elapsed < 30.0,
        f"convexity={convex_ok} composition={compose_ok} "
        f"separable-prepares={sample_ok} kappa={kappa:.8f} time={elapsed:.2f}s",
    )


def test_criterion_8_falsifier_soundness_and_determinism():
    cases = [
        (tensor_power(depolarizing(0.6, 2), 3), (2, 2, 2), 40),
        (tensor_power(depolarizing(0.9, 2), 2), (2, 2), 40),
        (identity_channel(4), (2, 2), 10),
    ]
    sound = True
    for channel, dims, budget in cases:
        rep = ea_falsify(channel, dims, budget=budget, seed=13)
        if not rep.found:
            sound = False
            break
        out = apply(channel, rep.counterexample, out_dims=dims)
        if ppt_min_eigenvalue(out, rep.counterexample_partition) >= -1e-9:
            sound = False
            break

    first = k_lea_falsify(depolarizing(0.6, 2), 3, budget=60, seed=21)
    second = k_lea_falsify(depolarizing(0.6, 2), 3, budget=60, seed=21)
    clean_a = k_lea_falsify(depolarizing(0.25, 2), 2, budget=60, seed=22)
    clean_b = k_lea_falsify(depolarizing(0.25, 2), 2, budget=60, seed=22)
    deterministic = (
        first.trials_used == second.trials_used
        and first.min_eig_seen == second.min_eig_seen
        and first.counterexample_label == second.counterexample_label
        and np.array_equal(
            first.counterexample.amplitudes, second.counterexample.amplitudes
        )
        and clean_a.trials_used == clean_b.trials_used
        and clean_a.min_eig_seen == clean_b.min_eig_seen
        and not clean_a.found
        and not clean_b.found
    )
    report(
        "criterion 8 (falsifier soundness and determinism)",
        sound and deterministic,
        f"counterexamples reverify={sound} repeated runs identical={deterministic}",
    )


def test_criterion_9_monotonicity_lift():
    # the three-party entangled output lifts to four parties by tensoring a
    # pure bystander state; the lifted partial transpose keeps the same
    # negative eigenvalue
    lam = 0.6
    sigma = apply(tensor_power(depolarizing(lam, 2), 3), ghz(3))
    base_eig = ppt_min_eigenvalue(sigma, SPLIT_1_23)

    bystander = np.zeros((2, 2), dtype=complex)
    bystander[0, 0] = 1.0
    lifted = DensityOperator(kron(bystander, sigma.matrix), (2, 2, 2, 2))
    lifted_eig = ppt_min_eigenvalue(lifted, Partition((0, 1), (2, 3)))

    diff = abs(lifted_eig - base_eig)
    report(
        "criterion 9 (monotonicity lift)",
        base_eig < -1e-9 and diff < 1e-10,
        f"3-party eig={base_eig:.10f} lifted 4-party eig={lifted_eig:.10f} "
        f"|diff|={diff:.2e}",
    )
