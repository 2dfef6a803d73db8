"""Tests for separability verdicts, closed-form spectra, and thresholds."""

import math
from fractions import Fraction

import numpy as np
import pytest

import ealab.criteria
from ealab import (
    DensityOperator,
    Partition,
    PureState,
    Verdict,
    apply,
    bipartitions,
    bisect_threshold,
    channel_from_choi,
    choi_of,
    classically_correlated_pair,
    compose,
    depolarizing,
    ea_falsify,
    ea_mixing_channel,
    ghz,
    identity_channel,
    ghz_three_lea_min_eig,
    is_eb,
    k_lea_falsify,
    max_entangled,
    measure_prepare_channel,
    negativity,
    partial_transpose,
    ppt_min_eigenvalue,
    ppt_verdict,
    random_channel,
    random_density,
    schmidt_pure,
    separable_mixing_threshold,
    tensor,
    tensor_power,
    two_lea_min_eig_depolarizing,
    two_lea_pt_eigenvalues,
    two_lea_verdict_depolarizing,
    two_lea_verdict_heuristic,
    werner,
)
from ealab.cli import sweep_row, sweep_rows
from ealab.criteria import (
    BISECTION_TOL,
    SEESAW_MAX_ITER,
    VERDICT_TOL,
    ThresholdResult,
    eb_min_eig_depolarizing,
)
from helpers import (
    apply_via_choi,
    random_measure_prepare,
    random_separable_two_qubit,
    serial_seesaw_verdict,
)

SPLIT_12 = Partition((0,), (1,))
SPLIT_1_23 = Partition((0,), (1, 2))


class TestPartition:
    def test_blocks_validated(self):
        with pytest.raises(ValueError):
            Partition((0,), (0, 1))
        with pytest.raises(ValueError):
            Partition((), (0,))

    def test_coverage_check(self):
        with pytest.raises(ValueError, match="cover"):
            ppt_min_eigenvalue(random_density((2, 2, 2), 2, seed=0), SPLIT_12)

    @pytest.mark.parametrize("part", [Partition((0,), (3,)), Partition((2,), (0, 1))])
    def test_block_dims_outside_the_factors(self, part):
        with pytest.raises(
            ValueError, match=rf"^partition {part.label()} names a factor outside dims \(2, 2\)$"
        ):
            part.block_dims((2, 2))

    @pytest.mark.parametrize("dims, message", [
        ((2, 2.5), "factor dimension must be an integer, got 2.5"),
        ((2, 0), "factor dimensions must be positive, got (2, 0)"),
    ])
    def test_block_dims_are_checked_factor_dims(self, dims, message):
        with pytest.raises(ValueError) as exc:
            SPLIT_12.block_dims(dims)
        assert str(exc.value) == message

    def test_bipartitions_count(self):
        assert len(bipartitions(2)) == 1
        assert len(bipartitions(3)) == 3
        assert len(bipartitions(4)) == 7

    def test_bipartitions_keep_factor_zero_first(self):
        for part in bipartitions(4):
            assert 0 in part.first


class TestPptMinEigenvalue:
    def test_product_state_nonnegative(self):
        rng_seed = 1
        a = random_density((2,), 2, seed=rng_seed).matrix
        b = random_density((2,), 2, seed=rng_seed + 1).matrix
        rho = DensityOperator(np.kron(a, b), (2, 2))
        assert ppt_min_eigenvalue(rho, SPLIT_12) >= -1e-10

    def test_pure_werner_hits_minus_half(self):
        # oracle: 4x4 eigensolve of the flipped projector
        assert ppt_min_eigenvalue(werner(1.0, 2), SPLIT_12) == pytest.approx(
            -0.5, abs=1e-12
        )

    def test_depolarized_pair_boundary(self):
        lam = 1 / np.sqrt(3)
        out = apply(tensor_power(depolarizing(lam, 2), 2), schmidt_pure(0.5))
        assert abs(ppt_min_eigenvalue(out, SPLIT_12)) < 1e-9


class TestPptVerdict:
    def test_classically_correlated_certified(self):
        v = ppt_verdict(classically_correlated_pair(), SPLIT_12)
        assert v.status.value == "SeparableCertified"

    def test_depolarized_ghz_entangled_above_root(self):
        out = apply(tensor_power(depolarizing(0.6, 2), 3), ghz(3))
        v = ppt_verdict(out, SPLIT_1_23)
        assert v.status is Verdict.ENTANGLED
        assert v.witness_min_eig < -1e-9

    def test_depolarized_ghz_inconclusive_below_root(self):
        # PPT holds but the 2x4 blocks are outside the exactness range
        out = apply(tensor_power(depolarizing(0.5, 2), 3), ghz(3))
        v = ppt_verdict(out, SPLIT_1_23)
        assert v.status is Verdict.INCONCLUSIVE

    def test_two_qutrit_positive_is_inconclusive(self):
        rho = DensityOperator(np.eye(9) / 9, (3, 3))
        assert ppt_verdict(rho, SPLIT_12).status is Verdict.INCONCLUSIVE

    @pytest.mark.parametrize("dims", [(2, 3), (3, 2)])
    def test_qubit_qutrit_positive_is_certified(self, dims):
        rho = DensityOperator(np.eye(6) / 6, dims)
        assert ppt_verdict(rho, SPLIT_12).status is Verdict.SEPARABLE_CERTIFIED


class TestNegativity:
    def test_max_entangled(self):
        assert negativity(max_entangled(2).density(), SPLIT_12) == pytest.approx(0.5)

    def test_separable_certified_is_zero(self):
        for seed in range(10):
            rho = random_separable_two_qubit(seed)
            v = ppt_verdict(rho, SPLIT_12)
            assert v.status is Verdict.SEPARABLE_CERTIFIED
            assert negativity(rho, SPLIT_12) <= 1e-10

    @pytest.mark.parametrize("lam", np.linspace(0.0, 1.0, 11))
    def test_werner_closed_form(self, lam):
        # closed form max(0, (3 lam - 1)/4), cross-checked by an eigensolve
        w = werner(lam, 2)
        expected = max(0.0, (3 * lam - 1) / 4)
        assert negativity(w, SPLIT_12) == pytest.approx(expected, abs=1e-12)
        evals = np.linalg.eigvalsh(partial_transpose(w.matrix, (2, 2), (1,)))
        assert -np.sum(evals[evals < 0]) == pytest.approx(expected, abs=1e-12)

    def test_entangled_verdicts_have_negativity(self):
        for lam in (0.5, 0.8, 1.0):
            w = werner(lam, 2)
            assert ppt_verdict(w, SPLIT_12).status is Verdict.ENTANGLED
            assert negativity(w, SPLIT_12) > 0


class TestIsEb:
    def test_boundary_certified(self):
        v = is_eb(depolarizing(1 / 3, 2))
        assert v.status is Verdict.SEPARABLE_CERTIFIED
        assert abs(v.witness_min_eig) < 1e-9

    def test_above_boundary_entangled(self):
        assert is_eb(depolarizing(0.5, 2)).status is Verdict.ENTANGLED

    def test_measure_prepare_certified(self):
        for seed in range(5):
            mp = random_measure_prepare(2, (2,), n_effects=3, seed=seed)
            v = is_eb(measure_prepare_channel(mp))
            assert v.status is Verdict.SEPARABLE_CERTIFIED

    def test_measure_prepare_qutrit_to_qubit_certified(self):
        # 2x3 Choi blocks still sit inside the PPT exactness range
        mp = random_measure_prepare(3, (2,), n_effects=2, seed=7)
        v = is_eb(measure_prepare_channel(mp))
        assert v.status is Verdict.SEPARABLE_CERTIFIED


class TestEbMinEig:
    @pytest.mark.parametrize("lam", np.linspace(0.0, 1.0, 11))
    def test_matches_choi_eigensolve(self, lam):
        assert is_eb(depolarizing(lam, 2)).witness_min_eig == pytest.approx(
            eb_min_eig_depolarizing(lam), abs=1e-12
        )

    @pytest.mark.parametrize("tol", [0.0, 1e-12, 1e-9, 1e-3, 0.01, 0.05])
    def test_sign_is_exact_near_boundary(self, tol):
        # (1 - 3 lambda)/4 crosses -tol at (1 + 4 tol)/3; every lambda within
        # 5000 ulps of it lies in [1/4, 1/2), where the ulp is one constant
        centre = (1 + 4 * tol) / 3
        for lam in centre + np.arange(-5000, 5001) * np.spacing(centre):
            exact = (1 - 3 * Fraction(float(lam))) / 4 < -Fraction(tol)
            assert (eb_min_eig_depolarizing(lam) < -tol) == exact, lam

    def test_range_check(self):
        with pytest.raises(ValueError, match="lambda"):
            eb_min_eig_depolarizing(1.5)


class TestClosedFormSpectra:
    def test_boundary_value(self):
        mu = two_lea_pt_eigenvalues(1 / np.sqrt(3), 0.5)
        assert abs(mu[3]) < 1e-12

    def test_noiseless_limit(self):
        assert two_lea_pt_eigenvalues(0.0, 0.3) == pytest.approx((0.25,) * 4)

    @pytest.mark.parametrize("lam", np.linspace(0.0, 1.0, 6))
    @pytest.mark.parametrize("q0", [0.0, 0.25, 0.5, 1.0])
    def test_matches_dense_eigensolve(self, lam, q0):
        out = apply(tensor_power(depolarizing(lam, 2), 2), schmidt_pure(q0))
        numeric = np.sort(
            np.linalg.eigvalsh(partial_transpose(out.matrix, (2, 2), (1,)))
        )
        analytic = np.sort(two_lea_pt_eigenvalues(lam, q0))
        assert np.max(np.abs(numeric - analytic)) < 1e-12

    def test_range_checks(self):
        with pytest.raises(ValueError):
            two_lea_pt_eigenvalues(1.5, 0.5)
        with pytest.raises(ValueError):
            two_lea_pt_eigenvalues(0.5, -0.1)

    def test_worst_case_at_balanced_weight(self):
        for lam in (0.3, 0.6, 0.9):
            worst = two_lea_min_eig_depolarizing(lam)
            grid = [two_lea_pt_eigenvalues(lam, q)[3] for q in np.linspace(0, 1, 101)]
            assert worst <= min(grid) + 1e-15


class TestGhzMinEig:
    def test_noiseless_limit(self):
        assert ghz_three_lea_min_eig(0.0) == pytest.approx(0.125)

    def test_near_root(self):
        assert abs(ghz_three_lea_min_eig(0.5567)) < 5e-5

    def test_negative_at_pair_boundary(self):
        assert ghz_three_lea_min_eig(1 / np.sqrt(3)) < 0

    @pytest.mark.parametrize("lam", np.linspace(0.0, 1.0, 11))
    def test_matches_dense_eigensolve(self, lam):
        out = apply(tensor_power(depolarizing(lam, 2), 3), ghz(3))
        assert ppt_min_eigenvalue(out, SPLIT_1_23) == pytest.approx(
            ghz_three_lea_min_eig(lam), abs=1e-12
        )

    def test_range_check(self):
        with pytest.raises(ValueError):
            ghz_three_lea_min_eig(-0.2)


class TestTwoLeaVerdict:
    def test_inside_region(self):
        assert (
            two_lea_verdict_depolarizing(0.5).status is Verdict.SEPARABLE_CERTIFIED
        )

    def test_outside_region(self):
        assert two_lea_verdict_depolarizing(0.6).status is Verdict.ENTANGLED

    def test_boundary_inclusive(self):
        v = two_lea_verdict_depolarizing(1 / np.sqrt(3))
        assert v.status is Verdict.SEPARABLE_CERTIFIED

    def test_heuristic_finds_entanglement(self):
        v = two_lea_verdict_heuristic(depolarizing(0.8, 2), restarts=8, seed=0)
        assert v.heuristic
        assert v.status is Verdict.ENTANGLED
        assert v.witness_min_eig == pytest.approx(
            two_lea_min_eig_depolarizing(0.8), abs=1e-6
        )

    def test_heuristic_never_certifies(self):
        v = two_lea_verdict_heuristic(depolarizing(0.2, 2), restarts=4, seed=1)
        assert v.status is Verdict.INCONCLUSIVE


class TestSeesaw:
    @pytest.mark.parametrize("lam", np.linspace(0.0, 1.0, 41))
    def test_matches_closed_form(self, lam):
        # product inputs are worst below lambda = 1/2, the Bell state above
        v = two_lea_verdict_heuristic(depolarizing(lam, 2))
        assert abs(v.witness_min_eig - min((1 - lam) ** 2, 1 - 3 * lam**2) / 4) < 1e-12

    @pytest.mark.parametrize("lam", np.linspace(0.58, 0.99, 6))
    def test_one_restart_finds_entanglement_past_the_threshold(self, lam):
        for seed in range(30):
            v = two_lea_verdict_heuristic(depolarizing(lam, 2), restarts=1, seed=seed)
            assert v.status is Verdict.ENTANGLED

    def test_probes_alone_are_a_search(self):
        v = two_lea_verdict_heuristic(depolarizing(0.8, 2), restarts=0)
        assert v.status is Verdict.ENTANGLED
        assert v.witness_min_eig == pytest.approx(two_lea_min_eig_depolarizing(0.8), abs=1e-12)

    def test_non_qubit_channel_rejected(self):
        with pytest.raises(ValueError, match="^heuristic search expects a qubit-to-qubit channel$"):
            two_lea_verdict_heuristic(depolarizing(0.5, 3), restarts=0)

    def test_negative_restarts_rejected(self):
        with pytest.raises(ValueError, match="restarts"):
            two_lea_verdict_heuristic(depolarizing(0.8, 2), restarts=-1)

    def test_restarts_past_the_stack_bound_rejected(self, monkeypatch):
        # rejected before any start is drawn: nothing near this many is built
        def no_draw(*args):
            raise AssertionError("a start was drawn")

        # the one draw of every Haar start, so a check after it fails at once
        # instead of asking for 10**18 rows
        monkeypatch.setattr(ealab.criteria, "_haar_rows", no_draw)
        with pytest.raises(ValueError, match="restarts=65535 needs a stack"):
            two_lea_verdict_heuristic(depolarizing(0.8, 2), restarts=65535)
        with pytest.raises(ValueError, match="-byte bound"):
            two_lea_verdict_heuristic(depolarizing(0.8, 2), restarts=10**18)

    @pytest.mark.parametrize("restarts", [0, 2])
    def test_negative_seed_rejected(self, restarts):
        # with no Haar start the seed was never used, so it went unchecked
        with pytest.raises(ValueError, match="seed must be nonnegative, got -1"):
            two_lea_verdict_heuristic(depolarizing(0.8, 2), restarts=restarts, seed=-1)

    @staticmethod
    def checked_input(single, monkeypatch, **kwargs):
        """Run the search; return its verdict and the state it checked."""
        inputs = []
        original = ealab.criteria.apply_local

        def recording(e, state):
            inputs.append(state)
            return original(e, state)

        monkeypatch.setattr(ealab.criteria, "apply_local", recording)
        v = two_lea_verdict_heuristic(single, **kwargs)
        (psi,) = inputs
        return v, psi

    def test_witness_is_checked_on_an_explicit_state(self, monkeypatch):
        single = random_channel(2, kraus_rank=4, seed=3)
        v, psi = self.checked_input(single, monkeypatch, restarts=4, seed=0)
        assert v.status is Verdict.ENTANGLED
        assert v.witness_min_eig < -VERDICT_TOL
        pair_choi = choi_of(tensor(single, single))
        out = apply_via_choi(pair_choi, psi.density().matrix)
        flipped = partial_transpose(out, (2, 2), (1,))
        assert abs(np.linalg.eigvalsh(flipped)[0] - v.witness_min_eig) < 1e-12

    @pytest.mark.parametrize("restarts", [4, 0, 1, 32])
    def test_stacked_starts_match_the_serial_search(self, restarts, monkeypatch):
        # 80 random channels at restarts=4, every 4th of them at 0, 1 and 32,
        # and 41 depolarizing channels at each: 304 calls in all.
        seeds = range(80) if restarts == 4 else range(0, 80, 4)
        cases = [(random_channel(2, kraus_rank=1 + i % 4, seed=i), i) for i in seeds]
        cases += [(depolarizing(lam, 2), 0) for lam in np.linspace(0.0, 1.0, 41)]
        for single, seed in cases:
            v, psi = self.checked_input(single, monkeypatch, restarts=restarts, seed=seed)
            ref, ref_psi = serial_seesaw_verdict(single, restarts, seed)
            assert v.status is ref.status
            assert v.witness_min_eig.hex() == ref.witness_min_eig.hex()
            assert psi.amplitudes.tobytes() == ref_psi.tobytes()

    @pytest.mark.parametrize("restarts", [4, 32])
    def test_one_batched_eigensolve_per_half_step(self, restarts, monkeypatch):
        # Serially, one call at restarts=4 made 2800 eigensolves on this channel.
        single = random_channel(2, kraus_rank=2, seed=1)
        calls = []
        eigh = np.linalg.eigh

        def counting(a, *args, **kwargs):
            calls.append(np.shape(a))
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        two_lea_verdict_heuristic(single, restarts=restarts, seed=0)
        assert 0 < len(calls) <= 2 * SEESAW_MAX_ITER

    @pytest.mark.parametrize("seed", [2, 3, 7])
    def test_best_input_is_a_fixed_point(self, seed, monkeypatch):
        # At a fixed point the adjoint half step, computed here from the
        # materialized Kraus operators of the pair, cannot go lower.
        single = random_channel(2, kraus_rank=1 + seed % 4, seed=seed)
        v, psi = self.checked_input(single, monkeypatch, restarts=4, seed=0)
        pair = tensor(single, single)
        out = apply(pair, psi).matrix
        phi = np.linalg.eigh(partial_transpose(out, (2, 2), (1,)))[1][:, 0]
        flip = partial_transpose(np.outer(phi, phi.conj()), (2, 2), (1,))
        back = sum(k.conj().T @ flip @ k for k in pair.kraus)
        assert np.linalg.eigvalsh(back)[0] > v.witness_min_eig - 1e-10


class TestBisection:
    def test_werner_boundary(self):
        def crit(lam):
            return ppt_min_eigenvalue(werner(lam, 2), SPLIT_12)

        res = bisect_threshold(crit, (0.1, 0.6), tol=1e-9, criterion_id="eb")
        assert res.critical_value == pytest.approx(1 / 3, abs=1e-8)
        assert res.bracket[1] - res.bracket[0] <= 1e-9

    def test_pair_boundary(self):
        res = bisect_threshold(two_lea_min_eig_depolarizing, (0.3, 0.9), tol=1e-9)
        assert res.critical_value == pytest.approx(1 / np.sqrt(3), abs=1e-8)

    def test_ghz_boundary_against_root_oracle(self):
        res = bisect_threshold(ghz_three_lea_min_eig, (0.3, 0.9), tol=1e-9)
        roots = [r.real for r in np.roots([4.0, 1.0, 0.0, -1.0]) if abs(r.imag) < 1e-12]
        assert len(roots) == 1
        assert res.critical_value == pytest.approx(roots[0], abs=1e-8)
        assert abs(res.critical_value - 0.5567) < 5e-4

    def test_same_sign_rejected(self):
        with pytest.raises(ValueError, match="same sign"):
            bisect_threshold(lambda x: x + 1.0, (0.0, 1.0))

    @pytest.mark.parametrize("bracket", [(0.5, 0.5), (0.6, 0.5)])
    def test_empty_bracket_rejected(self, bracket):
        with pytest.raises(
            ValueError, match=rf"^bracket must satisfy lo < hi, got \({bracket[0]}, {bracket[1]}\)$"
        ):
            bisect_threshold(lambda x: x - 0.55, bracket)

    @pytest.mark.parametrize("root", [0.25, 0.75])
    def test_zero_at_an_endpoint_is_a_degenerate_bracket(self, root):
        res = bisect_threshold(lambda x: x - root, (0.25, 0.75), tol=1e-6, criterion_id="edge")
        assert res == ThresholdResult(root, (root, root), 1e-6, "edge", degenerate_bracket=True)

    def test_nan_criterion_rejected(self):
        def crit(x):
            return x - 0.7 if x <= 0.5 else math.nan

        with pytest.raises(ValueError, match="not finite"):
            bisect_threshold(crit, (0.0, 1.0))

    def test_nan_at_an_endpoint_rejected(self):
        with pytest.raises(ValueError, match="not finite"):
            bisect_threshold(lambda x: math.nan if x == 0.0 else 1.0, (0.0, 1.0))

    def test_sign_change_across_final_bracket(self):
        res = bisect_threshold(ghz_three_lea_min_eig, (0.3, 0.9), tol=1e-9)
        lo, hi = res.bracket
        assert ghz_three_lea_min_eig(lo) * ghz_three_lea_min_eig(hi) <= 0


class TestSeparableMixingThreshold:
    def test_max_entangled_gives_one_third(self):
        res = separable_mixing_threshold(max_entangled(2).density())
        assert abs(res.critical_value - 1 / 3) <= 1e-15
        assert res.bracket == (res.critical_value, res.critical_value)
        assert res.tol == 0.0
        assert not res.degenerate_bracket

    def test_singlet_gives_one_third(self):
        # local-unitary twin of the maximally entangled projector
        amp = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2)
        singlet = PureState(amp, (2, 2)).density()
        res = separable_mixing_threshold(singlet)
        assert res.critical_value == pytest.approx(1 / 3, abs=1e-6)

    def test_separable_input_degenerate(self):
        res = separable_mixing_threshold(random_separable_two_qubit(3))
        assert res.critical_value == 1.0
        assert res.degenerate_bracket

    def test_strictly_positive(self):
        for seed in range(5):
            rho = random_density((2, 2), rank=1, seed=seed)
            res = separable_mixing_threshold(rho)
            assert res.critical_value > 0

    def test_wrong_dims_rejected(self):
        with pytest.raises(ValueError, match="two-qubit"):
            separable_mixing_threshold(random_density((3, 3), 2, seed=0))

    def test_closed_form_matches_bisection(self):
        eye4 = np.eye(4) / 4.0
        checked = 0
        for seed in range(200):
            rho = random_density((2, 2), rank=1 + seed % 2, seed=(9, seed))
            res = separable_mixing_threshold(rho)
            if res.degenerate_bracket:
                continue

            def criterion(x):
                mix = DensityOperator(x * rho.matrix + (1.0 - x) * eye4, (2, 2))
                return ppt_min_eigenvalue(mix, SPLIT_12)

            ref = bisect_threshold(criterion, (0.0, 1.0), BISECTION_TOL)
            assert abs(res.critical_value - ref.critical_value) <= BISECTION_TOL
            checked += 1
        assert checked >= 100


class TestEaMixingChannel:
    def test_zero_effect_is_constant_mixture(self):
        e = ea_mixing_channel(np.zeros((4, 4)), max_entangled(2).density())
        rho = random_density((2, 2), rank=2, seed=4)
        assert np.max(np.abs(apply(e, rho).matrix - np.eye(4) / 4)) < 1e-10

    def test_outputs_always_separable(self):
        e = ea_mixing_channel(0.3 * np.eye(4), max_entangled(2).density())
        for seed in range(50):
            rho = random_density((2, 2), rank=2, seed=(5, seed))
            out = apply(e, rho, out_dims=(2, 2))
            assert ppt_verdict(out, SPLIT_12).status is Verdict.SEPARABLE_CERTIFIED

    def test_choi_stays_ppt(self):
        # measure-and-prepare form: the Choi operator is separable, so in
        # particular PPT across the output|input split
        e = ea_mixing_channel(0.3 * np.eye(4), max_entangled(2).density())
        assert ppt_min_eigenvalue(choi_of(e), SPLIT_12) >= -1e-9

    def test_effect_above_threshold_rejected(self):
        with pytest.raises(ValueError, match="mixing threshold"):
            ea_mixing_channel(0.4 * np.eye(4), max_entangled(2).density())

    def test_omega_must_be_two_qubit(self):
        with pytest.raises(ValueError, match="^the prepared state must be a two-qubit state$"):
            ea_mixing_channel(np.zeros((4, 4)), werner(0.5, 3))

    def test_effect_must_be_positive(self):
        with pytest.raises(ValueError, match="positive semidefinite"):
            ea_mixing_channel(-0.1 * np.eye(4), max_entangled(2).density())

    def test_invalid_effect_reported_before_threshold(self):
        # 2*I is above the threshold, and its complement I - 2*I is negative
        with pytest.raises(ValueError, match="positive semidefinite"):
            ea_mixing_channel(2.0 * np.eye(4), max_entangled(2).density())
        skew = 0.1 * np.eye(4, dtype=complex)
        skew[0, 1] = 0.5
        with pytest.raises(ValueError, match="Hermitian"):
            ea_mixing_channel(skew, max_entangled(2).density())


BAD_TOLERANCES = [math.nan, math.inf, -math.inf, -1.0, -1e-12]


class TestToleranceValidation:
    """A verdict or bisection tolerance must be finite and nonnegative."""

    CALLS = {
        "ppt_verdict": lambda tol: ppt_verdict(werner(0.5), SPLIT_12, tol=tol),
        "is_eb": lambda tol: is_eb(identity_channel(2), tol=tol),
        "two_lea_depolarizing": lambda tol: two_lea_verdict_depolarizing(0.5, tol=tol),
        "two_lea_heuristic": lambda tol: two_lea_verdict_heuristic(
            depolarizing(0.5, 2), restarts=1, tol=tol
        ),
        "k_lea_falsify": lambda tol: k_lea_falsify(depolarizing(0.5, 2), 2, budget=2, tol=tol),
        "ea_falsify": lambda tol: ea_falsify(identity_channel(4), (2, 2), budget=2, tol=tol),
        "bisect": lambda tol: bisect_threshold(lambda x: x - 0.3, (0.0, 1.0), tol),
        "sweep_row": lambda tol: sweep_row(0.5, tol=tol),
        # checked before any row, so an empty grid is rejected too
        "sweep_rows": lambda tol: sweep_rows([], tol=tol),
    }

    @pytest.mark.parametrize("tol", BAD_TOLERANCES)
    @pytest.mark.parametrize("name", sorted(CALLS))
    def test_bad_tolerance_rejected(self, name, tol):
        with pytest.raises(ValueError, match="tolerance must be finite and nonnegative"):
            self.CALLS[name](tol)

    @pytest.mark.parametrize("name", sorted(CALLS))
    def test_zero_tolerance_accepted(self, name):
        self.CALLS[name](0.0)

    def test_nan_no_longer_certifies_the_identity(self):
        assert is_eb(identity_channel(2)).status is Verdict.ENTANGLED
        with pytest.raises(ValueError):
            is_eb(identity_channel(2), tol=math.nan)


class TestStructuralProperties:
    """Sample-level checks of the convexity and composition closure rules."""

    def test_eb_closed_under_choi_mixing(self):
        rng = np.random.default_rng(6)
        for seed in range(50):
            a = measure_prepare_channel(
                random_measure_prepare(2, (2,), n_effects=2, seed=(7, seed))
            )
            b = measure_prepare_channel(
                random_measure_prepare(2, (2,), n_effects=3, seed=(8, seed))
            )
            p = rng.uniform(0.1, 0.9)
            mixed = DensityOperator(
                p * choi_of(a).matrix + (1 - p) * choi_of(b).matrix, (2, 2)
            )
            v = is_eb(channel_from_choi(mixed))
            assert v.status is Verdict.SEPARABLE_CERTIFIED

    def test_eb_closed_under_composition(self):
        eb = depolarizing(0.3, 2)
        for seed in range(50):
            f = random_channel(2, seed=(9, seed))
            assert is_eb(compose(eb, f)).status is Verdict.SEPARABLE_CERTIFIED
            assert is_eb(compose(f, eb)).status is Verdict.SEPARABLE_CERTIFIED

    def test_annihilating_first_composition_stays_annihilating(self):
        # pair channel at a 2-LEA parameter, composed after arbitrary local
        # noise; sampled outputs stay separable
        pair = tensor_power(depolarizing(0.5, 2), 2)
        for seed in range(50):
            local = tensor(
                random_channel(2, seed=(10, seed)), random_channel(2, seed=(11, seed))
            )
            chained = compose(pair, local)
            for sample in range(2):
                rho = random_density((2, 2), rank=2, seed=(12, seed, sample))
                out = apply(chained, rho, out_dims=(2, 2))
                v = ppt_verdict(out, SPLIT_12)
                assert v.status is Verdict.SEPARABLE_CERTIFIED
