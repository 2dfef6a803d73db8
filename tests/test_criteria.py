"""Tests for separability verdicts, closed-form spectra, and thresholds."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ealab.criteria
from ealab import (
    DensityOperator,
    Partition,
    PureState,
    Verdict,
    apply,
    apply_local,
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
from ealab.criteria import (
    BISECTION_TOL,
    EB_EDGE,
    SEESAW_MAX_ITER,
    TWO_LEA_EDGE,
    VERDICT_TOL,
    ThresholdResult,
    _pair_map_rows,
    _pair_pt_map,
    _sweep_columns,
    eb_min_eig_depolarizing,
    ppt_status,
)
from ealab.linalg import CHOLESKY_MARGIN
from helpers import (
    apply_via_choi,
    exact_choi_parts,
    exact_parts,
    exact_pt_positive_definite,
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


@pytest.mark.parametrize("call", [ppt_min_eigenvalue, ppt_verdict, negativity])
@pytest.mark.parametrize("rho, part, message", [
    (np.eye(4) / 4, SPLIT_12, "expected a DensityOperator, got ndarray"),
    (werner(0.5, 2), ((0,), (1,)), "expected a Partition, got tuple"),
], ids=["ndarray-state", "tuple-partition"])
def test_ppt_argument_of_the_wrong_type_is_named(call, rho, part, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call(rho, part)


@pytest.mark.parametrize("call", [
    lambda x: two_lea_verdict_heuristic(x, restarts=0),
    lambda x: k_lea_falsify(x, 2, budget=0),
    lambda x: ea_falsify(x, (2, 2), budget=0),
    is_eb,
    lambda x: apply_local(x, ghz(2)),
    lambda x: compose(x, depolarizing(0.5, 2)),
    lambda x: compose(depolarizing(0.5, 2), x),
    lambda x: apply(x, ghz(2)),
    lambda x: tensor(x, depolarizing(0.5, 2)),
    lambda x: tensor(depolarizing(0.5, 2), x),
    lambda x: tensor_power(x, 2),
    choi_of,
], ids=[
    "two_lea_verdict_heuristic", "k_lea_falsify", "ea_falsify", "is_eb", "apply_local",
    "compose-outer", "compose-inner", "apply", "tensor-first", "tensor-second",
    "tensor_power", "choi_of",
])
def test_channel_argument_of_the_wrong_type_is_named(call):
    # an array where a Channel belongs once ended in a bare AttributeError
    with pytest.raises(ValueError, match="^expected a Channel, got ndarray$"):
        call(np.eye(2))


class TestPptVerdict:
    def test_classically_correlated_is_inconclusive(self):
        # the exact PT minimum is 0, and no float minimum proves a sign there
        v = ppt_verdict(classically_correlated_pair(), SPLIT_12)
        assert v.witness_min_eig <= CHOLESKY_MARGIN
        assert v.status is Verdict.INCONCLUSIVE
        # a little white noise lifts the minimum to 2.5e-11, which certifies
        noisy = 1e-10 * np.eye(4) / 4 + (1 - 1e-10) * classically_correlated_pair().matrix
        v = ppt_verdict(DensityOperator(noisy, (2, 2)), SPLIT_12)
        assert v.witness_min_eig > CHOLESKY_MARGIN
        assert v.status is Verdict.SEPARABLE_CERTIFIED

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

    def test_nan_minimum_is_refused(self):
        with pytest.raises(ValueError, match="^partial-transpose minimum is NaN$"):
            ppt_status(math.nan, (2, 2), VERDICT_TOL)

    def test_negative_tolerance_does_not_make_a_positive_minimum_entangled(self):
        with pytest.raises(ValueError, match="tolerance must be finite and nonnegative"):
            ppt_status(0.5, (2, 2), -1.0)


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
        # at the float 1/3 the exact 1 - 3 lambda is +5.6e-17, inside the
        # margin, so no float minimum proves it; 3.3e-11 below, one does
        v = is_eb(depolarizing(1 / 3, 2))
        assert 0 <= v.witness_min_eig <= CHOLESKY_MARGIN
        assert v.status is Verdict.INCONCLUSIVE
        v = is_eb(depolarizing(0.3333333333, 2))
        assert v.witness_min_eig == pytest.approx(2.5e-11, rel=1e-4)
        assert v.status is Verdict.SEPARABLE_CERTIFIED

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
        v = two_lea_verdict_depolarizing(TWO_LEA_EDGE)
        assert v.status is Verdict.SEPARABLE_CERTIFIED
        # one float above, at 1 / np.sqrt(3), exact 1 - 3 lambda^2 < 0
        past = math.nextafter(TWO_LEA_EDGE, 1)
        assert past == 1 / np.sqrt(3)
        assert two_lea_verdict_depolarizing(past).status is Verdict.INCONCLUSIVE

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


def float_steps(x, n):
    """The float ``n`` steps above ``x`` (below it for a negative ``n``)."""
    for _ in range(abs(n)):
        x = math.nextafter(x, math.copysign(math.inf, n))
    return x


# 1 - 3 lambda (Werner) and 1 - 3 lambda^2 (pair) at lambda = p/q, times q and q^2
EXACT_SIGNS = {
    "eb": (EB_EDGE, lambda p, q: q - 3 * p),
    "two_lea": (TWO_LEA_EDGE, lambda p, q: q * q - 3 * p * p),
}


class TestExactEdges:
    """Each closed-form verdict certifies at lambda <= its edge, the largest
    float at which the exact closed form is nonnegative; proved here in
    integers from ``float.as_integer_ratio``."""

    @pytest.mark.parametrize("name", sorted(EXACT_SIGNS))
    def test_edge_is_the_largest_float_with_a_nonnegative_exact_sign(self, name):
        edge, sign = EXACT_SIGNS[name]
        assert sign(*edge.as_integer_ratio()) >= 0
        assert sign(*math.nextafter(edge, 1).as_integer_ratio()) < 0

    @pytest.mark.parametrize("tol", [1e-9, 0.2])
    def test_one_float_past_each_edge_is_inconclusive(self, tol):
        # there the exact closed form is negative, its float within the
        # tolerance; the floats are named without the edges' constants
        third, root = 1 / 3, 1 / math.sqrt(3)
        lams = [third, math.nextafter(third, 1), math.nextafter(root, 0), root]
        _, mu2, _, eb, v2, veb, _ = _sweep_columns(lams, tol)
        assert veb[:2] == ["SeparableCertified", "Inconclusive"]
        assert v2[2:] == ["SeparableCertified", "Inconclusive"]
        assert -tol <= eb[1] < 0 and -tol <= mu2[3] < 0

    def test_edges_bound_the_float_thresholds(self):
        assert EB_EDGE == 1 / 3
        assert math.nextafter(TWO_LEA_EDGE, 1) == 1 / math.sqrt(3)

    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(
            st.floats(0.0, 1.0),
            st.tuples(st.sampled_from([EB_EDGE, TWO_LEA_EDGE]), st.integers(-40, 40)).map(
                lambda edge_n: float_steps(*edge_n)
            ),
        ),
        st.floats(0.0, 1.0),
    )
    def test_a_certificate_implies_a_nonnegative_exact_sign(self, lam, tol):
        exact = Fraction(lam)
        pair_ok, werner_ok = 1 - 3 * exact**2 >= 0, 1 - 3 * exact >= 0
        v = two_lea_verdict_depolarizing(lam, tol=tol)
        certified = v.status is Verdict.SEPARABLE_CERTIFIED
        assert certified == (pair_ok and v.witness_min_eig >= -tol)
        _, mu2, _, eb, v2, veb, v3 = (column[0] for column in _sweep_columns([lam], tol))
        assert (v2 == "SeparableCertified") == (pair_ok and mu2 >= -tol)
        assert (veb == "SeparableCertified") == (werner_ok and eb >= -tol)
        assert v3 != "SeparableCertified"

    def test_tolerance_band_past_the_edge_is_inconclusive(self):
        # exact 1 - 3 lambda^2 is negative here, though the minimum is within tol
        v = two_lea_verdict_depolarizing(1 / math.sqrt(3) + 5e-10)
        assert -VERDICT_TOL <= v.witness_min_eig < 0
        assert v.status is Verdict.INCONCLUSIVE
        lams = [0.5773502695, 0.5773502696, 0.5773502697]
        _, mu2, _, _, v2, _, _ = _sweep_columns(lams, VERDICT_TOL)
        assert all(-VERDICT_TOL <= low < 0 for low in mu2)
        assert v2 == ["Inconclusive"] * 3


@st.composite
def boundary_states(draw):
    """Real float density matrices at 2x2, 2x3 and 3x2 whose PT minimum lies
    within about 1e-10 of zero, on either side: a real pure state mixed with
    the maximally mixed state at the weight that puts the minimum there."""
    dims = draw(st.sampled_from([(2, 2), (2, 3), (3, 2)]))
    d = dims[0] * dims[1]
    amp = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=d, max_size=d)))
    if np.linalg.norm(amp) < 0.1:
        amp[0] = 1.0
    p = np.outer(amp, amp) / (amp @ amp)
    mu = np.linalg.eigvalsh(partial_transpose(p, dims, (1,)))[0]
    offset = draw(st.floats(-2e-11, 1e-10))
    x = min(1.0, (1 / d - offset) / (1 / d - mu))
    return DensityOperator(x * p + (1 - x) * np.eye(d) / d, dims)


class TestMarginCertificates:
    """A float minimum certifies separability only above ``CHOLESKY_MARGIN``,
    and ``tol`` decides only Entangled: each case below was certified, or
    accepted, while the exact sign was negative."""

    @pytest.mark.parametrize("tol", [0.0, VERDICT_TOL, 1.0])
    @pytest.mark.parametrize("blocks", [(2, 2), (3, 2)])
    def test_tolerance_never_widens_a_certificate(self, blocks, tol):
        assert ppt_status(CHOLESKY_MARGIN, blocks, tol) is Verdict.INCONCLUSIVE
        above = math.nextafter(CHOLESKY_MARGIN, 1.0)
        assert ppt_status(above, blocks, tol) is Verdict.SEPARABLE_CERTIFIED

    def test_is_eb_past_one_third_is_inconclusive(self):
        # exact 1 - 3 lambda is negative; the minimum is within VERDICT_TOL
        lam = 1 / 3 + 3e-10
        assert 1 - 3 * Fraction(lam) < 0
        v = is_eb(depolarizing(lam, 2))
        assert -VERDICT_TOL < v.witness_min_eig < 0
        assert v.status is Verdict.INCONCLUSIVE

    def test_ppt_verdict_past_one_third_is_inconclusive(self):
        v = ppt_verdict(werner(1 / 3 + 3e-10), SPLIT_12)
        assert -VERDICT_TOL < v.witness_min_eig < 0
        assert v.status is Verdict.INCONCLUSIVE

    def test_mixing_threshold_in_the_band_is_not_degenerate(self):
        # minimum -1.5e-10: the threshold is 1/(1 + 6e-10 + 4e-12), not 1
        res = separable_mixing_threshold(werner(1 / 3 + 2e-10))
        assert not res.degenerate_bracket
        assert res.critical_value == pytest.approx(0.99999999940, abs=1e-11)
        # at the float 1/3 the exact minimum, +1.4e-17, lies inside the margin
        res = separable_mixing_threshold(werner(1 / 3))
        assert not res.degenerate_bracket
        assert 1 - 5e-12 < res.critical_value < 1

    def test_mixing_channel_with_entangled_outputs_is_refused(self):
        # its output for the maximally entangled input has PT minimum -1.25e-10
        with pytest.raises(ValueError, match=(
            r"^largest effect eigenvalue 0\.9999999999 must stay below the "
            r"separable mixing threshold 0\.999999999396$"
        )):
            ea_mixing_channel((1 - 1e-10) * np.eye(4), werner(1 / 3 + 2e-10))

    @settings(max_examples=60, deadline=None)
    @given(boundary_states(), st.sampled_from([0.0, VERDICT_TOL, 0.05]))
    def test_a_ppt_certificate_implies_exact_positive_definiteness(self, rho, tol):
        v = ppt_verdict(rho, SPLIT_12, tol=tol)
        if v.status is Verdict.SEPARABLE_CERTIFIED:
            assert exact_pt_positive_definite(*exact_parts(rho.matrix), rho.dims)

    @settings(max_examples=60, deadline=None)
    @given(
        st.one_of(
            st.floats(1 / 3 - 1e-10, 1 / 3 + 1e-10),
            st.integers(-64, 64).map(lambda n: float_steps(EB_EDGE, n)),
        ),
        st.sampled_from([0.0, VERDICT_TOL, 0.05]),
    )
    def test_an_eb_certificate_implies_exact_positive_definiteness(self, lam, tol):
        single = depolarizing(lam, 2)
        if is_eb(single, tol=tol).status is Verdict.SEPARABLE_CERTIFIED:
            assert exact_pt_positive_definite(*exact_choi_parts(single.kraus), (2, 2))


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

    def test_a_witness_below_the_tolerance_is_not_entangled(self):
        # just below 1/sqrt(3) the lowest PT eigenvalue, (1 - 3 lambda^2)/4,
        # is about 8.7e-11: positive, and within VERDICT_TOL of zero
        v = two_lea_verdict_heuristic(depolarizing(1 / math.sqrt(3) - 1e-10, 2))
        assert 0 < v.witness_min_eig < VERDICT_TOL
        assert v.status is Verdict.INCONCLUSIVE

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
        message = (
            "restarts=65535, a stack of 65537 two-qubit density matrices, needs "
            "16777472 bytes"
        )
        with pytest.raises(ValueError, match=message):
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


def pair_maps():
    """Depolarizing channels and seeded random channels of Kraus rank 1-4."""
    singles = [depolarizing(lam, 2) for lam in (0.0, 0.3, 1 / math.sqrt(3), 1.0)]
    singles += [random_channel(2, kraus_rank=1 + i % 4, seed=i) for i in range(12)]
    return singles


def random_operators(n, rng):
    """``n`` random complex 4x4 matrices, neither Hermitian nor of unit trace."""
    return rng.standard_normal((n, 4, 4)) + 1j * rng.standard_normal((n, 4, 4))


class TestPairPtMap:
    """The see-saw's 16x16 map L(X) = [(E ox E)(X)]^Gamma and its adjoint."""

    @pytest.mark.parametrize("single", pair_maps())
    def test_matches_the_materialized_pair_channel(self, single):
        m, _ = _pair_pt_map(single)
        pair = tensor(single, single).kraus
        for x in random_operators(8, np.random.default_rng(0)):
            # apply's sum over the pair's Kraus operators, on a matrix apply
            # would refuse as a state
            out = (pair @ x @ pair.conj().transpose(0, 2, 1)).sum(axis=0)
            expected = partial_transpose(out, (2, 2), (1,))
            got = (x.reshape(1, 16) @ m).reshape(4, 4)
            assert np.max(np.abs(got - expected)) < 1e-14

    @pytest.mark.parametrize("single", pair_maps())
    def test_adjoint_identity(self, single):
        # <Y, L(X)> = <L^dag(Y), X> in the Hilbert-Schmidt inner product
        m, m_adjoint = _pair_pt_map(single)
        rng = np.random.default_rng(1)
        for x, y in zip(random_operators(8, rng), random_operators(8, rng)):
            forward = np.vdot(y, (x.reshape(1, 16) @ m).reshape(4, 4))
            backward = np.vdot((y.reshape(1, 16) @ m_adjoint).reshape(4, 4), x)
            assert abs(forward - backward) < 1e-13

    @pytest.mark.parametrize("single", pair_maps()[::3])
    def test_stacked_rows_are_the_one_row_products_byte_for_byte(self, single):
        # a start's bits must not depend on how many starts are still live
        rng = np.random.default_rng(2)
        for mat in _pair_pt_map(single):
            for size in range(1, 35):
                stack = random_operators(size, rng)
                rows = _pair_map_rows(stack, mat)
                for x, row in zip(stack, rows):
                    assert row.tobytes() == (x.reshape(1, 16) @ mat).reshape(4, 4).tobytes()

    def test_one_map_per_call(self, monkeypatch):
        # the map is built once, and the witness is the one other partial
        # transpose: none per round
        calls = []
        original = ealab.criteria.partial_transpose

        def counting(*args):
            calls.append(1)
            return original(*args)

        monkeypatch.setattr(ealab.criteria, "partial_transpose", counting)
        two_lea_verdict_heuristic(random_channel(2, kraus_rank=2, seed=1), restarts=4)
        assert len(calls) == 2


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

    @pytest.mark.parametrize("bracket", [(-1.0, math.inf), (-math.inf, 1.0), (math.nan, 1.0)])
    def test_infinite_endpoint_rejected_before_any_call(self, bracket):
        def crit(x):
            raise AssertionError(f"criterion called at {x!r}")

        with pytest.raises(
            ValueError, match=rf"^bracket endpoints must be finite, got \({bracket[0]}, {bracket[1]}\)$"
        ):
            bisect_threshold(crit, bracket)

    @pytest.mark.parametrize("bracket", [(0.0,), (0.0, 0.5, 1.0)])
    def test_bracket_of_other_than_two_endpoints_rejected(self, bracket):
        with pytest.raises(ValueError, match=r"^bracket must be two endpoints \(lo, hi\), got "):
            bisect_threshold(lambda x: x - 0.3, bracket)

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

    def test_zero_tolerance_stops_at_adjacent_floats(self):
        # the bracket stops shrinking after about 55 halvings; the cap makes a
        # loop that never stops fail at once instead of hanging
        calls = []

        def crit(lam):
            calls.append(lam)
            if len(calls) > 64:
                raise AssertionError(f"{len(calls)} criterion calls")
            return eb_min_eig_depolarizing(lam)

        res = bisect_threshold(crit, (0.1, 0.6), tol=0.0)
        lo, hi = res.bracket
        assert hi == np.nextafter(lo, math.inf)
        assert eb_min_eig_depolarizing(lo) * eb_min_eig_depolarizing(hi) < 0

    def test_sign_change_across_final_bracket(self):
        res = bisect_threshold(ghz_three_lea_min_eig, (0.3, 0.9), tol=1e-9)
        lo, hi = res.bracket
        assert ghz_three_lea_min_eig(lo) * ghz_three_lea_min_eig(hi) <= 0


class TestSeparableMixingThreshold:
    def test_max_entangled_gives_one_third(self):
        omega = max_entangled(2).density()
        res = separable_mixing_threshold(omega)
        # the computed minimum less the margin, a proven bound on the exact -1/2
        bound = ppt_min_eigenvalue(omega, SPLIT_12) - CHOLESKY_MARGIN
        assert res.critical_value == 1.0 / (1.0 - 4.0 * bound)
        assert 0 < 1 / 3 - res.critical_value < 1e-12
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
        # a minimum that a NaN or infinite tolerance would certify separable
        "ppt_status": lambda tol: ppt_status(-0.5, (2, 2), tol),
        "ppt_verdict": lambda tol: ppt_verdict(werner(0.5), SPLIT_12, tol=tol),
        "is_eb": lambda tol: is_eb(identity_channel(2), tol=tol),
        "two_lea_depolarizing": lambda tol: two_lea_verdict_depolarizing(0.5, tol=tol),
        "two_lea_heuristic": lambda tol: two_lea_verdict_heuristic(
            depolarizing(0.5, 2), restarts=1, tol=tol
        ),
        "k_lea_falsify": lambda tol: k_lea_falsify(depolarizing(0.5, 2), 2, budget=2, tol=tol),
        "ea_falsify": lambda tol: ea_falsify(identity_channel(4), (2, 2), budget=2, tol=tol),
        "bisect": lambda tol: bisect_threshold(lambda x: x - 0.3, (0.0, 1.0), tol),
        "sweep_columns": lambda tol: _sweep_columns([0.5], tol),
        # checked by ppt_status whatever the grid, so an empty one is rejected too
        "sweep_columns_empty_grid": lambda tol: _sweep_columns([], tol),
    }

    @pytest.mark.parametrize("tol", BAD_TOLERANCES)
    @pytest.mark.parametrize("name", sorted(CALLS))
    def test_bad_tolerance_rejected(self, name, tol):
        with pytest.raises(ValueError, match="tolerance must be finite and nonnegative"):
            self.CALLS[name](tol)

    @pytest.mark.parametrize("name", sorted(CALLS))
    def test_zero_tolerance_accepted(self, name):
        self.CALLS[name](0.0)

    @pytest.mark.parametrize("grid", [[2.0], [0.5, 2.0]])
    def test_lambda_checked_before_tolerance(self, grid):
        with pytest.raises(ValueError, match="^lambda must lie in"):
            two_lea_verdict_depolarizing(grid[-1], tol=math.nan)
        with pytest.raises(ValueError, match="^depolarizing parameter must lie in"):
            _sweep_columns(grid, math.nan)

    @pytest.mark.parametrize("name", ["ppt_verdict", "is_eb"])
    def test_tolerance_checked_before_any_work(self, name, monkeypatch):
        # once, is_eb(depolarizing(0.5, 8), tol=None) built and eigensolved
        # the 64x64 Choi operator before it raised
        single = depolarizing(0.5, 8)
        choi = choi_of(single)

        def forbidden(label):
            def call(*args, **kwargs):
                raise AssertionError(f"{label} ran before the tolerance check")
            return call

        monkeypatch.setattr(ealab.criteria, "_lowest_eigenvalues", forbidden("an eigensolve"))
        monkeypatch.setattr(ealab.criteria, "choi_of", forbidden("choi_of"))
        call = {
            "ppt_verdict": lambda: ppt_verdict(choi, SPLIT_12, tol=None),
            "is_eb": lambda: is_eb(single, tol=None),
        }[name]
        with pytest.raises(ValueError, match="^tolerance must be a real number"):
            call()

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
