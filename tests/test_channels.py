"""Tests for channel construction, algebra, and representations."""

import tracemalloc

import numpy as np
import pytest

import ealab.channels
from ealab import (
    Channel,
    DensityOperator,
    MeasurePrepare,
    apply,
    apply_local,
    channel_from_choi,
    channel_from_spec,
    choi_of,
    classically_correlated_pair,
    compose,
    constant_channel,
    depolarizing,
    ghz,
    identity_channel,
    kron,
    max_entangled,
    max_entangled_projector,
    measure_prepare_channel,
    permute_factors,
    random_channel,
    random_density,
    schmidt_pure,
    tensor,
    tensor_power,
    werner,
)
from ealab.channels import choi_from_kraus, kraus_from_choi, matrix_from_json, matrix_to_json
from helpers import (
    apply_via_choi,
    choi_via_outer_products,
    random_measure_prepare,
    random_state_matrix,
    random_unitary,
)


def basis_unit(i, j, d=2):
    m = np.zeros((d, d), dtype=complex)
    m[i, j] = 1.0
    return m


def channels_equal(a, b, atol=1e-10):
    """Equality as maps, via the Choi representation."""
    return np.max(np.abs(choi_of(a).matrix - choi_of(b).matrix)) < atol


class TestChannelType:
    def test_rejects_empty_kraus(self):
        with pytest.raises(ValueError):
            Channel(())

    def test_rejects_non_trace_preserving(self):
        with pytest.raises(ValueError, match="trace preservation"):
            Channel((np.eye(2) * 0.5,))

    def test_rejects_nan_entry(self):
        k = np.eye(2, dtype=complex)
        k[1, 0] = np.nan
        with pytest.raises(ValueError, match="trace preservation"):
            Channel((k,))

    def test_rejects_mixed_shapes(self):
        with pytest.raises(ValueError):
            Channel((np.eye(2), np.eye(3)))

    def test_dims_inferred(self):
        e = identity_channel(3)
        assert (e.in_dim, e.out_dim) == (3, 3)

    @pytest.mark.parametrize(
        "kraus, message",
        [
            ((), "at least one Kraus operator"),
            (np.zeros((0, 2, 2)), "at least one Kraus operator"),
            ((np.eye(2), np.eye(3)), "share one"),
            ((np.eye(2), np.zeros((2, 3))), "share one"),
            ((np.ones(2),), "share one"),
            (np.eye(2), "share one"),
            (np.zeros((1, 1, 2, 2)), "share one"),
            (np.zeros((1, 2, 0)), "share one nonempty"),
            (np.zeros((1, 0, 0)), "share one nonempty"),
        ],
    )
    def test_rejection_messages(self, kraus, message):
        with pytest.raises(ValueError, match=message):
            Channel(kraus)

    @pytest.mark.parametrize(
        "kraus, name", [(5, "int"), (None, "NoneType"), (0.5, "float"), (np.array(1.0), "ndarray")]
    )
    def test_a_value_without_a_length_is_named(self, kraus, name):
        with pytest.raises(
            ValueError, match=f"^Kraus operators must be a stack of matrices, got {name}$"
        ):
            Channel(kraus)

    @pytest.mark.parametrize(
        "kraus, message",
        [
            ((), "a channel needs at least one Kraus operator"),
            ((np.eye(2), np.eye(3)), "Kraus operators must share one nonempty (out, in) shape"),
        ],
    )
    def test_empty_and_ragged_messages_are_exact(self, kraus, message):
        with pytest.raises(ValueError) as info:
            Channel(kraus)
        assert str(info.value) == message

    def test_trace_check_spans_several_blocks(self):
        # 901 operators of 30 x 30: the Gram sum runs over several row blocks
        kraus = depolarizing(0.5, 30).kraus
        with pytest.raises(ValueError, match="trace preservation"):
            Channel(kraus * (1 + 1e-8))
        bad = kraus.copy()
        bad[-1, -1, -1] += 1e-8
        with pytest.raises(ValueError, match="trace preservation"):
            Channel(bad)

    def test_writeable_input_is_copied(self):
        ops = np.eye(2, dtype=complex)[None].copy()
        e = Channel(ops)
        ops[0, 0, 0] = 5.0
        assert e.kraus[0, 0, 0] == 1.0
        assert not e.kraus.flags.writeable

    def test_frozen_input_is_kept(self):
        ops = np.eye(2, dtype=complex)[None].copy()
        ops.setflags(write=False)
        assert Channel(ops).kraus is ops
        view = ops[:1]
        assert Channel(view).kraus is not view


def assert_kraus_stack(e, d_out, d_in, n=None):
    """``e.kraus`` is one read-only complex stack of shape (n, d_out, d_in)."""
    k = e.kraus
    assert isinstance(k, np.ndarray)
    assert k.dtype == complex
    assert k.ndim == 3 and k.shape[1:] == (d_out, d_in)
    assert (e.out_dim, e.in_dim) == (d_out, d_in)
    if n is not None:
        assert k.shape[0] == n
    assert not k.flags.writeable
    with pytest.raises(ValueError):
        k[0, 0, 0] = 0.0


class TestKrausStack:
    def test_tuple_list_and_array_inputs_agree(self):
        ops = random_channel(2, d_out=3, kraus_rank=2, seed=3).kraus
        built = [Channel(tuple(ops)), Channel(list(ops)), Channel(np.array(ops))]
        for e in built:
            assert_kraus_stack(e, 3, 2, n=2)
            assert np.array_equal(e.kraus, ops)

    def test_input_array_is_copied_not_frozen(self):
        ops = np.eye(2, dtype=complex)[None].copy()
        e = Channel(ops)
        ops[0, 0, 0] = 5.0
        assert ops.flags.writeable
        assert e.kraus[0, 0, 0] == 1.0

    def test_real_operators_become_complex(self):
        assert_kraus_stack(Channel([np.eye(2)]), 2, 2, n=1)

    @pytest.mark.parametrize(
        "lam, d, n",
        [(0.0, 2, 4), (0.5, 2, 5), (1.0, 2, 1), (0.4, 3, 10), (-0.2, 2, 4), (-0.1, 3, 9)],
    )
    def test_depolarizing(self, lam, d, n):
        e = depolarizing(lam, d, allow_extended=lam < 0)
        assert_kraus_stack(e, d, d, n=n)

    def test_random_channel_blocks_are_the_isometry(self):
        e = random_channel(2, d_out=3, kraus_rank=4, seed=8)
        assert_kraus_stack(e, 3, 2, n=4)
        isometry = e.kraus.reshape(12, 2)
        assert np.allclose(isometry.conj().T @ isometry, np.eye(2), atol=1e-12)

    def test_choi_and_measure_prepare_routes(self):
        assert_kraus_stack(channel_from_choi(choi_of(random_channel(2, seed=4))), 2, 2)
        assert_kraus_stack(measure_prepare_channel(random_measure_prepare(2, (3,), 3, 5)), 3, 2)
        assert_kraus_stack(constant_channel(werner(0.3)), 4, 4)

    def test_algebra(self):
        a, b = depolarizing(0.5, 2), random_channel(2, kraus_rank=2, seed=6)
        assert_kraus_stack(compose(a, b), 2, 2, n=10)
        assert_kraus_stack(tensor(a, b), 4, 4, n=10)
        assert_kraus_stack(tensor_power(b, 3), 8, 8, n=8)

    def test_specs_of_every_kind(self):
        ref = random_channel(2, kraus_rank=2, seed=9)
        specs = [
            {"kind": "depolarizing", "lambda": 0.5, "d": 2},
            {"kind": "kraus", "ops": [matrix_to_json(k) for k in ref.kraus]},
            {"kind": "choi", "out_dim": 2, "in_dim": 2,
             "matrix": matrix_to_json(choi_of(ref).matrix)},
            {"kind": "measure_prepare", "povm": [matrix_to_json(np.eye(2))],
             "prepares": [matrix_to_json(np.eye(2) / 2)]},
        ]
        for spec in specs:
            assert_kraus_stack(channel_from_spec(spec), 2, 2)


class TestEigensolvesPerConstruction:
    """A Choi operator built from validated parts is eigensolved once."""

    @pytest.fixture
    def eig_calls(self, monkeypatch):
        calls = {"eigvalsh": 0, "eigh": 0}
        for name in calls:
            original = getattr(np.linalg, name)

            def counted(a, *args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        return calls

    def test_constant_channel(self, eig_calls):
        omega = werner(0.3)
        eig_calls.update(eigvalsh=0, eigh=0)
        constant_channel(omega)
        # a Cholesky proves the effect positive; then the Choi eigendecomposition
        assert eig_calls == {"eigvalsh": 0, "eigh": 1}

    def test_extended_depolarizing(self, eig_calls):
        depolarizing(-0.2, 2, allow_extended=True)
        assert eig_calls == {"eigvalsh": 0, "eigh": 1}

    def test_outside_choi_is_still_checked(self, eig_calls):
        omega = choi_of(depolarizing(0.5, 2))
        eig_calls.update(eigvalsh=0, eigh=0)
        channel_from_choi(omega)
        assert eig_calls == {"eigvalsh": 0, "eigh": 1}
        with pytest.raises(ValueError, match="not a channel"):
            channel_from_choi(DensityOperator(np.diag([1.0, 0, 0, 0]), (2, 2)))


class TestDepolarizing:
    def test_full_strength_is_identity(self):
        assert channels_equal(depolarizing(1.0, 2), identity_channel(2))

    def test_zero_strength_contracts_to_mixture(self):
        e = depolarizing(0.0, 2)
        for seed in range(3):
            rho = random_density((2,), rank=2, seed=seed)
            assert np.allclose(apply(e, rho).matrix, np.eye(2) / 2)

    @pytest.mark.parametrize("lam", [0.0, 0.25, 1 / 3, 0.5, 1.0])
    def test_choi_is_werner(self, lam):
        diff = np.abs(choi_of(depolarizing(lam, 2)).matrix - werner(lam, 2).matrix)
        assert np.max(diff) < 1e-12

    @pytest.mark.parametrize("d", [1, 0])
    def test_dimension_below_2_rejected(self, d):
        with pytest.raises(ValueError, match="d >= 2"):
            depolarizing(0.5, d, allow_extended=True)

    @pytest.mark.parametrize("d", [64, 100, 10**6])
    @pytest.mark.parametrize("extended", [False, True])
    def test_dimension_bounded_before_allocation(self, d, extended):
        # d^2 + 1 operators of d x d stay within TENSOR_POWER_MAX_BYTES up to d = 63
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="byte bound"):
                depolarizing(0.5, d, allow_extended=extended)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2**20

    def test_peak_memory_near_the_kraus_stack(self):
        # the stack is filled in place and handed to Channel without a copy,
        # and the trace-preservation check conjugates one block at a time
        tracemalloc.start()
        try:
            e = depolarizing(0.5, 30)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert e.kraus.shape == (901, 30, 30)
        assert peak <= 2 * e.kraus.nbytes

    def test_default_range(self):
        with pytest.raises(ValueError):
            depolarizing(-0.1, 2)
        with pytest.raises(ValueError):
            depolarizing(1.1, 2)

    @pytest.mark.parametrize(
        "lam, d, extended, message",
        [
            (1.5, 2, False, "[0, 1], got 1.5"),
            (-0.1, 2, False, "[0, 1], got -0.1"),
            (-0.4, 2, True, "[-0.333333, 1], got -0.4"),
            (float("nan"), 3, True, "[-0.125, 1], got nan"),
        ],
        ids=["above-1", "below-0", "below-extended", "nan-extended"],
    )
    def test_range_message(self, lam, d, extended, message):
        with pytest.raises(ValueError) as exc:
            depolarizing(lam, d, allow_extended=extended)
        assert str(exc.value) == f"depolarizing parameter must lie in {message}"

    def test_extended_range(self):
        e = depolarizing(-1 / 3, 2, allow_extended=True)
        rho = random_density((2,), rank=2, seed=0)
        out = apply(e, rho)
        assert np.trace(out.matrix) == pytest.approx(1.0)
        with pytest.raises(ValueError):
            depolarizing(-0.4, 2, allow_extended=True)

    def test_action_formula(self):
        rng = np.random.default_rng(0)
        lam = 0.37
        e = depolarizing(lam, 3)
        rho = random_state_matrix(3, rng)
        expected = lam * rho + (1 - lam) * np.eye(3) / 3
        got = apply(e, DensityOperator(rho, (3,))).matrix
        assert np.max(np.abs(got - expected)) < 1e-12

    def test_unitary_covariance(self):
        rng = np.random.default_rng(1)
        e = depolarizing(0.6, 2)
        for _ in range(5):
            u = random_unitary(2, rng)
            rho = random_state_matrix(2, rng)
            left = apply(e, DensityOperator(u @ rho @ u.conj().T, (2,))).matrix
            right = u @ apply(e, DensityOperator(rho, (2,))).matrix @ u.conj().T
            assert np.max(np.abs(left - right)) < 1e-10


class TestApply:
    def test_identity_channel(self):
        rho = random_density((2, 2), rank=3, seed=2)
        assert np.allclose(apply(identity_channel(4), rho).matrix, rho.matrix)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            apply(identity_channel(2), random_density((2, 2), rank=1, seed=0))

    @pytest.mark.parametrize("act", [apply, apply_local])
    def test_a_bare_matrix_is_not_a_state(self, act):
        with pytest.raises(
            ValueError, match="^expected a PureState or a DensityOperator, got ndarray$"
        ):
            act(depolarizing(0.5), np.eye(2) / 2)

    def test_pure_state_input(self):
        pair = tensor_power(depolarizing(0.5, 2), 2)
        out = apply(pair, max_entangled(2))
        assert out.dims == (2, 2)
        assert np.trace(out.matrix) == pytest.approx(1.0)

    @pytest.mark.parametrize("lam", [0.2, 0.7])
    @pytest.mark.parametrize("q0", [0.1, 0.5, 0.9])
    def test_depolarized_pair_matches_display(self, lam, q0):
        # the locally depolarized Schmidt pair in the computational basis
        q1 = 1 - q0
        lp, lm = 1 + lam, 1 - lam
        cross = lam * lam * np.sqrt(q0 * q1)
        expected = 0.25 * np.array(
            [
                [lm**2 + 4 * lam * q0, 0, 0, 4 * cross],
                [0, lp * lm, 0, 0],
                [0, 0, lp * lm, 0],
                [4 * cross, 0, 0, lm**2 + 4 * lam * q1],
            ]
        )
        pair = tensor_power(depolarizing(lam, 2), 2)
        got = apply(pair, schmidt_pure(q0)).matrix
        assert np.max(np.abs(got - expected)) < 1e-12

    def test_trace_and_positivity_preserved(self):
        # DensityOperator construction re-validates PSD and unit trace
        e = random_channel(4, seed=3)
        for seed in range(100):
            rho = random_density((2, 2), rank=2, seed=(4, seed))
            out = apply(e, rho)
            assert abs(np.trace(out.matrix) - 1.0) < 1e-10

    def test_choi_route_agrees(self):
        # independent application route through the Choi operator
        e = random_channel(3, seed=5)
        omega = choi_of(e)
        for seed in range(5):
            rho = random_density((3,), rank=2, seed=(6, seed)).matrix
            direct = sum(k @ rho @ k.conj().T for k in e.kraus)
            via_choi = apply_via_choi(omega, rho)
            assert np.max(np.abs(direct - via_choi)) < 1e-10


# Channels of every Kraus-stack shape: rank 1 and full rank on a qubit and a
# qutrit, a dimension-changing channel and a stack of 125 operators.
STACK_SHAPES = {
    "qubit-rank-1": lambda: random_channel(2, kraus_rank=1, seed=1),
    "qubit-full-rank": lambda: random_channel(2, seed=2),
    "qutrit-rank-1": lambda: random_channel(3, kraus_rank=1, seed=3),
    "qutrit-full-rank": lambda: random_channel(3, seed=4),
    "2-to-3": lambda: random_channel(2, 3, kraus_rank=2, seed=5),
    "depolarizing-cubed": lambda: tensor_power(depolarizing(0.4, 2), 3),
}


class TestStackedConsumers:
    """apply, choi_from_kraus and compose each act on the whole Kraus stack."""

    @pytest.mark.parametrize("build", STACK_SHAPES.values(), ids=STACK_SHAPES.keys())
    def test_apply_matches_choi_route(self, build):
        e = build()
        rho = random_state_matrix(e.in_dim, np.random.default_rng(e.in_dim))
        out = apply(e, DensityOperator(rho, (e.in_dim,))).matrix
        assert np.max(np.abs(out - apply_via_choi(choi_of(e), rho))) < 1e-12

    def test_apply_of_large_identity(self):
        # the Choi route would hold 4096 x 4096 matrices; the identity's own
        # action is the reference
        rho = random_state_matrix(64, np.random.default_rng(64))
        out = apply(identity_channel(64), DensityOperator(rho, (64,))).matrix
        assert np.max(np.abs(out - rho)) < 1e-12

    @pytest.mark.parametrize("build", STACK_SHAPES.values(), ids=STACK_SHAPES.keys())
    def test_choi_matches_outer_product_sum(self, build):
        kraus = build().kraus
        reference = choi_via_outer_products(kraus)
        assert np.max(np.abs(choi_from_kraus(kraus) - reference)) < 1e-15

    @pytest.mark.parametrize(
        "e, f",
        [
            (random_channel(2, seed=13), depolarizing(0.3, 2)),
            (
                random_channel(3, 2, kraus_rank=3, seed=14),
                random_channel(2, 3, kraus_rank=2, seed=15),
            ),
        ],
        ids=["square", "rectangular"],
    )
    def test_compose_operator_order(self, e, f):
        stack = compose(e, f).kraus
        assert stack.shape == (len(e.kraus) * len(f.kraus), e.out_dim, f.in_dim)
        for i, ke in enumerate(e.kraus):
            for j, kf in enumerate(f.kraus):
                assert np.array_equal(stack[i * len(f.kraus) + j], ke @ kf)


class TestTensor:
    def test_tensor_power_of_identity(self):
        e = tensor_power(identity_channel(2), 3)
        rho = random_density((2, 2, 2), rank=2, seed=7)
        assert np.allclose(apply(e, rho).matrix, rho.matrix)

    def test_pair_expansion(self):
        # E ox E output written through the input and its marginals
        lam = 0.45
        pair = tensor_power(depolarizing(lam, 2), 2)
        rho = random_density((2, 2), rank=3, seed=8)
        out = apply(pair, rho).matrix
        r1 = rho.marginal((0,)).matrix
        r2 = rho.marginal((1,)).matrix
        eye = np.eye(2) / 2
        expected = (
            lam**2 * rho.matrix
            + (1 - lam) ** 2 * np.eye(4) / 4
            + lam * (1 - lam) * (kron(r1, eye) + kron(eye, r2))
        )
        assert np.max(np.abs(out - expected)) < 1e-12

    def test_ghz_triple_expansion(self):
        # three-party expansion; the identity coefficient follows from the
        # marginal terms (each pair marginal of GHZ is the classically
        # correlated state, each single marginal is maximally mixed)
        lam = 0.37
        triple = tensor_power(depolarizing(lam, 2), 3)
        out = apply(triple, ghz(3)).matrix
        rho = ghz(3).density().matrix
        theta = classically_correlated_pair().matrix
        eye2 = np.eye(2, dtype=complex)
        eye8 = np.eye(8, dtype=complex)
        t12 = kron(theta, eye2)
        t23 = kron(eye2, theta)
        t13 = permute_factors(kron(theta, eye2), (2, 2, 2), (0, 2, 1))
        expected = (
            lam**3 * rho
            + (1 - lam) ** 2 * (1 + 2 * lam) / 8 * eye8
            + 0.5 * lam**2 * (1 - lam) * (t12 + t13 + t23)
        )
        assert np.max(np.abs(out - expected)) < 1e-12

    def test_dimension_changing_factor(self):
        a, b = random_channel(2, 3, kraus_rank=2, seed=16), random_channel(2, seed=17)
        rho_a = random_density((2,), rank=2, seed=18)
        rho_b = random_density((2,), rank=2, seed=19)
        pair = DensityOperator(kron(rho_a.matrix, rho_b.matrix), (2, 2))
        joint = apply(tensor(a, b), pair)
        product = kron(apply(a, rho_a).matrix, apply(b, rho_b).matrix)
        assert np.max(np.abs(joint.matrix - product)) < 1e-14

    @pytest.mark.parametrize(
        "e, d_out",
        [
            (random_channel(2, 3, kraus_rank=2, seed=1), 3),
            (measure_prepare_channel(random_measure_prepare(2, (2, 2), 2, seed=0)), 4),
        ],
        ids=["2-to-3", "measure-prepare-into-2x2"],
    )
    def test_tensor_power_of_dimension_changing_channel(self, e, d_out):
        assert tensor_power(e, 2).kraus.shape == (len(e.kraus) ** 2, d_out**2, 4)

    def test_choi_of_tensor_is_reordered_product(self):
        a = depolarizing(0.3, 2)
        b = random_channel(2, seed=9)
        joint = choi_of(tensor(a, b)).matrix
        product = kron(choi_of(a).matrix, choi_of(b).matrix)
        # product order (out_a, in_a, out_b, in_b) -> (out_a, out_b, in_a, in_b)
        reordered = permute_factors(product, (2, 2, 2, 2), (0, 2, 1, 3))
        assert np.max(np.abs(joint - reordered)) < 1e-12


class TestCompose:
    def test_identity_neutral(self):
        f = random_channel(2, seed=10)
        assert channels_equal(compose(identity_channel(2), f), f)
        assert channels_equal(compose(f, identity_channel(2)), f)

    def test_depolarizing_semigroup(self):
        # oracle: direct formula substitution on the matrix units
        a, b = 0.6, 0.7
        composed = compose(depolarizing(a, 2), depolarizing(b, 2))
        for i in range(2):
            for j in range(2):
                unit = basis_unit(i, j)
                got = sum(k @ unit @ k.conj().T for k in composed.kraus)
                expected = a * b * unit + (1 - a * b) * np.trace(unit) * np.eye(2) / 2
                assert np.max(np.abs(got - expected)) < 1e-12

    def test_trace_preservation_survives(self):
        e = compose(random_channel(2, seed=11), random_channel(2, seed=12))
        acc = sum(k.conj().T @ k for k in e.kraus)
        assert np.max(np.abs(acc - np.eye(2))) < 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="compose"):
            compose(identity_channel(2), identity_channel(3))


class TestChoi:
    @pytest.mark.parametrize(
        "in_dim, out_dim, message",
        [
            (2.5, 2, "in_dim must be an integer, got 2.5"),
            ("2", 2, "in_dim must be an integer, got '2'"),
            (-2, -2, "in_dim must be at least 1, got -2"),
            (2, 0, "out_dim must be at least 1, got 0"),
            (3, 2, "in_dim 3 times out_dim 2 does not match a Choi matrix of dimension 4"),
        ],
        ids=["float", "str", "negative", "zero", "mismatch"],
    )
    def test_kraus_from_choi_checks_its_dimensions(self, in_dim, out_dim, message, monkeypatch):
        # refused before the eigensolve, so numpy never warns or reshapes
        def eigh(*args):
            raise AssertionError("eigensolved")

        omega = werner(0.5).matrix
        monkeypatch.setattr(ealab.channels.np.linalg, "eigh", eigh)
        with pytest.raises(ValueError) as exc:
            kraus_from_choi(omega, in_dim, out_dim)
        assert str(exc.value) == message

    def test_identity_choi_is_max_entangled(self):
        assert np.allclose(choi_of(identity_channel(2)).matrix, max_entangled_projector(2))

    def test_contraction_choi_is_product_mixture(self):
        assert np.allclose(choi_of(depolarizing(0.0, 2)).matrix, np.eye(4) / 4)

    def test_choi_marginal_is_maximally_mixed(self):
        e = random_channel(3, seed=13)
        omega = choi_of(e)
        assert np.allclose(omega.marginal((1,)).matrix, np.eye(3) / 3, atol=1e-10)

    def test_round_trip_werner(self):
        omega = werner(0.4, 2)
        rebuilt = choi_of(channel_from_choi(omega))
        assert np.max(np.abs(rebuilt.matrix - omega.matrix)) < 1e-10

    @pytest.mark.parametrize("seed", [14, 15, 16])
    def test_round_trip_random(self, seed):
        e = random_channel(2, seed=seed)
        omega = choi_of(e)
        rebuilt = choi_of(channel_from_choi(omega))
        assert np.max(np.abs(rebuilt.matrix - omega.matrix)) < 1e-10

    def test_round_trip_named_channels(self):
        for e in (identity_channel(2), depolarizing(0.3, 2)):
            omega = choi_of(e)
            assert channels_equal(channel_from_choi(omega), e)

    def test_channel_from_max_entangled_is_identity(self):
        e = channel_from_choi(DensityOperator(max_entangled_projector(2), (2, 2)))
        assert channels_equal(e, identity_channel(2))

    def test_random_choi_reconstruction_gives_valid_outputs(self):
        e = channel_from_choi(choi_of(random_channel(2, seed=17)))
        for seed in range(5):
            rho = random_density((2,), rank=2, seed=(18, seed))
            out = apply(e, rho)
            assert abs(np.trace(out.matrix) - 1.0) < 1e-10

    def test_rejects_choi_without_two_factors(self):
        with pytest.raises(ValueError, match=r"^Choi operator needs dims \(out, in\), got \(2, 2, 2\)$"):
            channel_from_choi(DensityOperator(np.eye(8) / 8, (2, 2, 2)))

    @pytest.mark.parametrize(
        "kraus",
        [np.eye(2), 5, [], None, np.empty((0, 2, 2)), [np.eye(2), np.eye(3)]],
        ids=["matrix", "number", "empty-list", "none", "empty-stack", "ragged"],
    )
    def test_choi_from_kraus_refuses_what_is_not_a_stack(self, kraus):
        with pytest.raises(
            ValueError, match=r"^Kraus operators must share one nonempty \(out, in\) shape$"
        ):
            choi_from_kraus(kraus)

    def test_rejects_non_channel_choi(self):
        # valid state, but its output marginal is not maximally mixed
        skew = DensityOperator(np.diag([0.7, 0.1, 0.1, 0.1]), (2, 2))
        with pytest.raises(ValueError, match="not a channel"):
            channel_from_choi(skew)


def projective_measure_prepare(seed):
    """Qutrit measurement {|v><v|, I - |v><v|}: both effects rank-deficient."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    proj = np.outer(v, v.conj()) / np.vdot(v, v).real
    prepares = tuple(random_density((2,), rank=2, seed=(seed, j)) for j in range(2))
    return MeasurePrepare((proj, np.eye(3) - proj), prepares)


class TestMeasurePrepare:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: random_measure_prepare(2, (2,), 3, seed=1),
            lambda: random_measure_prepare(3, (3,), 3, seed=2),
            lambda: random_measure_prepare(2, (2, 2), 3, seed=3),
            lambda: projective_measure_prepare(4),
        ],
        ids=["qubit", "qutrit", "qubit-to-pair", "rank-deficient-effects"],
    )
    def test_action_and_minimal_kraus_set(self, build):
        mp = build()
        e = measure_prepare_channel(mp)
        d_in, d_out = mp.povm[0].shape[0], mp.prepares[0].dim
        assert len(e.kraus) <= d_in * d_out
        for seed in range(3):
            rho = random_density((d_in,), rank=d_in, seed=(30, seed))
            expected = sum(
                np.trace(rho.matrix @ f) * prep.matrix
                for f, prep in zip(mp.povm, mp.prepares)
            )
            assert np.max(np.abs(apply(e, rho).matrix - expected)) <= 1e-12

    def test_trivial_povm_gives_contraction(self):
        mp = MeasurePrepare(
            (np.eye(2),), (DensityOperator(np.eye(2) / 2, (2,)),)
        )
        assert channels_equal(measure_prepare_channel(mp), depolarizing(0.0, 2))

    def test_dephasing_choi_is_diagonal(self):
        # oracle: direct 4x4 construction, (1/2) sum_j rho_j ox F_j^T
        mp = MeasurePrepare(
            (np.diag([1.0, 0.0]), np.diag([0.0, 1.0])),
            (
                DensityOperator(np.diag([1.0, 0.0]), (2,)),
                DensityOperator(np.diag([0.0, 1.0]), (2,)),
            ),
        )
        omega = choi_of(measure_prepare_channel(mp))
        assert np.allclose(omega.matrix, np.diag([0.5, 0.0, 0.0, 0.5]))

    def test_constant_channel(self):
        target = random_density((2, 2), rank=2, seed=19)
        e = constant_channel(target)
        for seed in range(3):
            rho = random_density((2, 2), rank=3, seed=(20, seed))
            assert np.max(np.abs(apply(e, rho).matrix - target.matrix)) < 1e-10

    @pytest.mark.parametrize(
        "povm, prepares, message",
        [
            ((np.eye(2),), (), "need matching nonempty POVM and prepare lists"),
            ((), (), "need matching nonempty POVM and prepare lists"),
            ((np.eye(2), np.eye(3)), ("half", "half"), "POVM effects must share one dimension"),
            ((np.diag([1.0, 0.0]), np.diag([0.0, 1.0])), ("half", "third"),
             "prepared states must share one dimension"),
        ],
        ids=["unmatched", "empty", "effect-sizes", "prepare-sizes"],
    )
    def test_shape_messages(self, povm, prepares, message):
        states = {
            "half": DensityOperator(np.eye(2) / 2, (2,)),
            "third": DensityOperator(np.eye(3) / 3, (3,)),
        }
        with pytest.raises(ValueError) as exc:
            MeasurePrepare(povm, tuple(states[p] for p in prepares))
        assert str(exc.value) == message

    def test_povm_must_sum_to_identity(self):
        with pytest.raises(ValueError, match="sum to the identity"):
            MeasurePrepare(
                (np.diag([1.0, 0.0]),), (DensityOperator(np.eye(2) / 2, (2,)),)
            )

    @pytest.mark.parametrize("entry", [(0, 0), (0, 1)])
    def test_povm_rejects_nan(self, entry):
        effect = np.diag([1.0, 0.0]).astype(complex)
        effect[entry] = np.nan
        with pytest.raises(ValueError):
            MeasurePrepare(
                (effect, np.diag([0.0, 1.0])),
                (
                    DensityOperator(np.eye(2) / 2, (2,)),
                    DensityOperator(np.eye(2) / 2, (2,)),
                ),
            )

    def test_povm_must_be_positive(self):
        with pytest.raises(ValueError, match="positive semidefinite"):
            MeasurePrepare(
                (np.diag([1.5, 1.0]), np.diag([-0.5, 0.0])),
                (
                    DensityOperator(np.eye(2) / 2, (2,)),
                    DensityOperator(np.eye(2) / 2, (2,)),
                ),
            )


class TestRandomChannel:
    def test_determinism(self):
        a = random_channel(2, seed=21)
        b = random_channel(2, seed=21)
        assert channels_equal(a, b, atol=1e-14)

    def test_rectangular(self):
        e = random_channel(2, d_out=3, seed=22)
        assert (e.in_dim, e.out_dim) == (2, 3)
        out = apply(e, random_density((2,), rank=1, seed=23))
        assert out.dims == (3,)


class TestBuilderBounds:
    """``random_channel``, ``identity_channel`` and ``constant_channel``
    refuse an array past ``TENSOR_POWER_MAX_BYTES`` before allocating it."""

    HALF = DensityOperator(np.eye(2) / 2, (2,))
    # each call with the bytes of its largest array, which are those of its
    # Kraus stack, and the name it is refused under: a 2->2 isometry of rank
    # 4 holds 16 entries, the identity of dimension 4 one 4x4 operator, and
    # a qubit constant channel on a qutrit a 6x6 Choi matrix
    BUILDS = {
        "random_channel": (
            lambda: random_channel(2), 256, "a random 2->2 channel with 4 Kraus operators"
        ),
        "identity_channel": (
            lambda: identity_channel(4), 256, "an identity channel of dimension 4"
        ),
        "constant_channel": (
            lambda: constant_channel(TestBuilderBounds.HALF, 3),
            576,
            "a constant channel with a 6x6 Choi matrix",
        ),
    }

    @pytest.mark.parametrize("name", sorted(BUILDS))
    def test_bound_is_exact(self, name, monkeypatch):
        build, n, what = self.BUILDS[name]
        monkeypatch.setattr(ealab.channels, "TENSOR_POWER_MAX_BYTES", n)
        assert build().kraus.nbytes == n
        monkeypatch.setattr(ealab.channels, "TENSOR_POWER_MAX_BYTES", n - 1)
        with pytest.raises(ValueError) as exc:
            build()
        assert str(exc.value) == f"{what} needs {n} bytes, above the {n - 1}-byte bound"

    def test_huge_requests_are_refused_before_allocating(self):
        # computed, not run: 1.6 GB of Gaussians before a QR, a 160 GB
        # identity, and a 6.4 GB Choi matrix then eigensolved
        builds = (
            lambda: random_channel(100),
            lambda: identity_channel(10**5),
            lambda: constant_channel(self.HALF, 10**4),
        )
        tracemalloc.start()
        try:
            for build in builds:
                with pytest.raises(ValueError, match="above the 268435456-byte bound"):
                    build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestJsonSpecs:
    def test_matrix_round_trip(self):
        rng = np.random.default_rng(24)
        m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        assert np.allclose(matrix_from_json(matrix_to_json(m)), m)

    def test_depolarizing_kind(self):
        e = channel_from_spec({"kind": "depolarizing", "lambda": 0.5, "d": 2})
        assert channels_equal(e, depolarizing(0.5, 2))

    def test_kraus_kind(self):
        ref = depolarizing(0.3, 2)
        spec = {"kind": "kraus", "ops": [matrix_to_json(k) for k in ref.kraus]}
        assert channels_equal(channel_from_spec(spec), ref)

    def test_choi_kind(self):
        ref = depolarizing(0.7, 2)
        spec = {
            "kind": "choi",
            "out_dim": 2,
            "in_dim": 2,
            "matrix": matrix_to_json(choi_of(ref).matrix),
        }
        assert channels_equal(channel_from_spec(spec), ref)

    def test_measure_prepare_kind(self):
        spec = {
            "kind": "measure_prepare",
            "povm": [matrix_to_json(np.eye(2))],
            "prepares": [matrix_to_json(np.eye(2) / 2)],
        }
        assert channels_equal(channel_from_spec(spec), depolarizing(0.0, 2))

    @pytest.mark.parametrize("extra", [{}, {"prepare_dims": None}, {"prepare_dims": []}])
    def test_absent_prepare_dims_is_one_factor_per_state(self, extra):
        spec = {"kind": "measure_prepare", "povm": [matrix_to_json(np.eye(2))],
                "prepares": [matrix_to_json(np.eye(4) / 4)], **extra}
        assert channel_from_spec(spec).out_dim == 4

    @pytest.mark.parametrize(
        "spec, unknown",
        [
            ({"kind": "depolarizing", "lambda": 0.3, "D": 4}, "'D'"),
            ({"kind": "depolarizing", "lambda": 0.3, "d": 2, "ops": [], "Lambda": 1},
             "'Lambda', 'ops'"),
            ({"kind": "kraus", "ops": [matrix_to_json(np.eye(2))], "d": 2}, "'d'"),
            ({"kind": "choi", "out_dim": 2, "in_dim": 2,
              "matrix": matrix_to_json(np.eye(4) / 4), "dims": [2, 2]}, "'dims'"),
            ({"kind": "measure_prepare", "povm": [matrix_to_json(np.eye(2))],
              "prepares": [matrix_to_json(np.eye(2) / 2)], "prepare_dim": [2]}, "'prepare_dim'"),
        ],
    )
    def test_unknown_field_rejected_by_name(self, spec, unknown):
        # a misspelled field is refused, not ignored for the kind's default
        with pytest.raises(ValueError) as exc:
            channel_from_spec(spec)
        assert str(exc.value) == f"{spec['kind']} description has unknown field(s) {unknown}"

    @pytest.mark.parametrize("kind", [["depolarizing"], {"a": 1}, None, 2])
    def test_unhashable_or_non_string_kind_is_unknown(self, kind):
        with pytest.raises(ValueError) as exc:
            channel_from_spec({"kind": kind, "lambda": 0.5})
        assert str(exc.value) == f"unknown channel kind {kind!r}"

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown channel kind"):
            channel_from_spec({"kind": "mystery"})

    @pytest.mark.parametrize(
        "spec, message",
        [
            ([{"kind": "depolarizing"}], "channel description must be an object with a 'kind' field"),
            ({"lambda": 0.5}, "channel description must be an object with a 'kind' field"),
            ({"kind": "depolarizing", "d": 2}, "depolarizing description needs a 'lambda' field"),
            ({"kind": "kraus", "ops": []}, "kraus description needs a nonempty 'ops' list"),
            ({"kind": "kraus"}, "kraus description needs a nonempty 'ops' list"),
            ({"kind": "choi", "out_dim": 2, "in_dim": 2}, "choi description needs a 'matrix' field"),
            ({"kind": "choi", "in_dim": 2, "matrix": matrix_to_json(np.eye(4) / 4)},
             "choi description needs a 'out_dim' field"),
            ({"kind": "measure_prepare", "povm": [matrix_to_json(np.eye(2))]},
             "measure_prepare description needs 'povm' and 'prepares' lists"),
            ({"kind": "measure_prepare", "povm": [], "prepares": [matrix_to_json(np.eye(2) / 2)]},
             "measure_prepare description needs 'povm' and 'prepares' lists"),
            # matrix entries are JSON numbers: no string or bool is coerced
            ({"kind": "kraus", "ops": [[[["1", "0"], ["0", "0"]], [["0", "0"], [True, False]]]]},
             "malformed matrix entry: expected a number, got '1'"),
            ({"kind": "kraus", "ops": [[[[1, 0], [0, 0]], [[0, 0], [True, False]]]]},
             "malformed matrix entry: expected a number, got True"),
            ({"kind": "choi", "out_dim": 2, "in_dim": 2,
              "matrix": [[[x, "0"] for x in row] for row in np.eye(4) / 4]},
             "malformed matrix entry: expected a number, got '0'"),
            ({"kind": "measure_prepare", "povm": [[[[1, 0], [0, 0]], [[0, 0], [1, False]]]],
              "prepares": [matrix_to_json(np.eye(2) / 2)]},
             "malformed matrix entry: expected a number, got False"),
            ({"kind": "kraus", "ops": [[[[10**400, 0]]]]},
             "malformed matrix entry: int too large to convert to float"),
            # the shape and finiteness messages stand as they were
            ({"kind": "kraus", "ops": [[["1", "0"], ["0", "1"]]]},
             "matrices must be nested row-major arrays of [re, im] pairs"),
            ({"kind": "kraus", "ops": [[[[float("nan"), 0]]]]},
             "matrix entries must be finite numbers, got NaN or an infinity"),
        ] + [
            # only a missing, null or empty prepare_dims means one factor per state
            ({"kind": "measure_prepare", "povm": [matrix_to_json(np.eye(2))],
              "prepares": [matrix_to_json(np.eye(2) / 2)], "prepare_dims": dims},
             f"field 'prepare_dims' has the wrong type or value: "
             f"expected a list of integers, got {dims!r}")
            for dims in (False, 0, "", {}, "2")
        ] + [
            # the matrix lists are JSON arrays: no string or object is
            # read as a list of its characters or keys
            ({"kind": "kraus", "ops": "ab"},
             "field 'ops' has the wrong type or value: expected a list, got 'ab'"),
            ({"kind": "kraus", "ops": {}},
             "field 'ops' has the wrong type or value: expected a list, got {}"),
            ({"kind": "kraus", "ops": 3},
             "field 'ops' has the wrong type or value: expected a list, got 3"),
            ({"kind": "measure_prepare", "povm": "ab",
              "prepares": [matrix_to_json(np.eye(2) / 2)]},
             "field 'povm' has the wrong type or value: expected a list, got 'ab'"),
            ({"kind": "measure_prepare", "povm": [matrix_to_json(np.eye(2))],
              "prepares": {"a": 1}},
             "field 'prepares' has the wrong type or value: expected a list, got {'a': 1}"),
        ],
        ids=["not-an-object", "no-kind", "no-lambda", "empty-ops", "no-ops", "choi-no-matrix",
             "choi-no-out_dim", "no-prepares", "empty-povm", "kraus-string-entries",
             "kraus-bool-entry", "choi-string-entries", "povm-bool-entry", "entry-past-float",
             "pairs-of-strings-unnested", "nan-entry", "prepare-dims-false", "prepare-dims-0",
             "prepare-dims-empty-string", "prepare-dims-object", "prepare-dims-string",
             "ops-string", "ops-object", "ops-number", "povm-string", "prepares-object"],
    )
    def test_incomplete_description_is_named(self, spec, message):
        with pytest.raises(ValueError) as exc:
            channel_from_spec(spec)
        assert str(exc.value) == message

    def test_non_tp_kraus_rejected(self):
        spec = {"kind": "kraus", "ops": [matrix_to_json(np.eye(2) * 0.5)]}
        with pytest.raises(ValueError, match="trace preservation"):
            channel_from_spec(spec)

    def test_malformed_matrix_rejected(self):
        with pytest.raises(ValueError, match="matri"):
            channel_from_spec({"kind": "kraus", "ops": [[[1.0, 0.0], [0.0, 1.0]]]})
