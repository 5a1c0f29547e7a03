"""Channels: application, u.c.p. validation, the three duals, fixed points."""

import json
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from balance_lab.channels import (
    QuantumChannel,
    ReversingOperation,
    _kms_flip,
    _like,
    apply,
    change_frame,
    channel_from_kraus,
    compose_channels,
    constant_channel,
    dual,
    fixed_point_space,
    identity_channel,
    kms_dual,
    theta_kms_dual,
    validate_ucp,
)
import balance_lab.balance as balance
import balance_lab.kernel as kernel
import balance_lab.lindblad as lindblad
from balance_lab.balance import kms_symmetry_flip_check
from balance_lab.couplings import coupling_from_channel, extract_channel
from balance_lab.kernel import ad_superop, frob_distance, matrix_unit, nullspace, vec
from balance_lab.lindblad import (
    build_generator,
    cycle_generator,
    dual_generator,
    kms_dual_generator,
    semigroup,
    theta_kms_dual_generator,
)
from balance_lab.states import System, gns_vector, new_faithful_state, state_preservation_residual

from conftest import (
    GENERIC7,
    assert_relative_close,
    channel_from_function,
    dual_reference,
    dual_superop_oracle,
    new_coupling,
    preserving_generator,
    probe_like_triples,
    random_matrix,
    random_state_vector,
    reversing_validate_loop,
    state_preservation_residual_reference,
    swapped,
    theta_conjugate_oracle,
    theta_kms_dual_oracle,
    transpose_superop,
)


def pinching_channel(n):
    return channel_from_kraus([matrix_unit(n, i, i) for i in range(n)])


def scenario_channel(t=0.7, k=(0.3, 0.6), g=(0.0,) * 7):
    return semigroup(cycle_generator((3, 4), list(k), list(g)), t)


def scenario_state():
    return new_faithful_state([0.15] * 3 + [0.1375] * 4)


def scenario_generator():
    return cycle_generator((3, 4), [0.3, 0.6], [0.1, 0.2, 0.3, -0.1, -0.2, -0.3, 0.4])


def two_to_three_channel():
    """The channel extracted from a coupling of a qubit and a qutrit state:
    half an entangled vector on the first two qutrit levels, half a product."""
    pa, pb = np.array([0.35, 0.65]), np.array([0.2, 0.3, 0.5])
    om = np.zeros(6, dtype=complex)
    om[[0, 4]] = np.sqrt(pa)  # e_0 (x) e_0 and e_1 (x) e_1
    kappa = 0.5 * np.outer(om, om) + 0.5 * np.kron(np.diag(pa), np.diag(pb))
    sa = new_faithful_state(pa)
    sb = new_faithful_state(0.5 * np.array([pa[0], pa[1], 0.0]) + 0.5 * pb)
    return extract_channel(new_coupling(kappa, sa, sb)), sa, sb


def phase_theta(n, seed=0):
    """Reversing operation a -> u a^T u* with diagonal phases u: u conj(u) = 1,
    and it fixes every diagonal state."""
    phases = np.exp(1j * np.random.default_rng(seed).uniform(0.0, 2 * np.pi, n))
    return ReversingOperation(dim=n, unitary=np.diag(phases))


class TestApply:
    def test_identity(self):
        a = random_matrix(3, seed=1)
        assert_allclose(apply(identity_channel(3), a), a)

    def test_constant_unital(self):
        s = new_faithful_state(random_state_vector(3, seed=2))
        assert_allclose(apply(constant_channel(s), np.eye(3)), np.eye(3), atol=1e-14)

    def test_pinching_kills_offdiagonal(self):
        # oracle: direct Kraus evaluation sum_i E_ii a E_ii
        ch = pinching_channel(2)
        a = matrix_unit(2, 0, 1)
        oracle = sum(
            matrix_unit(2, i, i) @ a @ matrix_unit(2, i, i) for i in range(2)
        )
        assert_allclose(apply(ch, a), oracle)
        assert_allclose(apply(ch, a), np.zeros((2, 2)))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            apply(identity_channel(2), np.eye(3))


class TestValidateUcp:
    def test_identity(self):
        rep = validate_ucp(identity_channel(3))
        assert rep.cp and rep.unital

    def test_transpose_not_cp(self):
        ch = channel_from_function(lambda a: a.T, 2, 2)
        rep = validate_ucp(ch)
        assert not rep.cp
        assert rep.choi_min_eig == pytest.approx(-1.0, abs=1e-12)
        assert rep.unital

    def test_scenario_semigroup_member(self):
        rep = validate_ucp(scenario_channel(0.7))
        assert rep.cp and rep.unital


class TestDual:
    def test_identity(self):
        s = new_faithful_state(random_state_vector(3, seed=3))
        d = dual(identity_channel(3), s, s)
        assert_allclose(d.superoperator, np.eye(9), atol=1e-13)

    def test_involution_on_scenario_channel(self):
        s = scenario_state()
        ch = scenario_channel()
        dd = dual(dual(ch, s, s), s, s)
        assert frob_distance(dd.superoperator, ch.superoperator) <= 1e-9

    def test_against_linear_system_oracle(self):
        s = new_faithful_state(random_state_vector(3, seed=4))
        ch = pinching_channel(3)
        got = dual(ch, s, s).superoperator
        oracle = dual_superop_oracle(ch.superoperator, s, s)
        assert_allclose(got, oracle, atol=1e-10)

    def test_unital_and_state_preserving(self):
        s = scenario_state()
        d = dual(scenario_channel(), s, s)
        assert validate_ucp(d).ucp
        assert state_preservation_residual(d, s, s) <= 1e-9

    def test_faithfulness_gram_full_rank(self):
        s = scenario_state()
        d = dual(scenario_channel(), s, s)
        n = 7
        units = [matrix_unit(n, i, j) for i in range(n) for j in range(n)]
        gram = np.array(
            [
                [np.trace(s.rho @ apply(d, u.conj().T @ v)) for v in units]
                for u in units
            ]
        )
        assert np.linalg.eigvalsh((gram + gram.conj().T) / 2).min() > 1e-12

    def test_rejects_non_state_preserving(self):
        s = new_faithful_state([0.2, 0.8])
        swap = channel_from_function(lambda a: a[::-1, ::-1].copy(), 2, 2)
        with pytest.raises(ValueError, match="dual undefined"):
            dual(swap, s, s)

    def test_commutant_conjugation_identity(self):
        # dual(T o eta o T) = T o dual(eta) o T, checked on matrix units
        s = new_faithful_state(random_state_vector(3, seed=6))
        ch = pinching_channel(3)
        t = transpose_superop(3)
        conj = QuantumChannel(dim_in=3, dim_out=3, superoperator=t @ ch.superoperator @ t)
        lhs = dual(conj, s, s).superoperator
        rhs = t @ dual(ch, s, s).superoperator @ t
        assert_allclose(lhs, rhs, atol=1e-12)


class TestKmsDual:
    def test_tracial_is_hs_adjoint(self):
        s = new_faithful_state([1 / 3] * 3)
        ch = pinching_channel(3)
        d = kms_dual(ch, s, s)
        assert_allclose(d.superoperator, ch.superoperator.conj().T, atol=1e-12)

    def test_involution(self):
        s = scenario_state()
        ch = scenario_channel()
        dd = kms_dual(kms_dual(ch, s, s), s, s)
        assert frob_distance(dd.superoperator, ch.superoperator) <= 1e-9

    def test_identity(self):
        s = new_faithful_state(random_state_vector(4, seed=7))
        assert_allclose(kms_dual(identity_channel(4), s, s).superoperator, np.eye(16), atol=1e-12)

    def test_state_preserving_same_state(self):
        s = scenario_state()
        d = kms_dual(scenario_channel(), s, s)
        assert state_preservation_residual(d, s, s) <= 1e-9


class TestReversingOperation:
    def test_transpose_validates(self):
        th = ReversingOperation(dim=3)
        assert th.validate()

    def test_phase_unitary_validates(self):
        u = np.diag(np.exp(1j * np.array([0.3, -1.2, 2.0])))
        th = ReversingOperation(dim=3, unitary=u)
        assert th.validate()

    def test_rejects_non_involutive_unitary(self):
        # a generic unitary with u conj(u) != 1 cannot reverse twice to identity
        rng = np.random.default_rng(0)
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
        with pytest.raises(ValueError, match="square to the identity"):
            ReversingOperation(dim=3, unitary=q)

    def test_rejects_non_unitary(self):
        # 2 * 1 is involutive up to a scalar but not antimultiplicative
        with pytest.raises(ValueError, match="square to the identity"):
            ReversingOperation(dim=3, unitary=2.0 * np.eye(3))

    def test_spin_flip_theta_kms_dual(self):
        # sigma_y + sigma_y (u conj(u) = -1) constructs and fixes every
        # p = (a, a, b, b); against the dense Theta o kms_dual o Theta
        s = new_faithful_state([0.3, 0.3, 0.2, 0.2])
        th = ReversingOperation(dim=4, unitary=np.kron(np.eye(2), [[0.0, -1j], [1j, 0.0]]))
        assert th.compatible_with(s)
        gen = preserving_generator(s, seed=4)
        for dyn, got in (
            (gen, theta_kms_dual_generator(gen, s, th)),
            (semigroup(gen, 0.7), theta_kms_dual(semigroup(gen, 0.7), s, th)),
        ):
            assert_relative_close(got.superoperator, theta_kms_dual_oracle(dyn, s, th))
            assert frob_distance(got.superoperator, dual(dyn, s, s).superoperator) > 1e-3

    def test_state_compatibility(self):
        th = ReversingOperation(dim=2)
        assert th.compatible_with(new_faithful_state([0.3, 0.7]))

    @pytest.mark.parametrize("n", [2, 3, 6])
    def test_validate_rejects_mutated_superoperators(self, n):
        """validate judges the unitary: each mutant that a unitary can
        express, set after construction, fails, and the unmutated operations
        pass.  (Ad_u o j is antimultiplicative for every unitary u, so no
        reversing operation holds a multiplicative map such as the
        identity.)"""
        assert ReversingOperation(dim=n).validate()
        # Ad_u o transpose with u conj(u) != +-1 is antimultiplicative and
        # *-preserving, but not involutive
        u = np.eye(n, dtype=complex)
        u[:2, :2] = [[0.0, 1.0], [1j, 0.0]]
        assert not np.allclose(u @ u.conj(), np.eye(n))
        th = phase_theta(n)
        assert th.validate()
        assert not swapped(th, u).validate()
        # a -> D a^T D with D = diag(2, ..., 1/2), not unitary, is
        # *-preserving, but neither antimultiplicative nor involutive
        th = swapped(ReversingOperation(dim=n), np.diag(np.geomspace(2.0, 0.5, n)))
        x, y = random_matrix(n, seed=1), random_matrix(n, seed=2)
        assert_allclose(th.apply(x.conj().T), th.apply(x).conj().T, atol=1e-12)
        assert not np.allclose(th.apply(x @ y), th.apply(y) @ th.apply(x))
        assert not np.allclose(th.apply(th.apply(x)), x)
        assert not th.validate()
        assert not reversing_validate_loop(th)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
    def test_rejects_non_finite_unitary(self, bad):
        u = np.eye(3, dtype=complex)
        u[1, 2] = bad
        with pytest.raises(ValueError, match="square to the identity"):
            ReversingOperation(dim=3, unitary=u)

    @pytest.mark.parametrize("u", [
        np.kron(np.eye(2), [[0.0, -1j], [1j, 0.0]]),
        np.diag(np.exp(1j * np.array([0.4, -1.1, 2.5, 0.2]))),
    ], ids=["sigma-y-sum", "phases-4"])
    def test_global_phase_keeps_theta_kms_dual(self, u):
        """Ad_(e^(i phi) u) = Ad_u: a global phase of the unitary leaves the
        Theta-KMS-dual as it is, to rounding."""
        s = new_faithful_state([0.3, 0.3, 0.2, 0.2])
        gen = preserving_generator(s, seed=4)
        ch = semigroup(gen, 0.7)
        th = ReversingOperation(dim=4, unitary=u)
        for phi in (0.7, -2.1, np.pi):
            turned = ReversingOperation(dim=4, unitary=np.exp(1j * phi) * u)
            for got, want in (
                (theta_kms_dual_generator(gen, s, turned), theta_kms_dual_generator(gen, s, th)),
                (theta_kms_dual(ch, s, turned), theta_kms_dual(ch, s, th)),
            ):
                assert frob_distance(got.superoperator, want.superoperator) <= 1e-12

    def test_construction_allocates_no_superoperator(self):
        """Building a Theta with a phase unitary at n = 48 stays under 1 MB
        of allocation: its n^2 x n^2 superoperator alone would be 85 MB."""
        u = np.diag(np.exp(1j * np.linspace(-3.0, 3.0, 48)))
        tracemalloc.start()
        try:
            ReversingOperation(dim=48, unitary=u)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1e6


class TestThetaKmsDual:
    def test_involution(self):
        s = scenario_state()
        th = ReversingOperation(dim=7)
        ch = scenario_channel()
        dd = theta_kms_dual(theta_kms_dual(ch, s, th), s, th)
        assert frob_distance(dd.superoperator, ch.superoperator) <= 1e-9

    def test_identity(self):
        s = new_faithful_state(random_state_vector(3, seed=8))
        th = ReversingOperation(dim=3)
        assert_allclose(
            theta_kms_dual(identity_channel(3), s, th).superoperator,
            np.eye(9),
            atol=1e-12,
        )

    def test_transpose_theta_equals_dual(self):
        # with transposition as the reversing operation, the Theta-KMS-dual of
        # a semigroup member is its plain dual
        s = scenario_state()
        th = ReversingOperation(dim=7)
        ch = scenario_channel()
        lhs = theta_kms_dual(ch, s, th).superoperator
        rhs = dual(ch, s, s).superoperator
        assert frob_distance(lhs, rhs) <= 1e-10

    def test_incompatible_state(self):
        th = ReversingOperation(dim=2, unitary=np.array([[0.0, 1.0], [1.0, 0.0]]))
        s = new_faithful_state([0.3, 0.7])
        with pytest.raises(ValueError, match="incompatible"):
            theta_kms_dual(identity_channel(2), s, th)


class TestCompose:
    def test_identity_neutral(self):
        ch = pinching_channel(3)
        got = compose_channels(ch, identity_channel(3))
        assert_allclose(got.superoperator, ch.superoperator)

    def test_two_pinchings(self):
        # oracle: Kraus composition E_ii E_jj = delta_ij E_ii
        ch = pinching_channel(2)
        composed = compose_channels(ch, ch)
        assert_allclose(composed.superoperator, ch.superoperator, atol=1e-14)

    def test_state_preservation_composes(self):
        s = scenario_state()
        f = scenario_channel(0.5)
        g = scenario_channel(1.1, k=(0.45, 0.25))
        assert state_preservation_residual(compose_channels(f, g), s, s) <= 1e-9

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            compose_channels(identity_channel(2), identity_channel(3))


class TestFixedPoints:
    def test_identity_channel_full(self):
        assert len(fixed_point_space(identity_channel(2))) == 4

    def test_constant_channel_scalars(self):
        s = new_faithful_state(random_state_vector(3, seed=9))
        basis = fixed_point_space(constant_channel(s))
        assert len(basis) == 1

    def test_two_cycle_generator_contains_block_projections(self):
        gen = cycle_generator((3, 4), [0.3, 0.6])
        p1 = np.diag([1.0] * 3 + [0.0] * 4).astype(complex)
        p2 = np.eye(7) - p1
        # oracle: the generator annihilates both block projections
        for p in (p1, p2):
            assert np.linalg.norm(gen.superoperator @ vec(p)) <= 1e-12
        basis = fixed_point_space(gen)
        flat = np.stack([vec(b) for b in basis])
        for p in (p1, p2):
            coeffs = flat.conj() @ vec(p)
            assert np.linalg.norm(vec(p) - flat.T @ coeffs) <= 1e-9

    def test_generator_split_is_not_scanned_again(self, monkeypatch):
        gens = [sys.dynamics for t in probe_like_triples() for sys in (t.system_a, t.system_b)]
        gens.append(cycle_generator((3, 4), [0.3, 0.6]))
        refs = [nullspace(gen.superoperator) for gen in gens]
        for gen in gens:
            gen.invariant_blocks  # the one scan, held by the generator

        def no_scan(*args):
            raise AssertionError("the held split was scanned again")

        # the split is read off the held pattern (lindblad._blocks), which
        # a scan (_factor) would rebuild
        monkeypatch.setattr(kernel, "_invariant_blocks", no_scan)
        for name in ("_blocks", "_factor"):
            monkeypatch.setattr(lindblad, name, no_scan)
        for gen, ref in zip(gens, refs):
            got = fixed_point_space(gen)
            assert len(got) == len(ref) >= 1
            assert all(vec(b).tobytes() == v.tobytes() for b, v in zip(got, ref))


class TestDualCore:
    """The KMS flip is an index permutation and the Theta-KMS-dual of plain
    transposition is the dual; both must agree bit for bit with the dense
    commutation-matrix products they replace."""

    def test_kms_flip_matches_transpose_products(self):
        s = scenario_state()
        ch, gen = scenario_channel(), scenario_generator()
        ch23, sa, sb = two_to_three_channel()
        cases = [
            (dual(ch, s, s), kms_dual(ch, s, s), s, s),
            (dual(ch23, sa, sb), kms_dual(ch23, sa, sb), sa, sb),
            (dual_generator(gen, s), kms_dual_generator(gen, s), s, s),
        ]
        for d, k, s_in, s_out in cases:
            t_in, t_out = transpose_superop(s_in.dim), transpose_superop(s_out.dim)
            assert np.array_equal(k.superoperator, t_in @ d.superoperator @ t_out)

    def test_two_to_three_kms_dual_shape(self):
        ch, sa, sb = two_to_three_channel()
        k = kms_dual(ch, sa, sb)
        assert (k.dim_in, k.dim_out) == (3, 2)
        assert state_preservation_residual(k, sb, sa) <= 1e-12

    def test_transpose_theta_is_dual_bit_for_bit(self):
        s = scenario_state()
        th = ReversingOperation(dim=7)
        ch, gen = scenario_channel(), scenario_generator()
        assert np.array_equal(
            theta_kms_dual(ch, s, th).superoperator, dual(ch, s, s).superoperator
        )
        assert np.array_equal(
            theta_kms_dual_generator(gen, s, th).superoperator,
            dual_generator(gen, s).superoperator,
        )

    def test_unitary_theta_channel(self):
        s = scenario_state()
        th = phase_theta(7)
        assert th.validate() and th.compatible_with(s)
        ch = scenario_channel()
        d = dual(ch, s, s).superoperator
        got = theta_kms_dual(ch, s, th)
        assert_relative_close(got.superoperator, theta_kms_dual_oracle(ch, s, th))
        # a genuine change against plain transposition, and still an involution
        assert frob_distance(got.superoperator, d) > 1e-3
        twice = theta_kms_dual(got, s, th)
        assert frob_distance(twice.superoperator, ch.superoperator) <= 1e-9

    def test_unitary_theta_generator(self):
        s = scenario_state()
        th = phase_theta(7, seed=1)
        gen = scenario_generator()
        d = dual_generator(gen, s).superoperator
        got = theta_kms_dual_generator(gen, s, th)
        assert_relative_close(got.superoperator, theta_kms_dual_oracle(gen, s, th))
        assert frob_distance(got.superoperator, d) > 1e-3
        twice = theta_kms_dual_generator(got, s, th)
        assert frob_distance(twice.superoperator, gen.superoperator) <= 1e-9


def theta_cases():
    """(reversing operation, compatible state, generic state-preserving
    generator) for plain transposition and the unitary reversing operations
    of these tests: diagonal phases on 7 and 3 levels and the 2 x 2 swap
    (TestDualCore checks the phases of phase_theta(7))."""
    s7, s3, s2 = scenario_state(), new_faithful_state([1 / 3] * 3), new_faithful_state([0.5] * 2)
    gen3 = cycle_generator((3,), [0.3], [0.1, 0.5, -0.4])
    v = random_matrix(2, seed=40)
    gen2 = build_generator([v + v.conj().T], np.array([[0.3, 0.2 - 0.1j], [0.2 + 0.1j, -0.5]]))
    return {
        "transpose-7": (ReversingOperation(dim=7), s7, scenario_generator()),
        "generic-phases-7": (
            ReversingOperation(dim=7, unitary=np.diag(np.exp(1j * np.array(GENERIC7)))),
            s7,
            scenario_generator(),
        ),
        "phases-3": (
            ReversingOperation(dim=3, unitary=np.diag(np.exp(1j * np.array([0.3, -1.2, 2.0])))),
            s3,
            gen3,
        ),
        "swap-2": (ReversingOperation(dim=2, unitary=np.array([[0.0, 1.0], [1.0, 0.0]])), s2, gen2),
    }


def entangled_coupling(s, seed):
    """Half the entangled vector (u (x) 1) sum_i sqrt(p_i) e_i (x) e_i with
    random diagonal phases u, which commute with rho, half the product
    coupling."""
    u = phase_theta(s.dim, seed).unitary
    om = np.kron(u, np.eye(s.dim)) @ gns_vector(s)
    return new_coupling(0.5 * np.outer(om, om.conj()) + 0.5 * np.kron(s.rho, s.rho), s, s)


class TestThetaFrame:
    """The Theta-KMS-dual is the dual in the frame of Theta's unitary,
    change_frame(dual, conj(u), u*); it must match the dense
    Theta o (j o dual o j) o Theta it replaced, and be the dual itself for
    plain transposition."""

    @pytest.mark.parametrize("case", sorted(theta_cases()))
    def test_matches_dense_theta_conjugation(self, case):
        th, s, gen = theta_cases()[case]
        assert th.validate() and th.compatible_with(s)
        ch = semigroup(gen, 0.7)
        for dyn, got in (
            (ch, theta_kms_dual(ch, s, th)),
            (gen, theta_kms_dual_generator(gen, s, th)),
        ):
            assert got.kind == dyn.kind
            oracle = theta_kms_dual_oracle(dyn, s, th)
            if th.unitary is None:
                assert np.array_equal(got.superoperator, dual(dyn, s, s).superoperator)
                assert np.array_equal(got.superoperator, oracle)
            else:
                assert frob_distance(got.superoperator, dual(dyn, s, s).superoperator) > 1e-3
                assert_relative_close(got.superoperator, oracle)

    def test_error_label_follows_kind(self):
        # rotated, the generator preserves the state only to rounding
        u = unitary(3, seed=41)
        gen = change_frame(cycle_generator((3,), [0.3], [0.1, 0.5, -0.4]), u, u)
        s, th = new_faithful_state([1 / 3] * 3), ReversingOperation(dim=3)
        for label, dyn in (("dual generator", gen), ("dual", semigroup(gen, 0.7))):
            for build in (
                lambda: dual(dyn, s, s, 1e-18),
                lambda: kms_dual(dyn, s, s, 1e-18),
                lambda: theta_kms_dual(dyn, s, th, 1e-18),
            ):
                with pytest.raises(ValueError, match=f"^{label} undefined"):
                    build()

    @pytest.mark.parametrize("case", sorted(theta_cases()))
    def test_flip_check_conjugates_the_extracted_channel(self, case, monkeypatch):
        th, s, _ = theta_cases()[case]
        # identity dynamics are KMS-symmetric, so the Theta variant runs
        sys = System(state=s, dynamics=identity_channel(s.dim))
        w = entangled_coupling(s, seed=s.dim)
        seen = []

        def capture(e, *args, **kwargs):
            seen.append(e)
            return coupling_from_channel(e, *args, **kwargs)

        monkeypatch.setattr(balance, "coupling_from_channel", capture)
        rep = kms_symmetry_flip_check(sys, sys, w, th=th)
        assert rep.hypothesis_met and rep.theta_equivalent is not None
        (e_conj,) = seen
        oracle = theta_conjugate_oracle(th, extract_channel(w).superoperator)
        if th.unitary is None:
            assert np.array_equal(e_conj.superoperator, oracle)
        else:
            assert_relative_close(e_conj.superoperator, oracle)


def unitary(n, seed):
    q, _ = np.linalg.qr(random_matrix(n, seed=seed))
    return q


class TestChangeFrame:
    """change_frame(dyn, u_in, u_out) is Ad_{u_out*} o S o Ad_{u_in}."""

    def test_none_keeps_dynamics(self):
        ch, gen = scenario_channel(), scenario_generator()
        assert change_frame(ch) is ch
        assert change_frame(gen) is gen

    def test_acts_as_conjugation(self):
        ch, _, _ = two_to_three_channel()
        u_in, u_out = unitary(2, seed=30), unitary(3, seed=31)
        a = random_matrix(2, seed=32)
        expected = u_out.conj().T @ apply(ch, u_in @ a @ u_in.conj().T) @ u_out
        assert_allclose(apply(change_frame(ch, u_in, u_out), a), expected, atol=1e-12)
        only_in = apply(ch, u_in @ a @ u_in.conj().T)
        assert_allclose(apply(change_frame(ch, u_in=u_in), a), only_in, atol=1e-12)
        only_out = u_out.conj().T @ apply(ch, a) @ u_out
        assert_allclose(apply(change_frame(ch, u_out=u_out), a), only_out, atol=1e-12)

    def test_generator_stays_generator(self):
        gen = scenario_generator()
        u = unitary(7, seed=33)
        got = change_frame(gen, u, u)
        assert got.kind == "generator" and got.dim == 7
        assert_allclose(
            got.superoperator,
            np.kron(u.T, u.conj().T) @ gen.superoperator @ np.kron(u.conj(), u),
            atol=1e-12,
        )

    def test_round_trip(self):
        ch, _, _ = two_to_three_channel()
        gen = scenario_generator()
        u2, u3, u7 = unitary(2, seed=34), unitary(3, seed=35), unitary(7, seed=36)
        for dyn, u_in, u_out in ((ch, u2, u3), (gen, u7, u7)):
            there = change_frame(dyn, u_in, u_out)
            assert frob_distance(there.superoperator, dyn.superoperator) > 1e-3
            back = change_frame(there, u_in.conj().T, u_out.conj().T)
            assert back.kind == dyn.kind
            assert frob_distance(back.superoperator, dyn.superoperator) <= 1e-12


def layout_cases():
    """(dynamics, s_in, s_out) on states with distinct eigenvalues: a
    generator on five levels that preserves its state and its channel at
    t = 0.7, and the two-to-three channel, whose dual maps M_3 to M_2."""
    s = new_faithful_state(np.array([0.31, 0.07, 0.22, 0.15, 0.25]))
    gen = preserving_generator(s, seed=17)
    ch23, sa, sb = two_to_three_channel()
    return {
        "generator-5": (gen, s, s),
        "channel-5": (semigroup(gen, 0.7), s, s),
        "channel-2-to-3": (ch23, sa, sb),
    }


class TestDualLayout:
    """dual forms W_out S W_in^-1 as one array and returns its transposed
    view: the bits of the (S^T * w_out) / w_in it replaced
    (conftest.dual_reference), for the three duals, the dual of a dual, the
    preservation residual of either layout and the JSON form."""

    @pytest.mark.parametrize("case", sorted(layout_cases()))
    def test_duals_keep_their_bits(self, case):
        dyn, s_in, s_out = layout_cases()[case]
        got, ref = dual(dyn, s_in, s_out), dual_reference(dyn, s_in, s_out)
        assert got.superoperator.tobytes() == ref.superoperator.tobytes()
        assert not got.superoperator.flags.owndata and got.scale == ref.scale
        kms = kms_dual(dyn, s_in, s_out).superoperator
        assert kms.tobytes() == _kms_flip(ref.superoperator).tobytes()
        # the dual of a dual reads a transposed view and is C-ordered
        twice = dual(got, s_out, s_in).superoperator
        assert twice.flags.c_contiguous
        assert twice.tobytes() == dual_reference(ref, s_out, s_in).superoperator.tobytes()
        if s_in is s_out:
            th = phase_theta(s_in.dim, seed=3)
            want = change_frame(ref, *th.frame).superoperator
            assert theta_kms_dual(dyn, s_in, th).superoperator.tobytes() == want.tobytes()

    @pytest.mark.parametrize("t", [0.1, 1.0, 1000.0])
    def test_probe_semigroup_duals_keep_their_bits(self, t):
        """The product by 1 / w_in has the bits of the reference's quotient
        on the semigroup channels of the probe-like triples, and on the
        duals of their duals."""
        for triple in probe_like_triples():
            for sys in (triple.system_a, triple.system_b):
                s, sg = sys.state, semigroup(sys.dynamics, t)
                got, ref = dual(sg, s, s), dual_reference(sg, s, s)
                assert got.superoperator.tobytes() == ref.superoperator.tobytes()
                twice = dual(got, s, s).superoperator
                assert twice.tobytes() == dual_reference(ref, s, s).superoperator.tobytes()

    @pytest.mark.parametrize("case", sorted(layout_cases()))
    def test_preservation_residual_bits(self, case):
        dyn, s_in, s_out = layout_cases()[case]
        d = dual(dyn, s_in, s_out)
        c_ordered = _like(d, np.ascontiguousarray(d.superoperator))
        for x, a, b in ((dyn, s_in, s_out), (d, s_out, s_in), (c_ordered, s_out, s_in)):
            got = state_preservation_residual(x, a, b)
            assert got == state_preservation_residual_reference(x, a, b) and got <= 1e-12

    @pytest.mark.parametrize("case", ["channel-5", "channel-2-to-3"])
    def test_json_of_transposed_view(self, case):
        dyn, s_in, s_out = layout_cases()[case]
        d = dual(dyn, s_in, s_out)
        copy = QuantumChannel(d.dim_in, d.dim_out, np.ascontiguousarray(d.superoperator))
        assert json.dumps(d.to_json()) == json.dumps(copy.to_json())
