"""Couplings: evaluation, extraction, the channel bijection, flips, composition."""

import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from balance_lab.channels import (
    apply,
    constant_channel,
    dual,
    identity_channel,
    validate_ucp,
)
import balance_lab.couplings as couplings
from balance_lab.couplings import (
    compose,
    coupling_from_channel,
    coupling_from_json,
    diagonal_coupling,
    evaluate,
    extract_channel,
    flip_coupling,
    is_orthogonal,
    is_trivial,
    kms_flip,
    new_coupling,
    product_coupling,
    validate_coupling,
)
from balance_lab.kernel import frob_distance, kron, matrix_unit
from balance_lab.lindblad import cycle_generator, scenario_coupling, semigroup
from balance_lab.states import new_faithful_state

from conftest import (
    channel_from_function,
    coupling_from_channel_loop,
    coupling_from_channel_oracle,
    extract_channel_oracle,
    extraction_is_valid,
    make_spec,
    preserving_generator,
    random_matrix,
    random_state_vector,
    use_references,
)


def qubit():
    return new_faithful_state([0.5, 0.5])


def scenario_pool():
    """Couplings with every block type represented."""
    specs = [
        make_spec(types=("entangled", "product")),
        make_spec(types=("mixed", "entangled")),
        make_spec(types=("product", "mixed")),
        make_spec(types=("entangled",), partition=((0, 1),)),
        make_spec(types=("mixed",), partition=((0, 1),)),
    ]
    return [scenario_coupling(s) for s in specs]


class TestEvaluate:
    def test_normalization(self):
        w = product_coupling(qubit(), qubit())
        assert evaluate(w, np.eye(2), np.eye(2)) == pytest.approx(1.0)

    def test_marginal(self):
        s = new_faithful_state(random_state_vector(3, seed=1))
        w = diagonal_coupling(s)
        a = random_matrix(3, seed=2)
        assert evaluate(w, a, np.eye(3)) == pytest.approx(complex(np.trace(s.rho @ a)))

    def test_product_factorizes(self):
        sa = new_faithful_state(random_state_vector(2, seed=3))
        sb = new_faithful_state(random_state_vector(3, seed=4))
        w = product_coupling(sa, sb)
        a, c = random_matrix(2, seed=5), random_matrix(3, seed=6)
        assert evaluate(w, a, c) == pytest.approx(
            complex(np.trace(sa.rho @ a)) * complex(np.trace(sb.rho @ c))
        )


class TestDiagonalCoupling:
    def test_bell_projector(self):
        d = diagonal_coupling(qubit())
        bell = np.zeros(4)
        bell[[0, 3]] = 1 / np.sqrt(2)
        assert_allclose(d.kappa, np.outer(bell, bell))

    def test_extracts_identity(self):
        s = new_faithful_state(random_state_vector(4, seed=7))
        e = extract_channel(diagonal_coupling(s))
        assert_allclose(e.superoperator, np.eye(16), atol=1e-12)

    def test_marginals(self):
        s = new_faithful_state(random_state_vector(3, seed=8))
        rep = validate_coupling(diagonal_coupling(s))
        assert rep.valid


class TestProductCoupling:
    def test_extracts_constant(self):
        sa = new_faithful_state(random_state_vector(3, seed=9))
        sb = new_faithful_state(random_state_vector(2, seed=10))
        e = extract_channel(product_coupling(sa, sb))
        assert_allclose(e.superoperator, constant_channel(sa, 2).superoperator, atol=1e-13)

    def test_is_trivial(self):
        assert is_trivial(product_coupling(qubit(), qubit()))


class TestExtractChannel:
    def test_mixed_type_gives_pinching(self):
        s = qubit()
        kappa = 0.5 * kron(matrix_unit(2, 0, 0), matrix_unit(2, 0, 0)) + 0.5 * kron(
            matrix_unit(2, 1, 1), matrix_unit(2, 1, 1)
        )
        w = new_coupling(kappa, s, s)
        e = extract_channel(w)
        assert_allclose(apply(e, matrix_unit(2, 0, 0)), matrix_unit(2, 0, 0), atol=1e-13)
        assert_allclose(apply(e, matrix_unit(2, 0, 1)), np.zeros((2, 2)), atol=1e-13)
        # independent brute-force solve of the defining identity
        assert_allclose(e.superoperator, extract_channel_oracle(w), atol=1e-12)

    def test_scenario_couplings_against_oracle(self):
        for w in scenario_pool():
            e = extract_channel(w)
            assert_allclose(e.superoperator, extract_channel_oracle(w), atol=1e-11)
            assert extraction_is_valid(w)

    def test_invalid_coupling_rejected(self):
        s = qubit()
        with pytest.raises(ValueError, match="not a coupling"):
            new_coupling(np.eye(4) / 2.0, s, s)


class TestCouplingFromChannel:
    def test_identity_gives_diagonal(self):
        s = qubit()
        w = coupling_from_channel(identity_channel(2), s, s)
        assert frob_distance(w.kappa, diagonal_coupling(s).kappa) <= 1e-13

    def test_constant_gives_product(self):
        sa = new_faithful_state(random_state_vector(3, seed=11))
        sb = new_faithful_state(random_state_vector(2, seed=12))
        w = coupling_from_channel(constant_channel(sa, 2), sa, sb)
        assert frob_distance(w.kappa, product_coupling(sa, sb).kappa) <= 1e-13

    def test_roundtrip_both_ways(self):
        for w in scenario_pool():
            e = extract_channel(w)
            back = coupling_from_channel(e, w.state_a, w.state_b)
            assert frob_distance(back.kappa, w.kappa) <= 1e-10
            # and the unit-pair oracle agrees with the construction
            assert_allclose(
                back.kappa,
                coupling_from_channel_oracle(e.superoperator, w.state_a, w.state_b),
                atol=1e-11,
            )

    def test_reshape_equals_kron_loop_exactly(self):
        # bit for bit, signed zeros included, on extracted channels, a
        # non-square constant channel and a semigroup member
        sa = new_faithful_state(random_state_vector(3, seed=11))
        sb = new_faithful_state(random_state_vector(2, seed=12))
        spec = make_spec()
        s = scenario_coupling(spec).state_a
        sg = semigroup(cycle_generator(spec.cycle_lengths, spec.k, spec.g), 0.7)
        cases = [(extract_channel(w), w.state_a, w.state_b) for w in scenario_pool()]
        cases += [(constant_channel(sa, 2), sa, sb), (sg, s, s)]
        for e, s_a, s_b in cases:
            kappa = coupling_from_channel(e, s_a, s_b).kappa
            assert kappa.tobytes() == coupling_from_channel_loop(e, s_a, s_b).tobytes()

    def test_rejects_non_ucp(self):
        # the transpose map is positive but not completely positive
        s = qubit()
        t = channel_from_function(lambda a: a.T, 2, 2)
        with pytest.raises(ValueError, match="does not define a coupling"):
            coupling_from_channel(t, s, s)

    def test_uniqueness_of_couplings(self):
        # couplings agree exactly when their channels agree
        w1, w2 = scenario_pool()[0], scenario_pool()[1]
        e1, e2 = extract_channel(w1), extract_channel(w2)
        assert frob_distance(e1.superoperator, e2.superoperator) > 1e-3
        assert frob_distance(w1.kappa, w2.kappa) > 1e-3
        same = coupling_from_channel(e1, w1.state_a, w1.state_b)
        assert frob_distance(same.kappa, w1.kappa) <= 1e-10


class TestFlip:
    def test_product_swaps(self):
        sa = new_faithful_state(random_state_vector(2, seed=13))
        sb = new_faithful_state(random_state_vector(3, seed=14))
        f = flip_coupling(product_coupling(sa, sb))
        assert frob_distance(f.kappa, product_coupling(sb, sa).kappa) <= 1e-14

    def test_diagonal_fixed(self):
        s = new_faithful_state(random_state_vector(3, seed=15))
        d = diagonal_coupling(s)
        assert frob_distance(flip_coupling(d).kappa, d.kappa) <= 1e-14

    def test_flip_extracts_dual(self):
        for w in scenario_pool()[:3]:
            lhs = extract_channel(flip_coupling(w)).superoperator
            rhs = dual(extract_channel(w), w.state_a, w.state_b).superoperator
            assert frob_distance(lhs, rhs) <= 1e-10


class TestKmsFlip:
    def test_diagonal_fixed(self):
        s = new_faithful_state(random_state_vector(3, seed=16))
        d = diagonal_coupling(s)
        assert frob_distance(kms_flip(d).kappa, d.kappa) <= 1e-12

    def test_product_swaps(self):
        sa = new_faithful_state(random_state_vector(2, seed=17))
        sb = new_faithful_state(random_state_vector(3, seed=18))
        f = kms_flip(product_coupling(sa, sb))
        assert frob_distance(f.kappa, product_coupling(sb, sa).kappa) <= 1e-12

    def test_involution(self):
        for w in scenario_pool():
            back = kms_flip(kms_flip(w))
            assert frob_distance(back.kappa, w.kappa) <= 1e-10


class TestCompose:
    def test_diagonal_neutral(self):
        pool = scenario_pool()
        for w in pool[:3]:
            d = diagonal_coupling(w.state_b)
            assert frob_distance(compose(w, d).kappa, w.kappa) <= 1e-10
            d0 = diagonal_coupling(w.state_a)
            assert frob_distance(compose(d0, w).kappa, w.kappa) <= 1e-10

    def test_product_absorbs(self):
        w = scenario_pool()[0]
        prod = product_coupling(w.state_b, w.state_b)
        left = compose(prod, w)
        right = compose(w, prod)
        target = product_coupling(w.state_a, w.state_b).kappa
        assert frob_distance(left.kappa, target) <= 1e-11
        assert frob_distance(right.kappa, target) <= 1e-11

    def test_pairing_transfer_formulas(self):
        # omega o psi (a (x) c) = psi(E_w(a) (x) c) = omega(a (x) E_psi'(c))
        pool = scenario_pool()
        w, psi = pool[0], pool[1]
        composed = compose(w, psi)
        e_w = extract_channel(w)
        e_psi_dual = dual(extract_channel(psi), psi.state_a, psi.state_b)
        n = w.state_a.dim
        m = psi.state_b.dim
        for i, j, k, l in [(0, 1, 2, 3), (2, 2, 4, 4), (1, 0, 5, 6), (3, 4, 0, 0)]:
            a, c = matrix_unit(n, i, j), matrix_unit(m, k, l)
            lhs = evaluate(composed, a, c)
            assert lhs == pytest.approx(evaluate(psi, apply(e_w, a), c), abs=1e-11)
            assert lhs == pytest.approx(evaluate(w, a, apply(e_psi_dual, c)), abs=1e-11)

    def test_associativity(self):
        pool = scenario_pool()
        w, psi, phi = pool[0], pool[1], pool[2]
        lhs = compose(compose(w, psi), phi)
        rhs = compose(w, compose(psi, phi))
        assert frob_distance(lhs.kappa, rhs.kappa) <= 1e-10

    def test_middle_mismatch(self):
        s2 = qubit()
        s3 = new_faithful_state([1 / 3] * 3)
        with pytest.raises(ValueError, match="not composable"):
            compose(product_coupling(s2, s2), product_coupling(s3, s3))


class TestOrthogonality:
    def test_product_orthogonal_to_anything(self):
        pool = scenario_pool()
        w = pool[0]
        prod = product_coupling(w.state_b, w.state_b)
        rep = is_orthogonal(prod, w)
        assert rep.orthogonal and rep.hilbert_criterion and rep.methods_agree

    def test_diagonal_with_itself_not_orthogonal(self):
        d = diagonal_coupling(qubit())
        rep = is_orthogonal(d, d)
        assert not rep.orthogonal and not rep.hilbert_criterion and rep.methods_agree

    def test_methods_agree_on_scenario_pairs(self):
        pool = scenario_pool()
        for w in pool[:3]:
            for psi in pool[:3]:
                assert is_orthogonal(w, psi).methods_agree

    def test_report_bits_and_one_extraction_each(self, monkeypatch):
        """is_orthogonal extracts each coupling once, for the composition and
        for the criterion: the composition is compose's, and the report is
        that of the reference duals and residuals."""
        s = new_faithful_state([0.31, 0.07, 0.22, 0.15, 0.25])
        ch = semigroup(preserving_generator(s, seed=9), 0.5)
        generic = [diagonal_coupling(s), coupling_from_channel(ch, s, s)]
        pool = scenario_pool()[:3]
        pairs = [(w, psi) for w in pool for psi in pool]
        pairs += [(w, psi) for w in generic for psi in generic]
        new = [is_orthogonal(w, psi) for w, psi in pairs]
        for (w, psi), rep in zip(pairs, new):
            prod = kron(w.state_a.rho, psi.state_b.rho)
            assert rep.residual == frob_distance(compose(w, psi).kappa, prod)
        use_references(monkeypatch)
        calls = []

        def counted(w):
            calls.append(w)
            return extract_channel(w)

        monkeypatch.setattr(couplings, "extract_channel", counted)
        old = [is_orthogonal(w, psi) for w, psi in pairs]
        assert [json.dumps(r.to_json()) for r in old] == [json.dumps(r.to_json()) for r in new]
        assert len(calls) == 2 * len(pairs)

    def test_trivial_cases(self):
        assert not is_trivial(diagonal_coupling(qubit()))
        w = scenario_pool()[0]
        assert not is_trivial(w)


class TestFaithfulness:
    def test_extracted_channel_faithful(self):
        # a -> Tr(rho_B E(a* a)) equals mu(a* a), strictly positive off zero
        w = scenario_pool()[0]
        e = extract_channel(w)
        n = w.state_a.dim
        units = [matrix_unit(n, i, j) for i in range(n) for j in range(n)]
        gram = np.array(
            [
                [np.trace(w.state_b.rho @ apply(e, u.conj().T @ v)) for v in units]
                for u in units
            ]
        )
        assert np.linalg.eigvalsh((gram + gram.conj().T) / 2).min() > 1e-12


class TestJson:
    def test_roundtrip(self):
        w = scenario_pool()[0]
        back = coupling_from_json(w.to_json())
        assert frob_distance(back.kappa, w.kappa) <= 1e-15
        assert back.state_a.same_state(w.state_a)

    def test_ucp_of_scenario_extracts(self):
        for w in scenario_pool():
            assert validate_ucp(extract_channel(w)).ucp
