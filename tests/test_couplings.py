"""Couplings: evaluation, extraction, the channel bijection, flips, composition."""

import dataclasses
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

from balance_lab.balance import convergence_probe, is_balanced, sampled_balance
from balance_lab.channels import (
    apply,
    compose_channels,
    constant_channel,
    dual,
    identity_channel,
    validate_ucp,
)
import balance_lab.couplings as couplings
from balance_lab.couplings import (
    Coupling,
    _from_pairing,
    compose,
    coupling_from_channel,
    coupling_from_json,
    diagonal_coupling,
    extract_channel,
    flip_coupling,
    is_orthogonal,
    is_trivial,
    kms_flip,
    product_coupling,
    validate_coupling,
)
import balance_lab.channels as channels
import balance_lab.kernel as kernel
from balance_lab.kernel import DEFAULT_TOL, _factor, frob_distance, kron, matrix_unit, partial_trace
from balance_lab.lindblad import (
    cycle_generator,
    scenario_build,
    scenario_coupling,
    scenario_state,
    semigroup,
    standard_grid,
)
from balance_lab.states import new_faithful_state

from conftest import (
    channel_from_function,
    coupling_from_channel_loop,
    coupling_from_channel_oracle,
    evaluate,
    extract_channel_oracle,
    extraction_is_valid,
    is_orthogonal_loop,
    kraus_coupling,
    make_spec,
    new_coupling,
    preserving_generator,
    probe_like_triples,
    random_matrix,
    assert_same_factor,
    random_state_vector,
    scenario_compose_oracle,
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


def composition_pool():
    """The scenario couplings of every block layout of standard_grid() and
    the diagonal coupling, all of one state: 13 couplings that compose in
    any order."""
    pool = [scenario_coupling(s) for s in standard_grid()[::6]]
    return pool + [diagonal_coupling(pool[0].state_a)]


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
        pool = composition_pool()
        worst = max(
            np.abs(compose(compose(w, psi), phi).kappa - compose(w, compose(psi, phi)).kappa).max()
            for w in pool for psi in pool for phi in pool
        )
        assert worst <= 1e-15

    def test_flip_reverses_order(self):
        """flip(w o psi) = flip(psi) o flip(w): the dual of E_psi o E_w is
        E_w' o E_psi'."""
        pool = composition_pool()
        worst = max(
            np.abs(flip_coupling(compose(w, psi)).kappa
                   - compose(flip_coupling(psi), flip_coupling(w)).kappa).max()
            for w in pool for psi in pool
        )
        assert worst <= 1e-15

    def test_middle_mismatch(self):
        cases = [
            (qubit().spectrum, [1 / 3] * 3),
            # within 1e-12 entry by entry, a factor 2 apart at p_min
            ([0.5, 0.5 - 1e-12, 1e-12], [0.5, 0.5 - 2e-12, 2e-12]),
        ]
        for left, right in cases:
            sl, sr = new_faithful_state(left), new_faithful_state(right)
            with pytest.raises(ValueError, match="not composable"):
                compose(product_coupling(sl, sl), product_coupling(sr, sr))


def compose_dense(w, psi):
    """The composition by the channel route: the dense product S_psi S_w of
    the two extracted channels, weighed back into a coupling by
    coupling_from_channel."""
    e = compose_channels(extract_channel(psi), extract_channel(w))
    return coupling_from_channel(e, w.state_a, psi.state_b)


def composable_pairs(w):
    """Pairs that compose along the middle states of a coupling w of one
    state to itself: w with itself and with its flips, and the diagonal and
    the product coupling on either side."""
    s = w.state_a
    d, prod = diagonal_coupling(s), product_coupling(s, s)
    return [(w, w), (w, flip_coupling(w)), (w, kms_flip(w)), (w, d), (d, w), (w, prod), (prod, w)]


def full_support_coupling(n, seed):
    """coupling_from_channel of a random state-preserving u.c.p. channel with
    no zero entry, on a state with distinct eigenvalues: the channel is
    extracted from rho (x) rho plus a random Hermitian with zero marginals,
    scaled to keep it positive.  Its pairing matrix has n^2 nonzeros in
    every row, so its factor keeps both sides on BLAS."""
    s = new_faithful_state(random_state_vector(n, seed=seed))
    x = random_matrix(n * n, seed=seed)
    x = x + x.conj().T
    eye = np.eye(n) / n
    delta = (x - kron(partial_trace(x, (n, n), "second"), eye)
             - kron(eye, partial_trace(x, (n, n), "first")) + np.trace(x) * kron(eye, eye))
    delta *= 0.5 * s.spectrum.min() ** 2 / np.linalg.norm(delta, 2)
    ch = extract_channel(Coupling(kappa=kron(s.rho, s.rho) + delta, state_a=s, state_b=s))
    assert validate_ucp(ch).ucp and np.count_nonzero(ch.superoperator) == n**4
    return coupling_from_channel(ch, s, s)


class TestGatheredComposition:
    """compose forms P_psi S_w over the support of P_psi, through psi's
    factor: a row of P_psi with at most two nonzeros gives the bits of the
    dense product, any other row the dense product to 1e-15 of
    |P_psi| |S_w|.  The channel route, S_psi S_w weighed back by
    r_k r_l, is the same product with its diagonal scalings reassociated:
    it agrees to a few roundings of |P_psi| |S_w| (7.8e-16 of it at most on
    these pairs)."""

    @staticmethod
    def assert_matches_dense(w, psi):
        p_psi, s_w = psi.pairing(), extract_channel(w).superoperator
        got, want = compose(w, psi).pairing(), p_psi @ s_w
        exact = np.count_nonzero(p_psi, axis=1) <= 2
        assert got[exact].tobytes() == want[exact].tobytes()
        size = np.abs(p_psi) @ np.abs(s_w)
        assert np.all(np.abs(got - want)[~exact] <= 1e-15 * size[~exact])
        route = compose_dense(w, psi).pairing()
        assert np.all(np.abs(got - route) <= 2e-15 * size)

    def test_standard_grid(self):
        for spec in standard_grid():
            for w, psi in composable_pairs(scenario_build(spec).coupling):
                self.assert_matches_dense(w, psi)

    def test_probe_triples(self):
        gathered = 0
        for triple in probe_like_triples():
            for w, psi in composable_pairs(triple.coupling):
                self.assert_matches_dense(w, psi)
                gathered += psi.factor.left is not None
        # psi gathers unless it is the product coupling or a multi-cycle
        # scenario coupling (k = 4 on its product blocks): 6 + 1 + 6 + 1
        assert gathered == 14

    @pytest.mark.parametrize("n, m, k", [(2, 3, 4), (4, 3, 2), (5, 5, 5), (3, 6, 2)])
    def test_kraus_compositions(self, n, m, k):
        """Couplings of random Kraus channels M_n -> M_m and M_k -> M_m, the
        second flipped, on a middle state with distinct eigenvalues: rows
        with many complex nonzeros, and n, m, k all different."""
        mid = new_faithful_state(random_state_vector(m, seed=m))
        for seed in range(3):
            w = kraus_coupling(n, mid, seed=seed)
            psi = flip_coupling(kraus_coupling(k, mid, seed=seed + 10))
            self.assert_matches_dense(w, psi)

    @pytest.mark.parametrize("n", [3, 6])
    def test_full_support_on_blas(self, n):
        w = full_support_coupling(n, seed=n)
        f = w.factor
        assert f.rows == f.cols == slice(None)
        assert f.left is None and f.right is None and f.block is not None
        for a, b in composable_pairs(w):
            self.assert_matches_dense(a, b)

    def test_orthogonality_reads_the_gathered_composition(self):
        """is_orthogonal's residual is that of compose, also where psi's
        factor gathers."""
        for triple in probe_like_triples():
            w = triple.coupling
            for psi in (w, flip_coupling(w), diagonal_coupling(w.state_b)):
                prod = kron(w.state_a.rho, psi.state_b.rho)
                rep = is_orthogonal(w, psi)
                assert rep.residual == frob_distance(compose(w, psi).kappa, prod)
                assert rep.methods_agree


def oracle_kappa(spec, kept, t):
    """The composed kappa that scenario_compose_oracle describes, in floats:
    sqrt(p_i p_j) at ((j, j), (i, i)) for (i, j) in kept and p_k t[k][i] at
    ((i, k), (i, k)), each within an ulp."""
    p = [Fraction(x) for x in scenario_state(spec).spectrum]
    n = len(p)
    kappa = np.zeros((n * n, n * n))
    for i in range(n):
        for k in range(n):
            kappa[i * n + k, i * n + k] = p[k] * t[k][i]
    for i, j in kept:
        kappa[j * n + j, i * n + i] = math.sqrt(p[i] * p[j])
    return kappa


def oracle_gram2(spec, kept, residual2):
    """The exact squared cross-Gram norm of the composition that
    scenario_compose_oracle describes.  The Gram is the composition with S_w
    weighed by r_l / r_k on the middle unit E_kl, r = sqrt(p): that takes a
    kept entry sqrt(p_i p_j) to p_j or p_i and leaves the diagonal as it is,
    so each ordered kept pair (i, j) adds p_j^2 - p_i p_j to the squared
    residual."""
    p = [Fraction(x) for x in scenario_state(spec).spectrum]
    return residual2 + sum(p[j] ** 2 - p[i] * p[j] for i, j in kept)


def chain_specs(block_probs):
    """w product on the cycles {0, 1}{2} and psi product on {0}{1, 2}, of
    cycles (3, 3, 3)."""
    kw = dict(types=("product", "product"), k=(0.3,) * 3, l=(0.3,) * 3, g=(0.0,) * 9,
              h=(0.0,) * 9, cycles=(3, 3, 3), block_probs=block_probs)
    return make_spec(partition=((0, 1), (2,)), **kw), make_spec(partition=((0,), (1, 2)), **kw)


class TestComposeOracle:
    """compose, is_orthogonal and is_trivial against the exact composition
    of scenario couplings (conftest.scenario_compose_oracle)."""

    TOL2 = Fraction(DEFAULT_TOL) ** 2

    @pytest.mark.parametrize("e", range(2, 13))
    def test_grid_layouts_at_pmin(self, e):
        """All 12 x 12 block layouts of standard_grid() at block_probs
        (3q, 1 - 3q), the p_min sweep of TestPminSweep: every kappa entry
        within 2e-15 max|kappa| of the oracle, the cross-Gram norm within
        2e-15 of the scale of the exact one (oracle_gram2), and the three
        verdicts the exact one wherever the exact relative residual is
        outside [tol/10, 10 tol].  The cross-Gram norm is not the residual
        on exactly one composition: the layout whose one entangled block
        keeps pairs across both cycles, of unequal weights, with itself."""
        q = 10.0**-e
        specs = [dataclasses.replace(s, block_probs=(3 * q, 1 - 3 * q))
                 for s in standard_grid()[::6]]
        assert len({(s.partition, s.block_types) for s in specs}) == 12
        pool = [scenario_coupling(s) for s in specs]
        judged = {True: 0, False: 0}
        differ = []
        for spec_w, w in zip(specs, pool):
            for spec_psi, psi in zip(specs, pool):
                kept, t, residual2, scale2 = scenario_compose_oracle(spec_w, spec_psi)
                composed = compose(w, psi)
                err = np.abs(composed.kappa - oracle_kappa(spec_w, kept, t)).max()
                assert err <= 2e-15 * np.abs(composed.kappa).max()
                rep = is_orthogonal(w, psi)
                gram2 = oracle_gram2(spec_w, kept, residual2)
                assert abs(rep.cross_gram_norm - math.sqrt(gram2)) <= 2e-15 * math.sqrt(scale2)
                if gram2 != residual2:
                    differ.append((spec_w, spec_psi, rep))
                rel2 = residual2 / scale2
                if self.TOL2 / 100 <= rel2 <= 100 * self.TOL2:
                    continue
                exact = rel2 <= self.TOL2
                assert rep.orthogonal == rep.hilbert_criterion == is_trivial(composed) == exact
                judged[exact] += 1
        # every q judges both verdicts, and at least 87 of the 144 compositions
        assert judged[True] >= 23 and judged[False] >= 64
        [(spec_w, spec_psi, rep)] = differ
        assert spec_w is spec_psi
        assert (spec_w.partition, spec_w.block_types) == (((0, 1),), ("entangled",))
        assert rep.cross_gram_norm - rep.residual >= 0.02

    def test_criterion_07_composition(self):
        """Criterion 07's construction, w entangled on the first cycle and
        product on the second and psi the reverse, composes to the
        blockwise-averaging coupling: no off-diagonal unit is kept, T
        averages each cycle, and kappa is the scenario coupling that is
        product on both cycles.  Its exact residual, 0.144375, is
        is_orthogonal's."""
        spec_w = make_spec(types=("entangled", "product"))
        spec_psi = make_spec(types=("product", "entangled"))
        kept, t, residual2, scale2 = scenario_compose_oracle(spec_w, spec_psi)
        cycle = [0, 0, 0, 1, 1, 1, 1]
        assert kept == set()
        assert t == [[Fraction(1, (3, 4)[cycle[i]]) if cycle[i] == cycle[k] else 0
                      for i in range(7)] for k in range(7)]
        w, psi = scenario_coupling(spec_w), scenario_coupling(spec_psi)
        composed = compose(w, psi)
        averaging = scenario_coupling(make_spec(types=("product", "product"))).kappa
        assert np.abs(composed.kappa - averaging).max() <= 2e-15 * np.abs(averaging).max()
        rep = is_orthogonal(w, psi)
        assert f"{math.sqrt(residual2):.6g}" == f"{rep.residual:.6g}" == "0.144375"
        assert not rep.orthogonal and not rep.hilbert_criterion

    @pytest.mark.parametrize("block_probs, step", [
        ((1 / 3, 1 / 3, 1 / 3), 30),
        ((1e-2, 0.495, 0.495), 9),
    ])
    def test_alternating_chain(self, block_probs, step):
        """w o psi o w o ..., step k composing k + 1 couplings: alternating
        conditional expectations, whose composition tends to the product
        coupling.  Both methods flip to orthogonal at the step where the
        exact relative residual first falls to tol, and read it to 4 digits
        there and the step before."""
        spec_w, spec_psi = chain_specs(block_probs)
        w, psi = scenario_coupling(spec_w), scenario_coupling(spec_psi)
        chain, specs = w, [spec_w]
        for k in range(1, step + 1):
            nxt, spec = (psi, spec_psi) if k % 2 else (w, spec_w)
            rep = is_orthogonal(chain, nxt)
            chain = compose(chain, nxt)
            specs.append(spec)
            _, _, residual2, scale2 = scenario_compose_oracle(*specs)
            exact = residual2 / scale2 <= self.TOL2
            assert rep.orthogonal == rep.hilbert_criterion == exact == (k == step)
            if k >= step - 1:
                rel = math.sqrt(residual2 / scale2)
                scale = math.sqrt(scale2)
                assert rep.residual / scale == pytest.approx(rel, rel=1e-4)
                assert rep.cross_gram_norm / scale == pytest.approx(rel, rel=1e-4)


class TestCouplingFactor:
    """A coupling scans its pairing matrix into a kernel._Factor once, on
    first use, and every later product reads that factor; a coupling derived
    from it is a new coupling with a factor of its own."""

    @staticmethod
    def counted(monkeypatch):
        calls = []
        real = couplings._factor

        def factor(m):
            calls.append(m.shape)
            return real(m)

        monkeypatch.setattr(couplings, "_factor", factor)
        return calls

    def test_built_once(self, monkeypatch):
        calls = self.counted(monkeypatch)
        t = probe_like_triples()[1]
        a, b, w = t.system_a, t.system_b, t.coupling
        assert calls == []
        assert w.factor is w.factor and len(calls) == 1
        is_balanced(a, b, w)
        sampled_balance(a, b, w, (0.1, 1.0))
        convergence_probe(a, b, w, (1.0,))
        compose(w, w)
        is_orthogonal(w, w)
        # compose and is_orthogonal make new couplings; is_orthogonal reads
        # the factor of psi = w and builds none for its composition's result
        assert len(calls) == 1

    def test_composition_is_not_judged_again(self, monkeypatch):
        """compose and is_orthogonal reach neither validate_coupling nor a
        PSD check: a composition of couplings is a coupling.
        coupling_from_channel still judges what it builds (and rejects a map
        that is not u.c.p., test_rejects_non_ucp)."""
        calls = []

        def counting(name, real):
            def counted(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)

            return counted

        for module, name in ((couplings, "validate_coupling"), (kernel, "check_psd"),
                             (channels, "check_psd")):
            monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
        for t in probe_like_triples():
            w = t.coupling
            for psi in (w, flip_coupling(w), diagonal_coupling(w.state_b)):
                compose(w, psi)
                is_orthogonal(w, psi)
        assert calls == []
        coupling_from_channel(extract_channel(w), w.state_a, w.state_b)
        assert calls == ["validate_coupling", "check_psd"]

    def test_derived_couplings_do_not_share(self, monkeypatch):
        """A flip and a KMS flip derive their factor from w's, with no scan,
        and it is the factor a scan of their pairing matrix gives, to the
        bit; any other coupling of the same kappa scans its own."""
        calls = self.counted(monkeypatch)
        for i, t in enumerate(probe_like_triples()):
            w = t.coupling
            f = w.factor
            others = [flip_coupling(w), kms_flip(w), _from_pairing(w.pairing(), w.state_a, w.state_b)]
            del calls[:]
            for other in others:
                assert other.factor is not f
                assert other.factor is other.factor
            assert len(calls) == 1
            for other in others:
                assert_same_factor(other.factor, _factor(other.pairing()))
            if i == 0:
                # the flip's factor is the factor of the flipped pairing, P^T
                flip = others[0].factor
                assert flip.left is not None and flip.left[0].tobytes() == f.right[0].tobytes()

    def test_cached_factor_gives_the_fresh_report(self):
        """is_balanced on a coupling whose factor is cached (and was read
        before) has the bytes of is_balanced on a fresh coupling of the same
        kappa."""
        triples = [scenario_build(spec) for spec in standard_grid()[::5]] + probe_like_triples()
        for t in triples:
            a, b, w = t.system_a, t.system_b, t.coupling
            first = is_balanced(a, b, w)
            assert "factor" in vars(w)
            again = is_balanced(a, b, w)
            fresh = Coupling(kappa=w.kappa.copy(), state_a=w.state_a, state_b=w.state_b)
            want = is_balanced(a, b, fresh)
            for rep in (first, again):
                assert json.dumps(rep.to_json()) == json.dumps(want.to_json())
                assert rep.residual.hex() == want.residual.hex()
                assert rep.definition_residual.hex() == want.definition_residual.hex()


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
        """is_orthogonal extracts w's channel once for each pair, for both
        of its products, and reaches neither a dual nor a constant channel:
        its residual is compose's, and its cross-Gram norm that of the Gram
        summed matrix unit by matrix unit (conftest.is_orthogonal_loop),
        within rounding, with the same verdicts."""
        s = new_faithful_state([0.31, 0.07, 0.22, 0.15, 0.25])
        ch = semigroup(preserving_generator(s, seed=9), 0.5)
        generic = [diagonal_coupling(s), coupling_from_channel(ch, s, s)]
        pool = scenario_pool()[:3]
        pairs = [(w, psi) for w in pool for psi in pool]
        pairs += [(w, psi) for w in generic for psi in generic]
        loops = [is_orthogonal_loop(w, psi) for w, psi in pairs]
        calls = []

        def counted(w):
            calls.append(w)
            return extract_channel(w)

        assert not hasattr(couplings, "dual") and not hasattr(couplings, "constant_channel")
        monkeypatch.setattr(couplings, "extract_channel", counted)
        reps = [is_orthogonal(w, psi) for w, psi in pairs]
        assert [id(w) for w in calls] == [id(w) for w, _ in pairs]
        for (w, psi), rep, loop in zip(pairs, reps, loops):
            prod = kron(w.state_a.rho, psi.state_b.rho)
            assert rep.residual == frob_distance(compose(w, psi).kappa, prod)
            assert rep.cross_gram_norm == pytest.approx(loop.cross_gram_norm, rel=1e-14, abs=1e-15)
            assert (rep.orthogonal, rep.hilbert_criterion, rep.methods_agree) == (
                loop.orthogonal, loop.hilbert_criterion, loop.methods_agree)

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
