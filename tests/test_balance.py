"""Balance verification and its consequences: symmetry, detailed balance,
ergodicity, disjointness witnesses, convergence transfer."""

import json

import numpy as np
import pytest

import balance_lab.balance as balance
import balance_lab.channels as channels
import balance_lab.states as states
from balance_lab.balance import (
    check_theta_sqdb,
    convergence_probe,
    disjointness_probe,
    dual_order_check,
    is_balanced,
    is_ergodic,
    is_kms_symmetric,
    sampled_balance,
)
from balance_lab.channels import (
    ReversingOperation,
    _kms_conjugate,
    constant_channel,
    dual,
    fixed_point_space,
    identity_channel,
    kms_dual,
    theta_kms_dual,
)
from balance_lab.cli import dumps_canonical
from balance_lab.couplings import diagonal_coupling, flip_coupling, kms_flip, product_coupling
from balance_lab.kernel import frob_distance
from balance_lab.lindblad import (
    LindbladGenerator,
    cycle_generator,
    scenario_build,
    semigroup,
    standard_grid,
)
from balance_lab.states import System, new_faithful_state

from conftest import (
    dual_reference,
    kms_symmetry_flip_check,
    make_spec,
    preserving_generator,
    random_state_vector,
    use_references,
)


def scenario_systems(k=(0.3, 0.6), l=(0.3, 0.6), g=(0.0,) * 7, h=(0.0,) * 7):
    spec = make_spec(k=k, l=l, g=g, h=h)
    return scenario_build(spec)


class TestIsBalanced:
    def test_diagonal_self_balance(self):
        triple = scenario_systems()
        d = diagonal_coupling(triple.system_a.state)
        rep = is_balanced(triple.system_a, triple.system_a, d)
        assert rep.balanced and rep.method_agreement

    def test_product_always_balanced(self):
        triple = scenario_systems(k=(0.3, 0.6), l=(0.9, 0.2), g=(1.0,) * 7, h=(0.0,) * 7)
        w = product_coupling(triple.system_a.state, triple.system_b.state)
        rep = is_balanced(triple.system_a, triple.system_b, w)
        assert rep.balanced and rep.method_agreement

    def test_scenario_characterization_pair(self):
        ok = scenario_build(make_spec(types=("entangled", "entangled")))
        rep = is_balanced(ok.system_a, ok.system_b, ok.coupling)
        assert rep.balanced and rep.residual <= 1e-12

        bad = scenario_build(
            make_spec(types=("entangled", "entangled"), l=(0.3, 0.5))
        )
        rep2 = is_balanced(bad.system_a, bad.system_b, bad.coupling)
        assert not rep2.balanced and rep2.residual > 1e-6
        assert rep2.method_agreement

    def test_state_mismatch(self):
        triple = scenario_systems()
        other = new_faithful_state(random_state_vector(7, seed=1))
        w = product_coupling(other, other)
        with pytest.raises(ValueError, match="state mismatch"):
            is_balanced(triple.system_a, triple.system_b, w)

    def test_generator_matches_sampled_times(self):
        for types, l in ((("entangled", "product"), (0.3, 0.6)), (("entangled", "entangled"), (0.3, 0.5))):
            triple = scenario_build(make_spec(types=types, l=l))
            gen_rep = is_balanced(triple.system_a, triple.system_b, triple.coupling)
            for _, rep in sampled_balance(
                triple.system_a, triple.system_b, triple.coupling, (0.1, 1.0, 5.0)
            ):
                assert rep.balanced == gen_rep.balanced

    def test_diagonal_balance_forces_equal_dynamics(self):
        # converse of self-balance: balance through the diagonal coupling
        # pins the two generators to each other
        triple = scenario_systems(k=(0.3, 0.6), l=(0.3, 0.6))
        d = diagonal_coupling(triple.system_a.state)
        rep = is_balanced(triple.system_a, triple.system_b, d)
        if rep.balanced:
            assert (
                frob_distance(
                    triple.system_a.dynamics.superoperator,
                    triple.system_b.dynamics.superoperator,
                )
                <= 1e-9
            )
        triple2 = scenario_systems(k=(0.3, 0.6), l=(0.4, 0.6))
        rep2 = is_balanced(triple2.system_a, triple2.system_b, d)
        assert not rep2.balanced

    def test_calls_no_dual(self, monkeypatch):
        """Both residuals are cuts of S_E S_alpha - S_beta S_E, so no dual is
        formed: not on the grid triples, nor on a pair of semigroup
        channels, where a tol far below rounding gives the same residuals
        (a dual would judge the state preservation at that tol)."""
        reports = [is_balanced(t.system_a, t.system_b, t.coupling)
                   for t in map(scenario_build, standard_grid())]
        t = scenario_build(make_spec(types=("entangled", "mixed")))
        a, b = (System(state=s.state, dynamics=semigroup(s.dynamics, 0.7))
                for s in (t.system_a, t.system_b))

        def refused(*args, **kwargs):
            raise AssertionError("is_balanced called dual")

        monkeypatch.setattr(balance, "dual", refused)
        monkeypatch.setattr(channels, "dual", refused)
        again = [is_balanced(t.system_a, t.system_b, t.coupling)
                 for t in map(scenario_build, standard_grid())]
        assert [r.to_json() for r in again] == [r.to_json() for r in reports]
        rep = is_balanced(a, b, t.coupling)
        tight = is_balanced(a, b, t.coupling, tol=1e-30)
        assert rep.balanced and rep.method_agreement
        assert (tight.residual, tight.definition_residual) == (rep.residual, rep.definition_residual)


class TestThetaSqdb:
    @pytest.mark.parametrize("l,expected", [(0.3, False), (0.5, True), (0.7, False)])
    def test_shift_weight_half(self, l, expected):
        triple = scenario_systems(k=(l, l), l=(l, l))
        th = ReversingOperation(dim=7)
        rep = check_theta_sqdb(triple.system_b, th)
        assert rep.sqdb is expected
        assert rep.via_balance is expected
        assert rep.methods_agree

    def test_identity_dynamics(self):
        s = new_faithful_state(random_state_vector(3, seed=2))
        sys_id = System(state=s, dynamics=identity_channel(3))
        rep = check_theta_sqdb(sys_id, ReversingOperation(dim=3))
        assert rep.sqdb and rep.via_balance

    def test_hamiltonian_does_not_break_sqdb(self):
        # the dual keeps the same Hamiltonian term, so any diagonal h is allowed
        triple = scenario_systems(k=(0.5, 0.5), l=(0.5, 0.5), h=(0.3,) * 3 + (0.1,) * 4)
        rep = check_theta_sqdb(triple.system_b, ReversingOperation(dim=7))
        assert rep.sqdb and rep.methods_agree

    def test_no_dual_system_and_no_balance_call(self, monkeypatch):
        """via_balance is read off the direct difference S_Theta' - S: the
        reports are those of a run that builds no System, no diagonal
        coupling and calls no is_balanced."""
        systems = [scenario_systems(k=(l, l), l=(l, l)).system_b for l in (0.3, 0.5)]
        systems.append(System(state=systems[0].state, dynamics=semigroup(systems[0].dynamics, 1.0)))
        th = ReversingOperation(dim=7)
        reports = [check_theta_sqdb(sys, th).to_json() for sys in systems]

        def refused(*args, **kwargs):
            raise AssertionError("check_theta_sqdb formed a second system")

        for name in ("System", "diagonal_coupling", "is_balanced"):
            monkeypatch.setattr(balance, name, refused, raising=False)
        assert [check_theta_sqdb(sys, th).to_json() for sys in systems] == reports

    def test_non_unital_channel_is_not_sqdb(self):
        """a -> Tr(rho a) c with Tr(rho c) = 1 and c != 1 preserves the
        state but is not unital, so it is not its own dual, whose state
        preservation would need it unital."""
        s = new_faithful_state([0.25, 0.75])
        c = np.diag([2.0, 2.0 / 3.0]) + 0.1 * np.array([[0.0, 1.0], [1.0, 0.0]])
        ch = channels.QuantumChannel(
            dim_in=2, dim_out=2, superoperator=np.outer(c.T.reshape(-1), s.rho.T.reshape(-1))
        )
        rep = check_theta_sqdb(System(state=s, dynamics=ch), ReversingOperation(dim=2))
        assert (rep.sqdb, rep.via_balance, rep.methods_agree) == (False, False, True)


class TestKmsSymmetry:
    def test_identity(self):
        s = new_faithful_state(random_state_vector(3, seed=3))
        assert is_kms_symmetric(System(state=s, dynamics=identity_channel(3)))

    def test_constant_channel_tracial(self):
        s = new_faithful_state([1 / 3] * 3)
        assert is_kms_symmetric(System(state=s, dynamics=constant_channel(s)))

    def test_cycle_half_weights(self):
        triple = scenario_systems(k=(0.5, 0.5), l=(0.5, 0.5))
        assert is_kms_symmetric(triple.system_a)

    def test_cycle_generic_weights_not_symmetric(self):
        triple = scenario_systems()
        assert not is_kms_symmetric(triple.system_a)


class TestFlipSymmetry:
    def test_hypothesis_not_met(self):
        triple = scenario_systems()
        rep = kms_symmetry_flip_check(
            triple.system_a, triple.system_b, triple.coupling
        )
        assert not rep.hypothesis_met

    def test_balanced_pair(self):
        spec = make_spec(types=("entangled", "entangled"), k=(0.5, 0.5), l=(0.5, 0.5))
        triple = scenario_build(spec)
        rep = kms_symmetry_flip_check(triple.system_a, triple.system_b, triple.coupling)
        assert rep.hypothesis_met
        assert rep.forward_balanced and rep.backward_balanced and rep.equivalent

    def test_product_coupling_consistent(self):
        spec = make_spec(types=("product", "product"), k=(0.5, 0.5), l=(0.5, 0.5))
        triple = scenario_build(spec)
        w = product_coupling(triple.system_a.state, triple.system_b.state)
        rep = kms_symmetry_flip_check(triple.system_a, triple.system_b, w)
        assert rep.hypothesis_met and rep.equivalent

    def test_theta_variant(self):
        spec = make_spec(types=("entangled", "entangled"), k=(0.5, 0.5), l=(0.5, 0.5))
        triple = scenario_build(spec)
        th = ReversingOperation(dim=7)
        rep = kms_symmetry_flip_check(
            triple.system_a, triple.system_a, triple.coupling, th=th
        )
        assert rep.hypothesis_met
        assert rep.theta_forward is not None
        assert rep.theta_equivalent


class TestDualOrder:
    def test_product_coupling(self):
        triple = scenario_systems(l=(0.8, 0.2))
        w = product_coupling(triple.system_a.state, triple.system_b.state)
        rep = dual_order_check(triple.system_a, triple.system_b, w)
        assert rep.primal and rep.dual_pair and rep.kms_pair and rep.consistent

    def test_diagonal_same_system(self):
        triple = scenario_systems()
        d = diagonal_coupling(triple.system_a.state)
        rep = dual_order_check(triple.system_a, triple.system_a, d)
        assert rep.primal and rep.dual_pair and rep.kms_pair and rep.consistent

    def test_balanced_scenario(self):
        triple = scenario_build(make_spec(types=("entangled", "mixed")))
        rep = dual_order_check(triple.system_a, triple.system_b, triple.coupling)
        assert rep.primal and rep.consistent

    def test_unbalanced_scenario(self):
        triple = scenario_build(
            make_spec(types=("entangled", "entangled"), l=(0.3, 0.5))
        )
        rep = dual_order_check(triple.system_a, triple.system_b, triple.coupling)
        assert not rep.primal and not rep.dual_pair and not rep.kms_pair
        assert rep.consistent

    def test_kms_duals_are_flips_of_the_duals(self, monkeypatch):
        """The KMS-duals are the KMS flips of the two duals just made: two
        duals a call (is_balanced forms none), no kms_dual, and the report
        of the reference duals and residuals."""
        diag = diagonal_coupling(new_faithful_state([0.31, 0.07, 0.22, 0.15, 0.25]))
        generic = [System(state=diag.state_a, dynamics=preserving_generator(diag.state_a, seed))
                   for seed in (5, 6)]
        cases = [
            scenario_build(make_spec(types=("entangled", "mixed"))),
            scenario_build(make_spec(types=("entangled", "entangled"), l=(0.3, 0.5))),
        ]
        cases = [(t.system_a, t.system_b, t.coupling) for t in cases]
        cases += [(generic[0], generic[0], diag), (generic[0], generic[1], diag)]
        new = [json.dumps(dual_order_check(*case).to_json()) for case in cases]
        use_references(monkeypatch)
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[0])
            return dual_reference(*args, **kwargs)

        def refused(*args, **kwargs):
            raise AssertionError("dual_order_check called kms_dual")

        monkeypatch.setattr(balance, "dual", counted)
        monkeypatch.setattr(balance, "kms_dual", refused)
        assert [json.dumps(dual_order_check(*case).to_json()) for case in cases] == new
        assert len(calls) == 2 * len(cases)

    def test_dual_systems_preserve_state(self):
        sys_a = scenario_systems(g=(0.2,) * 3 + (0.0,) * 4).system_a
        s = sys_a.state
        for d in (
            dual(sys_a.dynamics, s, s),
            kms_dual(sys_a.dynamics, s, s),
            theta_kms_dual(sys_a.dynamics, s, ReversingOperation(dim=7)),
        ):
            System(state=s, dynamics=d)


class TestStateChecks:
    """sampled_balance checks its triple once, and dual_order_check wraps
    its two duals in systems but not the KMS-duals, which preserve the
    states exactly when the duals do: the reports are those of every
    dynamics wrapped in a System and judged by is_balanced, with fewer
    state checks (``states.preserves_state``)."""

    @staticmethod
    def cases():
        g = tuple(np.linspace(-0.9, 0.8, 12))
        specs = [
            make_spec(types=("entangled", "mixed")),
            make_spec(types=("entangled", "entangled"), l=(0.3, 0.5)),
            make_spec(types=("entangled",), partition=((0,),), k=(0.4,), l=(0.4,), g=g,
                      h=tuple(np.add(g, 0.1)), cycles=(12,), block_probs=(1.0,)),
        ]
        return [(t.system_a, t.system_b, t.coupling) for t in map(scenario_build, specs)]

    @staticmethod
    def counted(monkeypatch) -> list:
        calls = []
        real = states.preserves_state

        def counted(*args, **kwargs):
            calls.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(states, "preserves_state", counted)
        return calls

    def test_sampled_balance(self, monkeypatch):
        ts = (0.1, 1.0, 5.0)
        for sys_a, sys_b, w in self.cases():
            want = [(t, is_balanced(*(System(state=s.state, dynamics=semigroup(s.dynamics, t))
                                      for s in (sys_a, sys_b)), w).to_json()) for t in ts]
            calls = self.counted(monkeypatch)
            got = sampled_balance(sys_a, sys_b, w, ts)
            assert json.dumps([(t, rep.to_json()) for t, rep in got]) == json.dumps(want)
            assert calls == []

    def test_dual_order_check(self, monkeypatch):
        for sys_a, sys_b, w in self.cases():
            s_a, s_b = sys_a.state, sys_b.state
            d_b = System(state=s_b, dynamics=dual(sys_b.dynamics, s_b, s_b))
            d_a = System(state=s_a, dynamics=dual(sys_a.dynamics, s_a, s_a))
            k_b = System(state=s_b, dynamics=_kms_conjugate(d_b.dynamics))
            k_a = System(state=s_a, dynamics=_kms_conjugate(d_a.dynamics))
            verdicts = (is_balanced(sys_a, sys_b, w).balanced,
                        is_balanced(d_b, d_a, flip_coupling(w)).balanced,
                        is_balanced(k_b, k_a, kms_flip(w)).balanced)
            calls = self.counted(monkeypatch)
            rep = dual_order_check(sys_a, sys_b, w)
            assert (rep.primal, rep.dual_pair, rep.kms_pair) == verdicts
            assert rep.consistent == (len(set(verdicts)) == 1)
            assert len(calls) == 2


class TestErgodicity:
    def test_identity_not_ergodic(self):
        s = new_faithful_state([0.5, 0.5])
        assert not is_ergodic(System(state=s, dynamics=identity_channel(2)))

    def test_constant_channel_ergodic(self):
        s = new_faithful_state(random_state_vector(3, seed=4))
        assert is_ergodic(System(state=s, dynamics=constant_channel(s)))

    def test_two_cycle_not_ergodic(self):
        triple = scenario_systems()
        assert not is_ergodic(triple.system_b)

    def test_single_cycle_with_generic_hamiltonian_ergodic(self):
        s = new_faithful_state([1 / 3] * 3)
        gen = cycle_generator((3,), [0.4], [0.1, 0.25, 0.47])
        assert is_ergodic(System(state=s, dynamics=gen))


class TestDisjointnessProbe:
    def test_ergodic_no_witness(self):
        s = new_faithful_state(random_state_vector(3, seed=5))
        rep = disjointness_probe(System(state=s, dynamics=constant_channel(s)))
        assert rep.ergodic and not rep.witness_found

    def test_two_cycle_block_projections(self):
        # a generic Hamiltonian trims the fixed algebra to the block projections
        spec = make_spec(
            l=(0.3, 0.6), h=(0.1, 0.25, 0.47, 0.0, 0.33, 0.71, 0.9)
        )
        triple = scenario_build(spec)
        rep = disjointness_probe(triple.system_b)
        assert not rep.ergodic
        assert rep.fixed_space_dim == 2
        assert rep.witness_found
        assert rep.balance_residual <= 1e-9
        assert rep.nontriviality_gap > 1e-3

    def test_two_cycle_shift_commutant(self):
        # without a Hamiltonian the fixed algebra is the full commutant of the
        # two shifts: one spectral projection per cycle eigenvalue
        triple = scenario_systems()
        rep = disjointness_probe(triple.system_b)
        assert rep.fixed_space_dim == 7
        assert rep.witness_found

    def test_identity_dynamics_full_algebra(self):
        s = new_faithful_state(random_state_vector(2, seed=6))
        rep = disjointness_probe(System(state=s, dynamics=identity_channel(2)))
        assert rep.fixed_space_dim == 4
        assert rep.witness_found

    def test_forms_no_dual(self, monkeypatch):
        """The witness is read off the fixed-point basis: the reports are
        those of a run in which dual refuses to be called."""
        triple = scenario_systems(h=(0.1, 0.25, 0.47, 0.0, 0.33, 0.71, 0.9))
        chan = System(state=triple.system_b.state, dynamics=semigroup(triple.system_b.dynamics, 1.0))
        systems = [triple.system_a, triple.system_b, chan]
        reports = [disjointness_probe(sys).to_json() for sys in systems]
        assert all(r["witness_found"] for r in reports)

        def refused(*args, **kwargs):
            raise AssertionError("disjointness_probe called dual")

        monkeypatch.setattr(balance, "dual", refused)
        monkeypatch.setattr(channels, "dual", refused)
        assert [disjointness_probe(sys).to_json() for sys in systems] == reports


def random_unitary(d: int, seed: int) -> np.ndarray:
    g = np.random.default_rng(seed)
    q, r = np.linalg.qr(g.normal(size=(d, d)) + 1j * g.normal(size=(d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestWitnessNormsAreBasisFree:
    """nontriviality_gap and balance_residual are spectral norms of matrices
    with one row or column per fixed-point basis element, linear in it:
    recomputed on the basis mixed by a random unitary, they agree to 1e-13
    relative to the scale of each (the gap itself; the scale of the
    dynamics, which the balance verdict divides by, for the residual, which
    is rounding noise)."""

    SYSTEMS = {
        "two-cycle-generator": lambda: scenario_build(
            make_spec(l=(0.3, 0.6), h=(0.1, 0.25, 0.47, 0.0, 0.33, 0.71, 0.9))
        ).system_b,
        "shift-commutant": lambda: scenario_systems().system_b,
        "shift-commutant-channel": lambda: System(
            state=scenario_systems().system_b.state,
            dynamics=semigroup(scenario_systems().system_b.dynamics, 1.0),
        ),
        "identity-channel": lambda: System(
            state=new_faithful_state(random_state_vector(3, seed=8)), dynamics=identity_channel(3)
        ),
    }

    @pytest.mark.parametrize("case", sorted(SYSTEMS))
    @pytest.mark.parametrize("seed", [1, 2])
    def test_mixed_basis(self, monkeypatch, case, seed):
        sys = self.SYSTEMS[case]()
        rep = disjointness_probe(sys)
        basis = np.stack(rep.witness_basis)
        u = random_unitary(len(basis), seed)
        mixed = list(np.tensordot(u, basis, axes=1))
        monkeypatch.setattr(balance, "fixed_point_space", lambda dyn, tol: mixed)
        again = disjointness_probe(sys)
        assert again.witness_found == rep.witness_found
        assert abs(again.nontriviality_gap - rep.nontriviality_gap) <= 1e-13 * rep.nontriviality_gap
        scale = sys.dynamics.scale
        assert abs(again.balance_residual - rep.balance_residual) <= 1e-13 * scale


class TestAlgebraDefectChunks:
    """The closure check of disjointness_probe forms the x y products a few
    rows at a time; the chunks change neither the defect nor the report."""

    @pytest.mark.parametrize(
        "make_system",
        [
            lambda: System(
                state=new_faithful_state(random_state_vector(6, seed=7)),
                dynamics=identity_channel(6),
            ),
            lambda: scenario_systems().system_b,
        ],
        ids=["identity n=6", "two-cycle shift commutant"],
    )
    def test_chunked_equals_one_chunk(self, monkeypatch, make_system):
        sys_x = make_system()
        stack = np.stack(fixed_point_space(sys_x.dynamics))
        dim, n, _ = stack.shape
        one = disjointness_probe(sys_x)
        one_defect = balance._algebra_defect(stack)
        assert dim * dim * n * n <= balance._CLOSURE_ENTRY_BUDGET
        monkeypatch.setattr(balance, "_CLOSURE_ENTRY_BUDGET", 2 * dim * n * n + 1)
        # ceil(dim / 2) chunks of two x each
        chunked = disjointness_probe(sys_x)
        assert balance._algebra_defect(stack) == one_defect
        assert dumps_canonical(chunked.to_json()) == dumps_canonical(one.to_json())
        assert all(np.array_equal(a, b) for a, b in zip(chunked.witness_basis, one.witness_basis))


def single_cycle_triple(entangled=True, k=0.4, g=(0.05, 0.21, 0.47)):
    spec = make_spec(
        cycles=(3,),
        block_probs=(1.0,),
        partition=((0,),),
        types=("entangled",) if entangled else ("product",),
        k=(k,),
        l=(k,),
        g=g,
        h=g,
    )
    return scenario_build(spec)


class TestConvergenceProbe:
    def test_certified_single_cycle(self):
        triple = single_cycle_triple()
        rep = convergence_probe(
            triple.system_a, triple.system_b, triple.coupling, (1.0,)
        )
        assert rep.certified
        assert rep.gap > 1e-3
        t_star = rep.threshold_time
        rep2 = convergence_probe(
            triple.system_a, triple.system_b, triple.coupling, (1.0, t_star)
        )
        assert rep2.passed
        assert rep2.deviations[-1][1] <= 1e-6
        assert not rep2.vacuous

    def test_product_coupling_vacuous(self):
        triple = single_cycle_triple(entangled=False)
        rep = convergence_probe(
            triple.system_a, triple.system_b, triple.coupling, (1.0, 100.0)
        )
        assert rep.vacuous
        assert "vacuous" in rep.message

    def test_uncertified_without_hamiltonian(self):
        triple = single_cycle_triple(g=(0.0, 0.0, 0.0))
        rep = convergence_probe(
            triple.system_a, triple.system_b, triple.coupling, (1.0,)
        )
        assert not rep.certified
        assert rep.passed is None
        assert "inapplicable" in rep.message

    def test_zero_generator_is_uncertified(self):
        # scale 0: every eigenvalue is zero (0/0 = 0), so the kernel is not
        # the scalars and there is no gap
        s = new_faithful_state([0.5, 0.3, 0.2])
        sys_0 = System(state=s, dynamics=LindbladGenerator(dim=3, superoperator=np.zeros((9, 9))))
        rep = convergence_probe(sys_0, sys_0, diagonal_coupling(s), (1.0,))
        assert rep.certified is False and rep.gap is None
        assert rep.deviations == [(1.0, 0.8)]
        assert rep.threshold_time is None and rep.passed is None
        assert "inapplicable" in rep.message

    def test_requires_balance(self):
        triple = scenario_build(
            make_spec(types=("entangled", "entangled"), l=(0.3, 0.5))
        )
        with pytest.raises(ValueError, match="balanced"):
            convergence_probe(
                triple.system_a, triple.system_b, triple.coupling, (1.0,)
            )

    def test_requires_generators(self):
        s = new_faithful_state([0.5, 0.5])
        sys_id = System(state=s, dynamics=identity_channel(2))
        with pytest.raises(ValueError, match="generator"):
            convergence_probe(sys_id, sys_id, diagonal_coupling(s), (1.0,))
