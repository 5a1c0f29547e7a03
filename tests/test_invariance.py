"""Metamorphic tests of the tolerance policy.

Balance, sqdb, KMS symmetry and fixed points are linear in the dynamics, so
every verdict must survive a rescaling of time, a relabelling of the cycles
of a scenario and a change of the smallest state eigenvalue p_min; the two
zero generators are the degenerate 0/0 case of the relative-residual rule.
Balance must also read the same in its equivalent forms: through the duals
and KMS-duals in reversed order, and at sampled times of the semigroups.
"""

import dataclasses
from functools import lru_cache

import numpy as np
import pytest

from balance_lab.balance import (
    check_theta_sqdb,
    disjointness_probe,
    dual_order_check,
    is_balanced,
    is_ergodic,
    is_kms_symmetric,
    sampled_balance,
)
from balance_lab.channels import ReversingOperation, validate_ucp
from balance_lab.couplings import (
    Coupling,
    diagonal_coupling,
    extract_channel,
    product_coupling,
    validate_coupling,
)
from balance_lab.lindblad import (
    LindbladGenerator,
    ScenarioSpec,
    build_generator,
    scenario_build,
    scenario_predict,
    scenario_state,
    standard_grid,
)
from balance_lab.states import System, new_faithful_state

from conftest import make_spec

GRID = standard_grid()
SCALES = (1e8, 1.0, 1e-3, 1e-9, 1e-12)
# Both systems of the first six grid specs (both shift-weight options, all
# three Hamiltonian patterns; two cycles, so never ergodic), of a spec with
# shift weights 1/2 (KMS-symmetric and sqdb) and of a single-cycle spec with a
# generic Hamiltonian (ergodic).
PROBED = GRID[:6] + [
    make_spec(k=(0.5, 0.5), l=(0.5, 0.5), g=(0.3,) * 3 + (-0.2,) * 4),
    make_spec(
        types=("entangled",),
        partition=((0,),),
        k=(0.3,),
        l=(0.5,),
        g=tuple(np.linspace(-0.6, 0.9, 7)),
        cycles=(7,),
        block_probs=(1.0,),
    ),
]


def rescaled_triple(spec: ScenarioSpec, c: float):
    """Both generators of the scenario multiplied by c."""
    triple = scenario_build(spec)
    systems = [
        System(
            state=sys.state,
            dynamics=LindbladGenerator(dim=sys.dim, superoperator=c * sys.dynamics.superoperator),
        )
        for sys in (triple.system_a, triple.system_b)
    ]
    return systems[0], systems[1], triple.coupling


def balance_of(spec: ScenarioSpec, c: float = 1.0):
    return is_balanced(*rescaled_triple(spec, c))


def probe_verdicts(sys: System) -> tuple:
    sq = check_theta_sqdb(sys, ReversingOperation(dim=sys.dim))
    dj = disjointness_probe(sys)
    return (
        sq.sqdb,
        sq.via_balance,
        sq.methods_agree,
        is_kms_symmetric(sys),
        is_ergodic(sys),
        dj.ergodic,
        dj.witness_found,
        dj.fixed_space_dim,
    )


def probed_verdicts(c: float) -> tuple:
    return tuple(
        probe_verdicts(sys) for spec in PROBED for sys in rescaled_triple(spec, c)[:2]
    )


@lru_cache(maxsize=None)
def unscaled_verdicts() -> tuple:
    return probed_verdicts(1.0)


class TestRescaling:
    @pytest.mark.parametrize("c", SCALES)
    def test_balance_matches_prediction(self, c):
        wrong = []
        for i, spec in enumerate(GRID):
            rep = balance_of(spec, c)
            if rep.balanced != scenario_predict(spec) or not rep.method_agreement:
                wrong.append((i, rep.balanced, rep.method_agreement))
        assert wrong == []

    @pytest.mark.parametrize("c", [c for c in SCALES if c != 1.0])
    def test_probe_verdicts_unchanged(self, c):
        assert probed_verdicts(c) == unscaled_verdicts()

    def test_probed_systems_cover_both_verdicts(self):
        sqdb, _, agree, kms, ergodic, _, witness, dims = zip(*unscaled_verdicts())
        assert set(sqdb) == set(kms) == set(ergodic) == set(witness) == {True, False}
        assert all(agree) and len(set(dims)) > 2


class TestEquivalentForms:
    """Balance of the built-in grid is the same statement in every form the
    paper gives: primal, dual pair and KMS pair in reversed order, and the
    semigroups at sampled times."""

    def test_dual_order(self):
        wrong = []
        for i, spec in enumerate(GRID):
            t = scenario_build(spec)
            rep = dual_order_check(t.system_a, t.system_b, t.coupling)
            if not rep.consistent or rep.primal != scenario_predict(spec):
                wrong.append((i, rep.to_json()))
        assert wrong == []

    def test_sampled_times(self):
        wrong = []
        for i, spec in enumerate(GRID):
            t = scenario_build(spec)
            verdict = is_balanced(t.system_a, t.system_b, t.coupling).balanced
            for time, rep in sampled_balance(t.system_a, t.system_b, t.coupling, (0.1, 1.0, 5.0)):
                if rep.balanced != verdict:
                    wrong.append((i, time, rep.residual))
        assert wrong == []

    def test_grid_covers_both_verdicts(self):
        assert {scenario_predict(spec) for spec in GRID} == {True, False}


class TestZeroDynamics:
    def test_two_zero_generators_balanced(self):
        s = new_faithful_state([0.2, 0.3, 0.5])
        zero = System(state=s, dynamics=build_generator([], np.zeros((3, 3))))
        for w in (diagonal_coupling(s), product_coupling(s, s)):
            rep = is_balanced(zero, zero, w)
            assert rep.balanced and rep.method_agreement
            assert rep.residual == 0.0 and rep.definition_residual == 0.0
        assert is_kms_symmetric(zero)
        sq = check_theta_sqdb(zero, ReversingOperation(dim=3))
        assert sq.sqdb and sq.residual == 0.0 and sq.methods_agree


def permute_cycles(spec: ScenarioSpec, perm) -> ScenarioSpec:
    """The same scenario with cycle perm[c] moved to position c."""
    ranges = spec.cycle_ranges()
    where = {old: new for new, old in enumerate(perm)}
    basis = [q for old in perm for q in ranges[old]]
    return ScenarioSpec(
        cycle_lengths=tuple(spec.cycle_lengths[old] for old in perm),
        block_probs=tuple(spec.block_probs[old] for old in perm),
        partition=tuple(tuple(where[c] for c in blk) for blk in spec.partition),
        block_types=spec.block_types,
        k=tuple(spec.k[old] for old in perm),
        l=tuple(spec.l[old] for old in perm),
        g=tuple(spec.g[q] for q in basis),
        h=tuple(spec.h[q] for q in basis),
    )


class TestCyclePermutation:
    def test_builtin_grid_swapped(self):
        for spec in GRID:
            swapped = permute_cycles(spec, (1, 0))
            want, got = balance_of(spec), balance_of(swapped)
            assert scenario_predict(swapped) == scenario_predict(spec)
            assert (got.balanced, got.method_agreement) == (want.balanced, want.method_agreement)

    G3 = tuple(np.linspace(-0.5, 0.7, 12))
    # g - h is -0.2 on cycles 0 and 1 (one entangled block) ...
    H3 = tuple(x + 0.2 for x in G3[:7]) + tuple(0.1 * x for x in G3[7:])
    # ... or not constant on it
    H3_BAD = G3[:3] + H3[3:]

    @pytest.mark.parametrize("perm", [(1, 2, 0), (2, 0, 1), (2, 1, 0)])
    @pytest.mark.parametrize(
        "second, l, h, balanced",
        [
            ("mixed", (0.3, 0.6, 0.7), H3, True),
            ("product", (0.3, 0.6, 0.2), H3, True),
            ("mixed", (0.3, 0.6, 0.2), H3, False),
            ("product", (0.3, 0.6, 0.2), H3_BAD, False),
        ],
    )
    def test_three_cycles(self, perm, second, l, h, balanced):
        spec = make_spec(
            types=("entangled", second),
            partition=((0, 1), (2,)),
            k=(0.3, 0.6, 0.7),
            l=l,
            g=self.G3,
            h=h,
            cycles=(3, 4, 5),
            block_probs=(0.2, 0.3, 0.5),
        )
        moved = permute_cycles(spec, perm)
        want, got = balance_of(spec), balance_of(moved)
        assert scenario_predict(moved) == scenario_predict(spec) == want.balanced == balanced
        assert got.balanced == balanced and got.method_agreement and want.method_agreement


class TestPsdBoundary:
    @pytest.mark.parametrize("f", [0.0, 0.5, 2.0, 10.0])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_coupling_psd_iff_extracted_cp(self, f, sign):
        # kappa = rho (x) rho + lam (Omega Omega* - rho (x) rho) keeps its
        # marginals for every lam; on the maximally mixed state of dimension n
        # its spectrum is (1 - lam) / n^2 (n^2 - 1 times) and (1 - lam) / n^2 + lam,
        # and the Choi matrix of the extracted channel is n kappa^T, so the two
        # relative PSD margins coincide.  lam = 1 + f n^2 tol puts the smallest
        # relative eigenvalue at -f tol (sign 1) or above 0 (sign -1).
        n, tol = 7, 1e-9
        s = new_faithful_state(np.full(n, 1.0 / n))
        prod = product_coupling(s, s).kappa
        lam = 1.0 + sign * f * n * n * tol
        kappa = prod + lam * (diagonal_coupling(s).kappa - prod)
        w = Coupling(kappa=kappa, state_a=s, state_b=s)
        psd = validate_coupling(w, tol).psd
        assert psd == validate_ucp(extract_channel(w), tol).cp
        assert psd == (sign < 0 or f < 1.0)


class TestPminSweep:
    # block_probs (3q, 1 - 3q) put p_min = q on the 3-cycle.  The verdicts hold
    # at every q; below q = 1e-6 the definition residual, computed through a
    # dual that divides by the KMS weights sqrt(p), no longer agrees with the
    # intertwining residual on some specs (5 of 72 at 1e-7, 9 of 72 from 1e-8).
    @pytest.mark.parametrize("e", range(2, 13))
    def test_verdicts_at_pmin(self, e):
        q = 10.0**-e
        wrong, disagree = [], []
        for i, spec in enumerate(GRID):
            spec = dataclasses.replace(spec, block_probs=(3 * q, 1 - 3 * q))
            assert scenario_state(spec).spectrum.min() == pytest.approx(q, rel=1e-9)
            rep = balance_of(spec)
            if rep.balanced != scenario_predict(spec):
                wrong.append(i)
            if not rep.method_agreement:
                disagree.append(i)
        assert wrong == []
        if q >= 1e-6:
            assert disagree == []
