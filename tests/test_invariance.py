"""Metamorphic tests of the tolerance policy.

Balance, sqdb, KMS symmetry and fixed points are linear in the dynamics, so
every verdict must survive a rescaling of time, a relabelling of the cycles
of a scenario and a change of the smallest state eigenvalue p_min; the two
zero generators are the degenerate 0/0 case of the relative-residual rule.
Balance must also read the same in its equivalent forms: through the duals
and KMS-duals in reversed order, and at sampled times of the semigroups.  The
dual must commute with a change of frame that fixes the state.
"""

import dataclasses
from functools import lru_cache

import numpy as np
import pytest

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
from balance_lab.channels import ReversingOperation, change_frame, dual, validate_ucp
from balance_lab.couplings import (
    Coupling,
    compose,
    coupling_from_channel,
    diagonal_coupling,
    extract_channel,
    flip_coupling,
    has_scalar_range,
    is_orthogonal,
    is_trivial,
    product_coupling,
    validate_coupling,
)
from balance_lab.lindblad import (
    ScenarioSpec,
    build_generator,
    scenario_build,
    scenario_coupling,
    scenario_predict,
    scenario_state,
    semigroup,
    standard_grid,
)
from balance_lab.states import System, new_faithful_state

from conftest import assert_relative_close, convergence_probe_loop, make_spec, rescaled_triple

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
    # at every q, and so does method agreement: the definition residual is
    # the componentwise cut of the one defect D = S_E S_alpha - S_beta S_E,
    # in which the KMS weights sqrt(p) cancel entry by entry, so no dual
    # divides by them.
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
        assert disagree == []

    @pytest.mark.parametrize("e", range(2, 13))
    def test_witness_at_pmin(self, e):
        """The two-cycle system whose fixed algebra is the two block
        projections, as a generator and at t = 1: the witness is found at
        every q, since its gap is read at the scale of the fixed-point basis,
        where the 3-cycle's projection counts whatever its weight."""
        q = 10.0**-e
        spec = make_spec(l=(0.3, 0.6), h=(0.1, 0.25, 0.47, 0.0, 0.33, 0.71, 0.9),
                         block_probs=(3 * q, 1 - 3 * q))
        sys = scenario_build(spec).system_b
        chan = System(state=sys.state, dynamics=semigroup(sys.dynamics, 1.0))
        for x in (sys, chan):
            rep = disjointness_probe(x)
            assert rep.fixed_space_dim == 2
            assert rep.witness_found == (not rep.ergodic)

    @pytest.mark.parametrize("e", [10, 11, 12])
    def test_convergence_vacuity_at_pmin(self, e):
        """The probe's vacuity is the loop's rank rule on the scenario
        coupling and on the product coupling of each balanced block layout
        (vacuity reads the coupling alone).  The sweep reaches couplings
        that is_trivial, which reads kappa at kappa's scale, calls the
        product while the loop does not."""
        q = 10.0**-e
        layouts, kappa_scale_wrong = set(), 0
        for spec in GRID:
            spec = dataclasses.replace(spec, block_probs=(3 * q, 1 - 3 * q))
            layout = (spec.partition, spec.block_types)
            if layout in layouts or not scenario_predict(spec):
                continue
            layouts.add(layout)
            triple = scenario_build(spec)
            w = triple.coupling
            for x in (w, product_coupling(w.state_a, w.state_b)):
                args = (triple.system_a, triple.system_b, x, (1.0,))
                want = convergence_probe_loop(*args).vacuous
                assert convergence_probe(*args).vacuous == want
                kappa_scale_wrong += is_trivial(x) != want
        assert len(layouts) == 12
        assert kappa_scale_wrong > 0

    @pytest.mark.parametrize("e", range(2, 13))
    def test_orthogonality_at_pmin(self, e):
        """Both orthogonality methods cut at the composition's scale, so they
        agree at every q, and the direct one is is_trivial of the composition.
        That is a judgement at kappa's scale: from q = 1e-10 on, the sweep
        reaches compositions whose channel has_scalar_range judges otherwise."""
        q = 10.0**-e
        disagree, trivial_wrong, channel_scale_differs = [], [], 0
        for i, spec in enumerate(GRID):
            spec = dataclasses.replace(spec, block_probs=(3 * q, 1 - 3 * q))
            w = scenario_coupling(spec)
            for psi in (diagonal_coupling(w.state_b), w, flip_coupling(w)):
                rep = is_orthogonal(w, psi)
                composed = compose(w, psi)
                if not rep.methods_agree:
                    disagree.append(i)
                if rep.orthogonal != is_trivial(composed):
                    trivial_wrong.append(i)
                channel_scale_differs += has_scalar_range(composed) != rep.hilbert_criterion
        assert disagree == []
        assert trivial_wrong == []
        if e >= 10:
            assert channel_scale_differs > 0


def diagonal_phases(n: int, seed: int) -> np.ndarray:
    return np.diag(np.exp(1j * np.random.default_rng(seed).uniform(0.0, 2 * np.pi, n)))


def cycle_unitary(spec: ScenarioSpec, seed: int) -> np.ndarray:
    """A random unitary on each cycle of a scenario, as one block-diagonal
    matrix: it commutes with the scenario state, which is constant on each
    cycle."""
    g = np.random.default_rng(seed)
    n = sum(spec.cycle_lengths)
    u = np.zeros((n, n), dtype=complex)
    start = 0
    for r in spec.cycle_lengths:
        q, t = np.linalg.qr(g.normal(size=(r, r)) + 1j * g.normal(size=(r, r)))
        u[start : start + r, start : start + r] = q * (np.diag(t) / np.abs(np.diag(t)))
        start += r
    return u


class TestFrameCovariance:
    """Verdicts are covariant under a change of frame by unitaries that fix
    the state.  The dual commutes with it:
    dual(change_frame(dyn, v, v)) = change_frame(dual(dyn), v*, v*) for
    diagonal phases v, on both generators of every grid spec and on their
    channels at t = 1.  And balance survives it: with Ad_u o . o Ad_u*
    applied to both dynamics and to the extracted channel, for a random
    unitary u on each cycle, every grid triple keeps its predicted verdict,
    since E o alpha - beta o E is conjugated as a whole."""

    @pytest.mark.parametrize("index", range(len(GRID)))
    def test_dual_of_rotated_dynamics(self, index):
        triple = scenario_build(GRID[index])
        s = triple.system_a.state
        v = diagonal_phases(s.dim, seed=index)
        for sys in (triple.system_a, triple.system_b):
            for dyn in (sys.dynamics, semigroup(sys.dynamics, 1.0)):
                lhs = dual(change_frame(dyn, v, v), s, s)
                rhs = change_frame(dual(dyn, s, s), v.conj().T, v.conj().T)
                assert lhs.kind == rhs.kind == dyn.kind
                assert_relative_close(lhs.superoperator, rhs.superoperator)

    @pytest.mark.parametrize("index", range(len(GRID)))
    def test_balance_of_rotated_triple(self, index):
        spec = GRID[index]
        triple = scenario_build(spec)
        s = triple.system_a.state
        u = cycle_unitary(spec, seed=index)
        assert np.allclose(u @ s.rho, s.rho @ u, rtol=0, atol=1e-15)

        def rotate(dyn):
            # Ad_u o dyn o Ad_u*
            return change_frame(dyn, u.conj().T, u.conj().T)

        a, b = (System(state=s, dynamics=rotate(x.dynamics)) for x in (triple.system_a, triple.system_b))
        w = coupling_from_channel(rotate(extract_channel(triple.coupling)), s, s)
        assert is_balanced(a, b, w).balanced == scenario_predict(spec)
