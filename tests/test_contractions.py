"""The probes as superoperator contractions against their matrix-unit loops.

is_orthogonal, disjointness_probe, convergence_probe and
ReversingOperation.validate read the images of the matrix units from the
superoperators they already hold.  The loops they replaced are kept in
conftest as references; verdicts must be equal and residuals equal to
rounding.
"""

import numpy as np
import pytest

from balance_lab.balance import (
    _spanning_density_matrices,
    convergence_probe,
    disjointness_probe,
)
from balance_lab.channels import (
    ReversingOperation,
    channel_from_kraus,
    identity_channel,
    kms_dual,
)
from balance_lab.couplings import (
    Coupling,
    coupling_from_channel,
    diagonal_coupling,
    extract_channel,
    flip_coupling,
    is_orthogonal,
    kms_flip,
    product_coupling,
)
from balance_lab.kernel import vec
from balance_lab.lindblad import scenario_build, scenario_coupling, semigroup
from balance_lab.states import System, new_faithful_state

from conftest import (
    convergence_probe_loop,
    disjointness_probe_loop,
    is_orthogonal_loop,
    make_spec,
    random_matrix,
    random_state_vector,
    reversing_validate_loop,
    spanning_density_matrices_loop,
)

RTOL, ATOL = 1e-12, 1e-15

GENERIC7 = tuple(np.linspace(-0.6, 0.9, 7))
# two cycles (3, 4) and one 7-cycle, both balanced, at n = 7
MULTI7 = make_spec()
SINGLE7 = make_spec(
    types=("entangled",),
    partition=((0,),),
    k=(0.3,),
    l=(0.3,),
    g=GENERIC7,
    h=GENERIC7,
    cycles=(7,),
    block_probs=(1.0,),
)


def assert_json_match(new, old, path="report"):
    assert type(new) is type(old), path
    if isinstance(new, dict):
        assert list(new) == list(old), path
        for k in new:
            assert_json_match(new[k], old[k], f"{path}.{k}")
    elif isinstance(new, (list, tuple)):
        assert len(new) == len(old), path
        for i, (a, b) in enumerate(zip(new, old)):
            assert_json_match(a, b, f"{path}[{i}]")
    elif isinstance(new, float):
        np.testing.assert_allclose(new, old, rtol=RTOL, atol=ATOL, err_msg=path)
    else:
        assert new == old, path


def classical_coupling(sa, sb) -> Coupling:
    """The diagonal coupling of the north-west-corner joint distribution of
    two spectra: kappa = sum_ik P(i, k) E_ii (x) E_kk."""
    a, b = list(sa.spectrum), list(sb.spectrum)
    n, m = len(a), len(b)
    joint = np.zeros((n, m))
    i = k = 0
    while i < n and k < m:
        joint[i, k] = min(a[i], b[k])
        a[i] -= joint[i, k]
        b[k] -= joint[i, k]
        if a[i] <= 1e-15:
            i += 1
        else:
            k += 1
    return Coupling(kappa=np.diag(joint.reshape(-1)).astype(complex), state_a=sa, state_b=sb)


def kraus_coupling(n: int, state_b, seed: int) -> Coupling:
    """The coupling of a random u.c.p. channel M_n -> M_m (three Kraus
    operators) onto (M_m, state_b), from the state it pulls state_b back to.

    For a unital T with T^dagger(rho_B) = U diag(s) U*, the channel
    a -> T(U a U*) carries diag(s) to rho_B.  Its images mix the matrix
    units and both states are non-degenerate, so nothing in the cross-Gram
    is symmetric by accident.
    """
    m = state_b.dim
    g = np.random.default_rng(seed)
    q, _ = np.linalg.qr(g.normal(size=(3 * n, m)) + 1j * g.normal(size=(3 * n, m)))
    kraus = q.reshape(3, n, m)  # sum_j V_j* V_j = 1_m
    pulled = sum(v @ state_b.rho @ v.conj().T for v in kraus)
    s, u = np.linalg.eigh(pulled)
    state_a = new_faithful_state(s / s.sum())
    channel = channel_from_kraus([u.conj().T @ v for v in kraus])
    return coupling_from_channel(channel, state_a, state_b)


P2 = new_faithful_state([0.3, 0.7])
P3 = new_faithful_state([0.2, 0.3, 0.5])
P4 = new_faithful_state([0.1, 0.2, 0.3, 0.4])


def orthogonality_cases():
    single = scenario_coupling(SINGLE7)
    s7 = single.state_a
    return {
        "multi-cycle": (
            scenario_coupling(MULTI7),
            scenario_coupling(make_spec(types=("product", "entangled"))),
        ),
        "single-cycle-diagonal": (single, diagonal_coupling(s7)),
        "single-cycle-product": (single, product_coupling(s7, s7)),
        "2-3-4-product-classical": (product_coupling(P2, P3), classical_coupling(P3, P4)),
        "2-3-4-classical-product": (classical_coupling(P2, P3), product_coupling(P3, P4)),
        "2-3-4-classical-classical": (classical_coupling(P2, P3), classical_coupling(P3, P4)),
        "4-3-2-classical-classical": (classical_coupling(P4, P3), classical_coupling(P3, P2)),
        "2-3-4-kraus": (kraus_coupling(2, P3, seed=1), flip_coupling(kraus_coupling(4, P3, seed=2))),
        "4-3-2-kraus": (kraus_coupling(4, P3, seed=3), flip_coupling(kraus_coupling(2, P3, seed=4))),
        "2-3-4-kraus-product": (kraus_coupling(2, P3, seed=5), product_coupling(P3, P4)),
    }


ORTHOGONALITY = orthogonality_cases()


class TestIsOrthogonal:
    @pytest.mark.parametrize("case", sorted(ORTHOGONALITY))
    def test_matches_loop(self, case):
        w, psi = ORTHOGONALITY[case]
        assert_json_match(is_orthogonal(w, psi).to_json(), is_orthogonal_loop(w, psi).to_json())

    def test_cases_cover_both_verdicts(self):
        verdicts = {is_orthogonal(*ORTHOGONALITY[c]).orthogonal for c in ORTHOGONALITY}
        assert verdicts == {True, False}
        for case in ("2-3-4-classical-classical", "2-3-4-kraus", "4-3-2-kraus"):
            assert not is_orthogonal(*ORTHOGONALITY[case]).orthogonal
        assert is_orthogonal(*ORTHOGONALITY["2-3-4-kraus-product"]).orthogonal


def disjointness_cases():
    two_cycle = scenario_build(make_spec(h=(0.1, 0.25, 0.47, 0.0, 0.33, 0.71, 0.9)))
    multi = scenario_build(MULTI7)
    single = scenario_build(SINGLE7)
    s3 = new_faithful_state(random_state_vector(3, seed=6))

    def channel(sys, t=1.0):
        return System(state=sys.state, dynamics=semigroup(sys.dynamics, t))

    return {
        "multi-generator-a": multi.system_a,
        "multi-generator-b": multi.system_b,
        "two-cycle-generator": two_cycle.system_b,
        "two-cycle-channel": channel(two_cycle.system_b),
        "multi-channel": channel(multi.system_b),
        "single-cycle-generator": single.system_b,
        "single-cycle-channel": channel(single.system_b),
        "identity-channel": System(state=s3, dynamics=identity_channel(3)),
    }


DISJOINTNESS = disjointness_cases()


class TestDisjointnessProbe:
    @pytest.mark.parametrize("case", sorted(DISJOINTNESS))
    def test_matches_loop(self, case):
        sys = DISJOINTNESS[case]
        assert_json_match(disjointness_probe(sys).to_json(), disjointness_probe_loop(sys).to_json())

    def test_cases_cover_both_kinds_and_verdicts(self):
        reports = {c: disjointness_probe(s) for c, s in DISJOINTNESS.items()}
        assert reports["two-cycle-channel"].witness_found
        assert reports["two-cycle-generator"].witness_found
        assert reports["single-cycle-channel"].ergodic
        assert reports["identity-channel"].fixed_space_dim == 9


def single_cycle_triple(entangled=True, g=(0.05, 0.21, 0.47)):
    spec = make_spec(
        cycles=(3,),
        block_probs=(1.0,),
        partition=((0,),),
        types=("entangled",) if entangled else ("product",),
        k=(0.4,),
        l=(0.4,),
        g=g,
        h=g,
    )
    return scenario_build(spec)


CONVERGENCE = {
    "certified": (single_cycle_triple(), (1.0, 1000.0)),
    "certified-n7": (scenario_build(SINGLE7), (0.5, 3.0, 1000.0)),
    "certified-short-grid": (single_cycle_triple(), (1.0,)),
    "uncertified": (single_cycle_triple(g=(0.0, 0.0, 0.0)), (1.0, 5.0)),
    "uncertified-multi-cycle": (scenario_build(MULTI7), (0.1, 1.0, 5.0)),
    "vacuous": (single_cycle_triple(entangled=False), (1.0, 100.0)),
}


class TestConvergenceProbe:
    @pytest.mark.parametrize("m", [1, 2, 5])
    def test_spanning_rows_pair_by_trace(self, m):
        b = random_matrix(m, seed=m)
        expected = [np.trace(lam @ b) for lam in spanning_density_matrices_loop(m)]
        np.testing.assert_allclose(_spanning_density_matrices(m) @ vec(b), expected, rtol=RTOL)

    @pytest.mark.parametrize("case", sorted(CONVERGENCE))
    def test_matches_loop(self, case):
        triple, times = CONVERGENCE[case]
        args = (triple.system_a, triple.system_b, triple.coupling, times)
        assert_json_match(convergence_probe(*args).to_json(), convergence_probe_loop(*args).to_json())

    def test_cases_cover_the_branches(self):
        def probe(case):
            triple, times = CONVERGENCE[case]
            return convergence_probe(triple.system_a, triple.system_b, triple.coupling, times)

        assert probe("certified").passed is True and not probe("certified").vacuous
        assert probe("certified-n7").passed is True
        assert probe("certified-short-grid").passed is None
        assert not probe("uncertified").certified
        assert not probe("uncertified-multi-cycle").certified
        assert probe("vacuous").certified and probe("vacuous").vacuous


def swapped(th: ReversingOperation, unitary) -> ReversingOperation:
    """th with its unitary replaced after construction, bypassing the checks
    of the constructor (before the superoperator is first read)."""
    object.__setattr__(th, "unitary", np.asarray(unitary, dtype=complex))
    return th


def reversing_cases():
    return {
        "transpose-3": (ReversingOperation(dim=3), True),
        "transpose-7": (ReversingOperation(dim=7), True),
        "phase-7": (
            ReversingOperation(dim=7, unitary=np.diag(np.exp(1j * np.array(GENERIC7)))),
            True,
        ),
        # u conj(u) = diag(-i, i): Theta o Theta is not the identity
        "swapped-not-involutive": (
            swapped(ReversingOperation(dim=2), [[0, 1], [1j, 0]]),
            False,
        ),
        # u conj(u) = 1 but u is not unitary: an involution that is not
        # antimultiplicative
        "swapped-not-antimultiplicative": (
            swapped(ReversingOperation(dim=2), [[1, 0.5], [0, -1]]),
            False,
        ),
    }


class TestReversingValidate:
    @pytest.mark.parametrize("case", sorted(reversing_cases()))
    def test_matches_loop(self, case):
        th, expected = reversing_cases()[case]
        assert th.validate() is expected
        assert reversing_validate_loop(th) is expected

    def test_antimultiplicativity_is_judged(self):
        th = swapped(ReversingOperation(dim=2), [[1, 0.5], [0, -1]])
        u = th.unitary
        assert np.allclose(u @ u.conj(), np.eye(2))
        assert not th.validate()


class TestKmsFlip:
    """kms_flip is the index permutation kappa -> flip(kappa)^T; its channel
    must be the KMS-dual, which the plain flip (the dual) is not."""

    @pytest.mark.parametrize("n, seed", [(2, 1), (4, 3), (2, 5)])
    def test_extracts_kms_dual(self, n, seed):
        w = kraus_coupling(n, P3, seed=seed)
        got = extract_channel(kms_flip(w)).superoperator
        expected = kms_dual(extract_channel(w), w.state_a, w.state_b).superoperator
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)
        plain = extract_channel(flip_coupling(w)).superoperator
        assert np.max(np.abs(plain - expected)) > 1e-3
