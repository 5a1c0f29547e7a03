"""The probes as superoperator contractions against their matrix-unit loops.

is_orthogonal, disjointness_probe and convergence_probe read the images of
the matrix units from the superoperators they already hold, and the
definition of balance is read from the pairing matrix of the coupling.  The
loops and four-index contractions they replaced are kept in conftest as
references; verdicts must be equal and residuals equal to rounding.
ReversingOperation.validate judges its unitary, against the loop over matrix
units of the identities that the unitary stands for.
"""

import dataclasses
import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from balance_lab.balance import (
    _spanning_traces,
    convergence_probe,
    disjointness_probe,
    is_balanced,
)
from balance_lab.channels import (
    ReversingOperation,
    _kms_flip,
    dual,
    identity_channel,
    kms_dual,
)
from balance_lab.couplings import (
    Coupling,
    _weigh_rows,
    compose,
    coupling_from_channel,
    diagonal_coupling,
    extract_channel,
    flip_coupling,
    is_orthogonal,
    kms_flip,
    product_coupling,
    validate_coupling,
)
from balance_lab import balance, couplings, kernel
from balance_lab.kernel import _factor, eigenvalues, matrix_unit, vec
from balance_lab.lindblad import (
    scenario_build,
    scenario_coupling,
    scenario_predict,
    semigroup,
    standard_grid,
)
from balance_lab.states import System, new_faithful_state

from conftest import (
    GENERIC7,
    assert_same_spectrum,
    convergence_probe_loop,
    definition_contractions,
    disjointness_probe_loop,
    is_balanced_dense,
    is_orthogonal_loop,
    kraus_coupling,
    make_spec,
    preserving_generator,
    random_matrix,
    random_state_vector,
    rescaled_triple,
    reversing_validate_loop,
    rng,
    spanning_density_matrices_dense,
    spanning_density_matrices_loop,
    spectral_certificate_loop,
    swapped,
)

RTOL, ATOL = 1e-12, 1e-15

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


def product_mixture(w: Coupling, eps: float) -> Coupling:
    """(1 - eps) times the product coupling of w's states plus eps times w;
    its extracted channel is (1 - eps) S_0 + eps E_w."""
    prod = product_coupling(w.state_a, w.state_b)
    kappa = (1 - eps) * prod.kappa + eps * w.kappa
    return Coupling(kappa=kappa, state_a=w.state_a, state_b=w.state_b)


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

    @pytest.mark.parametrize("p_min", [1e-1, 1e-3, 1e-6, 1e-9])
    def test_near_cut_window(self, p_min):
        """On generic couplings the two methods may disagree only where both
        relative residuals, at the composition's scale, lie within a factor
        10 of tol: mixtures (1 - eps) S_0 + eps E of the constant channel and
        a random 2 -> 3 Kraus channel, on either side of the composition, for
        eps = 1e-6 ... 1e-12, reach both verdicts and that window."""
        mid = new_faithful_state([p_min, 0.4, 0.6 - p_min])
        tol = kernel.DEFAULT_TOL
        outside, in_window, verdicts = [], 0, set()
        for seed in range(12):
            left = kraus_coupling(2, mid, seed=seed)
            right = kraus_coupling(2, mid, seed=seed + 100)
            for k in range(6, 13):
                eps = 10.0**-k
                for w, psi in (
                    (product_mixture(left, eps), flip_coupling(right)),
                    (left, flip_coupling(product_mixture(right, eps))),
                ):
                    rep = is_orthogonal(w, psi)
                    prod = np.kron(w.state_a.rho, psi.state_b.rho)
                    scale = max(kernel.frob_norm(compose(w, psi).kappa), kernel.frob_norm(prod))
                    near = all(
                        tol / 10 <= r / scale <= 10 * tol for r in (rep.residual, rep.cross_gram_norm)
                    )
                    in_window += near
                    verdicts.add(rep.orthogonal)
                    if not rep.methods_agree and not near:
                        outside.append((seed, k, rep.to_json()))
        assert outside == []
        assert in_window > 0 and verdicts == {True, False}


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


def near_product_triple(eps):
    """A certified single cycle paired with itself through
    (1 - eps) rho (x) rho + eps kappa_diag."""
    triple = single_cycle_triple()
    s = triple.system_a.state
    kappa = (1 - eps) * product_coupling(s, s).kappa + eps * diagonal_coupling(s).kappa
    return dataclasses.replace(
        triple, system_b=triple.system_a, coupling=Coupling(kappa=kappa, state_a=s, state_b=s)
    )


CONVERGENCE = {
    "certified": (single_cycle_triple(), (1.0, 1000.0)),
    "certified-n7": (scenario_build(SINGLE7), (0.5, 3.0, 1000.0)),
    "certified-short-grid": (single_cycle_triple(), (1.0,)),
    "uncertified": (single_cycle_triple(g=(0.0, 0.0, 0.0)), (1.0, 5.0)),
    "uncertified-multi-cycle": (scenario_build(MULTI7), (0.1, 1.0, 5.0)),
    "vacuous": (single_cycle_triple(entangled=False), (1.0, 100.0)),
    # within tol of the product coupling, and clear of it
    "vacuous-near-product": (near_product_triple(1e-12), (1.0, 1000.0)),
    "certified-off-product": (near_product_triple(1e-3), (1.0, 1000.0)),
    # a mixed coupling: S_E is zero off the diagonal matrix units
    "certified-mixed-n7": (
        scenario_build(dataclasses.replace(SINGLE7, block_types=("mixed",))),
        (0.5, 1000.0),
    ),
}


class TestConvergenceProbe:
    @pytest.mark.parametrize("m", [1, 2, 3, 5, 16])
    def test_spanning_rows_pair_by_trace(self, m):
        # the traces read off the rows of vec(b), column by column, against
        # np.trace of each state, and against the dense product they
        # replaced; for one column and for several
        states = spanning_density_matrices_loop(m)
        for k in (1, 4):
            bs = [random_matrix(m, seed=100 * m + c) for c in range(k)]
            x = np.stack([vec(b) for b in bs], axis=1)
            got = _spanning_traces(x, m)
            assert got.shape == (m * m, k)
            np.testing.assert_allclose(got, [[np.trace(lam @ b) for b in bs] for lam in states],
                                       rtol=RTOL)
            np.testing.assert_allclose(got, spanning_density_matrices_dense(m) @ x, rtol=RTOL)

    @pytest.mark.parametrize("case", sorted(CONVERGENCE))
    def test_matches_loop(self, case):
        triple, times = CONVERGENCE[case]
        args = (triple.system_a, triple.system_b, triple.coupling, times)
        assert_json_match(convergence_probe(*args).to_json(), convergence_probe_loop(*args).to_json())

    @pytest.mark.parametrize("case", sorted(CONVERGENCE))
    def test_spectrum_matches_dense(self, case):
        # convergence_probe_loop shares the block-wise spectrum with the
        # probe, so the gap and the certificate are checked here against the
        # dense spectrum
        triple, times = CONVERGENCE[case]
        gen = triple.system_a.dynamics
        assert_same_spectrum(
            eigenvalues(gen.superoperator), np.linalg.eigvals(gen.superoperator), 1e-12
        )
        gap, zeros, certified = spectral_certificate_loop(gen, np.linalg.eigvals)
        assert spectral_certificate_loop(gen, eigenvalues)[1] == zeros
        rep = convergence_probe(triple.system_a, triple.system_b, triple.coupling, times)
        assert rep.certified == certified
        if gap is None:
            assert rep.gap is None
        else:
            np.testing.assert_allclose(rep.gap, gap, rtol=RTOL, atol=ATOL)

    @pytest.mark.parametrize("case", ["certified", "uncertified-multi-cycle"])
    def test_spectrum_reads_the_generator_split(self, case, monkeypatch):
        """The spectrum is taken over the split that the generator holds,
        with the bits of the split scanned on L, and nothing scans it again."""
        triple, times = CONVERGENCE[case]
        args = (triple.system_a, triple.system_b, triple.coupling, times)
        gen = triple.system_a.dynamics
        assert eigenvalues(gen.superoperator, gen.invariant_blocks).tobytes() == \
            eigenvalues(gen.superoperator).tobytes()
        want = json.dumps(convergence_probe(*args).to_json())
        monkeypatch.setattr(kernel, "_invariant_blocks", None)
        assert json.dumps(convergence_probe(*args).to_json()) == want

    def test_short_grid_is_extended_to_the_threshold_time(self):
        triple, times = CONVERGENCE["certified-short-grid"]
        rep = convergence_probe(triple.system_a, triple.system_b, triple.coupling, times)
        assert [t for t, _ in rep.deviations] == [1.0, rep.threshold_time]
        assert rep.deviations[-1][1] <= 1e-6

    def test_cases_cover_the_branches(self):
        def probe(case):
            triple, times = CONVERGENCE[case]
            return convergence_probe(triple.system_a, triple.system_b, triple.coupling, times)

        assert probe("certified").passed is True and not probe("certified").vacuous
        assert probe("certified-n7").passed is True
        assert probe("certified-short-grid").passed is True
        assert not probe("uncertified").certified
        assert not probe("uncertified-multi-cycle").certified
        assert probe("vacuous").certified and probe("vacuous").vacuous
        near = probe("vacuous-near-product")
        assert near.certified and near.vacuous
        off = probe("certified-off-product")
        assert off.certified and not off.vacuous
        mixed = probe("certified-mixed-n7")
        assert mixed.passed is True and not mixed.vacuous

    def test_cases_cover_zero_columns(self):
        # the probe evolves only the nonzero columns of S_E
        partial = {
            case
            for case, (triple, _) in CONVERGENCE.items()
            if not isinstance(_factor(extract_channel(triple.coupling).superoperator).cols, slice)
        }
        assert {"vacuous", "certified-mixed-n7"} <= partial
        assert "certified" not in partial

    @pytest.mark.parametrize("case", sorted(CONVERGENCE))
    def test_no_extracted_channel(self, case, monkeypatch):
        """The probe reads S_E from the coupling's factor and judges vacuity
        on kappa weighed: it never builds the extracted channel."""
        triple, times = CONVERGENCE[case]
        args = (triple.system_a, triple.system_b, triple.coupling, times)
        want = json.dumps(convergence_probe(*args).to_json())

        def refuse(w):
            raise AssertionError("convergence_probe extracted the channel")

        # balance no longer imports it; set there too, it would refuse a
        # call that imported it again
        for module in (balance, couplings):
            monkeypatch.setattr(module, "extract_channel", refuse, raising=False)
        assert json.dumps(convergence_probe(*args).to_json()) == want


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


SIGMA_Y = np.array([[0.0, -1j], [1j, 0.0]])


def symmetric_unitary(n: int, seed: int) -> np.ndarray:
    """q q^T for a random unitary q: u conj(u) = 1, and no phase pattern."""
    q, _ = np.linalg.qr(random_matrix(n, seed=seed))
    return q @ q.T


# spin-flip time reversal (u conj(u) = -1), alone and as a direct sum, and
# symmetric unitaries with no structure, built into operations in the tests
VALID_UNITARIES = {
    "sigma-y": SIGMA_Y,
    "sigma-y-sum": np.kron(np.eye(2), SIGMA_Y),
    "symmetric-3": symmetric_unitary(3, seed=3),
    "symmetric-6": symmetric_unitary(6, seed=6),
}


def judge_case(name: str) -> tuple[ReversingOperation, bool]:
    if name in VALID_UNITARIES:
        u = VALID_UNITARIES[name]
        return ReversingOperation(dim=len(u), unitary=u), True
    return reversing_cases()[name]


def perturbation_sites(n: int, count: int = 6):
    """Every entry of an n x n unitary for n <= 3, else ``count`` seeded
    random (row, column) pairs."""
    if n <= 3:
        return list(itertools.product(range(n), repeat=2))
    return [tuple(map(int, rc)) for rc in rng(n).integers(n, size=(count, 2))]


def perturbed_unitaries(n: int, eps: float, count: int):
    """(site, operation) for one entry of u moved by eps, at each site of
    :func:`perturbation_sites`, for plain transposition (u = 1) and for
    diagonal phases, set after construction."""
    phases = np.exp(1j * rng(n + 100).uniform(0.0, 2 * np.pi, n))
    for u in (np.eye(n, dtype=complex), np.diag(phases)):
        for row, col in perturbation_sites(n, count):
            v = u.copy()
            v[row, col] += eps
            yield (row, col), swapped(ReversingOperation(dim=n), v)


class TestGeneratorJudge:
    """validate judges the unitary, u* u = 1 and u conj(u) = +-1 entry by
    entry; the loop reference judges the identities of Theta on every pair
    of matrix units.  The two verdicts must agree."""

    @pytest.mark.parametrize("case", sorted(reversing_cases()) + sorted(VALID_UNITARIES))
    def test_matches_loop(self, case):
        th, expected = judge_case(case)
        assert th.validate() is expected
        assert reversing_validate_loop(th) is expected

    @pytest.mark.parametrize("case", sorted(reversing_cases()) + sorted(VALID_UNITARIES))
    def test_global_phase_keeps_verdict(self, case):
        """u and e^(i phi) u give one Theta, and one verdict."""
        th, expected = judge_case(case)
        u = np.eye(th.dim) if th.unitary is None else th.unitary
        for phi in (0.3, -1.9, np.pi):
            assert swapped(ReversingOperation(dim=th.dim), np.exp(1j * phi) * u).validate() is expected

    @pytest.mark.parametrize("n", [2, 3, 7, 16])
    def test_rejects_entry_perturbations(self, n):
        for site, th in perturbed_unitaries(n, 1e-6, count=6):
            assert th.validate() is False, site
            assert reversing_validate_loop(th) is False, site

    @pytest.mark.parametrize("n", [2, 3, 7, 16])
    def test_accepts_rounding_perturbations(self, n):
        for site, th in perturbed_unitaries(n, 1e-13, count=2):
            assert th.validate() is True, site
            assert reversing_validate_loop(th) is True, site


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


GRID = standard_grid()


def pairing_cases():
    """The built-in grid couplings and both couplings of every orthogonality
    case, which add n != m, complex kappa and flipped Kraus couplings."""
    cases = {f"grid-{i}": scenario_coupling(spec) for i, spec in enumerate(GRID)}
    for name, (w, psi) in ORTHOGONALITY.items():
        cases[f"{name}-w"], cases[f"{name}-psi"] = w, psi
    return cases


PAIRING = pairing_cases()


def as_ijkl(x, n, m):
    """An m^2 x n^2 matrix indexed [k + m*l, i + n*j] as an (i, j, k, l) array."""
    return x.reshape(m, m, n, n).transpose(3, 2, 1, 0)


class TestPairing:
    """Coupling.pairing is P[k + m*l, i + n*j] = omega(E_ij (x) E_kl); the
    flips are exact permutations of P, and the definition defect of balance
    is P S_alpha - S_beta'^T P."""

    @pytest.mark.parametrize("case", sorted(ORTHOGONALITY))
    def test_entries_are_traces(self, case):
        for w in ORTHOGONALITY[case]:
            n, m = w.dims
            oracle = np.zeros((m * m, n * n), dtype=complex)
            for i, j, k, l in itertools.product(range(n), range(n), range(m), range(m)):
                unit = np.kron(matrix_unit(n, i, j), matrix_unit(m, k, l))
                oracle[k + m * l, i + n * j] = np.trace(w.kappa @ unit)
            assert np.array_equal(w.pairing(), oracle)

    def test_flips_permute_the_pairing(self):
        wrong = []
        for name, w in PAIRING.items():
            p = w.pairing()
            if not np.array_equal(flip_coupling(w).pairing(), p.T):
                wrong.append(("flip", name))
            if not np.array_equal(kms_flip(w).pairing(), _kms_flip(p.T)):
                wrong.append(("kms_flip", name))
        assert wrong == []

    def test_definition_defect_matches_contractions(self):
        worst = {}
        for seed, (name, w) in enumerate(sorted(PAIRING.items())):
            n, m = w.dims
            s_alpha = random_matrix(n * n, seed=2 * seed)
            s_beta_dual = random_matrix(m * m, seed=2 * seed + 1)
            lhs, rhs = definition_contractions(w.kappa, w.dims, s_alpha, s_beta_dual)
            p = w.pairing()
            defect = as_ijkl(p @ s_alpha - s_beta_dual.T @ p, n, m)
            worst[name] = np.linalg.norm(defect - (lhs - rhs)) / np.linalg.norm(lhs - rhs)
        assert max(worst.values()) <= 1e-13, max(worst, key=worst.get)

    @pytest.mark.parametrize("q", [None, 1e-12])
    def test_definition_residual_is_componentwise(self, q):
        """The defect over the same contractions taken with |kappa|, |S_alpha|
        and |S_beta'|, largest entry, 0/0 = 0; at p_min = 1e-12 too."""
        wrong = []
        for i, spec in enumerate(GRID):
            if q is not None:
                spec = dataclasses.replace(spec, block_probs=(3 * q, 1 - 3 * q))
            t = scenario_build(spec)
            w = t.coupling
            s_alpha = t.system_a.dynamics.superoperator
            s_b = t.system_b.state
            s_beta_dual = dual(t.system_b.dynamics, s_b, s_b).superoperator
            lhs, rhs = definition_contractions(w.kappa, w.dims, s_alpha, s_beta_dual)
            size = sum(
                definition_contractions(np.abs(w.kappa), w.dims, np.abs(s_alpha), np.abs(s_beta_dual))
            )
            defect = np.abs(lhs - rhs)
            with np.errstate(divide="ignore", invalid="ignore"):
                expected = float(np.max(np.where(defect == 0.0, 0.0, defect / size)))
            got = is_balanced(t.system_a, t.system_b, w).definition_residual
            if scenario_predict(spec):
                ok = got <= 1e-13 and expected <= 1e-13
            else:
                ok = got == pytest.approx(expected, rel=1e-12) and got > 1e-3
            if not ok:
                wrong.append((i, got, expected))
        assert wrong == []

    @pytest.mark.parametrize("kind", ["generator", "channel"])
    def test_generic_definition_residual_is_componentwise(self, kind):
        """The same reference, built from the dual beta', on generic
        systems: every pairing and rectangular coupling, direct sums, the
        product coupling of each (balanced) and, on one state, a system
        against itself through the diagonal coupling (balanced).  Equal
        verdicts, and the residual within 1e-12 relative of the reference
        when unbalanced, below 1e-13 with it when balanced."""
        wrong, balanced = [], 0
        for name, sys_a, sys_b, w in generic_balance_cases(kind):
            s_alpha = sys_a.dynamics.superoperator
            s_b = sys_b.state
            s_beta_dual = dual(sys_b.dynamics, s_b, s_b).superoperator
            lhs, rhs = definition_contractions(w.kappa, w.dims, s_alpha, s_beta_dual)
            size = sum(
                definition_contractions(np.abs(w.kappa), w.dims, np.abs(s_alpha), np.abs(s_beta_dual))
            )
            defect = np.abs(lhs - rhs)
            with np.errstate(divide="ignore", invalid="ignore"):
                expected = float(np.max(np.where(defect == 0.0, 0.0, defect / size)))
            rep = is_balanced(sys_a, sys_b, w)
            got = rep.definition_residual
            if rep.balanced != (expected <= rep.tol):
                ok = False
            elif rep.balanced:
                balanced += 1
                ok = got <= 1e-13 and expected <= 1e-13
            else:
                ok = got == pytest.approx(expected, rel=1e-12)
            if not ok:
                wrong.append((name, got, expected))
        assert wrong == []
        assert balanced > 0


# ---------------------------------------------------------------------------
# is_balanced over the support of S_E against the four dense products


def preserving_systems(w: Coupling, kind: str, seed: int) -> tuple[System, System]:
    """Systems on the two states of w with generators from
    preserving_generator, or their channels at t = 0.7."""
    systems = []
    for k, state in enumerate((w.state_a, w.state_b)):
        gen = preserving_generator(state, 2 * seed + k)
        dyn = gen if kind == "generator" else semigroup(gen, 0.7)
        systems.append(System(state=state, dynamics=dyn))
    return systems[0], systems[1]


def direct_sum_coupling(n: int, m: int, count: int, seed: int) -> Coupling:
    """A coupling of random faithful states on C^n and C^m that is a direct
    sum of ``count`` blocks.  Block b sits on A_b (x) B_b for random disjoint
    index sets, so P is zero on every row (k, l) and column (i, j) whose two
    indices lie in different blocks.  A block is a product, or, when
    |A_b| = |B_b|, a mixed or an entangled block on matched spectra."""
    g = rng(seed)
    a_block = g.permutation(np.arange(n) % count)
    b_block = g.permutation(np.arange(m) % count)
    mass = g.dirichlet(np.ones(count))
    p_a, p_b = np.zeros(n), np.zeros(m)
    kappa = np.zeros((n * m, n * m), dtype=complex)
    for b in range(count):
        ia, ib = np.flatnonzero(a_block == b), np.flatnonzero(b_block == b)
        pa = mass[b] * g.dirichlet(np.ones(ia.size))
        p_a[ia] = pa
        kind = g.choice(["product", "mixed", "entangled"]) if ia.size == ib.size else "product"
        if kind == "product":
            pb = mass[b] * g.dirichlet(np.ones(ib.size))
            p_b[ib] = pb
            # e_i (x) e_k has index i m + k
            idx = (ia[:, None] * m + ib[None, :]).ravel()
            kappa[idx, idx] = np.outer(pa, pb).ravel() / mass[b]
            continue
        p_b[ib] = pa
        idx = ia * m + ib
        if kind == "mixed":
            kappa[idx, idx] = pa
        else:
            kappa[np.ix_(idx, idx)] = np.outer(np.sqrt(pa), np.sqrt(pa))
    return Coupling(kappa=kappa, state_a=new_faithful_state(p_a), state_b=new_faithful_state(p_b))


def assert_matches_dense(sys_a, sys_b, w):
    """Equal verdicts and method agreement, residuals equal to rounding."""
    new, dense = is_balanced(sys_a, sys_b, w), is_balanced_dense(sys_a, sys_b, w)
    assert (new.balanced, new.method_agreement) == (dense.balanced, dense.method_agreement)
    assert_json_match(new.to_json(), dense.to_json())


def full_support(w: Coupling) -> bool:
    f = _factor(w.pairing())
    return isinstance(f.rows, slice) and isinstance(f.cols, slice)


def rectangular_couplings():
    """The couplings of the orthogonality cases with n != m, and a product
    coupling, which balances any two systems."""
    cases = {name: w for name, w in PAIRING.items() if w.dims[0] != w.dims[1]}
    cases["2-3-product"] = product_coupling(P2, P3)
    return cases


RECTANGULAR = rectangular_couplings()


def generic_balance_cases(kind: str):
    """(name, sys_a, sys_b, w) on generic systems (preserving_systems):
    every coupling of PAIRING and RECTANGULAR, direct sums, and the product
    coupling of each, which balances any two systems; and for a coupling of
    one state, the first system against itself through the diagonal
    coupling, which is balanced too."""
    couplings = {**PAIRING, **RECTANGULAR}
    for n, m, count, seed in itertools.product((2, 3, 5), (2, 4), (1, 2), (0, 1)):
        couplings[f"sum-{n}-{m}-{count}-{seed}"] = direct_sum_coupling(n, m, count, seed)
    for seed, (name, w) in enumerate(sorted(couplings.items())):
        sys_a, sys_b = preserving_systems(w, kind, seed)
        yield name, sys_a, sys_b, w
        yield f"{name}-product", sys_a, sys_b, product_coupling(w.state_a, w.state_b)
        if w.state_a.same_state(w.state_b):
            yield f"{name}-diagonal", sys_a, sys_a, diagonal_coupling(w.state_a)


class TestSupportProducts:
    """is_balanced multiplies only over the rows and columns of S_E that hold
    a nonzero (kernel._factor); conftest.is_balanced_dense is the four dense
    products it replaced."""

    def test_full_support_gives_the_dense_bits(self):
        single, single3, two = scenario_build(SINGLE7), single_cycle_triple(), scenario_build(MULTI7)
        cases = {
            "single-7-cycle": (single.system_a, single.system_b, single.coupling),
            "single-3-cycle": (single3.system_a, single3.system_b, single3.coupling),
            "diagonal": (two.system_a, two.system_a, diagonal_coupling(two.system_a.state)),
        }
        for kind in ("generator", "channel"):
            w = kraus_coupling(2, P3, seed=1)
            cases[f"kraus-{kind}"] = (*preserving_systems(w, kind, seed=1), w)
        for name, (sys_a, sys_b, w) in cases.items():
            assert full_support(w), name
            new, dense = is_balanced(sys_a, sys_b, w), is_balanced_dense(sys_a, sys_b, w)
            for key, value in dense.to_json().items():
                got = new.to_json()[key]
                if isinstance(value, float):
                    assert np.float64(got).tobytes() == np.float64(value).tobytes(), (name, key)
                else:
                    assert got == value, (name, key)

    @pytest.mark.parametrize("c", [1e8, 1.0, 1e-3, 1e-9, 1e-12])
    def test_grid_at_every_rate_scale(self, c):
        partial = 0
        for spec in GRID:
            sys_a, sys_b, w = rescaled_triple(spec, c)
            assert_matches_dense(sys_a, sys_b, w)
            partial += not full_support(w)
        assert partial > 0

    @pytest.mark.parametrize("e", range(2, 13))
    def test_pmin_sweep(self, e):
        q = 10.0**-e
        for spec in GRID:
            t = scenario_build(dataclasses.replace(spec, block_probs=(3 * q, 1 - 3 * q)))
            assert_matches_dense(t.system_a, t.system_b, t.coupling)

    @pytest.mark.parametrize("kind", ["generator", "channel"])
    @pytest.mark.parametrize("case", sorted(RECTANGULAR))
    def test_rectangular(self, case, kind):
        w = RECTANGULAR[case]
        sys_a, sys_b = preserving_systems(w, kind, seed=len(case))
        assert_matches_dense(sys_a, sys_b, w)
        if case == "2-3-product":
            assert not full_support(w)
            assert is_balanced(sys_a, sys_b, w).balanced

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(2, 5),
        st.integers(2, 5),
        st.integers(1, 4),
        st.sampled_from(["generator", "channel"]),
        st.integers(0, 10_000),
    )
    def test_direct_sums(self, n, m, count, kind, seed):
        count = min(count, n, m)
        w = direct_sum_coupling(n, m, count, seed)
        assert validate_coupling(w).valid
        if count > 1:
            f = _factor(w.pairing())
            assert not isinstance(f.rows, slice) and not isinstance(f.cols, slice)
        sys_a, sys_b = preserving_systems(w, kind, seed)
        assert_matches_dense(sys_a, sys_b, w)
        # the product coupling of the same states balances any two systems
        prod = product_coupling(w.state_a, w.state_b)
        assert_matches_dense(sys_a, sys_b, prod)
        assert is_balanced(sys_a, sys_b, prod).balanced


def gather_cases():
    """Triples at n = 12 and 16 whose pairing matrix the cost rule gathers:
    a balanced entangled single cycle (generators, and their channels at
    t = 1), and under the diagonal coupling a two-cycle system against
    itself, against its dual (balance with the KMS-dual, of which standard
    detailed balance is the special case) and against the second system of
    its scenario (unbalanced), and its dual against
    it (unbalanced; the dual's superoperator, a transposed view, is the
    gathered operand of is_balanced's products); at n = 12 also two
    generators on a state with distinct eigenvalues, so that S_E's row
    weights differ from row to row."""
    cases = {}
    for n in (12, 16):
        g = np.linspace(-0.8, 0.9, n) ** 3
        spec = make_spec(types=("entangled",), partition=((0,),), k=(0.35,), l=(0.35,),
                         g=tuple(g), h=tuple(g + 0.2), cycles=(n,), block_probs=(1.0,))
        t = scenario_build(spec)
        a, b, w = t.system_a, t.system_b, t.coupling
        cases[f"{n}-cycle"] = (a, b, w, True)
        chan = [System(state=s.state, dynamics=semigroup(s.dynamics, 1.0)) for s in (a, b)]
        cases[f"{n}-cycle-channels"] = (*chan, w, True)
        t = scenario_build(make_spec(cycles=(n // 2, n - n // 2), g=tuple(g), h=tuple(g[::-1])))
        sys = t.system_a
        diag = diagonal_coupling(sys.state)
        cases[f"{n}-diagonal"] = (sys, sys, diag, True)
        dual_sys = System(state=sys.state, dynamics=dual(sys.dynamics, sys.state, sys.state))
        cases[f"{n}-diagonal-dual"] = (sys, dual_sys, diag, False)
        cases[f"{n}-dual-diagonal"] = (dual_sys, sys, diag, False)
        cases[f"{n}-diagonal-other"] = (sys, t.system_b, diag, False)
    diag = diagonal_coupling(new_faithful_state(rng(12).dirichlet(np.ones(12))))
    sys_a, sys_b = preserving_systems(diag, "generator", seed=12)
    cases["12-generic-state"] = (sys_a, sys_a, diag, True)
    cases["12-generic-state-other"] = (sys_a, sys_b, diag, False)
    return cases


GATHER = gather_cases()


class TestGatherProducts:
    """At n >= 12 the cost rule gathers the products of a single-cycle or a
    diagonal pairing matrix (kernel._factor); on the dense route of
    is_balanced the report keeps the bits of the four dense products
    (conftest.is_balanced_dense).  These triples take the pattern route,
    which sums the same terms in another order: the same verdicts, and
    floats that agree to rounding."""

    @pytest.mark.parametrize("name", sorted(GATHER))
    def test_report_bits(self, name, monkeypatch):
        sys_a, sys_b, w, balanced = GATHER[name]
        p = w.pairing()
        assert full_support(w) and np.count_nonzero(p, axis=1).max() == 1, name
        assert _factor(p).left is not None, name
        dense = is_balanced_dense(sys_a, sys_b, w)
        assert_json_match(is_balanced(sys_a, sys_b, w).to_json(), dense.to_json())
        # the dense route, which the cost rule takes when the terms are too many
        monkeypatch.setattr(balance, "_defect_on_pattern", lambda *args: None)
        new = is_balanced(sys_a, sys_b, w)
        assert json.dumps(new.to_json()) == json.dumps(dense.to_json()), name
        assert new.balanced == balanced and new.method_agreement, name

    @pytest.mark.parametrize("n", [12, 16])
    def test_dual_operand_is_a_transposed_view(self, n):
        """The dual-first case hands is_balanced an F-ordered superoperator,
        which only the gather puts in C order (kernel._gather_product)."""
        s_alpha = GATHER[f"{n}-dual-diagonal"][0].dynamics.superoperator
        assert s_alpha.flags.f_contiguous and not s_alpha.flags.c_contiguous

    def test_gathered_extraction_bits(self):
        """_weigh_rows weighs the gathered entries of P in the order in which
        it weighs the dense P, so the products with S_E see S_E's bits."""
        w = GATHER["12-generic-state"][2]
        p, r = w.pairing(), w.state_b.inv_sqrt_spectrum
        s_e = _weigh_rows(_factor(p), r)
        eye, want = np.eye(p.shape[0]), _weigh_rows(p, r)
        assert (s_e @ eye + 0.0).tobytes() == (want + 0.0).tobytes()
        assert (eye @ s_e + 0.0).tobytes() == (want + 0.0).tobytes()

    @pytest.mark.parametrize("n", [12, 16])
    def test_convergence_matches_blas(self, n, monkeypatch):
        """convergence_probe evolves S_E by column gather; with the cost rule
        sent to BLAS the report has the same bytes."""
        sys_a, sys_b, w, _ = GATHER[f"{n}-cycle"]
        gathered = convergence_probe(sys_a, sys_b, w, (1.0, 30.0))
        monkeypatch.setattr(kernel, "GATHER_COST", 10**9)
        # a fresh coupling: w keeps the gathered factor it was read through
        fresh = Coupling(kappa=w.kappa, state_a=w.state_a, state_b=w.state_b)
        assert fresh.factor.left is None and fresh.factor.right is None
        dense = convergence_probe(sys_a, sys_b, fresh, (1.0, 30.0))
        assert gathered.certified
        assert json.dumps(gathered.to_json()) == json.dumps(dense.to_json())

    @pytest.mark.parametrize("n", [12, 16])
    def test_convergence_zero_rows_match_loop(self, n):
        """S_E of two entangled n/2-cycles is zero on the rows (k, l) and the
        columns (i, j) that join different cycles: the probe evolves its
        n^2 / 2 nonzero columns over its n^2 / 2 nonzero rows only, by BLAS
        at n = 12 and by column gather at n = 16, and matches the
        matrix-unit loop."""
        g = np.linspace(-0.8, 0.9, n) ** 3
        spec = make_spec(types=("entangled", "entangled"), k=(0.35, 0.6), l=(0.35, 0.6),
                         g=tuple(g), h=tuple(g + 0.2), cycles=(n // 2, n // 2),
                         block_probs=(0.4, 0.6))
        t = scenario_build(spec)
        s_e = _factor(extract_channel(t.coupling).superoperator)
        assert s_e.rows.size == s_e.cols.size == n * n // 2
        assert (s_e.right is not None) == (n == 16)
        args = (t.system_a, t.system_b, t.coupling, (1.0,))
        assert_json_match(convergence_probe(*args).to_json(), convergence_probe_loop(*args).to_json())
