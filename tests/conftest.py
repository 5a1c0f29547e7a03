"""Shared fixtures and independent brute-force oracles.

The oracles here recompute quantities from their defining equations (index
loops, literal traces, linear-system assembly) so that the closed forms in
the package are checked against something that does not share their code
path.
"""

from __future__ import annotations

import numpy as np
import pytest

from balance_lab.balance import (
    ConvergenceReport,
    DisjointnessReport,
    is_balanced,
)
from balance_lab.channels import _dual, apply, dual, fixed_point_space
from balance_lab.couplings import Coupling, OrthogonalityReport, compose, extract_channel
from balance_lab.kernel import (
    DEFAULT_TOL,
    close,
    frob_distance,
    frob_norm,
    matrix_unit,
    relative_residual,
    unvec,
    vec,
)
from balance_lab.lindblad import ScenarioSpec, semigroup
from balance_lab.states import FaithfulState, kms_pairing


def rng(seed: int = 0) -> np.random.Generator:
    return np.random.default_rng(seed)


def random_matrix(n: int, m: int | None = None, seed: int = 0) -> np.ndarray:
    g = rng(seed)
    m = n if m is None else m
    return g.normal(size=(n, m)) + 1j * g.normal(size=(n, m))


def random_psd(n: int, seed: int = 0) -> np.ndarray:
    a = random_matrix(n, seed=seed)
    return a @ a.conj().T


def random_state_vector(n: int, seed: int = 0) -> np.ndarray:
    g = rng(seed)
    p = g.random(n) + 0.2
    return p / p.sum()


# ---------------------------------------------------------------------------
# oracles


def kron_entry_oracle(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product from the index definition, using explicit loops."""
    n1, m1 = a.shape
    n2, m2 = b.shape
    out = np.zeros((n1 * n2, m1 * m2), dtype=complex)
    for i in range(n1):
        for j in range(m1):
            for k in range(n2):
                for l in range(m2):
                    out[i * n2 + k, j * m2 + l] = a[i, j] * b[k, l]
    return out


def partial_trace_oracle(m: np.ndarray, dims: tuple[int, int], side: str) -> np.ndarray:
    """Partial trace by literal double-index summation."""
    n, mm = dims
    if side == "first":
        out = np.zeros((mm, mm), dtype=complex)
        for q in range(mm):
            for s in range(mm):
                out[q, s] = sum(m[p * mm + q, p * mm + s] for p in range(n))
        return out
    out = np.zeros((n, n), dtype=complex)
    for p in range(n):
        for r in range(n):
            out[p, r] = sum(m[p * mm + q, r * mm + q] for q in range(mm))
    return out


def taylor_exp_oracle(m: np.ndarray, terms: int = 60) -> np.ndarray:
    """Matrix exponential by scaled Taylor series (independent of scipy)."""
    m = np.asarray(m, dtype=complex)
    norm = np.linalg.norm(m, 2)
    squarings = max(0, int(np.ceil(np.log2(max(norm, 1e-300) / 0.25))))
    x = m / (2**squarings)
    out = np.eye(m.shape[0], dtype=complex)
    term = np.eye(m.shape[0], dtype=complex)
    for j in range(1, terms):
        term = term @ x / j
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


def extract_channel_oracle(w: Coupling) -> np.ndarray:
    """Superoperator of E_omega solved entrywise from the defining pairing,
    evaluating omega on matrix-unit pairs with literal kron/trace arithmetic."""
    n, m = w.dims
    r = np.sqrt(w.state_b.spectrum)
    s = np.zeros((m * m, n * n), dtype=complex)
    for i in range(n):
        for j in range(n):
            img = np.zeros((m, m), dtype=complex)
            for k in range(m):
                for l in range(m):
                    val = np.trace(
                        w.kappa @ np.kron(matrix_unit(n, i, j), matrix_unit(m, k, l))
                    )
                    img[k, l] = val / (r[k] * r[l])
            s[:, i + n * j] = vec(img)
    return s


def dual_superop_oracle(
    superop: np.ndarray, s_in: FaithfulState, s_out: FaithfulState
) -> np.ndarray:
    """Dual superoperator from the defining bilinear identity, assembled as a
    dense linear system over matrix-unit bases and solved with lstsq."""
    n, m = s_in.dim, s_out.dim
    r_in = np.sqrt(s_in.spectrum)
    r_out = np.sqrt(s_out.spectrum)
    # equations: vec(M_ij)^T X = rhs_ij  with M_ij = r a r for a = E_ij
    lhs = np.zeros((n * n, n * n), dtype=complex)
    rhs = np.zeros((n * n, m * m), dtype=complex)
    row = 0
    for i in range(n):
        for j in range(n):
            a = matrix_unit(n, i, j)
            lhs[row] = vec(r_in[:, None] * a * r_in[None, :])
            eta_a = unvec(superop @ vec(a), m)
            weighted = r_out[:, None] * eta_a * r_out[None, :]
            for k in range(m):
                for l in range(m):
                    rhs[row, k + m * l] = np.trace(weighted @ matrix_unit(m, k, l).T)
            row += 1
    x, *_ = np.linalg.lstsq(lhs, rhs, rcond=None)
    return x


def coupling_from_channel_oracle(superop, sa: FaithfulState, sb: FaithfulState) -> np.ndarray:
    """kappa entries solved from omega(a (x) c) = Tr(r E(a) r c^T) on unit pairs."""
    n, m = sa.dim, sb.dim
    r = np.sqrt(sb.spectrum)
    kappa = np.zeros((n * m, n * m), dtype=complex)
    for i in range(n):
        for j in range(n):
            e_img = unvec(superop @ vec(matrix_unit(n, i, j)), m)
            weighted = r[:, None] * e_img * r[None, :]
            for k in range(m):
                for l in range(m):
                    val = np.trace(weighted @ matrix_unit(m, k, l).T)
                    # omega(E_ij (x) E_kl) = kappa[(j, l), (i, k)] as a 4-tensor
                    kappa[j * m + l, i * m + k] = val
    return kappa


def coupling_from_channel_loop(e, sa: FaithfulState, sb: FaithfulState) -> np.ndarray:
    """kappa_E = sum_ij E_ij (x) (rho_B^1/2 E(E_ji) rho_B^1/2)^T, summed block
    by block with kron; the reference for the reshaped construction."""
    n, m = sa.dim, sb.dim
    r = np.sqrt(sb.spectrum)
    kappa = np.zeros((n * m, n * m), dtype=complex)
    for i in range(n):
        for j in range(n):
            image = unvec(e.superoperator @ vec(matrix_unit(n, j, i)), m)
            block = (r[:, None] * image * r[None, :]).T
            kappa += np.kron(matrix_unit(n, i, j), block)
    return kappa


def is_orthogonal_loop(w: Coupling, psi: Coupling, tol: float = DEFAULT_TOL) -> OrthogonalityReport:
    """is_orthogonal with the cross-Gram summed matrix unit by matrix unit:
    Tr(rho x* y) for every pair of centered images; the reference for the
    weighted product of superoperators."""
    composed = compose(w, psi, tol=tol)
    prod = np.kron(w.state_a.rho, psi.state_b.rho)
    residual = frob_distance(composed.kappa, prod)
    direct = close(composed.kappa, prod, tol)

    mid = w.state_b
    n_a, m = w.dims
    n_c = psi.state_b.dim
    e_w = extract_channel(w)
    e_psi_dual = dual(extract_channel(psi), psi.state_a, psi.state_b, tol=tol)
    rho = mid.rho
    eye = np.eye(m, dtype=complex)
    left = []
    for i in range(n_a):
        for j in range(n_a):
            u = matrix_unit(n_a, i, j)
            x = apply(e_w, u) - w.state_a.expectation(u) * eye
            left.append(x)
    right = []
    for i in range(n_c):
        for j in range(n_c):
            u = matrix_unit(n_c, i, j)
            y = apply(e_psi_dual, u) - psi.state_b.expectation(u) * eye
            right.append(y)
    gram = np.array(
        [[np.trace(rho @ x.conj().T @ y) for y in right] for x in left]
    )
    gram_norm = float(np.linalg.norm(gram))
    bound = frob_norm(e_w.superoperator) * frob_norm(e_psi_dual.superoperator)
    hilbert = relative_residual(gram_norm, bound) <= tol
    return OrthogonalityReport(
        orthogonal=bool(direct),
        residual=float(residual),
        hilbert_criterion=bool(hilbert),
        cross_gram_norm=gram_norm,
        methods_agree=bool(direct == hilbert),
        tol=tol,
    )


def disjointness_probe_loop(sys, tol: float = DEFAULT_TOL) -> DisjointnessReport:
    """disjointness_probe with the closure defect taken product by product and
    the witness pairings kms_pairing by kms_pairing over the matrix units."""
    basis = fixed_point_space(sys.dynamics, tol)
    dim = len(basis)
    if dim <= 1:
        return DisjointnessReport(
            ergodic=True,
            fixed_space_dim=dim,
            witness_found=False,
            balance_residual=None,
            nontriviality_gap=None,
            witness_basis=None,
            message="no non-trivial identity-system balance found (consistent with disjointness)",
        )

    flat = np.stack([vec(b) for b in basis])

    def closure_defect(x):
        coeffs = flat.conj() @ vec(x)
        return float(np.linalg.norm(vec(x) - flat.T @ coeffs))

    worst = 0.0
    for x in basis:
        worst = max(worst, closure_defect(x.conj().T))
        for y in basis:
            worst = max(worst, closure_defect(x @ y))
    if worst > tol:
        raise ValueError(f"fixed-point set not an algebra numerically (defect {worst:.3e})")

    state = sys.state
    n = state.dim
    beta_dual = _dual(sys.dynamics, state, state, tol)
    units = [matrix_unit(n, i, j) for i in range(n) for j in range(n)]
    balance_res = 0.0
    gap = 0.0
    for f in basis:
        mu_f = state.expectation(f)
        for c in units:
            img = (beta_dual.superoperator @ vec(c)).reshape((n, n), order="F")
            if sys.kind == "generator":
                defect = abs(kms_pairing(state, f, img))
            else:
                defect = abs(kms_pairing(state, f, img) - kms_pairing(state, f, c))
            balance_res = max(balance_res, float(defect))
            gap = max(gap, abs(kms_pairing(state, f, c) - mu_f * state.expectation(c)))
    balanced = relative_residual(balance_res, frob_norm(beta_dual.superoperator)) <= tol
    found = balanced and gap > tol
    return DisjointnessReport(
        ergodic=False,
        fixed_space_dim=dim,
        witness_found=bool(found),
        balance_residual=float(balance_res),
        nontriviality_gap=float(gap),
        witness_basis=basis,
        message="identity system on the fixed-point algebra balances the dynamics "
        "through the restricted diagonal coupling",
    )


def spanning_density_matrices_loop(m: int) -> list[np.ndarray]:
    """Rank-one density matrices spanning the full matrix algebra, one by one."""
    vecs = []
    eye = np.eye(m, dtype=complex)
    for i in range(m):
        vecs.append(eye[:, i])
    for i in range(m):
        for j in range(i + 1, m):
            vecs.append((eye[:, i] + eye[:, j]) / np.sqrt(2))
            vecs.append((eye[:, i] + 1j * eye[:, j]) / np.sqrt(2))
    return [np.outer(v, v.conj()) for v in vecs]


def convergence_probe_loop(
    sys_a, sys_b, w: Coupling, t_grid, tol: float = DEFAULT_TOL, deviation_tol: float = 1e-6
) -> ConvergenceReport:
    """convergence_probe with the images of the matrix units applied one by
    one and every state paired with np.trace."""
    if sys_a.kind != "generator" or sys_b.kind != "generator":
        raise ValueError("convergence probe requires generator dynamics")
    rep = is_balanced(sys_a, sys_b, w, tol)
    if not rep.balanced:
        raise ValueError("convergence probe requires a balanced triple")

    n, m = w.dims
    s_k = sys_a.dynamics.superoperator
    evals = np.linalg.eigvals(s_k)
    scale = float(np.max(np.abs(evals)))
    zero_mask = np.array([relative_residual(abs(x), scale) <= tol for x in evals])
    nonzero = evals[~zero_mask]
    kernel = fixed_point_space(sys_a.dynamics, tol)
    kernel_is_scalars = len(kernel) == 1
    gap = float(-np.max(nonzero.real)) if nonzero.size else None
    certified = (
        kernel_is_scalars
        and int(np.sum(zero_mask)) == 1
        and nonzero.size > 0
        and gap is not None
        and relative_residual(gap, scale) > tol
    )

    e = extract_channel(w)
    images = [apply(e, matrix_unit(n, i, j)) for i in range(n) for j in range(n)]
    stacked = np.stack([vec(b) for b in images])
    span_dim = int(np.linalg.matrix_rank(stacked, rtol=tol))
    vacuous = span_dim <= 1

    states = spanning_density_matrices_loop(m)
    targets = [sys_b.state.expectation(b) for b in images]
    deviations = []
    for t in sorted(float(t) for t in t_grid):
        ch = semigroup(sys_b.dynamics, t)
        sup = 0.0
        for b, nb in zip(images, targets):
            evolved = apply(ch, b)
            for lam in states:
                sup = max(sup, abs(complex(np.trace(lam @ evolved)) - nb))
        deviations.append((t, float(sup)))

    if not certified:
        return ConvergenceReport(
            certified=False,
            gap=gap,
            vacuous=vacuous,
            deviations=deviations,
            threshold_time=None,
            passed=None,
            message="spectral condition fails; convergence transfer inapplicable",
        )
    threshold = 50.0 / gap
    late = [d for t, d in deviations if t >= threshold]
    passed = bool(late and max(late) <= deviation_tol)
    message = "hypothesis certified spectrally"
    if vacuous:
        message += "; extracted channel has scalar range, statement vacuous"
    if not late:
        message += f"; grid does not reach threshold time {threshold:.3g}"
        passed = None
    return ConvergenceReport(
        certified=True,
        gap=gap,
        vacuous=vacuous,
        deviations=deviations,
        threshold_time=threshold,
        passed=passed,
        message=message,
    )


def reversing_validate_loop(th, tol: float = DEFAULT_TOL) -> bool:
    """ReversingOperation.validate by n^5 calls to th.apply on matrix units."""
    n = th.dim
    for i in range(n):
        for j in range(n):
            a = matrix_unit(n, i, j)
            if not close(th.apply(th.apply(a)), a, tol):
                return False
            for k in range(n):
                b = matrix_unit(n, j, k)
                if not close(th.apply(a @ b), th.apply(b) @ th.apply(a), tol):
                    return False
            if not close(th.apply(a.conj().T), th.apply(a).conj().T, tol):
                return False
    return True


# ---------------------------------------------------------------------------
# scenario fixtures


def make_spec(
    types=("entangled", "product"),
    partition=((0,), (1,)),
    k=(0.3, 0.6),
    l=(0.3, 0.6),
    g=(0.0,) * 7,
    h=(0.0,) * 7,
    cycles=(3, 4),
    block_probs=(0.45, 0.55),
) -> ScenarioSpec:
    return ScenarioSpec(
        cycle_lengths=cycles,
        block_probs=block_probs,
        partition=partition,
        block_types=types,
        k=k,
        l=l,
        g=g,
        h=h,
    )


@pytest.fixture(scope="session")
def balanced_spec() -> ScenarioSpec:
    return make_spec()


@pytest.fixture(scope="session")
def unbalanced_spec() -> ScenarioSpec:
    return make_spec(types=("entangled", "entangled"), l=(0.3, 0.5))
