"""Shared fixtures and independent brute-force oracles.

The oracles here recompute quantities from their defining equations (index
loops, literal traces, linear-system assembly) so that the closed forms in
the package are checked against something that does not share their code
path.
"""

from __future__ import annotations

import numpy as np
import pytest

from balance_lab.couplings import Coupling
from balance_lab.kernel import matrix_unit, unvec, vec
from balance_lab.lindblad import ScenarioSpec
from balance_lab.states import FaithfulState


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
