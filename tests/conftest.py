"""Shared fixtures and independent brute-force oracles.

The oracles here recompute quantities from their defining equations (index
loops, literal traces, linear-system assembly) so that the closed forms in
the package are checked against something that does not share their code
path.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import scipy.optimize

import balance_lab.balance
import balance_lab.channels
import balance_lab.couplings
import balance_lab.lindblad
import balance_lab.states
from balance_lab.balance import (
    BalanceReport,
    ConvergenceReport,
    DisjointnessReport,
    _check_triple,
    is_balanced,
)
from balance_lab.channels import (
    QuantumChannel,
    _like,
    apply,
    channel_from_kraus,
    constant_channel,
    dual,
    fixed_point_space,
    validate_ucp,
)
from balance_lab.couplings import (
    Coupling,
    OrthogonalityReport,
    _weigh_rows,
    compose,
    coupling_from_channel,
    extract_channel,
    validate_coupling,
)
from balance_lab.kernel import (
    DEFAULT_TOL,
    _components,
    _max_relative_residual,
    ad_superop,
    as_matrix,
    close,
    eigenvalues,
    frob_distance,
    frob_norm,
    mat_exp,
    matrix_unit,
    relative_residual,
    unvec,
    vec,
)
from balance_lab.lindblad import (
    LindbladGenerator,
    ScenarioSpec,
    _cycle_successor,
    _roots,
    _shift,
    build_generator,
    scenario_build,
    scenario_state,
    semigroup,
)
from balance_lab.states import (
    FaithfulState,
    System,
    new_faithful_state,
    preserves_state,
)


# a generic Hamiltonian diagonal (and set of phases) on seven levels
GENERIC7 = tuple(np.linspace(-0.6, 0.9, 7))


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


def channel_from_function(f, dim_in: int, dim_out: int) -> QuantumChannel:
    """The channel of a Python function on matrices, column by column from
    the images of the matrix units."""
    s = np.zeros((dim_out**2, dim_in**2), dtype=complex)
    for j in range(dim_in):
        for i in range(dim_in):
            s[:, i + dim_in * j] = vec(f(matrix_unit(dim_in, i, j)))
    return QuantumChannel(dim_in=dim_in, dim_out=dim_out, superoperator=s)


def new_coupling(kappa, state_a: FaithfulState, state_b: FaithfulState,
                 tol: float = DEFAULT_TOL) -> Coupling:
    """The coupling of kappa, validated (``couplings.validate_coupling``)."""
    w = Coupling(kappa=kappa, state_a=state_a, state_b=state_b)
    report = validate_coupling(w, tol)
    if not report.valid:
        raise ValueError(f"not a coupling: {report.to_json()}")
    return w


def evaluate(w: Coupling, a, c) -> complex:
    """omega(a (x) c) = Tr(kappa (a (x) c)) = vec(c)^T P vec(a)."""
    n, m = w.dims
    a, c = as_matrix(a), as_matrix(c)
    if a.shape != (n, n) or c.shape != (m, m):
        raise ValueError("operand dimensions do not match the coupling")
    return complex(vec(c) @ w.pairing() @ vec(a))


def kms_pairing(s: FaithfulState, a, b) -> complex:
    """Tr(rho^1/2 a rho^1/2 b^T), the bilinear pairing implemented by the GNS vector."""
    a, b = as_matrix(a), as_matrix(b)
    n = s.dim
    if a.shape != (n, n) or b.shape != (n, n):
        raise ValueError("kms_pairing operands must match the state dimension")
    r = s.sqrt_spectrum
    return complex(np.sum((r[:, None] * a * r[None, :]) * b))


def modular_transpose(a) -> np.ndarray:
    """Transpose in the fixed basis; identifies the algebra with its commutant copy."""
    return as_matrix(a).T.copy()


def cycle_shift(cycle_lengths, weights) -> np.ndarray:
    """Block-diagonal weighted cyclic shift, block j = sqrt(w_j) O_{r_j}."""
    weights = np.asarray(weights, dtype=float)
    # a comparison with NaN is false, so ask each weight to be inside
    if not np.all((weights >= 0.0) & (weights < math.inf)):
        raise ValueError("shift weights must be finite and non-negative")
    return _shift(_cycle_successor(cycle_lengths), _roots(cycle_lengths, weights))


def extraction_is_valid(w: Coupling, tol: float = DEFAULT_TOL) -> bool:
    """Extracted channel is u.c.p. and carries state_a to state_b."""
    e = extract_channel(w)
    return validate_ucp(e, tol).ucp and preserves_state(e, w.state_a, w.state_b, tol)[1]


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


def mpmath_exp_oracle(m: np.ndarray, dps: int = 40) -> np.ndarray:
    """Matrix exponential in 40-digit arithmetic (``mpmath.expm``), rounded
    to double once: a reference whose own error is far below that of any
    double-precision method, at every norm, for the small blocks it is
    taken on (about 10 ms for a 6 x 6 block)."""
    with mpmath.workdps(dps):
        x = mpmath.expm(mpmath.matrix(np.asarray(m, dtype=complex).tolist()))
        return np.array(x.tolist(), dtype=complex)


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


# ---------------------------------------------------------------------------
# the dual, the preservation residual and the semigroup exponential as they
# were formed before the one-pass dual, the copy-free residual and the
# generator's cached split: references for their bits


def state_preservation_residual_reference(dyn, s_in: FaithfulState, s_out=None) -> float:
    """states.state_preservation_residual with S^dagger vec(rho_out) formed
    on the conjugated transpose of S."""
    s_out = s_in if s_out is None else s_out
    image = dyn.superoperator.conj().T @ vec(s_out.rho)
    if dyn.kind == "channel":
        image = image - vec(s_in.rho)
    return float(np.linalg.norm(image))


def dual_reference(dyn, s_in: FaithfulState, s_out: FaithfulState, tol: float = DEFAULT_TOL):
    """channels.dual with the weighted transpose formed as
    (S^T * w_out) / w_in, a C-ordered array read from S^T, behind the
    reference preservation check."""
    res = state_preservation_residual_reference(dyn, s_in, s_out)
    if relative_residual(res, dyn.scale) > tol:
        name = "dual generator" if dyn.kind == "generator" else "dual"
        raise ValueError(f"{name} undefined: the state is not preserved (residual {res:.3e})")
    w_in, w_out = s_in.kms_weights, s_out.kms_weights
    growth = float(w_out.max() / w_in.min())
    return _like(dyn, (dyn.superoperator.T * w_out[None, :]) / w_in[:, None], growth)


def semigroup_reference(gen, t: float) -> np.ndarray:
    """The superoperator of e^{tL} with the exact-zero split scanned on t L
    itself, call by call."""
    return mat_exp(t * gen.superoperator)


def use_references(monkeypatch) -> None:
    """Route every dual and every preservation residual of the package
    through dual_reference and state_preservation_residual_reference."""
    for module in (balance_lab.balance, balance_lab.channels, balance_lab.lindblad):
        monkeypatch.setattr(module, "dual", dual_reference)
    monkeypatch.setattr(balance_lab.states, "state_preservation_residual",
                        state_preservation_residual_reference)


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


def preserving_generator(state: FaithfulState, seed: int) -> LindbladGenerator:
    """A generator that preserves a diagonal state: jumps |i><j| at rates
    c_ij p_i with c symmetric (detailed balance), a diagonal Hamiltonian and
    a pull towards the state, a -> Tr(rho a) 1 - a."""
    n, p = state.dim, state.spectrum
    g = rng(seed)
    c = g.uniform(0.2, 1.0, size=(n, n))
    c = c + c.T
    jumps = [np.sqrt(c[i, j] * p[i]) * matrix_unit(n, i, j)
             for i in range(n) for j in range(n) if i != j]
    gen = build_generator(jumps, np.diag(g.normal(size=n)).astype(complex))
    pull = constant_channel(state).superoperator - np.eye(n * n)
    return LindbladGenerator(dim=n, superoperator=gen.superoperator + 0.3 * pull)


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


def definition_contractions(
    kappa: np.ndarray, dims: tuple[int, int], s_alpha: np.ndarray, s_beta_dual: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """omega(alpha(E_ij) (x) E_kl) and omega(E_ij (x) beta'(E_kl)) as two
    (i, j, k, l) arrays, contracted from the four-index layout of kappa; the
    reference for P S_alpha and S_beta'^T P on the pairing matrix P."""
    n, m = dims
    k4 = kappa.reshape(n, m, n, m)
    lhs = np.einsum("plrk,prji->ijkl", k4, s_alpha.reshape(n, n, n, n))
    rhs = np.einsum("jqis,qslk->ijkl", k4, s_beta_dual.reshape(m, m, m, m))
    return lhs, rhs


def is_orthogonal_loop(w: Coupling, psi: Coupling, tol: float = DEFAULT_TOL) -> OrthogonalityReport:
    """is_orthogonal with the cross-Gram summed matrix unit by matrix unit:
    Tr(rho x* y) for every pair of centered images; the reference for the
    weighted product of superoperators."""
    composed = compose(w, psi)
    prod = np.kron(w.state_a.rho, psi.state_b.rho)
    residual = frob_distance(composed.kappa, prod)
    direct = close(composed.kappa, prod, tol)
    # the cross-Gram is cut at the composition's scale, as the residual is
    scale = max(frob_norm(composed.kappa), frob_norm(prod))

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
    hilbert = relative_residual(gram_norm, scale) <= tol
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
    the witness entries kms_pairing by kms_pairing over the matrix units: the
    pairing of f with beta'(E_ij), or L'(E_ij), through the dual is
    r_i r_j times entry (i, j) of beta(f), or L(f), r = sqrt(p), so each
    pairing divided by r_i r_j is an entry of the probe's (S - 1) B^T, or
    L B^T, and of its B - mu(f) vec(1)^T."""
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
    r = state.sqrt_spectrum
    beta_dual = dual(sys.dynamics, state, state, tol)
    units = [(i, j, matrix_unit(n, i, j)) for i in range(n) for j in range(n)]
    # one row per basis element f, one column per matrix unit c; the reported
    # numbers are the spectral norms of the two matrices
    defects = np.zeros((dim, n * n), dtype=complex)
    gaps = np.zeros((dim, n * n), dtype=complex)
    for a, f in enumerate(basis):
        mu_f = state.expectation(f)
        for b, (i, j, c) in enumerate(units):
            img = (beta_dual.superoperator @ vec(c)).reshape((n, n), order="F")
            defects[a, b] = kms_pairing(state, f, img)
            if sys.kind == "channel":
                defects[a, b] -= kms_pairing(state, f, c)
            defects[a, b] /= r[i] * r[j]
            gaps[a, b] = kms_pairing(state, f, c) / (r[i] * r[j]) - mu_f * np.trace(c)
    balance_res = float(np.linalg.svd(defects, compute_uv=False)[0])
    gap = float(np.linalg.svd(gaps, compute_uv=False)[0])
    balanced = relative_residual(balance_res, sys.dynamics.scale) <= tol
    found = balanced and relative_residual(gap, 1.0) > tol
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


def scenario_coupling_kron(spec: ScenarioSpec) -> np.ndarray:
    """kappa of lindblad.scenario_coupling summed block by block from outer
    and Kronecker products of matrix units; the reference for writing it by
    index."""
    s = scenario_state(spec)
    p, n = s.spectrum, s.dim
    kappa = np.zeros((n * n, n * n), dtype=complex)
    for indices, btype in zip(spec.block_indices(), spec.block_types):
        if not indices:
            continue
        if btype == "entangled":
            om = np.zeros(n * n, dtype=complex)
            for q in indices:
                om[q * n + q] = np.sqrt(p[q])
            kappa += np.outer(om, om.conj())
        elif btype == "mixed":
            for q in indices:
                kappa += p[q] * np.kron(matrix_unit(n, q, q), matrix_unit(n, q, q))
        else:
            mass = sum(p[q] for q in indices)
            d = sum(p[q] * matrix_unit(n, q, q) for q in indices) / np.sqrt(mass)
            kappa += np.kron(d, d)
    return kappa


def scenario_compose_oracle(spec_w: ScenarioSpec, spec_psi: ScenarioSpec, *more: ScenarioSpec):
    """The composition w o psi (o ...) of scenario couplings of one state,
    in exact arithmetic: (kept, t, residual2, scale2).

    Each scenario coupling's channel is a mu-preserving conditional
    expectation, block by block: an entangled block keeps each E_ij with i
    and j in it, a mixed block keeps its diagonal units, a product block Y
    maps E_ii to (p_i / p(Y)) P_Y, and cross-block units go to 0.  So the
    composed channel E = ... o E_psi o E_w keeps an off-diagonal E_ij iff
    every coupling puts i and j in one entangled block (the pairs (i, j) of
    ``kept``), and maps E_ii to sum_k t[k][i] E_kk, with t = ... T_psi T_w
    (``fractions.Fraction`` entries: the state's float spectrum is taken as
    it is, exactly; each row sums to 1).  The composed kappa has
    sqrt(p_i p_j) at ((j, j), (i, i)) for (i, j) in ``kept``, p_k t[k][i]
    at ((i, k), (i, k)), and zero elsewhere.  ``residual2`` is
    ||kappa - rho (x) rho||_F^2 and ``scale2`` is
    max(||kappa||_F, ||rho (x) rho||_F)^2, both exact."""
    specs = (spec_w, spec_psi, *more)
    cycles, probs = spec_w.cycle_lengths, spec_w.block_probs
    assert all(x.cycle_lengths == cycles and x.block_probs == probs for x in specs)
    p = [Fraction(x) for x in scenario_state(spec_w).spectrum]
    n = len(p)
    kept = {(i, j) for i in range(n) for j in range(n) if i != j}
    t = [[Fraction(int(i == k)) for i in range(n)] for k in range(n)]
    for spec in specs:
        step = [[Fraction(0)] * n for _ in range(n)]
        entangled = set()
        for indices, btype in zip(spec.block_indices(), spec.block_types):
            if btype == "product":
                mass = sum(p[i] for i in indices)
                for k in indices:
                    for i in indices:
                        step[k][i] = p[i] / mass
            else:
                for i in indices:
                    step[i][i] = Fraction(1)
            if btype == "entangled":
                entangled |= {(i, j) for i in indices for j in indices if i != j}
        kept &= entangled
        t = [[sum(step[k][j] * t[j][i] for j in range(n)) for i in range(n)] for k in range(n)]
    off = sum(p[i] * p[j] for i, j in kept)
    residual2 = off + sum((p[k] * t[k][i] - p[i] * p[k]) ** 2 for i in range(n) for k in range(n))
    norm2 = off + sum((p[k] * t[k][i]) ** 2 for i in range(n) for k in range(n))
    return kept, t, residual2, max(norm2, sum(x * x for x in p) ** 2)


def balance_sub_residuals_kron(spec: ScenarioSpec) -> tuple[float, float]:
    """lindblad.balance_sub_residuals with every Kraus conjugation and
    commutator a product of n^2 x n^2 Kronecker matrices; the reference for
    the tensor-factor form."""
    n = spec.dim
    kappa = scenario_coupling_kron(spec)
    eye = np.eye(n, dtype=complex)
    r_k = cycle_shift(spec.cycle_lengths, np.asarray(spec.k))
    r_1k = cycle_shift(spec.cycle_lengths, 1.0 - np.asarray(spec.k))
    r_l = cycle_shift(spec.cycle_lengths, np.asarray(spec.l))
    r_1l = cycle_shift(spec.cycle_lengths, 1.0 - np.asarray(spec.l))
    a1 = np.kron(r_k, eye)
    a2 = np.kron(r_1k, eye)
    b1 = np.kron(eye, r_1l)
    b2 = np.kron(eye, r_l)
    jump = (
        a1 @ kappa @ a1.conj().T
        + a2.conj().T @ kappa @ a2
        - b1 @ kappa @ b1.conj().T
        - b2.conj().T @ kappa @ b2
    )
    g1 = np.kron(np.diag(np.asarray(spec.g)).astype(complex), eye)
    h1 = np.kron(eye, np.diag(np.asarray(spec.h)).astype(complex))
    comm = (g1 @ kappa - kappa @ g1) - (h1 @ kappa - kappa @ h1)
    return float(frob_norm(jump)), float(frob_norm(comm))


def is_balanced_dense(sys_a, sys_b, w: Coupling, tol: float = DEFAULT_TOL) -> BalanceReport:
    """is_balanced with every product taken over the whole of S_E, zero rows
    and columns included, and each residual read on the whole matrix: the
    defect D = S_E S_alpha - S_beta S_E and its size
    |S_E| |S_alpha| + |S_beta| |S_E|, four dense n^2 x n^2 products."""
    _check_triple(sys_a, sys_b, w)
    s_alpha = sys_a.dynamics.superoperator
    s_beta = sys_b.dynamics.superoperator
    s_e = _weigh_rows(w.pairing(), w.state_b.inv_sqrt_spectrum)
    scale = frob_norm(s_alpha) + frob_norm(s_beta)
    defect = s_e @ s_alpha - s_beta @ s_e
    residual = relative_residual(frob_norm(defect), scale)
    size = np.abs(s_e) @ np.abs(s_alpha) + np.abs(s_beta) @ np.abs(s_e)
    def_residual = _max_relative_residual(np.abs(defect), size)

    balanced = residual <= tol
    agree = balanced == (def_residual <= tol)
    return BalanceReport(
        balanced=bool(balanced),
        residual=float(residual),
        definition_residual=def_residual,
        method_agreement=bool(agree),
        tol=tol,
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


def spanning_density_matrices_dense(m: int) -> np.ndarray:
    """The states of spanning_density_matrices_loop as the m^2 x m^2 matrix
    of rows vec(lambda^T), so that row . vec(b) = Tr(lambda b): the dense
    product that balance._spanning_traces replaced."""
    eye = np.eye(m, dtype=complex)
    i, j = np.triu_indices(m, 1)
    pairs = np.stack([eye[i] + eye[j], eye[i] + 1j * eye[j]], axis=1) / np.sqrt(2)
    v = np.concatenate([eye, pairs.reshape(-1, m)])
    return (v[:, :, None] * v.conj()[:, None, :]).reshape(m * m, m * m)


def spectral_certificate_loop(gen, eigvals, tol: float = DEFAULT_TOL):
    """(gap, number of zero eigenvalues, certified) of a generator, decided
    as convergence_probe decides them, from the spectrum eigvals(S)."""
    evals = eigvals(gen.superoperator)
    scale = float(np.max(np.abs(evals)))
    zero_mask = np.array([relative_residual(abs(x), scale) <= tol for x in evals])
    nonzero = evals[~zero_mask]
    zeros = int(np.sum(zero_mask))
    kernel_is_scalars = len(fixed_point_space(gen, tol)) == 1
    gap = float(-np.max(nonzero.real)) if nonzero.size else None
    certified = (
        kernel_is_scalars
        and zeros == 1
        and nonzero.size > 0
        and gap is not None
        and relative_residual(gap, scale) > tol
    )
    return gap, zeros, certified


def convergence_probe_loop(
    sys_a, sys_b, w: Coupling, t_grid, tol: float = DEFAULT_TOL, deviation_tol: float = 1e-6
) -> ConvergenceReport:
    """convergence_probe with the images of the matrix units applied one by
    one and every state paired with np.trace.  The spectrum is the package's
    kernel.eigenvalues, so that a grid extended to the threshold time 50 / gap
    evaluates the same time as the probe: the deviation there is rounding
    noise that moves with the last bits of t.  tests/test_contractions.py
    checks the probe's gap and certificate against spectral_certificate_loop
    with dense numpy eigvals."""
    if sys_a.kind != "generator" or sys_b.kind != "generator":
        raise ValueError("convergence probe requires generator dynamics")
    rep = is_balanced(sys_a, sys_b, w, tol)
    if not rep.balanced:
        raise ValueError("convergence probe requires a balanced triple")

    n, m = w.dims
    gap, _, certified = spectral_certificate_loop(sys_a.dynamics, eigenvalues, tol)

    e = extract_channel(w)
    images = [apply(e, matrix_unit(n, i, j)) for i in range(n) for j in range(n)]
    stacked = np.stack([vec(b) for b in images])
    span_dim = int(np.linalg.matrix_rank(stacked, rtol=tol))
    vacuous = span_dim <= 1

    threshold = 50.0 / gap if certified else None
    times = sorted(float(t) for t in t_grid)
    if certified and not any(t >= threshold for t in times):
        times = sorted(set(times) | {threshold})
    states = spanning_density_matrices_loop(m)
    targets = [sys_b.state.expectation(b) for b in images]
    deviations = []
    for t in times:
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
    late = [d for t, d in deviations if t >= threshold]
    message = "hypothesis certified spectrally"
    if vacuous:
        message += "; extracted channel has scalar range, statement vacuous"
    return ConvergenceReport(
        certified=True,
        gap=gap,
        vacuous=vacuous,
        deviations=deviations,
        threshold_time=threshold,
        passed=bool(max(late) <= deviation_tol),
        message=message,
    )


def assert_same_spectrum(x, y, rtol):
    """x and y are equal as multisets, matched one to one, to rtol * max |y|."""
    assert x.shape == y.shape
    cost = np.abs(x[:, None] - y[None, :])
    rows, cols = scipy.optimize.linear_sum_assignment(cost)
    assert np.max(cost[rows, cols]) <= rtol * np.max(np.abs(y))


def assert_same_factor(got, want) -> None:
    """Two kernel._Factor objects hold the same pattern to the bit: shape,
    support, both gather forms (dtype, shape and bytes), the cost rule's
    sides, and the dense support block where one is kept."""
    assert got.shape == want.shape and got.gathers == want.gathers
    for a, b in ((got.rows, want.rows), (got.cols, want.cols)):
        assert (isinstance(a, slice) and a == b) if isinstance(b, slice) else np.array_equal(a, b)
    for (gi, gw), (wi, ww) in ((got.form(side), want.form(side)) for side in (0, 1)):
        assert gi.shape == wi.shape and gi.tobytes() == wi.tobytes()
        assert gw.dtype == ww.dtype and gw.shape == ww.shape and gw.tobytes() == ww.tobytes()
    assert (got.block is None) == (want.block is None)
    if want.block is not None:
        assert got.block.shape == want.block.shape and got.block.tobytes() == want.block.tobytes()


def assert_relative_close(got: np.ndarray, expected: np.ndarray, rtol: float = 1e-14):
    """||got - expected||_F <= rtol ||expected||_F."""
    assert frob_distance(got, expected) <= rtol * frob_norm(expected)


def transpose_superop(n: int) -> np.ndarray:
    """Superoperator of X -> X^T (the commutation matrix)."""
    return np.eye(n * n)[np.arange(n * n).reshape(n, n).T.reshape(-1)]


def theta_superop(th) -> np.ndarray:
    """Superoperator of the reversing operation a -> u a^T u*, Ad_u o j:
    column i + n*j is column j + n*i of Ad_u (the commutation matrix for
    plain transposition)."""
    n = th.dim
    if th.unitary is None:
        return transpose_superop(n)
    return ad_superop(th.unitary).reshape(n * n, n, n).transpose(0, 2, 1).reshape(n * n, -1)


def theta_conjugate_oracle(th, superoperator: np.ndarray) -> np.ndarray:
    """Theta o S o Theta as the dense product with the superoperator of Theta:
    the reference for the frame form Ad_u o (j o S o j) o Ad_conj(u)."""
    t = theta_superop(th)
    return t @ superoperator @ t


def theta_kms_dual_oracle(dyn, s: FaithfulState, th) -> np.ndarray:
    """Theta o kms_dual o Theta from dual, the commutation matrix and the
    superoperator of Theta, with no frame change."""
    t = transpose_superop(s.dim)
    return theta_conjugate_oracle(th, t @ dual(dyn, s, s).superoperator @ t)


def swapped(th, unitary):
    """th with its unitary replaced after construction, bypassing the check
    of the constructor."""
    object.__setattr__(th, "unitary", np.asarray(unitary, dtype=complex))
    return th


def reversing_validate_loop(th, tol: float = DEFAULT_TOL) -> bool:
    """The identities of a reversing operation (involutive,
    antimultiplicative, *-preserving) by n^5 calls to th.apply on matrix
    units: the reference of ReversingOperation.validate, which judges the
    unitary instead."""
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
# dense factorization references: kernel.nullspace, kernel.check_psd and
# kernel._fix_phases as they were before the block-wise split and the
# vectorized phase fix; and the exact-zero split with its own grouping


def fix_phases_loop(v: np.ndarray) -> np.ndarray:
    """Rotate each column so its largest-magnitude entry is real positive."""
    v = v.copy()
    for c in range(v.shape[1]):
        col = v[:, c]
        k = int(np.argmax(np.abs(col)))
        pivot = col[k]
        if abs(pivot) > 0:
            v[:, c] = col * (abs(pivot) / pivot)
    return v


def nullspace_dense(m, tol: float = DEFAULT_TOL) -> list[np.ndarray]:
    """The numerical kernel from one SVD of the whole matrix."""
    _, sv, vh = np.linalg.svd(m)
    rank = sum(relative_residual(float(x), float(sv[0])) > tol for x in sv)
    basis = fix_phases_loop(vh[rank:].conj().T).T
    return [basis[i] for i in range(basis.shape[0])]


def check_psd_dense(m, tol: float = DEFAULT_TOL) -> tuple[bool, float]:
    """The PSD verdict and minimal eigenvalue from one eigvalsh of the whole
    (Hermitian within tol) matrix."""
    if not close(m, m.conj().T, tol):
        return False, -np.inf
    evals = np.linalg.eigvalsh((m + m.conj().T) / 2.0)
    low, scale = float(evals[0]), float(np.max(np.abs(evals)))
    return relative_residual(max(-low, 0.0), scale) <= tol, low


def invariant_blocks_reference(m: np.ndarray) -> list[np.ndarray]:
    """kernel._invariant_blocks with its own grouping: np.unique with counts,
    a lexsort by (size, component), one slice per size."""
    n = m.shape[0]
    _, comp, counts = np.unique(_components(n, *np.nonzero(m)), return_inverse=True,
                                return_counts=True)
    order = np.lexsort((comp, counts[comp]))
    groups, start = [], 0
    for size, count in zip(*np.unique(counts, return_counts=True)):
        groups.append(order[start : start + size * count].reshape(count, size))
        start += size * count
    return groups


def kernel_projector(basis, n: int) -> np.ndarray:
    """The orthogonal projector onto the span of a list of orthonormal
    vectors of length n."""
    b = np.reshape(np.array(basis, dtype=complex), (len(basis), n))
    return b.T @ b.conj()


# ---------------------------------------------------------------------------
# canonical JSON reference: the recursive writer that cli.dumps_canonical
# replaced, one call and one isinstance chain per value


def format_float_reference(x: float) -> str:
    if np.isnan(x) or np.isinf(x):
        return json.dumps(str(x))
    if x == int(x) and abs(x) < 1e16:
        return format(x, ".1f")
    return format(x, ".17g")


def dumps_canonical_reference(obj, indent: int = 0) -> str:
    pad = "  " * indent
    if obj is None or isinstance(obj, bool):
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float_reference(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f'{pad}  {json.dumps(str(k))}: {dumps_canonical_reference(v, indent + 1)}'
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        seq = list(obj)
        if not seq:
            return "[]"
        flat = all(isinstance(v, (int, float, bool, str, np.floating, np.integer)) for v in seq)
        if flat and len(seq) <= 8:
            return "[" + ", ".join(dumps_canonical_reference(v) for v in seq) + "]"
        items = [f"{pad}  {dumps_canonical_reference(v, indent + 1)}" for v in seq]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(obj)!r}")


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


def probe_like_triples():
    """Triples with the cycle structures of the benchmark's probe slots: one
    12-cycle, three 4-cycles, one 16-cycle and four 4-cycles, a generic
    Hamiltonian on each."""
    out = []
    for cycles, types in (
        ((12,), ("entangled",)),
        ((4, 4, 4), ("entangled", "mixed", "product")),
        ((16,), ("entangled",)),
        ((4, 4, 4, 4), ("entangled", "mixed", "product", "entangled")),
    ):
        n, c = sum(cycles), len(cycles)
        g = tuple(np.linspace(-0.6, 0.9, n))
        spec = make_spec(
            types=types, partition=tuple((i,) for i in range(c)), k=(0.4,) * c, l=(0.4,) * c,
            g=g, h=g, cycles=cycles, block_probs=(1.0 / c,) * c,
        )
        out.append(scenario_build(spec))
    return out


@pytest.fixture(scope="session")
def balanced_spec() -> ScenarioSpec:
    return make_spec()


@pytest.fixture(scope="session")
def unbalanced_spec() -> ScenarioSpec:
    return make_spec(types=("entangled", "entangled"), l=(0.3, 0.5))


# ---------------------------------------------------------------------------
# np.kron forms of the superoperators built through kernel.kron


def build_generator_kron(jumps, hamiltonian=None) -> np.ndarray:
    """The superoperator of lindblad.build_generator summed from np.kron
    products; the reference for forming them by kernel.kron."""
    ops = [np.asarray(v, dtype=complex) for v in jumps]
    n = ops[0].shape[0] if ops else np.asarray(hamiltonian).shape[0]
    h = np.zeros((n, n), dtype=complex) if hamiltonian is None else np.asarray(hamiltonian, dtype=complex)
    s = np.zeros((n * n, n * n), dtype=complex)
    acc = np.zeros((n, n), dtype=complex)
    for v in ops:
        s += np.kron(v.T, v.conj().T)
        acc += v.conj().T @ v
    s -= 0.5 * (np.kron(acc.T, np.eye(n)) + np.kron(np.eye(n), acc))
    s += 1j * (np.kron(np.eye(n), h) - np.kron(h.T, np.eye(n)))
    return s


def channel_from_kraus_kron(kraus) -> np.ndarray:
    """The superoperator of channels.channel_from_kraus summed from np.kron
    products."""
    ops = [np.asarray(v, dtype=complex) for v in kraus]
    n, m = ops[0].shape
    s = np.zeros((m * m, n * n), dtype=complex)
    for v in ops:
        s += np.kron(v.T, v.conj().T)
    return s
