"""Balance between two state-preserving systems, and its consequences.

Two systems (A, alpha, mu) and (B, beta, nu) are in balance with respect to a
coupling omega when omega(alpha(a) (x) c) = omega(a (x) beta'(c)) for all a
and all commutant observables c, equivalently when the extracted channel
intertwines the dynamics: E_omega o alpha = beta o E_omega.  Both
formulations are evaluated here and must agree; for semigroups the check runs
at generator level, which is equivalent to checking every time by the power
series of e^{tK}.

Also provided: KMS-symmetry, standard detailed balance with respect to a
reversing operation (as a direct comparison and via balance with the
Theta-KMS-dual system), order-reversal under duals, ergodicity as
one-dimensionality of the fixed-point space, the constructive disjointness
witness from the fixed-point algebra, and a spectral convergence-transfer
probe.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channels import (
    ReversingOperation,
    _fixed_point_operator,
    _kms_flip,
    _like,
    change_frame,
    dual,
    fixed_point_space,
    kms_dual,
    theta_kms_dual,
)
from .couplings import (
    Coupling,
    _weigh_rows,
    coupling_from_channel,
    diagonal_coupling,
    extract_channel,
    kms_flip,
    flip_coupling,
)
from .kernel import (
    DEFAULT_TOL,
    Report,
    _max_relative_residual,
    _relative_residuals,
    eigenvalues,
    frob_norm,
    rank,
    relative_residual,
    vec,
)
from .lindblad import semigroup
from .states import System


@dataclass(frozen=True, eq=False)
class BalanceReport(Report):
    balanced: bool
    residual: float
    definition_residual: float
    method_agreement: bool
    tol: float


def _check_triple(sys_a: System, sys_b: System, w: Coupling):
    if not (
        w.state_a.same_state(sys_a.state) and w.state_b.same_state(sys_b.state)
    ):
        raise ValueError("state mismatch between systems and coupling")
    if sys_a.kind != sys_b.kind:
        raise ValueError("systems must share a dynamics kind (channel or generator)")


def is_balanced(
    sys_a: System, sys_b: System, w: Coupling, tol: float = DEFAULT_TOL
) -> BalanceReport:
    """Channel-level intertwining check plus the direct pairing check.

    The intertwining residual is ||S_E S_alpha - S_beta S_E||_F relative to
    ||S_alpha||_F + ||S_beta||_F.  The definition residual checks
    omega o (alpha (x) 1) = omega o (1 (x) beta') as P S_alpha = S_beta'^T P
    on the pairing matrix P of the coupling, componentwise relative: the
    largest entry of |P S_alpha - S_beta'^T P| over
    |P| |S_alpha| + |S_beta'^T| |P| (Oettli-Prager), with 0/0 = 0, so that
    it does not grow with the KMS weights that the dual beta' divides by.
    For generator dynamics both checks run on the generators, which is
    equivalent to all times at once.
    """
    _check_triple(sys_a, sys_b, w)
    s_alpha = sys_a.dynamics.superoperator
    s_beta = sys_b.dynamics.superoperator
    p = w.pairing()
    s_e = _weigh_rows(p, w.state_b.inv_sqrt_spectrum)
    scale = frob_norm(s_alpha) + frob_norm(s_beta)
    residual = relative_residual(frob_norm(s_e @ s_alpha - s_beta @ s_e), scale)

    beta_dual_t = dual(sys_b.dynamics, sys_b.state, sys_b.state, tol).superoperator.T
    defect = np.abs(p @ s_alpha - beta_dual_t @ p)
    size = np.abs(p) @ np.abs(s_alpha) + np.abs(beta_dual_t) @ np.abs(p)
    def_residual = _max_relative_residual(defect, size)

    balanced = residual <= tol
    agree = balanced == (def_residual <= tol)
    return BalanceReport(
        balanced=bool(balanced),
        residual=float(residual),
        definition_residual=def_residual,
        method_agreement=bool(agree),
        tol=tol,
    )


def sampled_balance(
    sys_a: System, sys_b: System, w: Coupling, ts=(0.1, 1.0, 5.0), tol: float = DEFAULT_TOL
) -> list[tuple[float, BalanceReport]]:
    """Balance of the exponentials e^{tK}, e^{tL} at sampled times."""
    if sys_a.kind != "generator" or sys_b.kind != "generator":
        raise ValueError("sampled balance requires generator dynamics")
    out = []
    for t in ts:
        a_t = System(state=sys_a.state, dynamics=semigroup(sys_a.dynamics, t))
        b_t = System(state=sys_b.state, dynamics=semigroup(sys_b.dynamics, t))
        out.append((float(t), is_balanced(a_t, b_t, w, tol)))
    return out


def is_kms_symmetric(sys: System, tol: float = DEFAULT_TOL) -> bool:
    """Whether the dynamics equals its KMS-dual."""
    s = sys.dynamics.superoperator
    sig = kms_dual(sys.dynamics, sys.state, sys.state, tol).superoperator
    return relative_residual(frob_norm(sig - s), frob_norm(s)) <= tol


@dataclass(frozen=True, eq=False)
class SqdbReport(Report):
    sqdb: bool
    residual: float
    via_balance: bool
    methods_agree: bool
    tol: float


def check_theta_sqdb(
    sys: System, th: ReversingOperation, tol: float = DEFAULT_TOL
) -> SqdbReport:
    """Standard quantum detailed balance with respect to a reversing operation.

    Direct test: the Theta-KMS-dual dynamics equals the dynamics.  Independent
    test: the system and its Theta-KMS-dual system are in balance with respect
    to the diagonal coupling.  The two must agree.
    """
    s = sys.dynamics.superoperator
    dual_sys = System(state=sys.state, dynamics=theta_kms_dual(sys.dynamics, sys.state, th, tol))
    residual = relative_residual(frob_norm(dual_sys.dynamics.superoperator - s), frob_norm(s))
    sqdb = residual <= tol

    via = is_balanced(sys, dual_sys, diagonal_coupling(sys.state), tol).balanced
    return SqdbReport(
        sqdb=bool(sqdb),
        residual=float(residual),
        via_balance=bool(via),
        methods_agree=bool(sqdb == via),
        tol=tol,
    )


@dataclass(frozen=True, eq=False, kw_only=True)
class FlipSymmetryReport(Report):
    hypothesis_met: bool
    forward_balanced: bool | None = None
    backward_balanced: bool | None = None
    equivalent: bool | None = None
    theta_forward: bool | None = None
    theta_backward: bool | None = None
    theta_equivalent: bool | None = None
    message: str


def kms_symmetry_flip_check(
    sys_a: System,
    sys_b: System,
    w: Coupling,
    tol: float = DEFAULT_TOL,
    th: ReversingOperation | None = None,
) -> FlipSymmetryReport:
    """Symmetry of balance under KMS-symmetric dynamics.

    When both dynamics are KMS-symmetric, balance of (A, B, omega) must be
    equivalent to balance of (B, A, kms_flip(omega)).  With a reversing
    operation supplied (and A KMS-symmetric), additionally checks that A is in
    balance with its Theta-KMS-dual with respect to omega exactly when the
    dual is in balance with A with respect to the coupling of
    Theta o E_omega o Theta.
    """
    if not (is_kms_symmetric(sys_a, tol) and is_kms_symmetric(sys_b, tol)):
        return FlipSymmetryReport(
            hypothesis_met=False, message="hypothesis not met: dynamics are not KMS-symmetric"
        )
    forward = is_balanced(sys_a, sys_b, w, tol).balanced
    backward = is_balanced(sys_b, sys_a, kms_flip(w), tol).balanced

    theta_fwd = theta_bwd = theta_eq = None
    message = "kms-symmetric flip equivalence evaluated"
    if th is not None:
        if not sys_a.state.same_state(sys_b.state):
            raise ValueError("theta variant requires both systems on one state")
        s = sys_a.state
        a_theta = System(state=s, dynamics=theta_kms_dual(sys_a.dynamics, s, th, tol))
        theta_fwd = is_balanced(sys_a, a_theta, w, tol).balanced
        e = extract_channel(w)
        e_conj = change_frame(_like(e, _kms_flip(e.superoperator)), *th.frame)
        w_e = coupling_from_channel(e_conj, s, s, tol)
        theta_bwd = is_balanced(a_theta, sys_a, w_e, tol).balanced
        theta_eq = theta_fwd == theta_bwd
        message += "; theta variant evaluated"
    return FlipSymmetryReport(
        hypothesis_met=True,
        forward_balanced=bool(forward),
        backward_balanced=bool(backward),
        equivalent=bool(forward == backward),
        theta_forward=theta_fwd,
        theta_backward=theta_bwd,
        theta_equivalent=theta_eq,
        message=message,
    )


@dataclass(frozen=True, eq=False)
class DualOrderReport(Report):
    primal: bool
    dual_pair: bool
    kms_pair: bool
    consistent: bool


def dual_order_check(
    sys_a: System, sys_b: System, w: Coupling, tol: float = DEFAULT_TOL
) -> DualOrderReport:
    """Balance is equivalent to balance of the duals and of the KMS-duals in
    reversed order, with the flipped and KMS-flipped couplings."""
    primal = is_balanced(sys_a, sys_b, w, tol).balanced
    s_a, s_b = sys_a.state, sys_b.state
    d_b = System(state=s_b, dynamics=dual(sys_b.dynamics, s_b, s_b, tol))
    d_a = System(state=s_a, dynamics=dual(sys_a.dynamics, s_a, s_a, tol))
    dual_pair = is_balanced(d_b, d_a, flip_coupling(w), tol).balanced
    k_b = System(state=s_b, dynamics=kms_dual(sys_b.dynamics, s_b, s_b, tol))
    k_a = System(state=s_a, dynamics=kms_dual(sys_a.dynamics, s_a, s_a, tol))
    kms_pair = is_balanced(k_b, k_a, kms_flip(w), tol).balanced
    return DualOrderReport(
        primal=bool(primal),
        dual_pair=bool(dual_pair),
        kms_pair=bool(kms_pair),
        consistent=bool(primal == dual_pair == kms_pair),
    )


def is_ergodic(sys: System, tol: float = DEFAULT_TOL) -> bool:
    """Fixed-point space of the dynamics is one-dimensional (the scalars)."""
    return len(fixed_point_space(sys.dynamics, tol)) == 1


@dataclass(frozen=True, eq=False, kw_only=True)
class DisjointnessReport(Report):
    ergodic: bool
    fixed_space_dim: int
    witness_found: bool
    balance_residual: float | None = None
    nontriviality_gap: float | None = None
    witness_basis: list | None = field(default=None, repr=False)
    message: str


# complex entries of x y products that _algebra_defect holds at a time (64 MiB);
# all d^2 n^2 of them at once would take 3 GB for identity-like dynamics at n = 24
_CLOSURE_ENTRY_BUDGET = 1 << 22


def _algebra_defect(stack: np.ndarray) -> float:
    """The largest distance from the span of an orthonormal basis (a stack of
    n x n matrices) to an x* or an x y of basis elements, the x y formed a few
    x at a time.  The distance is the same for any flattening, so row-major
    flattening is used."""
    dim, n, _ = stack.shape
    onb = stack.reshape(dim, n * n)

    def defect(rows: np.ndarray) -> float:
        return float(np.max(np.linalg.norm(rows - (rows @ onb.conj().T) @ onb, axis=1)))

    worst = defect(stack.conj().transpose(0, 2, 1).reshape(dim, n * n))
    step = max(1, _CLOSURE_ENTRY_BUDGET // (dim * n * n))
    for start in range(0, dim, step):
        products = stack[start : start + step, None] @ stack[None, :]
        worst = max(worst, defect(products.reshape(-1, n * n)))
    return worst


def disjointness_probe(sys: System, tol: float = DEFAULT_TOL) -> DisjointnessReport:
    """Constructive side of "ergodic iff disjoint from identity systems".

    For a non-ergodic system, the fixed-point space is checked to close as a
    *-algebra, an identity system is placed on it with the restricted state,
    and the restriction of the diagonal coupling is verified to give a
    non-trivial balanced coupling.  For an ergodic system no witness exists.
    """
    basis = fixed_point_space(sys.dynamics, tol)
    dim = len(basis)
    if dim <= 1:
        return DisjointnessReport(
            ergodic=True,
            fixed_space_dim=dim,
            witness_found=False,
            message="no non-trivial identity-system balance found (consistent with disjointness)",
        )

    n = sys.dim
    stack = np.stack(basis)
    worst = _algebra_defect(stack)
    if worst > tol:
        raise ValueError(f"fixed-point set not an algebra numerically (defect {worst:.3e})")

    state = sys.state
    r = state.sqrt_spectrum
    beta_dual = dual(sys.dynamics, state, state, tol)
    # row f of pairing is vec(rho^1/2 f rho^1/2), the form b -> Tr(rho^1/2 f rho^1/2 b^T)
    # on vec(b); the witness residual is its value on beta'(E_ij) - E_ij
    # (channel) or L'(E_ij), the gap its distance from mu(f) mu(E_ij).  Both
    # are spectral norms of matrices with one row per f, linear in f: another
    # orthonormal basis multiplies them on the left by a unitary, which
    # leaves the norms as they are
    pairing = (r[:, None] * stack * r[None, :]).transpose(0, 2, 1).reshape(dim, n * n)
    balance_res = float(np.linalg.norm(pairing @ _fixed_point_operator(beta_dual), 2))
    mu_f = np.sum(state.spectrum * np.diagonal(stack, axis1=1, axis2=2), axis=1)
    gap = float(np.linalg.norm(pairing - np.outer(mu_f, vec(state.rho)), 2))
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


def _spanning_density_matrices(m: int) -> np.ndarray:
    """Rank-one density matrices lambda spanning the full matrix algebra, as
    the m^2 x m^2 matrix of rows vec(lambda^T), so that row . vec(b) = Tr(lambda b)."""
    eye = np.eye(m, dtype=complex)
    i, j = np.triu_indices(m, 1)
    pairs = np.stack([eye[i] + eye[j], eye[i] + 1j * eye[j]], axis=1) / np.sqrt(2)
    v = np.concatenate([eye, pairs.reshape(-1, m)])
    return (v[:, :, None] * v.conj()[:, None, :]).reshape(m * m, m * m)


@dataclass(frozen=True, eq=False, kw_only=True)
class ConvergenceReport(Report):
    certified: bool
    gap: float | None
    vacuous: bool
    deviations: list
    threshold_time: float | None = None
    passed: bool | None = None
    message: str


def convergence_probe(
    sys_a: System,
    sys_b: System,
    w: Coupling,
    t_grid,
    tol: float = DEFAULT_TOL,
    deviation_tol: float = 1e-6,
) -> ConvergenceReport:
    """Transfer of convergence to the steady state through a balanced coupling.

    The hypothesis (every normal state of the first system converges under its
    semigroup to the invariant state) is certified spectrally: the generator's
    kernel must be spanned by the identity alone and every other eigenvalue
    must have a strictly negative real part.  When certified, the image of the
    extracted channel must equilibrate at the same rate: the supremum of
    |lambda(beta_t(b)) - nu(b)| over a spanning set of states lambda and over
    b in E_omega(matrix units) is reported per grid time and must drop below
    ``deviation_tol`` once t exceeds 50 / gap.  A certified probe whose grid
    ends before that threshold time evaluates it as one more grid time.
    """
    if sys_a.kind != "generator" or sys_b.kind != "generator":
        raise ValueError("convergence probe requires generator dynamics")
    rep = is_balanced(sys_a, sys_b, w, tol)
    if not rep.balanced:
        raise ValueError("convergence probe requires a balanced triple")

    evals = eigenvalues(sys_a.dynamics.superoperator)
    scale = float(np.max(np.abs(evals)))
    zero = _relative_residuals(np.abs(evals), scale) <= tol
    nonzero = evals[~zero]
    gap = float(-np.max(nonzero.real)) if nonzero.size else None
    # first, so that every call computes the fixed-point space, whose nullspace
    # the benchmark's kernel.nullspace series counts once per probe
    certified = (
        len(fixed_point_space(sys_a.dynamics, tol)) == 1
        and int(np.count_nonzero(zero)) == 1
        and gap is not None
        and relative_residual(gap, scale) > tol
    )

    # the images of the matrix units are the columns of S_E
    s_e = extract_channel(w).superoperator
    vacuous = rank(s_e, tol) <= 1

    threshold = 50.0 / gap if certified else None
    times = sorted(float(t) for t in t_grid)
    if certified and (not times or times[-1] < threshold):
        times = sorted(set(times) | {threshold})
    states = _spanning_density_matrices(w.state_b.dim)
    targets = vec(sys_b.state.rho) @ s_e
    deviations = []
    for t in times:
        evolved = states @ (semigroup(sys_b.dynamics, t).superoperator @ s_e)
        deviations.append((t, float(np.max(np.abs(evolved - targets)))))

    passed, message = None, "spectral condition fails; convergence transfer inapplicable"
    if certified:
        passed = bool(max(d for t, d in deviations if t >= threshold) <= deviation_tol)
        message = "hypothesis certified spectrally"
        if vacuous:
            message += "; extracted channel has scalar range, statement vacuous"
    return ConvergenceReport(
        certified=certified,
        gap=gap,
        vacuous=vacuous,
        deviations=deviations,
        threshold_time=threshold,
        passed=passed,
        message=message,
    )
