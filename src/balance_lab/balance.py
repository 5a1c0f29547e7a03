"""Balance between two state-preserving systems, and its consequences.

Two systems (A, alpha, mu) and (B, beta, nu) are in balance with respect to a
coupling omega when omega(alpha(a) (x) c) = omega(a (x) beta'(c)) for all a
and all commutant observables c, equivalently when the extracted channel
intertwines the dynamics: E_omega o alpha = beta o E_omega.  On the pairing
matrix the two formulations are one defect, D = S_E S_alpha - S_beta S_E,
up to the KMS weights W = diag(r_k r_l), r = sqrt(p_B), on its rows: P = W S_E
and S_beta'^T = W S_beta W^-1, so P S_alpha - S_beta'^T P = W D.  So D is
formed once and cut two ways, in Frobenius norm and componentwise, where W
cancels entry by entry (:func:`is_balanced`); the two cuts must agree.  The
checks of balance that do not share D are the arithmetic prediction of a
scenario (``lindblad.scenario_predict``), the sub-residuals of the balance
equations on kappa (``lindblad.balance_sub_residuals``), and, in the tests,
the definition contracted from kappa and the dual beta'.  For semigroups the
check runs at generator level, which is equivalent to checking every time by
the power series of e^{tK}.

Also provided: KMS-symmetry, standard detailed balance with respect to a
reversing operation (one distance S_Theta' - S, cut directly and at the
scale of balance with the Theta-KMS-dual through the diagonal coupling,
whose extracted channel is the identity), order-reversal under duals,
ergodicity as one-dimensionality of the fixed-point space, the
constructive disjointness witness read off the fixed-point basis that
ergodicity computed, and a spectral convergence-transfer probe.  The
second number of sqdb and of the witness shares its numerics with the
first; their independent checks are the tests' ``theta_kms_dual_oracle``
and ``disjointness_probe_loop``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channels import (
    ReversingOperation,
    _fixed_point_operator,
    _kms_conjugate,
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
    extract_channel,
    has_scalar_range,
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
    """Both definitions of balance, as two cuts of one defect.

    The intertwining E o alpha = beta o E is the defect
    D = S_E S_alpha - S_beta S_E of the extracted channel.  The definition
    omega o (alpha (x) 1) = omega o (1 (x) beta') is P S_alpha = S_beta'^T P on
    the pairing matrix P of the coupling, and that is the same defect: with
    W = diag(r_k r_l), r = sqrt(p_B), P = W S_E and S_beta'^T = W S_beta W^-1,
    so P S_alpha - S_beta'^T P = W D, and its Oettli-Prager size
    |P| |S_alpha| + |S_beta'^T| |P| is W (|S_E| |S_alpha| + |S_beta| |S_E|).
    So D is formed once and cut two ways:

    * ``residual``, ||D||_F relative to ||S_alpha||_F + ||S_beta||_F;
    * ``definition_residual``, componentwise relative (Oettli-Prager): the
      largest entry of |D| over |S_E| |S_alpha| + |S_beta| |S_E|, with
      0/0 = 0.  The KMS weights W cancel entry by entry, so it does not grow
      with the 1/sqrt(p) that the dual beta' divides by, and no dual is
      formed.

    ``method_agreement`` says that the two cuts give one verdict.  For
    generator dynamics D is taken on the generators, which is equivalent
    to all times at once.  The checks of balance that do not share this
    defect are the arithmetic prediction of a scenario
    (``lindblad.scenario_predict``), the sub-residuals of the balance
    equations on kappa (``lindblad.balance_sub_residuals``), and, in the
    tests, the definition contracted from kappa and the dual beta'.

    S_E is zero outside the rows and columns that the coupling touches, so
    it is read as the coupling's ``kernel._Factor`` (``Coupling.factor``)
    with its rows weighed by ``couplings._weigh_rows``, which has S_E's
    bits: every product is taken over the support block alone, by row
    gather where the kernel's cost rule allows and by BLAS elsewhere.  The
    two products that read one operand are taken together
    (``_Factor.products``), so a gather copies it to C order once.  D and
    its size are each read on the two regions where they can be nonzero
    (``_Factor.regions``): the support rows (both terms on the support
    columns, the first alone on the others) and the other rows on the
    support columns (the second alone).  The Frobenius norm is the hypot of
    the regions' norms, the componentwise maximum the larger of their
    maxima, and 0/0 = 0 elsewhere.
    """
    _check_triple(sys_a, sys_b, w)
    s_alpha = sys_a.dynamics.superoperator
    s_beta = sys_b.dynamics.superoperator
    scale = frob_norm(s_alpha) + frob_norm(s_beta)
    s_e = _weigh_rows(w.factor, w.state_b.inv_sqrt_spectrum)
    ea, size_a = s_e.products(s_alpha[s_e.cols], 0)
    be, size_b = s_e.products(s_beta[:, s_e.rows], -1)
    defect = s_e.regions(ea, be, np.subtract)
    # each n^2 x n^2 product is released once read: the high-water mark of
    # this call is close to the peak memory of a process of heavy probes
    del ea, be
    residual = relative_residual(math.hypot(*map(frob_norm, defect)), scale)
    size = s_e.regions(size_a, size_b, np.add)
    del size_a, size_b
    def_residual = float(max(map(_max_relative_residual, map(np.abs, defect), size)))

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

    Direct test (``sqdb``, ``residual``): the Theta-KMS-dual dynamics equals
    the dynamics, ||S_Theta' - S||_F relative to ||S||_F.  ``via_balance``
    reads the same difference as balance of the system with its
    Theta-KMS-dual through the diagonal coupling: that coupling's extracted
    channel is the identity, so the balance defect S_E S - S_Theta' S_E of
    :func:`is_balanced` is S - S_Theta', cut at the balance scale
    ||S||_F + ||S_Theta'||_F.  The two verdicts share the difference and
    differ in the scale alone, so ``methods_agree`` says that the distance
    does not fall between the two cuts.  The independent check of the dual
    is the tests' ``theta_kms_dual_oracle`` (Theta's superoperator times the
    KMS-dual, with no change of frame).  No system is built from the dual:
    the Theta-KMS-dual of state-preserving dynamics is unital (it
    annihilates 1, for a generator), so dynamics that are not cannot equal
    it and are not sqdb.
    """
    s = sys.dynamics.superoperator
    s_theta = theta_kms_dual(sys.dynamics, sys.state, th, tol).superoperator
    distance = frob_norm(s_theta - s)
    residual = relative_residual(distance, frob_norm(s))
    sqdb = residual <= tol
    via = relative_residual(distance, frob_norm(s) + frob_norm(s_theta)) <= tol
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
        e_conj = change_frame(_kms_conjugate(e), *th.frame)
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
    # the KMS-duals are j o dual o j (channels.kms_dual) of the duals just made
    k_b = System(state=s_b, dynamics=_kms_conjugate(d_b.dynamics))
    k_a = System(state=s_a, dynamics=_kms_conjugate(d_a.dynamics))
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

    Both numbers are read off the orthonormal basis B of the fixed-point
    space that the ergodicity verdict computed, one row vec(f) per basis
    element f:

    * ``balance_residual`` is ||(S - 1) B^T||_2 for a channel and
      ||L B^T||_2 for a generator, cut at the scale of the dynamics.  The
      definition of balance pairs each f with beta'(c) - c through the KMS
      weights W = diag(r_k r_l), r = sqrt(p), and that pairing matrix is
      ((S - 1) B^T)^T W: it is the defect whose kernel gave B, without the
      weights, so it shares the kernel's numerics and is zero in exact
      arithmetic.  No dual is formed;
    * ``nontriviality_gap`` is ||B - mu(f) vec(1)^T||_2, the distance of
      the restricted diagonal coupling's channel from the product's, cut
      against ||B||_2 = 1: the scale of S_E, at which every block counts
      whatever its weight, as for the vacuity of ``convergence_probe``.
      By interlacing it is at least 1 whenever the space has dimension 2
      or more.

    Another orthonormal basis multiplies B on the left by a unitary, which
    leaves both spectral norms as they are.  The independent check is the
    tests' ``disjointness_probe_loop``, which pairs each f with the images
    of the matrix units under the dual beta'.
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

    b = stack.transpose(0, 2, 1).reshape(dim, n * n)
    balance_res = float(np.linalg.norm(_fixed_point_operator(sys.dynamics) @ b.T, 2))
    mu_f = np.sum(sys.state.spectrum * np.diagonal(stack, axis1=1, axis2=2), axis=1)
    gap = float(np.linalg.norm(b - np.outer(mu_f, vec(np.eye(n))), 2))
    balanced = relative_residual(balance_res, sys.dynamics.scale) <= tol
    found = balanced and relative_residual(gap, 1.0) > tol
    return DisjointnessReport(
        ergodic=False,
        fixed_space_dim=dim,
        witness_found=bool(found),
        balance_residual=balance_res,
        nontriviality_gap=gap,
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
    semigroup to the invariant state) is certified spectrally: the generator
    must have one zero eigenvalue, so that its kernel, which holds the
    identity, is spanned by it alone, and every other eigenvalue must have a
    strictly negative real part.  When certified, the image of the
    extracted channel must equilibrate at the same rate: the supremum of
    |lambda(beta_t(b)) - nu(b)| over a spanning set of states lambda and over
    b in E_omega(matrix units) is reported per grid time and must drop below
    ``deviation_tol`` once t exceeds 50 / gap.  A certified probe whose grid
    ends before that threshold time evaluates it as one more grid time.

    ``vacuous`` means that E_omega has scalar range, and the transfer then
    says nothing.  Since E_omega is unital and mu_B o E_omega = mu_A, a
    scalar range can only be E_omega(a) = mu_A(a) 1, the extracted channel
    of omega = mu_A (x) mu_B, so it is judged by
    :func:`couplings.has_scalar_range`: S_E against the product's S at the
    scale of S_E, where the rank of S_E is also cut.
    """
    if sys_a.kind != "generator" or sys_b.kind != "generator":
        raise ValueError("convergence probe requires generator dynamics")
    rep = is_balanced(sys_a, sys_b, w, tol)
    if not rep.balanced:
        raise ValueError("convergence probe requires a balanced triple")

    gen = sys_a.dynamics
    evals = eigenvalues(gen.superoperator, gen.invariant_blocks)
    scale = float(np.max(np.abs(evals)))
    zero = _relative_residuals(np.abs(evals), scale) <= tol
    nonzero = evals[~zero]
    gap = float(-np.max(nonzero.real)) if nonzero.size else None
    certified = (
        int(np.count_nonzero(zero)) == 1
        and gap is not None
        and relative_residual(gap, scale) > tol
    )
    vacuous = has_scalar_range(w, tol)

    threshold = 50.0 / gap if certified else None
    times = sorted(float(t) for t in t_grid)
    if certified and (not times or times[-1] < threshold):
        times = sorted(set(times) | {threshold})
    # a zero column of S_E is the image of a matrix unit, which every state
    # sees at deviation 0, so only the nonzero columns are evolved, over the
    # nonzero rows, each by column gather where the kernel's cost rule
    # allows: S_E as the coupling's factor with its rows weighed, which has
    # the bits of the factor of S_E itself
    s_e = _weigh_rows(w.factor, w.state_b.inv_sqrt_spectrum)
    states = _spanning_density_matrices(w.state_b.dim)
    targets = vec(sys_b.state.rho)[s_e.rows] @ s_e
    deviations = []
    for t in times:
        evolved = states @ (semigroup(sys_b.dynamics, t).superoperator[:, s_e.rows] @ s_e)
        deviations.append((t, float(np.max(np.abs(evolved - targets), initial=0.0))))

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
