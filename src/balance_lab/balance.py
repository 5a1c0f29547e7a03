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
    dual,
    fixed_point_space,
    kms_dual,
    theta_kms_dual,
)
from .couplings import (
    Coupling,
    _weigh_rows,
    has_scalar_range,
    kms_flip,
    flip_coupling,
)
from .kernel import (
    DEFAULT_TOL,
    Report,
    _defect_on_pattern,
    _max_relative_residual,
    _relative_residuals,
    _scatter,
    _span,
    eigenvalues,
    frob_norm,
    relative_residual,
    vec,
)
from .lindblad import _exponentials, _semigroup
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
    bits.  D and its size are formed on the union of the patterns of
    S_E S_alpha and S_beta S_E (``kernel._defect_on_pattern``), from the
    patterns that the dynamics hold (``pattern``): each nonzero of S_E meets
    a row of S_alpha and a column of S_beta, and the terms are summed by
    position.  ``residual`` is then ||D||_F over the Frobenius norms of the
    two patterns' nonzeros, and the componentwise maximum is read on the
    union, with 0/0 = 0 off it.  Where the kernel's cost rule finds the
    terms too many (a dense pair) or the matrices too small for it
    (n^2 < GATHER_COST), D is formed by the dense products through the
    factor (:func:`_dense_defect`), with the bits it had before patterns.
    The two ways sum the same terms in different orders, so their floats
    differ by rounding only.
    """
    _check_triple(sys_a, sys_b, w)
    return _balance(sys_a.dynamics, sys_b.dynamics, w, tol)


def _balance(alpha, beta, w: Coupling, tol: float) -> BalanceReport:
    """:func:`is_balanced` of the dynamics alpha and beta, for a caller that
    has checked the triple (``_check_triple``) and knows that the two
    dynamics preserve the coupling's states."""
    s_e = _weigh_rows(w.factor, w.state_b.inv_sqrt_spectrum)
    on_pattern = _defect_on_pattern(s_e, alpha, beta)
    if on_pattern is not None:
        magnitude, size = on_pattern
        scale = frob_norm(alpha.pattern.form(0)[1]) + frob_norm(beta.pattern.form(0)[1])
        residual = relative_residual(frob_norm(magnitude), scale)
        def_residual = _max_relative_residual(magnitude, size)
    else:
        residual, def_residual = _dense_defect(s_e, alpha.superoperator, beta.superoperator)

    balanced = residual <= tol
    agree = balanced == (def_residual <= tol)
    return BalanceReport(
        balanced=bool(balanced),
        residual=float(residual),
        definition_residual=def_residual,
        method_agreement=bool(agree),
        tol=tol,
    )


def _dense_defect(s_e, s_alpha: np.ndarray, s_beta: np.ndarray) -> tuple[float, float]:
    """The two cuts of :func:`is_balanced` by the dense products with the
    factor s_e: every product is taken over the support block alone, by row
    gather where the kernel's cost rule allows and by BLAS elsewhere.  D and
    its size are each read on the two regions where they can be nonzero
    (``_Factor.regions``): the support rows (both terms on the support
    columns, the first alone on the others) and the other rows on the
    support columns (the second alone).  The Frobenius norm is the hypot of
    the regions' norms, the componentwise maximum the larger of their
    maxima."""
    scale = frob_norm(s_alpha) + frob_norm(s_beta)
    # each n^2 x n^2 operand and product is released once read: the
    # high-water mark of this call is close to the peak memory of a process
    # of heavy probes
    a = s_alpha[s_e.cols]
    ea, size_a = s_e @ a, abs(s_e) @ np.abs(a)
    del a
    b = s_beta[:, s_e.rows]
    be, size_b = b @ s_e, np.abs(b) @ abs(s_e)
    del b
    defect = s_e.regions(ea, be, np.subtract)
    del ea, be
    residual = relative_residual(math.hypot(*map(frob_norm, defect)), scale)
    size = s_e.regions(size_a, size_b, np.add)
    del size_a, size_b
    return residual, float(max(map(_max_relative_residual, map(np.abs, defect), size)))


def sampled_balance(
    sys_a: System, sys_b: System, w: Coupling, ts=(0.1, 1.0, 5.0), tol: float = DEFAULT_TOL
) -> list[tuple[float, BalanceReport]]:
    """Balance of the exponentials e^{tK}, e^{tL} at sampled times.  The
    triple is checked once: e^{tK} and e^{tL} preserve the states that K
    and L annihilate, so they are not checked again at each t.  The
    exponentials of all times and of both generators are taken in batched
    passes (``lindblad._exponentials``, over runs bounded by a quarter of
    a dense superoperator), each with the bits of its ``semigroup`` call,
    and held as their blocks, one time at a time: the defect reads their
    patterns, and their dense superoperators are formed only where the
    defect is left to the dense products (n^2 < GATHER_COST)."""
    if sys_a.kind != "generator" or sys_b.kind != "generator":
        raise ValueError("sampled balance requires generator dynamics")
    _check_triple(sys_a, sys_b, w)
    pairs = [(sys.dynamics, t) for t in ts for sys in (sys_a, sys_b)]
    held = iter(_semigroup(gen, x) for (gen, _), x in zip(pairs, _exponentials(pairs)))
    return [(float(t), _balance(next(held), next(held), w, tol)) for t in ts]


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
    # the KMS-duals are j o dual o j (channels.kms_dual) of the duals just
    # made, which preserve the states, as the KMS-duals then do, since j
    # fixes a diagonal rho; and kms_flip(w) has the states of flip_coupling(w)
    k_b, k_a = _kms_conjugate(d_b.dynamics), _kms_conjugate(d_a.dynamics)
    kms_pair = _balance(k_b, k_a, kms_flip(w), tol).balanced
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


def _spanning_traces(x: np.ndarray, m: int) -> np.ndarray:
    """Tr(lambda b) for each column vec(b) of the m^2 x k matrix x, one row
    per rank-one density matrix lambda of a set spanning the full matrix
    algebra: lambda = E_ii for each i, then for each pair i < j the
    projections onto (e_i + e_j)/sqrt2 and (e_i + i e_j)/sqrt2.  With
    x_ij = x[i + m j] = b_ij, their traces are x_ii, then
    (x_ii + x_jj + x_ij + x_ji)/2 and (x_ii + x_jj + i x_ij - i x_ji)/2:
    at most four rows of x each, read by index.  The pairs are written in
    place into the result, which keeps a probe's peak memory below that of
    the dense product (17.8 against 20.8 MiB on a 24-cycle, tracemalloc)."""
    d = np.arange(m) * (m + 1)
    i, j = np.triu_indices(m, 1)
    out = np.empty((m * m, x.shape[1]), dtype=x.dtype)
    out[:m] = x[d]
    pairs = out[m:].reshape(-1, 2, x.shape[1])
    both = x[d[i]] + x[d[j]]
    x_ij, x_ji = x[i + m * j], x[j + m * i]
    np.add(x_ij, x_ji, out=pairs[:, 0])
    np.subtract(x_ij, x_ji, out=pairs[:, 1])
    pairs[:, 1] *= 1j
    pairs += both[:, None]
    pairs *= 0.5
    return out


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
    The states are E_ii and the projections onto (e_i + e_j)/sqrt2 and
    (e_i + i e_j)/sqrt2, i < j; each lambda(b) is read off at most four
    entries of b (:func:`_spanning_traces`), with no m^2 x m^2 product.
    The exponentials of the grid times are taken in batched passes
    (``lindblad._exponentials``, over runs bounded by a quarter of a
    dense superoperator) and held as the stacks of the blocks of L's
    split; the columns of e^{tL} that meet S_E are scattered from them
    (``kernel._scatter``) and multiplied by S_E, so no dense e^{tL} is
    formed beyond those columns.

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
    # the bits of the factor of S_E itself.  The columns of e^{tL} on those
    # rows are scattered from its blocks (kernel._scatter), with no dense
    # e^{tL}
    s_e = _weigh_rows(w.factor, w.state_b.inv_sqrt_spectrum)
    targets = vec(sys_b.state.rho)[s_e.rows] @ s_e
    blocks, rows = sys_b.dynamics.invariant_blocks, _span(s_e.rows, s_e.shape[0])
    deviations = []
    for t, stacks in zip(times, _exponentials([(sys_b.dynamics, t) for t in times])):
        evolved = _spanning_traces(_scatter(blocks, stacks, rows) @ s_e, w.state_b.dim)
        evolved -= targets
        deviations.append((t, float(np.max(np.abs(evolved), initial=0.0))))
        del evolved  # not held while the next time's traces are formed

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
