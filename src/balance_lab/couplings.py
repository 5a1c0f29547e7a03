"""Couplings of two faithful states: density matrices on C^n (x) C^m.

A coupling of (M_n, p_A) and (M_m, p_B) is a density matrix kappa on
C^n (x) C^m whose partial traces are diag(p_A) and diag(p_B).  The commutant
copy of the second algebra is identified with M_m via c <-> 1 (x) c, so a
coupling pairs observables as omega(a (x) c) = Tr(kappa (a (x) c)).

Everything here reads kappa through one realignment, the pairing matrix

    P[k + m*l, i + n*j] = omega(E_ij (x) E_kl),

an m^2 x n^2 matrix indexed like a superoperator M_n -> M_m (column
stacking), so that omega(a (x) c) = vec(c)^T P vec(a).
``Coupling.pairing`` and its inverse ``_from_pairing`` hold the
realignment.  Three other places index kappa's rows as (row A) m + (row B)
directly: ``lindblad._coupling_entries`` lists a scenario kappa's nonzeros
as (x, y, x', y', v) at (x n + y, x' n + y'), which
``lindblad.scenario_coupling`` scatters into kappa and
``lindblad.balance_sub_residuals`` moves by the shifts on one tensor
factor, keeping the bits of the dense products;
:func:`has_scalar_range` weighs its second factor; and
``states.gns_vector`` puts sqrt(p_i) at i n + i, the vector whose outer
product is the diagonal coupling.  In terms of P:

* every coupling determines a unique unital completely positive
  state-preserving channel E: M_n -> M_m through
  omega(a (x) c) = Tr(rho_B^1/2 E(a) rho_B^1/2 c^T), and its superoperator
  is P with row (k, l) divided by r_k r_l, r = sqrt(p_B)
  (:func:`extract_channel`).  Conversely every such channel determines a
  coupling, P = S_E with row (k, l) multiplied by r_k r_l
  (:func:`coupling_from_channel`);
* swapping the tensor factors transposes P; its channel is the dual of E
  (:func:`flip_coupling`);
* the KMS flip is P -> j o P^T o j for the modular transposition j,
  X -> X^T; its channel is the KMS-dual of E (:func:`kms_flip`).

Couplings compose along a common middle state as pairing matrices, in one
product: P_{w o psi} = P_psi S_w, with S_w the extracted channel of w, so that
E_{w o psi} = E_psi o E_w (:func:`compose`).  A composition of couplings is a
coupling, so the product is not judged again.  Whether omega is the product
coupling is asked at two scales, each with an independent check at the same
scale:

* for a composition, at kappa's (:func:`is_trivial`): is the composed state
  on A (x) C the product state?  A block of weight p moves every
  expectation omega(a (x) c) by at most about p, and counts that much.
  :func:`is_orthogonal` checks it by the Hilbert criterion too, whose
  cross-Gram is the same product with S_w weighed for the middle GNS inner
  product instead of the pairing, its norm cut at the same scale;
* for the convergence probe's vacuity, at that of S_E
  (:func:`has_scalar_range`): is the map E the constant a -> mu_A(a) 1?
  Every block of the channel counts whatever its weight.  The loop's rank
  rule on S_E checks it.

P is zero outside the rows and columns that the coupling touches, and has
few nonzeros in a row on every scenario coupling (one on entangled and mixed
blocks).  So a coupling carries P as a ``kernel._Factor``,
``Coupling.factor``: built once, on first use, and read by every product
with it after that.  ``balance.is_balanced`` and ``balance.convergence_probe``
read it with its rows weighed into S_E (:func:`_weigh_rows`), and
:func:`compose` and :func:`is_orthogonal` read P_psi itself, forming P_psi S_w
(and, for the cross-Gram, P_psi with a reweighed S_w) over the support of
P_psi alone.  A
coupling derived from another (a flip, a KMS flip, a composition) is a new
coupling with a factor of its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .channels import QuantumChannel, _kms_flip
from .kernel import (
    DEFAULT_TOL,
    Report,
    _distance_and_scale,
    _Factor,
    _factor,
    as_matrix,
    close,
    frob_distance,
    is_psd,
    kron,
    matrix_from_json,
    matrix_to_json,
    partial_trace,
    relative_residual,
)
from .states import FaithfulState, gns_vector, state_from_json


@dataclass(frozen=True, eq=False)
class Coupling:
    kappa: np.ndarray
    state_a: FaithfulState
    state_b: FaithfulState

    def __post_init__(self):
        k = as_matrix(self.kappa)
        nm = self.state_a.dim * self.state_b.dim
        if k.shape != (nm, nm):
            raise ValueError(f"kappa shape {k.shape} does not match state dims")
        object.__setattr__(self, "kappa", k)

    @property
    def dims(self) -> tuple[int, int]:
        return self.state_a.dim, self.state_b.dim

    def pairing(self) -> np.ndarray:
        """P[k + m*l, i + n*j] = omega(E_ij (x) E_kl) = kappa[(j, l), (i, k)]."""
        n, m = self.dims
        return self.kappa.reshape(n, m, n, m).transpose(1, 3, 0, 2).reshape(m * m, n * n)

    @cached_property
    def factor(self) -> _Factor:
        """The pairing matrix as a ``kernel._Factor``, scanned once."""
        return _factor(self.pairing())

    def to_json(self) -> dict:
        return {
            "kappa": matrix_to_json(self.kappa),
            "state_a": self.state_a.to_json(),
            "state_b": self.state_b.to_json(),
        }


def _from_pairing(p: np.ndarray, state_a: FaithfulState, state_b: FaithfulState) -> Coupling:
    """The coupling whose :meth:`Coupling.pairing` is ``p``."""
    n, m = state_a.dim, state_b.dim
    kappa = p.reshape(m, m, n, n).transpose(2, 0, 3, 1).reshape(n * m, n * m)
    return Coupling(kappa=kappa, state_a=state_a, state_b=state_b)


def _weigh_rows(x, r: np.ndarray):
    """Row k + m*l of an m^2-row matrix multiplied by r_k and then by r_l.

    Two factors, not their product r_k r_l: that order rounds as the block
    sum defining :func:`coupling_from_channel` does, so a rebuilt coupling has
    the same bits, and the same canonical JSON, either way.  x is an array
    or a ``kernel._Factor``, which weighs its rows alike.
    """
    m = r.shape[0]
    q = np.arange(x.shape[0])
    return x * r[q % m][:, None] * r[q // m][:, None]


@dataclass(frozen=True, eq=False)
class CouplingReport(Report):
    psd: bool
    trace_defect: float
    marginal_a_distance: float
    marginal_b_distance: float
    valid: bool = field(init=False)
    tol: float

    def __post_init__(self):
        object.__setattr__(self, "valid", self.psd and self.trace_ok and self.marginals_ok)

    # conjunctions of <=, not max(...) <= tol: max skips a NaN that is not first
    @property
    def trace_ok(self) -> bool:
        return self.trace_defect <= self.tol

    @property
    def marginals_ok(self) -> bool:
        return self.marginal_a_distance <= self.tol and self.marginal_b_distance <= self.tol


def validate_coupling(w: Coupling, tol: float = DEFAULT_TOL) -> CouplingReport:
    n, m = w.dims
    return CouplingReport(
        psd=bool(is_psd(w.kappa, tol)),
        trace_defect=abs(complex(np.trace(w.kappa)) - 1.0),
        marginal_a_distance=frob_distance(partial_trace(w.kappa, (n, m), "second"), w.state_a.rho),
        marginal_b_distance=frob_distance(partial_trace(w.kappa, (n, m), "first"), w.state_b.rho),
        tol=tol,
    )


def diagonal_coupling(s: FaithfulState) -> Coupling:
    """kappa = Omega Omega* for the GNS vector Omega; the maximally entangled coupling."""
    om = gns_vector(s)
    return Coupling(kappa=np.outer(om, om.conj()), state_a=s, state_b=s)


def product_coupling(sa: FaithfulState, sb: FaithfulState) -> Coupling:
    return Coupling(kappa=kron(sa.rho, sb.rho), state_a=sa, state_b=sb)


def extract_channel(w: Coupling) -> QuantumChannel:
    """The unique channel E with omega(a (x) c) = Tr(rho_B^1/2 E(a) rho_B^1/2 c^T):
    E(E_ij)[k, l] = P[k + m*l, i + n*j] / (r_k r_l)."""
    n, m = w.dims
    s = _weigh_rows(w.pairing(), w.state_b.inv_sqrt_spectrum)
    return QuantumChannel(dim_in=n, dim_out=m, superoperator=s)


def coupling_from_channel(
    e: QuantumChannel,
    sa: FaithfulState,
    sb: FaithfulState,
    tol: float = DEFAULT_TOL,
) -> Coupling:
    """kappa_E = sum_ij E_ij (x) (rho_B^1/2 E(E_ji) rho_B^1/2)^T.

    The exact inverse of the reshape in :func:`extract_channel`.  Defined
    exactly when E is u.c.p. and carries sa to sb; otherwise the resulting
    functional fails positivity or the marginals and is rejected.
    """
    if (e.dim_in, e.dim_out) != (sa.dim, sb.dim):
        raise ValueError("channel dimensions do not match the states")
    # + 0.0 turns negative zeros positive, as summing the defining formula does,
    # so that the canonical JSON of kappa does not print "-0.0"
    w = _from_pairing(_weigh_rows(e.superoperator, sb.sqrt_spectrum) + 0.0, sa, sb)
    report = validate_coupling(w, tol)
    if not report.valid:
        raise ValueError(
            "channel does not define a coupling (not u.c.p. or not state-preserving): "
            f"{report.to_json()}"
        )
    return w


def flip_coupling(w: Coupling) -> Coupling:
    """Swap the tensor factors, P -> P^T; the extracted channel becomes the dual."""
    return _from_pairing(w.pairing().T, w.state_b, w.state_a)


def kms_flip(w: Coupling) -> Coupling:
    """The coupling whose extracted channel is the KMS-dual of E_omega:
    P -> j o P^T o j, an index permutation of kappa."""
    return _from_pairing(_kms_flip(w.pairing().T), w.state_b, w.state_a)


def compose(w: Coupling, psi: Coupling) -> Coupling:
    """Composition along a common middle state, one product of pairing
    matrices: P_{w o psi} = P_psi S_w, so E_{w o psi} = E_psi o E_w.

    The result is not judged again: a composition of couplings is a
    coupling."""
    return _compose(w, psi, extract_channel(w).superoperator)


def _compose(w: Coupling, psi: Coupling, s_w: np.ndarray) -> Coupling:
    """:func:`compose` from S_w, the extracted channel of ``w``: P_psi S_w
    through psi's factor, over the support of P_psi, scattered into the zero
    rows.  Where P_psi has one nonzero in a row that row has the bits of the
    dense product; elsewhere it differs from it by rounding only (a shorter
    inner dimension for BLAS, or the gather's own sum)."""
    if not w.state_b.same_state(psi.state_a):
        raise ValueError("couplings not composable: middle states differ")
    f = psi.factor
    p = np.zeros((f.shape[0], s_w.shape[1]), dtype=complex)
    p[f.rows] = f @ s_w[f.cols]
    return _from_pairing(p, w.state_a, psi.state_b)


def is_trivial(w: Coupling, tol: float = DEFAULT_TOL) -> bool:
    return close(w.kappa, kron(w.state_a.rho, w.state_b.rho), tol)


def has_scalar_range(w: Coupling, tol: float = DEFAULT_TOL) -> bool:
    """E_omega(a) = mu_A(a) 1, the extracted channel of the product coupling,
    judged at the scale of S_E: :func:`is_trivial` with kappa's second
    factor weighed by rho_B^-1/2 on both sides.  The entries of
    (1 (x) rho_B^-1/2) kappa (1 (x) rho_B^-1/2) are those of S_E, and the
    entries of rho_A (x) 1 those of the product coupling's S, each in kappa's
    layout, which moves entries and keeps Frobenius norms.  :func:`is_trivial`
    weighs row (k, l) of S_E by r_k r_l, so a block of weight p counts about
    p times less there, and on a state with p_min = 1e-12 it calls a
    coupling the product that maps a block's projector to its own unit."""
    n, m = w.dims
    r = np.tile(w.state_b.inv_sqrt_spectrum, n)
    return close(w.kappa * np.outer(r, r), kron(w.state_a.rho, np.eye(m)), tol)


@dataclass(frozen=True, eq=False)
class OrthogonalityReport(Report):
    orthogonal: bool
    residual: float
    hilbert_criterion: bool
    cross_gram_norm: float
    methods_agree: bool
    tol: float


def is_orthogonal(w: Coupling, psi: Coupling, tol: float = DEFAULT_TOL) -> OrthogonalityReport:
    """Two composable couplings are orthogonal when their composition is the product.

    Checked two ways: directly on the composed density matrix, and through the
    Hilbert-space criterion that the centered ranges of E_w and of the dual
    E_psi' of E_psi are orthogonal in the middle GNS space.  The cross-Gram
    G[ij, kl] = Tr(rho_B x_ij* y_kl) of x_ij = E_w(E_ij) - mu_A(E_ij) 1 and
    y_kl = E_psi'(E_kl) - mu_C(E_kl) 1 is the composition again, with S_w
    weighed for the GNS inner product instead of the pairing:

        G^T = P_psi Lambda conj(S_w) - P_0,  Lambda[k + m*l] = r_l / r_k,

    r = sqrt(p_B) and P_0 the pairing matrix of rho_A (x) rho_C.  Two facts
    collapse the centering to that one rank-one term: mu_B o E_w = mu_A (w's
    marginal on A is rho_A) and E_psi(1) = 1 (psi's marginal on C is rho_C),
    the latter making mu_B o E_psi' = mu_C.  So both norms are Frobenius
    distances of a product through psi's factor from rho_A (x) rho_C, in
    kappa's layout, and both are cut at the composition's scale, the pair
    that :func:`is_trivial` cuts: ``orthogonal`` is
    ``is_trivial(compose(w, psi))``.

    The two numbers can differ only where Lambda != 1 on a column of P_psi
    (the middle state varies on a pair that psi keeps) or where S_w is
    complex.  Where neither holds, as on every coupling of the benchmark's
    scenarios (single-cycle blocks, real channels), they are the same
    floats.
    """
    s_w = extract_channel(w).superoperator
    product = kron(w.state_a.rho, psi.state_b.rho)
    residual, scale = _distance_and_scale(_compose(w, psi, s_w).kappa, product)
    direct = relative_residual(residual, scale) <= tol

    # Lambda[k + m*l] = r_l / r_k
    lam = np.outer(w.state_b.sqrt_spectrum, w.state_b.inv_sqrt_spectrum).ravel()
    gram_norm = frob_distance(_compose(w, psi, lam[:, None] * s_w.conj()).kappa, product)
    hilbert = relative_residual(gram_norm, scale) <= tol
    return OrthogonalityReport(
        orthogonal=bool(direct),
        residual=float(residual),
        hilbert_criterion=bool(hilbert),
        cross_gram_norm=gram_norm,
        methods_agree=bool(direct == hilbert),
        tol=tol,
    )


def coupling_from_json(obj) -> Coupling:
    try:
        kappa = matrix_from_json(obj["kappa"])
        sa = state_from_json(obj["state_a"])
        sb = state_from_json(obj["state_b"])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed coupling object: {exc}") from exc
    return Coupling(kappa=kappa, state_a=sa, state_b=sb)
