"""Couplings of two faithful states as bipartite density matrices.

A coupling of (M_n, p_A) and (M_m, p_B) is a density matrix kappa on
C^n (x) C^m whose partial traces are diag(p_A) and diag(p_B).  The commutant
copy of the second algebra is identified with M_m via c <-> 1 (x) c, so a
coupling pairs observables as omega(a (x) c) = Tr(kappa (a (x) c)).

Every coupling determines a unique unital completely positive state-preserving
channel E: M_n -> M_m through

    omega(a (x) c) = Tr(rho_B^1/2 E(a) rho_B^1/2 c^T),

with closed form E(a) = rho_B^-1/2 (Tr_first(kappa (a (x) 1)))^T rho_B^-1/2 for
diagonal rho_B, and conversely every such channel determines a coupling.
Composition, flips and orthogonality are all routed through this bijection.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import (
    QuantumChannel,
    apply,
    compose_channels,
    dual,
    kms_dual,
    validate_ucp,
)
from .kernel import (
    DEFAULT_TOL,
    as_matrix,
    close,
    frob_distance,
    frob_norm,
    is_psd,
    matrix_from_json,
    matrix_to_json,
    matrix_unit,
    partial_trace,
    relative_residual,
)
from .states import FaithfulState, gns_vector, preserves_state, state_from_json


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

    def kappa4(self) -> np.ndarray:
        n, m = self.dims
        return self.kappa.reshape(n, m, n, m)

    def to_json(self) -> dict:
        return {
            "kappa": matrix_to_json(self.kappa),
            "state_a": self.state_a.to_json(),
            "state_b": self.state_b.to_json(),
        }


@dataclass(frozen=True, eq=False)
class CouplingReport:
    psd: bool
    trace_defect: float
    marginal_a_distance: float
    marginal_b_distance: float
    tol: float

    @property
    def valid(self) -> bool:
        return (
            self.psd
            and self.trace_defect <= self.tol
            and self.marginal_a_distance <= self.tol
            and self.marginal_b_distance <= self.tol
        )

    def to_json(self) -> dict:
        return {
            "psd": self.psd,
            "trace_defect": self.trace_defect,
            "marginal_a_distance": self.marginal_a_distance,
            "marginal_b_distance": self.marginal_b_distance,
            "valid": self.valid,
            "tol": self.tol,
        }


def validate_coupling(w: Coupling, tol: float = DEFAULT_TOL) -> CouplingReport:
    n, m = w.dims
    psd = is_psd(w.kappa, tol)
    trace_defect = abs(complex(np.trace(w.kappa)) - 1.0)
    ma = frob_distance(partial_trace(w.kappa, (n, m), "second"), w.state_a.rho)
    mb = frob_distance(partial_trace(w.kappa, (n, m), "first"), w.state_b.rho)
    return CouplingReport(
        psd=bool(psd),
        trace_defect=float(trace_defect),
        marginal_a_distance=float(ma),
        marginal_b_distance=float(mb),
        tol=tol,
    )


def new_coupling(
    kappa, state_a: FaithfulState, state_b: FaithfulState, tol: float = DEFAULT_TOL
) -> Coupling:
    w = Coupling(kappa=kappa, state_a=state_a, state_b=state_b)
    report = validate_coupling(w, tol)
    if not report.valid:
        raise ValueError(f"not a coupling: {report.to_json()}")
    return w


def evaluate(w: Coupling, a, c) -> complex:
    """omega(a (x) c) = Tr(kappa (a (x) c))."""
    n, m = w.dims
    a, c = as_matrix(a), as_matrix(c)
    if a.shape != (n, n) or c.shape != (m, m):
        raise ValueError("operand dimensions do not match the coupling")
    return complex(np.einsum("pqrs,rp,sq->", w.kappa4(), a, c))


def diagonal_coupling(s: FaithfulState) -> Coupling:
    """kappa = Omega Omega* for the GNS vector Omega; the maximally entangled coupling."""
    om = gns_vector(s)
    return Coupling(kappa=np.outer(om, om.conj()), state_a=s, state_b=s)


def product_coupling(sa: FaithfulState, sb: FaithfulState) -> Coupling:
    return Coupling(kappa=np.kron(sa.rho, sb.rho), state_a=sa, state_b=sb)


def extract_channel(w: Coupling) -> QuantumChannel:
    """The unique channel E with omega(a (x) c) = Tr(rho_B^1/2 E(a) rho_B^1/2 c^T)."""
    n, m = w.dims
    k4 = w.kappa4()
    inv = w.state_b.inv_sqrt_spectrum
    # E(E_ij)[k, l] = kappa4[j, l, i, k] / (r_k r_l)
    e4 = np.einsum("jlik,k,l->klij", k4, inv, inv)
    s = e4.transpose(1, 0, 3, 2).reshape(m * m, n * n)
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
    n, m = sa.dim, sb.dim
    r = sb.sqrt_spectrum
    # s4[l, k, j, i] = E(E_ij)[k, l];  kappa4[i, l, j, k] = r_k E(E_ji)[k, l] r_l
    s4 = e.superoperator.reshape(m, m, n, n)
    kappa4 = r[None, None, None, :] * s4.transpose(2, 0, 3, 1) * r[None, :, None, None]
    # + 0.0 turns negative zeros positive, as summing the defining formula does,
    # so that the canonical JSON of kappa does not print "-0.0"
    kappa = kappa4.reshape(n * m, n * m) + 0.0
    w = Coupling(kappa=kappa, state_a=sa, state_b=sb)
    report = validate_coupling(w, tol)
    if not report.valid:
        raise ValueError(
            "channel does not define a coupling (not u.c.p. or not state-preserving): "
            f"{report.to_json()}"
        )
    return w


def flip_coupling(w: Coupling) -> Coupling:
    """Swap the tensor factors; the extracted channel becomes the dual."""
    n, m = w.dims
    k4 = w.kappa4()
    flipped = k4.transpose(1, 0, 3, 2).reshape(m * n, m * n)
    return Coupling(kappa=flipped, state_a=w.state_b, state_b=w.state_a)


def kms_flip(w: Coupling, tol: float = DEFAULT_TOL) -> Coupling:
    """The coupling whose extracted channel is the KMS-dual of E_omega."""
    e = extract_channel(w)
    return coupling_from_channel(
        kms_dual(e, w.state_a, w.state_b, tol=tol), w.state_b, w.state_a, tol=tol
    )


def compose(w: Coupling, psi: Coupling, tol: float = DEFAULT_TOL) -> Coupling:
    """Composition along a common middle state; E_{w o psi} = E_psi o E_w."""
    if not w.state_b.same_state(psi.state_a):
        raise ValueError("couplings not composable: middle states differ")
    e = compose_channels(extract_channel(psi), extract_channel(w))
    return coupling_from_channel(e, w.state_a, psi.state_b, tol=tol)


def is_trivial(w: Coupling, tol: float = DEFAULT_TOL) -> bool:
    return close(w.kappa, np.kron(w.state_a.rho, w.state_b.rho), tol)


@dataclass(frozen=True, eq=False)
class OrthogonalityReport:
    orthogonal: bool
    residual: float
    hilbert_criterion: bool
    cross_gram_norm: float
    methods_agree: bool
    tol: float

    def to_json(self) -> dict:
        return {
            "orthogonal": self.orthogonal,
            "residual": self.residual,
            "hilbert_criterion": self.hilbert_criterion,
            "cross_gram_norm": self.cross_gram_norm,
            "methods_agree": self.methods_agree,
            "tol": self.tol,
        }


def is_orthogonal(w: Coupling, psi: Coupling, tol: float = DEFAULT_TOL) -> OrthogonalityReport:
    """Two composable couplings are orthogonal when their composition is the product.

    Checked two ways: directly on the composed density matrix, and through the
    Hilbert-space criterion that the centered ranges of E_w and of the dual of
    E_psi are orthogonal in the middle GNS space (cross-Gram matrix norm).
    """
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
    # Cauchy-Schwarz bound on the cross-Gram; not the norm of the centered
    # families, which is exactly 0 for a product coupling
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


def extraction_is_valid(w: Coupling, tol: float = DEFAULT_TOL) -> bool:
    """Extracted channel is u.c.p. and carries state_a to state_b."""
    e = extract_channel(w)
    return validate_ucp(e, tol).ucp and preserves_state(e, w.state_a, w.state_b, tol)[1]


def coupling_from_json(obj) -> Coupling:
    try:
        kappa = matrix_from_json(obj["kappa"])
        sa = state_from_json(obj["state_a"])
        sb = state_from_json(obj["state_b"])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed coupling object: {exc}") from exc
    return Coupling(kappa=kappa, state_a=sa, state_b=sb)
