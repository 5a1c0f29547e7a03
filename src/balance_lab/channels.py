"""Completely positive maps as superoperators, with dual constructions.

A channel eta: M_n -> M_m is stored as its m^2 x n^2 superoperator in the
column-stacking convention, vec(eta(X)) = S vec(X).  The Choi matrix is
sum_ij E_ij (x) eta(E_ij) and is positive semidefinite exactly when eta is
completely positive.  Kraus input describes the Heisenberg-picture map
a -> sum_j V_j* a V_j.

Every dual of every kind of dynamics (channel or semigroup generator) is
built by one core, ``dual``, exact for diagonal states:

* the dual is the adjoint with respect to the bilinear pairing
  Tr(rho^1/2 a rho^1/2 b^T), the weighted transpose W_in^-1 S^T W_out with
  W = rho^1/2 (x) rho^1/2.  It is defined for state-preserving dynamics only,
  as judged by ``states.preserves_state``.  It is held as its nonzeros
  (``kernel._Dynamics``): those of S, weighed in the two gather forms of
  its pattern and transposed (``kernel._Factor.scaled`` and ``.T``), so a
  dual costs the nonzeros of S, not n^4.  Each entry is
  S[j, i] w_out[j] / w_in[i], multiplied by w_out[j] and then by the
  reciprocal 1 / w_in[i], where (S^T W_out) W_in^-1 divided: numpy takes
  the quotient of a + ib by a real c as (a + b 0) (1 / c) +
  i (b - a 0) (1 / c), so the product has its bits up to the sign of a
  zero part (adding b 0 or subtracting a 0 can turn a -0.0 positive).
  The dense superoperator is formed on its first read only, by one
  scatter of the nonzeros, as the transposed view of W_out S W_in^-1: the
  layout of the quotient (F-ordered for a C-ordered S, and C-ordered for
  the dual of a dual), with +0 at every zero;
* the KMS-dual, the adjoint for the KMS pairing Tr(rho^1/2 a rho^1/2 b), is
  j o dual o j for the modular transposition j, X -> X^T.  On a
  superoperator that conjugation is an index permutation (``_kms_flip``),
  and dynamics ``_kms_conjugate`` hold it as their nonzeros permuted;
* the Theta-KMS-dual is Theta o (j o dual o j) o Theta for a reversing
  operation Theta = Ad_u o j.  Since j o Ad_u o j = Ad_conj(u), it is
  Ad_u o dual o Ad_conj(u): the dual seen in the frame of Theta's unitary,
  ``change_frame(dual, conj(u), u*)``.  For plain transposition (u = 1) it is
  the dual itself.

A reversing operation has one judge, ``ReversingOperation.validate``, which
the constructor applies to a given unitary.  It judges the unitary itself
(u = 1 for plain transposition): u* u = 1 and u conj(u) = +1 or -1, each
entry within tol.  For a unitary every entry of these products has modulus
at most 1, so 1 is their scale.  That is O(n^3), and no superoperator of
Theta is formed.

Kind enters in four places only: the preservation residual
(``states.state_preservation_residual``), the result constructor ``_like``,
the name in ``dual``'s error, and the fixed points: ``_fixed_point_operator``
(S - 1 for a channel, S for a generator) and the split that
``fixed_point_space`` hands to ``nullspace`` (held by a generator, scanned
for a channel).  The generator twins of the three duals call
them, and ``change_frame`` is the one change of basis of dynamics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .kernel import (
    DEFAULT_TOL,
    Report,
    _Dynamics,
    _Factor,
    _factor,
    _json_int,
    _made,
    ad_superop,
    as_matrix,
    check_psd,
    close,
    frob_norm,
    kraus_superop,
    matrix_from_json,
    matrix_to_json,
    nullspace,
    relative_residual,
    unvec,
    vec,
)
from .states import FaithfulState, preserves_state


@dataclass(frozen=True, eq=False)
class QuantumChannel(_Dynamics):
    """Linear map between matrix algebras in superoperator form, given as
    a dense array or as its nonzeros (``kernel._Dynamics``)."""

    dim_in: int
    dim_out: int
    superoperator: np.ndarray

    def __post_init__(self):
        s = self._given()
        expected = (self.dim_out**2, self.dim_in**2)
        if s.shape != expected:
            raise ValueError(f"superoperator shape {s.shape} != {expected}")

    @cached_property
    def pattern(self) -> _Factor:
        """The exact nonzero pattern of the superoperator as a
        ``kernel._Factor``: held from the maker where it knows it, scanned
        once, on first use, otherwise."""
        return _made(self, "pattern", lambda: _factor(self.superoperator))

    @property
    def kind(self) -> str:
        return "channel"

    @property
    def scale(self) -> float:
        """The size its verdicts are relative to, ||S||: a channel that
        preserves a state is never zero."""
        return frob_norm(self.superoperator)

    @cached_property
    def choi(self) -> np.ndarray:
        n, m = self.dim_in, self.dim_out
        s4 = self.superoperator.reshape(m, m, n, n)
        return s4.transpose(3, 1, 2, 0).reshape(n * m, n * m)

    def to_json(self) -> dict:
        return {
            "dim_in": self.dim_in,
            "dim_out": self.dim_out,
            "superoperator": matrix_to_json(self.superoperator),
        }


def channel_from_kraus(kraus) -> QuantumChannel:
    """Heisenberg-picture Kraus form a -> sum_j V_j* a V_j, vectorized as in
    :func:`kernel.kraus_superop`."""
    ops = [as_matrix(v) for v in kraus]
    if not ops:
        raise ValueError("kraus list must be non-empty")
    n, m = ops[0].shape
    if any(v.shape != (n, m) for v in ops):
        raise ValueError("kraus operators must share one shape")
    return QuantumChannel(dim_in=n, dim_out=m, superoperator=kraus_superop(ops, n, m))


def identity_channel(n: int) -> QuantumChannel:
    return QuantumChannel(dim_in=n, dim_out=n, superoperator=np.eye(n * n, dtype=complex))


def constant_channel(s_in: FaithfulState, dim_out: int | None = None) -> QuantumChannel:
    """a -> Tr(rho a) 1."""
    m = s_in.dim if dim_out is None else dim_out
    rho_vec = vec(s_in.rho).conj()
    one_vec = vec(np.eye(m, dtype=complex))
    return QuantumChannel(
        dim_in=s_in.dim, dim_out=m, superoperator=np.outer(one_vec, rho_vec)
    )


def apply(ch: QuantumChannel, a) -> np.ndarray:
    a = as_matrix(a)
    if a.shape != (ch.dim_in, ch.dim_in):
        raise ValueError(f"operand shape {a.shape} != ({ch.dim_in}, {ch.dim_in})")
    return unvec(ch.superoperator @ vec(a), ch.dim_out)


def compose_channels(f: QuantumChannel, g: QuantumChannel) -> QuantumChannel:
    """f o g (apply g first)."""
    if g.dim_out != f.dim_in:
        raise ValueError("channel dimensions do not chain")
    return QuantumChannel(
        dim_in=g.dim_in, dim_out=f.dim_out, superoperator=f.superoperator @ g.superoperator
    )


@dataclass(frozen=True, eq=False)
class UcpReport(Report):
    cp: bool
    unital: bool
    ucp: bool
    choi_min_eig: float
    unital_residual: float


def validate_ucp(ch: QuantumChannel, tol: float = DEFAULT_TOL) -> UcpReport:
    """Complete positivity via the Choi matrix, and unitality.

    Together they imply the Kadison-Schwarz inequality, so it is not sampled.
    """
    cp, min_eig = check_psd(ch.choi, tol)
    image_one = apply(ch, np.eye(ch.dim_in))
    unital_res = frob_norm(image_one - np.eye(ch.dim_out))
    unital = relative_residual(unital_res, math.sqrt(ch.dim_out)) <= tol
    return UcpReport(
        cp=cp,
        unital=unital,
        ucp=cp and unital,
        choi_min_eig=float(min_eig),
        unital_residual=float(unital_res),
    )


# ---------------------------------------------------------------------------
# the dual core


def _like(dyn, superoperator, growth: float = 1.0):
    """The result constructor: dynamics of the kind of ``dyn`` with the given
    superoperator, a dense array or its nonzeros (``kernel._Factor``), on
    the dimensions that superoperator maps between.  A generator keeps the
    scale of ``dyn`` times ``growth``, a bound on how much the map that made
    the superoperator can grow its norm."""
    if dyn.kind == "generator":
        dim = math.isqrt(superoperator.shape[0])
        out = type(dyn)(dim=dim, superoperator=superoperator, scale=dyn.scale * growth)
    else:
        out = QuantumChannel(
            dim_in=math.isqrt(superoperator.shape[1]),
            dim_out=math.isqrt(superoperator.shape[0]),
            superoperator=superoperator,
        )
    return out


def change_frame(dyn, u_in=None, u_out=None):
    """Dynamics of the same kind in new bases: Ad_{u_out*} o S o Ad_{u_in}.

    With rho_in = u_in diag(p_in) u_in* and likewise for rho_out, this is
    ``dyn`` expressed in the eigenbases of the two states, where they are
    diagonal.  ``None`` keeps the fixed basis on that side.
    """
    s = dyn.superoperator
    if u_out is not None:
        s = ad_superop(u_out.conj().T) @ s
    if u_in is not None:
        s = s @ ad_superop(u_in)
    return dyn if s is dyn.superoperator else _like(dyn, s)


def dual(dyn, s_in: FaithfulState, s_out: FaithfulState, tol: float = DEFAULT_TOL):
    """The unique map eta' with Tr(r_in a r_in eta'(c)^T) = Tr(r_out eta(a) r_out c^T),
    as dynamics of the kind of ``dyn``.

    Here r = rho^1/2, the commutant is identified with the matrix algebra via
    c <-> 1 (x) c, and invertibility of rho makes the defining linear system
    nonsingular: the solution is W_in^-1 S^T W_out on diagonal weights.
    """
    res, ok = preserves_state(dyn, s_in, s_out, tol)
    if not ok:
        name = "dual generator" if dyn.kind == "generator" else "dual"
        raise ValueError(f"{name} undefined: the state is not preserved (residual {res:.3e})")
    w_in, w_out = s_in.kms_weights, s_out.kms_weights
    growth = float(w_out.max() / w_in.min())
    # the pattern of W_out S W_in^-1, weighed with two roundings and
    # transposed (see the module docstring)
    return _like(dyn, dyn.pattern.scaled(w_out, 1.0 / w_in).T, growth)


def _kms_flip(superoperator: np.ndarray) -> np.ndarray:
    """j o S o j for the modular transposition j: X -> X^T, as an index
    permutation; equal to T_m @ S @ T_n for the commutation matrices T_n,
    the superoperators of X -> X^T on M_n.
    The flip of a transposed view, as the transposed pairing matrix of
    ``couplings.kms_flip`` is, is the transposed flip of the C-ordered
    array behind it: one copy where the reshape of the view would take
    two."""
    if superoperator.flags.f_contiguous and not superoperator.flags.c_contiguous:
        return _kms_flip(superoperator.T).T
    m, n = math.isqrt(superoperator.shape[0]), math.isqrt(superoperator.shape[1])
    return superoperator.reshape(m, m, n, n).transpose(1, 0, 3, 2).reshape(m * m, n * n)


def _tensor_swap(n: int) -> np.ndarray:
    """The permutation a + n b -> b + n a of the indices of vec on M_n, the
    index map of the transposition X -> X^T."""
    return np.arange(n * n).reshape(n, n).T.ravel()


def _kms_conjugate(dyn):
    """j o dyn o j, as dynamics of the kind of ``dyn``: the KMS-dual of
    dynamics whose dual is ``dyn``.  It is held as the nonzeros of ``dyn``
    with the indices permuted, the entries of ``_kms_flip``."""
    swap_out, swap_in = _tensor_swap(dyn.dim_out), _tensor_swap(dyn.dim_in)
    return _like(dyn, dyn.pattern.permuted(swap_out, swap_in))


def kms_dual(dyn, s_in: FaithfulState, s_out: FaithfulState, tol: float = DEFAULT_TOL):
    """j o dual o j for the modular transposition j; the KMS-pairing adjoint."""
    return _kms_conjugate(dual(dyn, s_in, s_out, tol))


@dataclass(frozen=True, eq=False)
class ReversingOperation:
    """A linear *-antihomomorphism with square one: a -> u a^T u*.

    ``unitary=None`` means plain transposition in the fixed basis.  A given
    ``unitary`` is accepted exactly when :meth:`validate` passes, that is
    when u is unitary with u conj(u) = +-1, entry by entry within tol: an
    invertible u gives an antimultiplicative map iff it is unitary, and then
    the square is Ad_(u conj(u)), the identity iff u conj(u) is a scalar,
    which can only be +1 or -1 (spin-flip time reversal, u = sigma_y, has
    -1).
    """

    dim: int
    unitary: np.ndarray | None = None

    def __post_init__(self):
        if self.unitary is not None:
            object.__setattr__(self, "unitary", as_matrix(self.unitary))
            if self.unitary.shape != (self.dim, self.dim):
                raise ValueError("reversing unitary has wrong shape")
            if not self.validate():
                raise ValueError("reversing operation must be antimultiplicative and square to "
                                 "the identity: u must be unitary with u conj(u) = +-1")

    def apply(self, a) -> np.ndarray:
        a = as_matrix(a)
        if self.unitary is None:
            return a.T.copy()
        return self.unitary @ a.T @ self.unitary.conj().T

    @property
    def frame(self) -> tuple:
        """(conj(u), u*): ``change_frame(dyn, *frame)`` is
        Ad_u o dyn o Ad_conj(u) = Theta o (j o dyn o j) o Theta.  Plain
        transposition keeps the fixed basis on both sides."""
        if self.unitary is None:
            return None, None
        return self.unitary.conj(), self.unitary.conj().T

    def compatible_with(self, s: FaithfulState, tol: float = DEFAULT_TOL) -> bool:
        if s.dim != self.dim:
            return False
        return close(self.apply(s.rho), s.rho, tol)

    def validate(self, tol: float = DEFAULT_TOL) -> bool:
        """The theorem of the class docstring, judged on the unitary (u = 1
        for plain transposition): u* u = 1, so that Theta is
        antimultiplicative, and u conj(u) = +1 or -1, so that Theta o Theta
        = Ad_(u conj(u)) is the identity.  Each entry of the two products
        must be within tol of the identity's: for a unitary it has modulus at
        most 1, so 1 is the scale.  A NaN or infinite entry fails.  O(n^3).
        """
        one = np.eye(self.dim)
        u = one if self.unitary is None else self.unitary
        off = lambda x: float(np.abs(x).max(initial=0.0))  # noqa: E731
        with np.errstate(invalid="ignore"):  # inf * 0 is NaN, and fails unwarned
            gram, square = u.conj().T @ u, u @ u.conj()
        return off(gram - one) <= tol and min(off(square - one), off(square + one)) <= tol


def theta_kms_dual(dyn, s: FaithfulState, th: ReversingOperation, tol: float = DEFAULT_TOL):
    """Theta o kms_dual o Theta for endomorphic state-preserving dynamics: the
    dual in the frame of Theta's unitary (the dual itself for plain
    transposition)."""
    if not th.compatible_with(s, tol):
        raise ValueError("reversing operation incompatible with state")
    return change_frame(dual(dyn, s, s, tol), *th.frame)


def _fixed_point_operator(dyn) -> np.ndarray:
    """The superoperator whose kernel is the fixed-point space: S - 1 for a
    channel (beta(b) = b), S for a generator (L b = 0)."""
    s = dyn.superoperator
    if dyn.kind == "channel":
        return s - np.eye(s.shape[0])
    return s


def fixed_point_space(dyn, tol: float = DEFAULT_TOL) -> list[np.ndarray]:
    """Orthonormal (Hilbert-Schmidt) basis of {b : beta(b) = b} resp. ker L,
    taken one block of the exact-zero split at a time (``kernel.nullspace``).
    A generator hands over the split it holds
    (``LindbladGenerator.invariant_blocks``), so L is not scanned again; the
    split of S - 1 is scanned per call."""
    if dyn.dim_in != dyn.dim_out:
        raise ValueError("fixed points require an endomorphic map")
    blocks = dyn.invariant_blocks if dyn.kind == "generator" else None
    return [unvec(v, dyn.dim_in) for v in nullspace(_fixed_point_operator(dyn), tol, blocks)]


def channel_from_json(obj) -> QuantumChannel:
    if "superoperator" in obj:
        s = matrix_from_json(obj["superoperator"])
        try:
            dim_in = _json_int(obj["dim_in"], "dim_in")
            dim_out = _json_int(obj["dim_out"], "dim_out")
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed channel object: {exc}") from exc
        return QuantumChannel(dim_in=dim_in, dim_out=dim_out, superoperator=s)
    if "kraus" in obj:
        if not isinstance(obj["kraus"], list):
            raise ValueError("malformed channel object: 'kraus' is not a list")
        return channel_from_kraus([matrix_from_json(k) for k in obj["kraus"]])
    raise ValueError("malformed channel object: need 'superoperator' or 'kraus'")
