"""Faithful states on full matrix algebras, in a fixed diagonal eigenbasis.

A state is a strictly positive probability vector p defining the density
matrix rho = diag(p).  The commutant copy of the algebra is identified with
the matrix algebra itself through c <-> 1 (x) c on the GNS space, so the
modular identification j becomes plain transposition in the fixed basis and
the GNS cyclic vector is sum_i sqrt(p_i) e_i (x) e_i.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .kernel import (
    DEFAULT_TOL,
    _json_int,
    _json_list,
    _json_number,
    _times,
    as_matrix,
    deterministic_eigh,
    frob_norm,
    is_hermitian,
    relative_residual,
    vec,
)

# how far from 1 the sum of a probability vector may be
_NORMALIZATION_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class FaithfulState:
    """Strictly positive spectrum summing to one; rho = diag(spectrum)."""

    spectrum: np.ndarray

    @property
    def dim(self) -> int:
        return int(self.spectrum.shape[0])

    @cached_property
    def rho(self) -> np.ndarray:
        return np.diag(self.spectrum).astype(complex)

    @cached_property
    def sqrt_spectrum(self) -> np.ndarray:
        return np.sqrt(self.spectrum)

    @cached_property
    def inv_sqrt_spectrum(self) -> np.ndarray:
        return 1.0 / np.sqrt(self.spectrum)

    @cached_property
    def kms_weights(self) -> np.ndarray:
        """Diagonal of the superoperator X -> rho^1/2 X rho^1/2 (column stacking)."""
        return np.kron(self.sqrt_spectrum, self.sqrt_spectrum)

    def expectation(self, a) -> complex:
        a = as_matrix(a)
        return complex(np.sum(self.spectrum * np.diag(a)))

    def same_state(self, other: "FaithfulState", tol: float = DEFAULT_TOL) -> bool:
        """Each eigenvalue within tol of the larger of the pair, relative to
        it: |p_i - q_i| <= tol max(p_i, q_i).  An absolute cut would call
        (0.5, 0.5 - 1e-12, 1e-12) and (0.5, 0.5 - 2e-12, 2e-12) one state,
        whose smallest eigenvalues differ by a factor 2."""
        p, q = self.spectrum, other.spectrum
        return self.dim == other.dim and bool(np.all(np.abs(p - q) <= tol * np.maximum(p, q)))

    def to_json(self) -> dict:
        return {"dim": self.dim, "spectrum": [float(p) for p in self.spectrum]}


def new_faithful_state(p) -> FaithfulState:
    """Validate a probability vector and wrap it as a state."""
    p = np.asarray(p, dtype=float)
    if p.ndim != 1 or p.size < 1:
        raise ValueError("spectrum must be a non-empty vector")
    # a comparison with NaN is false: so each check asks for the inside (NaN
    # is not positive, and an infinite entry fails the sum)
    if not np.all(p > 0.0):
        raise ValueError("state not faithful: spectrum has a non-positive entry")
    if not abs(p.sum() - 1.0) <= _NORMALIZATION_TOL:
        raise ValueError(f"not normalized: spectrum sums to {float(p.sum())!r}")
    return FaithfulState(spectrum=p.copy())


def state_from_json(obj) -> FaithfulState:
    """The state of a wire object {"dim", "spectrum"}; a spectrum entry that
    is not a finite JSON number makes the object malformed."""
    try:
        dim = _json_int(obj["dim"], "dim")
        p = np.array(_json_list(obj["spectrum"], "spectrum", _json_number), dtype=float)
        if not np.all(np.isfinite(p)):
            i = int(np.argmin(np.isfinite(p)))
            raise ValueError(f"spectrum[{i}] must be finite, got {p[i]}")
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed state object: {exc}") from exc
    if p.shape != (dim,):
        raise ValueError("malformed state object: dim does not match spectrum length")
    return new_faithful_state(p)


def canonicalize_density_matrix(rho, tol: float = DEFAULT_TOL):
    """Diagonalize a general density matrix into a FaithfulState.

    Returns (state, unitary) with rho = U diag(p) U*.  A matrix that is
    already diagonal keeps its supplied order (degenerate blocks included) and
    gets unitary None; otherwise eigenvalues are sorted descending with fixed
    eigenvector phases, so the frame change is deterministic.

    A smallest eigenvalue <= tol is not faithful.  That cut is absolute,
    and rightly: its scale is Tr rho = 1, which :func:`new_faithful_state`
    holds the eigenvalues to within ``_NORMALIZATION_TOL``.
    """
    rho = as_matrix(rho)
    n = rho.shape[0]
    if rho.shape != (n, n):
        raise ValueError("density matrix must be square")
    if not is_hermitian(rho, tol):
        raise ValueError("density matrix is not Hermitian")
    off = rho - np.diag(np.diag(rho))
    if relative_residual(frob_norm(off), frob_norm(rho)) <= tol:
        return new_faithful_state(np.real(np.diag(rho))), None
    evals, evecs = deterministic_eigh((rho + rho.conj().T) / 2.0)
    if np.min(evals) <= tol:
        raise ValueError(
            f"state not faithful: smallest eigenvalue {np.min(evals):.3e}"
        )
    return new_faithful_state(evals), evecs


def gns_vector(s: FaithfulState) -> np.ndarray:
    """The unit vector sum_i sqrt(p_i) e_i (x) e_i in C^(n*n)."""
    n = s.dim
    v = np.zeros(n * n, dtype=complex)
    v[np.arange(n) * n + np.arange(n)] = s.sqrt_spectrum
    return v


@dataclass(frozen=True, eq=False)
class System:
    """A faithful state together with dynamics preserving it.

    ``dynamics`` is either a QuantumChannel (kind "channel") or a
    LindbladGenerator (kind "generator"); both expose an endomorphic
    superoperator in the same vectorization convention.
    """

    state: FaithfulState
    dynamics: object

    def __post_init__(self):
        d = self.dynamics
        if getattr(d, "dim_in", None) != self.state.dim or getattr(
            d, "dim_out", None
        ) != self.state.dim:
            raise ValueError("system dynamics must be endomorphic on the state's algebra")
        res, ok = preserves_state(d, self.state)
        if not ok:
            raise ValueError(
                f"dynamics does not preserve the state (residual {res:.3e})"
            )

    @property
    def kind(self) -> str:
        return self.dynamics.kind

    @property
    def dim(self) -> int:
        return self.state.dim


def state_preservation_residual(
    dyn, s_in: FaithfulState, s_out: FaithfulState | None = None
) -> float:
    """How far mu_out o eta is from mu_in (channel) or mu o L from 0 (generator).

    ``s_out`` defaults to ``s_in``.  The value is
    ||S^dagger vec(rho_out) - vec(rho_in)|| for a channel and
    ||S^dagger vec(rho)|| for a generator.  S^dagger v is formed as
    conj(conj(v) S), a vector-matrix product that reads the dense S as it
    is stored, with the bits of the product with an n^2 x n^2 conjugated
    copy of S; dynamics held as their nonzeros (``kernel._Dynamics``) form
    their dense S for it.
    """
    return _preservation_residual(dyn, dyn.superoperator, s_in, s_out)


def _preservation_residual(dyn, s, s_in: FaithfulState, s_out: FaithfulState | None) -> float:
    """:func:`state_preservation_residual` with S read as ``s``: a dense
    array, or a ``kernel._Factor``, summed over its nonzeros alone."""
    s_out = s_in if s_out is None else s_out
    if (dyn.dim_in, dyn.dim_out) != (s_in.dim, s_out.dim):
        raise ValueError("states do not match the dimensions of the dynamics")
    image = _times(s, vec(s_out.rho).conj(), 1).conj()
    if dyn.kind == "channel":
        image = image - vec(s_in.rho)
    return frob_norm(image)


def preserves_state(
    dyn, s_in: FaithfulState, s_out: FaithfulState | None = None, tol: float = DEFAULT_TOL
) -> tuple[float, bool]:
    """The preservation residual and whether it is within tol relative to the
    scale of the dynamics (||S||, or the size of a generator's terms).
    Dynamics held as their nonzeros (``kernel._Dynamics``) are judged on
    those, so the check forms no dense S: their residual, and a channel's
    ||S||, sum the same terms as :func:`state_preservation_residual` and
    ``scale`` in another order, and differ from them by rounding only."""
    held = dyn.nonzeros
    if held is None:
        res = state_preservation_residual(dyn, s_in, s_out)
        return res, relative_residual(res, dyn.scale) <= tol
    res = _preservation_residual(dyn, held, s_in, s_out)
    scale = dyn.scale if dyn.kind == "generator" else frob_norm(held.form(0)[1])
    return res, relative_residual(res, scale) <= tol
