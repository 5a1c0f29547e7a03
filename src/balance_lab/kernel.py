"""Dense complex matrix primitives with fixed tolerance and determinism conventions.

Conventions used throughout the package:

* Matrices are ``numpy.ndarray`` of dtype complex128 in row-major (C) order.
* Vectorization is column stacking: ``vec(X)[i + n*j] = X[i, j]``.
* Every verdict is ``relative_residual(residual, scale) <= tol``, with the
  scale an a-priori size of the operands, homogeneous of degree one in the
  inputs of the residual (so verdicts survive a rescaling of time), never
  floored at 1 and never the norm of terms that can cancel exactly.
* Anything feeding a boolean verdict (eigenvalues, singular vectors) is made
  deterministic: eigenvalues sorted descending, eigenvector phases fixed so the
  largest-magnitude entry is real and positive.

The JSON wire format for a matrix is
``{"rows": n, "cols": m, "data": [[re, im], ...]}`` with ``data`` a flat,
row-major list of length ``rows*cols``.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg

DEFAULT_TOL = 1e-9


def as_matrix(a) -> np.ndarray:
    """Coerce input to a 2-d complex128 array."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got array of shape {m.shape}")
    return m


def matrix_unit(n: int, i: int, j: int, m: int | None = None) -> np.ndarray:
    """The matrix unit E_ij of shape (n, m), all zeros except a 1 at (i, j)."""
    e = np.zeros((n, n if m is None else m), dtype=complex)
    e[i, j] = 1.0
    return e


def vec(x: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization."""
    return np.asarray(x).reshape(-1, order="F")


def unvec(v: np.ndarray, shape: tuple[int, int] | int) -> np.ndarray:
    """Inverse of :func:`vec`. ``shape`` may be a single int for square output."""
    if isinstance(shape, int):
        shape = (shape, shape)
    return np.asarray(v).reshape(shape, order="F")


def kron(a, b) -> np.ndarray:
    return np.kron(as_matrix(a), as_matrix(b))


def ad_superop(u) -> np.ndarray:
    """Superoperator of Ad_u: a -> u a u* (column stacking)."""
    return np.kron(u.conj(), u)


def partial_trace(m, dims: tuple[int, int], side: str) -> np.ndarray:
    """Partial trace of an operator on C^n (x) C^m over one tensor factor.

    ``side="first"`` returns the m-by-m matrix M with Tr(M c) = Tr(m (1 (x) c));
    ``side="second"`` the n-by-n matrix with Tr(M a) = Tr(m (a (x) 1)).
    """
    m = as_matrix(m)
    n, mm = dims
    if m.shape != (n * mm, n * mm):
        raise ValueError(
            f"bad factorization: matrix of shape {m.shape} is not {n}*{mm} square"
        )
    t = m.reshape(n, mm, n, mm)
    if side == "first":
        return np.einsum("pqps->qs", t)
    if side == "second":
        return np.einsum("pqrq->pr", t)
    raise ValueError(f"side must be 'first' or 'second', got {side!r}")


def mat_exp(m) -> np.ndarray:
    """Matrix exponential (Pade + scaling/squaring via scipy)."""
    return scipy.linalg.expm(as_matrix(m))


def frob_norm(a) -> float:
    return float(np.linalg.norm(np.asarray(a)))


def frob_distance(a, b) -> float:
    a, b = as_matrix(a), as_matrix(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    return float(np.linalg.norm(a - b))


def relative_residual(residual: float, scale: float) -> float:
    """``residual / scale``, with 0/0 = 0; a verdict holds when it is <= tol."""
    if residual == 0.0:
        return 0.0
    return residual / scale if scale > 0.0 else math.inf


def close(a, b, tol: float = DEFAULT_TOL) -> bool:
    """Frobenius closeness relative to max(||a||, ||b||)."""
    scale = max(frob_norm(a), frob_norm(b))
    return relative_residual(frob_distance(a, b), scale) <= tol


def _close_each(a, b, tol: float = DEFAULT_TOL) -> bool:
    """:func:`close` on every matrix (the last two axes) of two broadcast stacks."""
    dist = np.linalg.norm(a - b, axis=(-2, -1))
    scale = np.maximum(np.linalg.norm(a, axis=(-2, -1)), np.linalg.norm(b, axis=(-2, -1)))
    # relative_residual(dist, scale) <= tol elementwise, with 0/0 = 0
    with np.errstate(divide="ignore", invalid="ignore"):
        return bool(np.all((dist == 0.0) | (dist / scale <= tol)))


def is_hermitian(m, tol: float = DEFAULT_TOL) -> bool:
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        return False
    return close(m, m.conj().T, tol)


def check_psd(m, tol: float = DEFAULT_TOL) -> tuple[bool, float]:
    """:func:`is_psd`, and the minimal eigenvalue it judged (-inf when m is
    not Hermitian within tol)."""
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise ValueError("a PSD check requires a square matrix")
    if not is_hermitian(m, tol):
        return False, -math.inf
    evals = np.linalg.eigvalsh((m + m.conj().T) / 2.0)
    low, scale = float(evals[0]), float(np.max(np.abs(evals)))
    return relative_residual(max(-low, 0.0), scale) <= tol, low


def is_psd(m, tol: float = DEFAULT_TOL) -> bool:
    """Hermitian within tol and minimal eigenvalue >= -tol * max |eigenvalue|."""
    return check_psd(m, tol)[0]


def _fix_phases(v: np.ndarray) -> np.ndarray:
    """Rotate each column so its largest-magnitude entry is real positive."""
    v = v.copy()
    for c in range(v.shape[1]):
        col = v[:, c]
        k = int(np.argmax(np.abs(col)))
        pivot = col[k]
        if abs(pivot) > 0:
            v[:, c] = col * (abs(pivot) / pivot)
    return v


def deterministic_eigh(m) -> tuple[np.ndarray, np.ndarray]:
    """Hermitian eigendecomposition, eigenvalues descending, phases fixed."""
    w, v = np.linalg.eigh(as_matrix(m))
    order = np.argsort(-w, kind="stable")
    return w[order], _fix_phases(v[:, order])


def nullspace(m, tol: float = DEFAULT_TOL) -> list[np.ndarray]:
    """Orthonormal basis of the numerical kernel: the right singular vectors
    whose singular values are not > tol * the largest (all of them for zero)."""
    m = as_matrix(m)
    _, sv, vh = np.linalg.svd(m)
    rank = sum(relative_residual(float(x), float(sv[0])) > tol for x in sv)
    basis = vh[rank:].conj()
    basis = _fix_phases(basis.T).T
    return [basis[i] for i in range(basis.shape[0])]


def matrix_to_json(m) -> dict:
    m = as_matrix(m)
    data = [[float(z.real), float(z.imag)] for z in m.reshape(-1)]
    return {"rows": int(m.shape[0]), "cols": int(m.shape[1]), "data": data}


def matrix_from_json(obj) -> np.ndarray:
    try:
        rows, cols, data = int(obj["rows"]), int(obj["cols"]), obj["data"]
        flat = np.array([complex(re, im) for re, im in data], dtype=complex)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed matrix object: {exc}") from exc
    if rows < 1 or cols < 1:
        raise ValueError("matrix dims must be >= 1")
    if flat.size != rows * cols:
        raise ValueError(f"matrix data has {flat.size} entries, expected {rows * cols}")
    return flat.reshape(rows, cols)
