"""Dense complex matrix primitives with fixed tolerance and determinism conventions.

Conventions used throughout the package:

* Matrices are ``numpy.ndarray`` of dtype complex128 in row-major (C) order.
* Vectorization is column stacking: ``vec(X)[i + n*j] = X[i, j]``.
* Every verdict is ``relative_residual(residual, scale) <= tol``, or its
  largest value entry by entry, with the scale an a-priori size of the
  operands, homogeneous of degree one in the inputs of the residual (so
  verdicts survive a rescaling of time), never floored at 1 and never the
  norm of terms that can cancel exactly.  A cut over many values at once
  (a rank, a numerical kernel, the zero eigenvalues of a generator, a
  componentwise residual) uses the one array form of the same rule,
  ``_relative_residuals``, with 0/0 = 0 and x/0 = inf as in the scalar.
* Anything feeding a boolean verdict (eigenvalues, singular vectors) is made
  deterministic: eigenvalues sorted descending, eigenvector phases fixed so the
  largest-magnitude entry is real and positive.
* Every factorization is taken one block of the exact nonzero pattern at a
  time.  No tolerance enters the split, since dropping a small entry would
  drop a real coupling.  Eigen-type factorizations (a matrix exponential, a
  spectrum, the PSD check) use the symmetrized split: i and j share a block
  when m[i, j] != 0 or m[j, i] != 0.  SVD-type factorizations (a numerical
  kernel, a rank) use the bipartite split, which also fits a rectangular
  matrix: row i and column j share a block when m[i, j] != 0.  Both
  splits label the components of their graph and hand the labels to one
  grouping, ``_group`` (the symmetrized split passes its labels as the
  rows and as the columns).  Each
  verdict is still cut against the whole matrix's scale (its largest
  singular value or |eigenvalue|), never a block's.  A matrix with a single
  block, such as any dense generator, is a stack of one slice, which scipy
  and numpy treat exactly as the matrix itself, so its result is
  bit-identical to the dense call.

The JSON wire format for a matrix is
``{"rows": n, "cols": m, "data": [[re, im], ...]}`` with ``data`` a flat,
row-major list of length ``rows*cols``.
"""

from __future__ import annotations

import math
from dataclasses import fields

import numpy as np

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


def _components(size: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """A label per node of the graph on ``size`` nodes with an edge between
    a[k] and b[k]; two nodes share a label exactly when they are connected."""
    label = np.arange(size)
    while True:
        # every node takes the smallest label among its neighbours, then the
        # label of that label (pointer jumping); labels only fall, and stop
        # once every edge joins two equal labels
        before = label
        label = label.copy()
        np.minimum.at(label, a, label[b])
        np.minimum.at(label, b, label[a])
        label = label[label]
        if np.array_equal(label, before):
            return label


def _group(row_label: np.ndarray, col_label: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """The grouping behind both exact-zero splits: row i lies in the block
    labelled row_label[i], column j in the one labelled col_label[j].  Per
    block shape, ascending by rows and then by columns, a (count, rows) and
    a (count, cols) array of indices: one block per row, in the order of
    the labels, its indices ascending."""
    k = 1 + int(max(row_label.max(initial=0), col_label.max(initial=0)))
    c = col_label.size
    # one key per block shape, ordered by the number of rows first; 0 for
    # labels no row or column carries
    key = np.bincount(row_label, minlength=k) * (c + 1) + np.bincount(col_label, minlength=k)
    row_order = np.lexsort((row_label, key[row_label]))
    col_order = np.lexsort((col_label, key[col_label]))
    groups, row_start, col_start = [], 0, 0
    for shape, count in zip(*np.unique(key[key > 0], return_counts=True)):
        nr, nc = divmod(int(shape), c + 1)
        groups.append((
            row_order[row_start : row_start + nr * count].reshape(count, nr),
            col_order[col_start : col_start + nc * count].reshape(count, nc),
        ))
        row_start += nr * count
        col_start += nc * count
    return groups


def _invariant_blocks(m: np.ndarray) -> list[np.ndarray]:
    """The connected components of the exact nonzero pattern of a square
    matrix, symmetrized (i ~ j when m[i, j] != 0 or m[j, i] != 0), grouped by
    size: one (count, size) array of indices per size, ascending in each row.

    A permutation that lists the components one after another makes m
    block-diagonal, so a function of m that is analytic, or its spectrum,
    can be taken block by block."""
    n = m.shape[0]
    if m.shape != (n, n):
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    label = _components(n, *np.nonzero(m))
    return [rows for rows, _ in _group(label, label)]


def _bipartite_blocks(m: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """The connected components of the exact nonzero pattern of an r x c
    matrix as a bipartite graph (row i ~ column j when m[i, j] != 0), grouped
    by shape: per shape, a (count, rows) and a (count, cols) array of
    indices, ascending in each row.  A zero row or a zero column is a
    component of its own, of shape (1, 0) or (0, 1).

    Permuting the rows and the columns to list the components one after
    another makes m block-diagonal with these (possibly rectangular) blocks,
    so its singular values are those of the blocks together, and its right
    singular vectors those of the blocks, padded with zeros."""
    r, c = m.shape
    rows, cols = np.nonzero(m)
    label = _components(r + c, rows, r + cols)
    return _group(label[:r], label[r:])


def _stacks(m: np.ndarray, row_idx: np.ndarray, col_idx: np.ndarray) -> np.ndarray:
    """The blocks m[rows, cols] of one group as a (count, rows, cols) stack."""
    return m[row_idx[:, :, None], col_idx[:, None, :]]


def mat_exp(m) -> np.ndarray:
    """Matrix exponential (Pade + scaling/squaring via scipy), one invariant
    block at a time: the blocks of each size go to one stacked call and are
    scattered into a zero matrix.  scipy treats every slice of a stack as it
    treats a single matrix, so a matrix with one block gets exactly
    ``scipy.linalg.expm(m)``.  scipy is imported here, its only use, so that
    nothing else pays for loading it."""
    import scipy.linalg

    m = as_matrix(m)
    out = np.zeros_like(m)
    for idx in _invariant_blocks(m):
        block = idx[:, :, None], idx[:, None, :]
        out[block] = scipy.linalg.expm(m[block])
    return out


def _spectrum(m: np.ndarray, solver) -> np.ndarray:
    """``solver`` (np.linalg.eigvals or eigvalsh) on every invariant block of
    m, the eigenvalues concatenated, in no particular order."""
    blocks = (_stacks(m, idx, idx) for idx in _invariant_blocks(m))
    return np.concatenate([solver(block).ravel() for block in blocks])


def eigenvalues(m) -> np.ndarray:
    """All eigenvalues with multiplicity, in no particular order, taken one
    invariant block at a time as in :func:`mat_exp`."""
    return _spectrum(as_matrix(m), np.linalg.eigvals)


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


class Report:
    """Base of the verdict reports, each a frozen dataclass: its JSON form is
    its fields in declaration order, leaving out those declared
    ``repr=False``."""

    def to_json(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self) if f.repr}


def _relative_residuals(residual, scale) -> np.ndarray:
    """:func:`relative_residual` entry by entry over two broadcast arrays of
    non-negative residuals and scales."""
    with np.errstate(all="ignore"):
        return np.where(residual == 0.0, 0.0, residual / scale)


def _max_relative_residual(residual: np.ndarray, scale: np.ndarray) -> float:
    """The largest :func:`relative_residual` over two broadcast arrays."""
    return float(np.max(_relative_residuals(residual, scale)))


def close(a, b, tol: float = DEFAULT_TOL) -> bool:
    """Frobenius closeness relative to max(||a||, ||b||)."""
    scale = max(frob_norm(a), frob_norm(b))
    return relative_residual(frob_distance(a, b), scale) <= tol


def _close_each(a, b, tol: float = DEFAULT_TOL) -> bool:
    """:func:`close` on every matrix (the last two axes) of two broadcast stacks."""
    dist = np.linalg.norm(a - b, axis=(-2, -1))
    scale = np.maximum(np.linalg.norm(a, axis=(-2, -1)), np.linalg.norm(b, axis=(-2, -1)))
    return _max_relative_residual(dist, scale) <= tol


def is_hermitian(m, tol: float = DEFAULT_TOL) -> bool:
    m = as_matrix(m)
    return m.shape[0] == m.shape[1] and close(m, m.conj().T, tol)


def check_psd(m, tol: float = DEFAULT_TOL) -> tuple[bool, float]:
    """:func:`is_psd`, and the minimal eigenvalue it judged (-inf when m is
    not Hermitian within tol)."""
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise ValueError("a PSD check requires a square matrix")
    if not is_hermitian(m, tol):
        return False, -math.inf
    evals = _spectrum((m + m.conj().T) / 2.0, np.linalg.eigvalsh)
    low, scale = float(np.min(evals)), float(np.max(np.abs(evals)))
    return relative_residual(max(-low, 0.0), scale) <= tol, low


def is_psd(m, tol: float = DEFAULT_TOL) -> bool:
    """Hermitian within tol and minimal eigenvalue >= -tol * max |eigenvalue|."""
    return check_psd(m, tol)[0]


def _fix_phases(v: np.ndarray) -> np.ndarray:
    """Rotate each column so its largest-magnitude entry (the first of
    equals) is real positive; an all-zero column stays as it is."""
    pivot = v[np.argmax(np.abs(v), axis=0), np.arange(v.shape[1])]
    # hypot is the arithmetic of abs() on one complex scalar, and each column
    # is multiplied as one contiguous row by a broadcast scalar: the np.abs
    # ufunc, or a product of two arrays of length one, can differ in the last bit
    size = np.hypot(pivot.real, pivot.imag)
    turn = size > 0
    v = v.copy()
    v.T[turn] = np.ascontiguousarray(v.T[turn]) * (size[turn] / pivot[turn])[:, None]
    return v


def deterministic_eigh(m) -> tuple[np.ndarray, np.ndarray]:
    """Hermitian eigendecomposition, eigenvalues descending, phases fixed."""
    w, v = np.linalg.eigh(as_matrix(m))
    order = np.argsort(-w, kind="stable")
    return w[order], _fix_phases(v[:, order])


def _svd_blocks(m: np.ndarray):
    """np.linalg.svd one bipartite block at a time: per block shape, the
    column indices of the blocks, their singular values and their right
    singular vectors; and the largest singular value of the whole matrix
    (0 for the zero matrix)."""
    out = []
    for row_idx, col_idx in _bipartite_blocks(m):
        _, sv, vh = np.linalg.svd(_stacks(m, row_idx, col_idx))
        out.append((col_idx, sv, vh))
    top = max((float(sv.max()) for _, sv, _ in out if sv.size), default=0.0)
    return out, top


def rank(m, tol: float = DEFAULT_TOL) -> int:
    """Numerical rank: the number of singular values > tol * the largest,
    as ``np.linalg.matrix_rank(m, rtol=tol)``, taken one block at a time."""
    blocks, top = _svd_blocks(as_matrix(m))
    return sum(int(np.count_nonzero(_relative_residuals(sv, top) > tol)) for _, sv, _ in blocks)


def nullspace(m, tol: float = DEFAULT_TOL) -> list[np.ndarray]:
    """Orthonormal basis of the numerical kernel: the right singular vectors
    whose singular values are not > tol * the largest (all of them for zero),
    taken one block at a time and padded with zeros."""
    m = as_matrix(m)
    blocks, top = _svd_blocks(m)
    parts = []
    for col_idx, sv, vh in blocks:
        # singular values are descending, so a block's kernel is the rows of
        # vh from its rank on (with the c - r extra rows of a wide block)
        block_rank = np.count_nonzero(_relative_residuals(sv, top) > tol, axis=1)
        which, row = np.nonzero(np.arange(col_idx.shape[1]) >= block_rank[:, None])
        part = np.zeros((which.size, m.shape[1]), dtype=complex)
        part[np.arange(which.size)[:, None], col_idx[which]] = vh[which, row].conj()
        parts.append(part)
    basis = _fix_phases(np.concatenate(parts).T).T
    return [basis[i] for i in range(basis.shape[0])]


def matrix_to_json(m) -> dict:
    m = np.ascontiguousarray(as_matrix(m))
    data = m.view(np.float64).reshape(-1, 2).tolist()
    return {"rows": int(m.shape[0]), "cols": int(m.shape[1]), "data": data}


def _json_int(obj, key: str) -> int:
    """``obj[key]``, which must be a JSON integer; a float, a string or a bool
    is a ValueError."""
    if type(obj[key]) is not int:
        raise ValueError(f"{key} must be an integer, got {obj[key]!r}")
    return obj[key]


def matrix_from_json(obj) -> np.ndarray:
    try:
        rows, cols, data = _json_int(obj, "rows"), _json_int(obj, "cols"), obj["data"]
        flat = np.array([complex(re, im) for re, im in data], dtype=complex)
        if rows < 1 or cols < 1:
            raise ValueError("matrix dims must be >= 1")
        if flat.size != rows * cols:
            raise ValueError(f"matrix data has {flat.size} entries, expected {rows * cols}")
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed matrix object: {exc}") from exc
    return flat.reshape(rows, cols)
