"""Dense complex matrix primitives with fixed tolerance and determinism conventions.

Conventions used throughout the package:

* Matrices are ``numpy.ndarray`` of dtype complex128 in row-major (C) order.
* Vectorization is column stacking: ``vec(X)[i + n*j] = X[i, j]``.
* Every verdict is ``relative_residual(residual, scale) <= tol``, or its
  largest value entry by entry, with the scale an a-priori size of the
  operands, homogeneous of degree one in the inputs of the residual (so
  verdicts survive a rescaling of time), never floored at 1 and never the
  norm of terms that can cancel exactly.  A cut over many values at once
  (a numerical kernel, the zero eigenvalues of a generator, a componentwise
  residual) uses the one array form of the same rule,
  ``_relative_residuals``, with 0/0 = 0 and x/0 = inf as in the scalar.
* Anything feeding a boolean verdict (eigenvalues, singular vectors) is made
  deterministic: eigenvalues sorted descending, eigenvector phases fixed so the
  largest-magnitude entry is real and positive.
* Every factorization is taken one block of the exact nonzero pattern at a
  time.  No tolerance enters the split, since dropping a small entry would
  drop a real coupling.  Eigen-type factorizations (a matrix exponential, a
  spectrum, the PSD check) use the symmetrized split: i and j share a block
  when m[i, j] != 0 or m[j, i] != 0.  The PSD check also reads its
  Hermitian residual ||m - m*||_F and that residual's scale ||m||_F over
  the split, since m and m* are both zero outside it.  The SVD-type
  factorization (a numerical kernel) uses the bipartite split, which also
  fits a rectangular matrix: row i and column j share a block when
  m[i, j] != 0.  Both splits label the components of their graph and hand
  the labels to one grouping, ``_group`` (the symmetrized split passes its
  labels as the rows and as the columns).  Each verdict is still cut
  against the whole matrix's scale (its largest singular value or
  |eigenvalue|), never a block's.  A matrix with a single
  block, such as any dense generator, is a stack of one slice, which scipy
  and numpy treat exactly as the matrix itself, so its result is
  bit-identical to the dense call.  The split scans the pattern once per
  call (``_nonzeros``), except where it travels with the matrix: a
  generator holds the split of its superoperator
  (``lindblad.LindbladGenerator.invariant_blocks``, scanned on first use),
  and ``lindblad.semigroup`` hands it to ``mat_exp`` for every t, since the
  pattern of t L is that of L or, where entries underflow, part of it.
* A matrix that is zero outside a few rows and columns, and has few
  nonzeros in a row or a column, is a factor of products (``_Factor``,
  built by ``_factor`` from one scan of its pattern).  The pairing matrix
  of a coupling is scanned once: its factor is built on first use and
  travels with the coupling (``couplings.Coupling.factor``), for every
  composition that reads it, and for every balance check and convergence
  probe, which read it with its rows weighed into the extracted channel's
  S_E (``_Factor.__mul__``, a copy that keeps its index arrays).  A
  product with it is taken over its support block alone: m @ x is nonzero only on the
  support rows of m and reads only the rows of x on its support columns,
  and x @ m alike.  A matrix whose support is everything selects it
  through ``slice(None)``.  On a side with k nonzeros at most in a row of
  the block, the product is taken by row gather where that is cheaper:
  m @ x is the k passes ``w[:, j, None] * x[idx[:, j]]`` over the gather
  form (idx, w) of the block, and x @ m the same on its transpose,
  gathering columns.  Both forms are built with the factor, from one list
  of the block's nonzeros in row-major order; the dense block is kept only
  for a side that stays on BLAS.
  That is O(k) passes over x where BLAS takes O(inner) steps, with inner
  the inner dimension of the product.  One cost rule picks the gather for
  each product: k * GATHER_COST <= inner, with the constant 128.  Measured
  in-process with one BLAS thread: a 256 x 256 complex product takes
  0.13 ms by gather against 1.9 ms by BLAS at k = 1, and 1.1 against
  2.0 ms at k = 4; but a call also pays for building the forms, and
  gathering every product made the 72 built-in grid calls of
  ``balance.is_balanced`` 0.34 -> 0.55 ms each, and the four-cycle probe
  triples (k = 4 on product blocks) 0.95 -> 1.40 ms at n = 12 and
  2.55 -> 3.31 ms at n = 16.  Under the rule all of those stay on BLAS,
  while the pairing matrix of an entangled 12- or 16-cycle, or of the
  diagonal coupling from n = 12, is gathered (17 -> 5.3 ms for the
  16-cycle call).  A row with one nonzero, real entry (as in every
  scenario coupling and the diagonal coupling) gives the dense product's
  bits up to the sign of a zero.  A complex entry, and a row with more
  nonzeros, differ from BLAS by rounding only: numpy fuses the two products
  of a complex product into one rounding, and BLAS's own rounding of it
  depends on the kernel it picks for the shape.  A gather reads its operand
  in C order, and copies one that is not (``_gather_product``, the one
  place that does); the products that read one operand in one op are taken
  together (``_Factor.products``) from that one copy.
* Freed arrays stay in the process.  On glibc, importing this module sets
  the allocator's mmap threshold to 32 MiB (its maximum, above an n^2 x n^2
  complex array up to n = 32) and its trim threshold to 256 MiB, once, with
  no option (``_keep_freed_memory``).  By default glibc unmaps a freed
  0.3-1 MB superoperator, or trims it off the top of the heap, and the next
  one faults every page in anew: 35,300 minor faults in a probes round of
  300-400 ms (seed 7, ``tools/fault_count.py``) and 24,600 in a grid round,
  where the policy leaves 2 and 0.  Both values are needed: the mmap
  threshold alone leaves glibc's 128 KiB trim threshold (52,300 faults a
  probes round), and the trim threshold alone freezes the dynamic mmap
  threshold below the arrays (88,100).  The cost is peak RSS, since the
  heap keeps its high-water mark: 1.4-2.4 MB, 1.8-3.0 % of the benchmark's
  processes, measured at n <= 16 only; at n = 24 and 32 (5-17 MB arrays
  in the heap, not mapped) it is unmeasured.  Other C libraries are left
  alone; ``FREED_MEMORY_KEPT`` tells whether the policy was set.

The JSON wire format for a matrix is
``{"rows": n, "cols": m, "data": [[re, im], ...]}`` with ``data`` a flat,
row-major list of length ``rows*cols``.
"""

from __future__ import annotations

import ctypes
import itertools
import math
import os
from dataclasses import fields

import numpy as np

DEFAULT_TOL = 1e-9

# mallopt parameters of glibc's malloc.h
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


def _keep_freed_memory() -> bool:
    """Keep freed memory in the heap for reuse, on glibc only (see the module
    docstring), and tell whether the policy was set.  glibc is told by
    ``confstr``, which reads no file and starts no process."""
    try:
        libc = os.confstr("CS_GNU_LIBC_VERSION") or ""
    except (AttributeError, ValueError, OSError):  # no confstr, or not glibc
        return False
    if not libc.startswith("glibc"):
        return False
    mallopt = ctypes.CDLL(None).mallopt
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 256 << 20)
    return True


FREED_MEMORY_KEPT = _keep_freed_memory()


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
    """The Kronecker product of two matrices: the entry products a[i, j] b[k, l]
    that ``np.kron`` forms, in one broadcast and without its wrapper, as a
    complex matrix.  A real operand is cast by the multiplication, as in
    ``np.kron``: made complex first, it can turn the sign of a zero."""
    a, b = np.asarray(a), np.asarray(b)
    (p, q), (r, s) = a.shape, b.shape
    out = a.reshape(p, 1, q, 1) * b.reshape(1, r, 1, s)
    return out.reshape(p * r, q * s).astype(complex, copy=False)


def kraus_superop(ops, n: int, m: int) -> np.ndarray:
    """Superoperator of a -> sum_j V_j* a V_j for n x m matrices V_j, a map
    M_n -> M_m, summed in the order of ``ops`` onto zeros.

    Under column stacking, vec(a) = sum_ij a[i, j] e_(i + n j), the map
    a -> v* a v has superoperator kron(v^T, conj(v)^T): column i + n j is
    vec(v* E_ij v), whose (k, l) entry is v[i, k]^* v[j, l].  This is the one
    place that states the convention; Ad_u (:func:`ad_superop`) is the case
    v = u*.  ``lindblad.cycle_generator`` writes the same entries by index
    for its weighted cyclic shifts, which have one nonzero per column.
    """
    return sum((kron(v.T, v.conj().T) for v in ops), np.zeros((m * m, n * n), dtype=complex))


def ad_superop(u) -> np.ndarray:
    """Superoperator of Ad_u: a -> u a u*, the Kraus term of v = u*
    (:func:`kraus_superop`)."""
    return kron(u.conj(), u)


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


def _nonzeros(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows and the columns of the True entries of a 2-d mask, in
    row-major order, as ``np.nonzero`` gives them: its 2-d form is several
    times slower than this scan of the flat mask (0.237 against 0.027 ms
    on a 256 x 256 generator superoperator)."""
    return np.divmod(np.flatnonzero(mask), mask.shape[1])


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
    label = _components(n, *_nonzeros(m != 0))
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
    rows, cols = _nonzeros(m != 0)
    label = _components(r + c, rows, r + cols)
    return _group(label[:r], label[r:])


# The cost rule of a product with a sparse factor: by row gather when
# k * GATHER_COST <= inner, by BLAS otherwise (see the module docstring).
GATHER_COST = 128


def _gather_k(mask: np.ndarray, axis: int) -> int:
    """k, the most nonzeros in a row (axis 1) or in a column (axis 0) of the
    mask, when the cost rule gathers the products over those rows or
    columns, whose length is the inner dimension; 0 when it keeps them on
    BLAS."""
    inner = mask.shape[axis]
    if inner < GATHER_COST:  # no k passes the rule; skip the scan
        return 0
    k = int(np.count_nonzero(mask, axis=axis).max(initial=0))
    return k if 0 < k * GATHER_COST <= inner else 0


def _padded(keys: np.ndarray, others: np.ndarray, entries: np.ndarray, size: int, k: int):
    """The gather form (idx, w) of ``size`` rows from nonzeros sorted by
    their row, ``keys``: per row, the ``others`` of its nonzeros and their
    ``entries`` in the order given, both padded with zeros to k."""
    count = np.bincount(keys, minlength=size)
    # the slot of each nonzero in its row, counted from the row's first
    slot = np.arange(keys.size) - np.repeat(np.cumsum(count) - count, count)
    idx = np.zeros((size, k), dtype=np.intp)
    w = np.zeros((size, k), dtype=entries.dtype)
    idx[keys, slot], w[keys, slot] = others, entries
    return idx, w


def _gather_product(x: np.ndarray, form: tuple[np.ndarray, np.ndarray], axis: int):
    """m @ x from the gather form of m (axis 0, gathering rows of x), or
    x @ m from the gather form of m.T (axis -1, gathering columns); and x
    as it was read, C-ordered, for a further product with it."""
    idx, w = form
    # np.take copies an x that is not C-ordered, such as a dual's
    # superoperator (channels.dual), on every pass: once is enough.  This is
    # the one place that puts a gathered operand in C order; callers pass
    # their operands as they are, or as a first product handed them back
    x = np.ascontiguousarray(x)
    dtype = np.result_type(x, w)
    out = None
    for j in range(idx.shape[1]):
        # scaled in place: a second temporary is a pass more (0.26 against
        # 0.19 ms for k = 1 on 256 x 256, with freed memory kept)
        term = np.take(x, idx[:, j], axis=axis).astype(dtype, copy=False)
        term *= w[:, j, None] if axis == 0 else w[:, j]
        out = term if out is None else np.add(out, term, out=out)
    return out, x


def _index(hit: np.ndarray) -> np.ndarray | slice:
    """The ascending indices of the True entries of ``hit``, or slice(None)
    when it is all of them."""
    return slice(None) if hit.all() else np.flatnonzero(hit)


class _Factor:
    """A matrix m, zero outside its support ``rows`` x ``cols``, as a factor
    of products (made by :func:`_factor`).  Products take the support block
    alone: ``f @ x`` is (m @ y)[rows] for x = y[cols], and ``x @ f`` is
    (y @ m)[:, cols] for x = y[:, rows].  Each is taken by the gather form of
    the block, ``left``, or of its transpose, ``right``, on a side the cost
    rule gathers, and by BLAS with the dense ``block`` on a side it does not;
    ``block`` is None when both sides gather."""

    # numpy defers ``x @ f``, with x an array, to ``f.__rmatmul__(x)``
    __array_ufunc__ = None

    def __init__(self, shape, rows, cols, block, left, right):
        self.shape, self.rows, self.cols = shape, rows, cols
        self.block, self.left, self.right = block, left, right

    def _times(self, x: np.ndarray, axis: int) -> tuple[np.ndarray, np.ndarray]:
        """m @ x (axis 0) or x @ m (axis -1), and x as the product read it:
        its C-ordered copy where the product gathers."""
        form = self.left if axis == 0 else self.right
        if form is None:
            return (self.block @ x if axis == 0 else x @ self.block), x
        return _gather_product(x, form, axis)

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return self._times(x, 0)[0]

    def __rmatmul__(self, x: np.ndarray) -> np.ndarray:
        return self._times(x, -1)[0]

    def products(self, x: np.ndarray, axis: int) -> tuple[np.ndarray, np.ndarray]:
        """The two products of one operand x that an Oettli-Prager residual
        reads: m @ x and |m| @ |x| (for axis -1: x @ m and |x| @ |m|).  The
        second reads the C-ordered copy that the first made where it
        gathers, where it alone would copy x again: 8 of the 12 gathered
        products of a dual order check on a 16-cycle read a dual's
        F-ordered superoperator."""
        y, x = self._times(x, axis)
        return y, abs(self)._times(np.abs(x), axis)[0]

    def _map(self, dense, left, right) -> "_Factor":
        """The factor of the same support with the block and the weights w of
        the two gather forms (idx, w) passed through the given functions."""
        return _Factor(
            self.shape, self.rows, self.cols,
            None if self.block is None else dense(self.block),
            None if self.left is None else (self.left[0], left(*self.left)),
            None if self.right is None else (self.right[0], right(*self.right)),
        )

    def __abs__(self) -> "_Factor":
        return self._map(np.abs, lambda idx, w: np.abs(w), lambda idx, w: np.abs(w))

    def __mul__(self, column: np.ndarray) -> "_Factor":
        """m with row i multiplied by column[i, 0], for a column of shape
        (m.shape[0], 1): one rounding, in the block and the gathered weights
        alike, so a product with the result has the bits of the product
        with the weighed dense matrix."""
        c = column[self.rows]
        return self._map(lambda b: b * c, lambda idx, w: w * c, lambda idx, w: w * c[idx, 0])

    def regions(self, xa: np.ndarray, bx: np.ndarray, op) -> tuple[np.ndarray, np.ndarray]:
        """X A op B X (op np.subtract or np.add) for an X with this support,
        from xa = X @ A[cols] and bx = B[:, rows] @ X: the only parts that can
        be nonzero, the support rows (written over xa) and, up to sign, the
        other rows on the support columns, where the second term is alone."""
        both = xa[:, self.cols]
        # a no-op when cols is a slice, since op wrote into xa itself
        xa[:, self.cols] = op(both, bx[self.rows], out=both)
        other = np.ones(bx.shape[0], dtype=bool)
        other[self.rows] = False
        return xa, bx[other]


def _factor(m: np.ndarray) -> _Factor:
    """m as a :class:`_Factor`, from one scan of m != 0: its support rows and
    columns, the gather form of each side the cost rule gathers, and the
    dense support block when a side stays on BLAS, so that such a product
    runs exactly as the product with the block.  Both forms are read from
    one list of the block's nonzeros in row-major order: the row form as it
    stands, the column form after one stable sort by column, which keeps the
    rows ascending within each column."""
    mask = m != 0
    rows, cols = _index(mask.any(axis=1)), _index(mask.any(axis=0))
    block, mask = m[:, cols][rows], mask[:, cols][rows]
    k_left, k_right = _gather_k(mask, 1), _gather_k(mask, 0)
    left = right = None
    if k_left or k_right:
        r, c = _nonzeros(mask)
        entries = block[r, c]
        if k_left:
            left = _padded(r, c, entries, block.shape[0], k_left)
        if k_right:
            order = np.argsort(c, kind="stable")
            right = _padded(c[order], r[order], entries[order], block.shape[1], k_right)
    return _Factor(m.shape, rows, cols, None if k_left and k_right else block, left, right)


def _stacks(m: np.ndarray, row_idx: np.ndarray, col_idx: np.ndarray) -> np.ndarray:
    """The blocks m[rows, cols] of one group as a (count, rows, cols) stack."""
    return m[row_idx[:, :, None], col_idx[:, None, :]]


def mat_exp(m, blocks: list[np.ndarray] | None = None) -> np.ndarray:
    """Matrix exponential (Pade + scaling/squaring via scipy), one invariant
    block at a time: the blocks of each size go to one stacked call and are
    scattered into a zero matrix.  scipy treats every slice of a stack as it
    treats a single matrix, so a matrix with one block gets exactly
    ``scipy.linalg.expm(m)``.  ``blocks`` is ``_invariant_blocks(m)`` for a
    caller that holds it, or any split into unions of its blocks.  scipy is
    imported here, its only use, so that nothing else pays for loading it."""
    import scipy.linalg

    m = as_matrix(m)
    out = np.zeros_like(m)
    for idx in _invariant_blocks(m) if blocks is None else blocks:
        block = idx[:, :, None], idx[:, None, :]
        out[block] = scipy.linalg.expm(m[block])
    return out


def eigenvalues(m, blocks: list[np.ndarray] | None = None) -> np.ndarray:
    """All eigenvalues with multiplicity, in no particular order, taken one
    invariant block at a time as in :func:`mat_exp`.  ``blocks`` is
    ``_invariant_blocks(m)`` for a caller that holds it, or any split into
    unions of its blocks."""
    m = as_matrix(m)
    blocks = _invariant_blocks(m) if blocks is None else blocks
    return np.concatenate([np.linalg.eigvals(_stacks(m, idx, idx)).ravel() for idx in blocks])


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
    """The largest :func:`relative_residual` over two broadcast arrays, 0 for
    empty ones."""
    return float(np.max(_relative_residuals(residual, scale), initial=0.0))


def _distance_and_scale(a, b) -> tuple[float, float]:
    """||a - b||_F and the scale :func:`close` cuts it at, max(||a||_F, ||b||_F):
    for a caller that cuts a second residual at the same scale."""
    return frob_distance(a, b), max(frob_norm(a), frob_norm(b))


def close(a, b, tol: float = DEFAULT_TOL) -> bool:
    """Frobenius closeness relative to max(||a||, ||b||)."""
    return relative_residual(*_distance_and_scale(a, b)) <= tol


def is_hermitian(m, tol: float = DEFAULT_TOL) -> bool:
    m = as_matrix(m)
    return m.shape[0] == m.shape[1] and close(m, m.conj().T, tol)


def check_psd(m, tol: float = DEFAULT_TOL) -> tuple[bool, float]:
    """:func:`is_psd`, and the minimal eigenvalue it judged (-inf when m is
    not Hermitian within tol, or has an entry that is not finite).

    All of it is read off the blocks of the symmetrized exact-zero split, so
    it costs their entries, not n^2: m and m* are both zero outside the
    blocks, so the Hermitian residual ||m - m*||_F and its scale ||m||_F are
    the roots of the sums of the blocks' squares, and the spectrum is that of
    the symmetrized blocks (m_B + m_B*)/2.  The gate asks for the inside, so
    that a NaN residual (from a NaN entry, or from inf - inf at an infinite
    one) fails it before any eigensolver sees the matrix."""
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise ValueError("a PSD check requires a square matrix")
    stacks = [_stacks(m, idx, idx) for idx in _invariant_blocks(m)]
    adjoints = [s.conj().swapaxes(1, 2) for s in stacks]
    residual = math.hypot(*(np.linalg.norm(s - a) for s, a in zip(stacks, adjoints)))
    if not relative_residual(residual, math.hypot(*map(np.linalg.norm, stacks))) <= tol:
        return False, -math.inf
    evals = np.concatenate(
        [np.linalg.eigvalsh((s + a) / 2.0).ravel() for s, a in zip(stacks, adjoints)]
    )
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


def nullspace(m, tol: float = DEFAULT_TOL) -> list[np.ndarray]:
    """Orthonormal basis of the numerical kernel: the right singular vectors
    whose singular values are not > tol * the largest (all of them for zero),
    taken one bipartite block at a time and padded with zeros."""
    m = as_matrix(m)
    blocks = []
    for row_idx, col_idx in _bipartite_blocks(m):
        _, sv, vh = np.linalg.svd(_stacks(m, row_idx, col_idx))
        blocks.append((col_idx, sv, vh))
    top = max((float(sv.max()) for _, sv, _ in blocks if sv.size), default=0.0)
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


def _json_int(value, name: str) -> int:
    """``value``, the wire value called ``name``, which must be a JSON integer;
    a float, a string or a bool is a TypeError."""
    if type(value) is not int:
        raise TypeError(f"{name} must be an integer, got {value!r}")
    return value


def _json_number(value, name: str) -> int | float:
    """``value``, the wire value called ``name``, which must be a JSON number;
    a string or a bool is a TypeError."""
    if type(value) not in (int, float):
        raise TypeError(f"{name} must be a number, got {value!r}")
    return value


def _json_list(values, name: str, check) -> tuple:
    """A JSON list as a tuple, each entry checked by ``check``
    (:func:`_json_int` or :func:`_json_number`; a TypeError otherwise)."""
    return tuple(check(v, f"{name}[{i}]") for i, v in enumerate(values))


def matrix_from_json(obj) -> np.ndarray:
    try:
        rows, cols = _json_int(obj["rows"], "rows"), _json_int(obj["cols"], "cols")
        data = obj["data"]
        if set(map(len, data)) - {2}:
            i = next(i for i, entry in enumerate(data) if len(entry) != 2)
            raise ValueError(f"data[{i}] must be a pair [re, im]")
        # each part a JSON number, told by its type: float() and complex()
        # would read True as 1.  The scans run in C, and building from the
        # flat parts costs about what one complex() per entry did
        parts = list(itertools.chain.from_iterable(data))
        if not set(map(type, parts)) <= {int, float}:
            i = next(i for i, v in enumerate(parts) if type(v) not in (int, float))
            raise TypeError(f"data[{i // 2}] must be a number")
        flat = np.fromiter(parts, dtype=float, count=len(parts)).view(complex)
        if rows < 1 or cols < 1:
            raise ValueError("matrix dims must be >= 1")
        if flat.size != rows * cols:
            raise ValueError(f"matrix data has {flat.size} entries, expected {rows * cols}")
        finite = np.isfinite(flat)
        if not finite.all():
            raise ValueError(f"data[{int(np.argmin(finite))}] must be finite")
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed matrix object: {exc}") from exc
    return flat.reshape(rows, cols)
