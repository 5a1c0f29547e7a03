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
  time, and there is one split (``_invariant_blocks``), symmetrized: i and
  j share a block when m[i, j] != 0 or m[j, i] != 0.  No tolerance enters
  it, since dropping a small entry would drop a real coupling.  The same
  permutation of rows and columns makes m block-diagonal with square
  blocks, so a matrix exponential, a spectrum, the PSD check and a
  numerical kernel are each the blocks' together.  The PSD check also
  reads its Hermitian residual ||m - m*||_F and that residual's scale
  ||m||_F over the split, since m and m* are both zero outside it.  A
  numerical kernel of a matrix that is not square is one block.  Each
  verdict is still cut against the whole matrix's scale (its largest
  singular value or |eigenvalue|), never a block's.  A matrix with a
  single block, such as any dense generator, is a stack of one slice:
  numpy's factorizations treat it exactly as the matrix itself, and
  ``mat_exp`` gives each slice the bits it gets alone, so its result is
  bit-identical to the dense call.  The split scans the pattern once
  per call (``_nonzeros``), except where it travels with the matrix: a
  generator reads its split off its held pattern (below,
  ``lindblad.LindbladGenerator.invariant_blocks``), ``lindblad.semigroup``
  hands it to ``mat_exp`` for every t, since the pattern of t L is that
  of L or, where entries underflow, part of it, and
  ``channels.fixed_point_space`` hands it to ``nullspace``.
* The exact nonzero pattern of a matrix has one sparse form, ``_Factor``:
  its support rows and columns and the gather forms (idx, w) of its
  support block and of the block's transpose, the row and the column
  form, each padded to its width, the most nonzeros in a row of it.  The
  widths are given by the maker, and the forms are built on first use.
  Every dynamics holds the pattern of its superoperator (``pattern``),
  and every coupling that of its pairing matrix
  (``couplings.Coupling.factor``), each made once:
  - *given by its maker*, which knows it, with no scan:
    ``lindblad.cycle_generator`` lists its 3 n^2 entries by index,
    ``lindblad.semigroup`` reads e^{tL} off the blocks of the split it
    exponentiated (``_listed``);
  - *derived from the pattern it was made from*, with no scan:
    ``channels.dual`` weighs its parent's two forms with the two
    roundings of the dense dual and swaps them (``_Factor.scaled``,
    ``_Factor.T``), ``channels._kms_conjugate`` permutes its parent's
    nonzeros (``_Factor.permuted``), and ``couplings.flip_coupling`` and
    ``couplings.kms_flip`` transpose, and permute, the factor of the
    coupling they flip;
  - *scanned once, on first use* (``_factor``, which hands the nonzeros
    of its scan to ``_from_nonzeros``, as a maker with a list does), for
    everything else: a generator from jumps or from a file, the result of
    a change of frame, a coupling read or composed.
  A maker leaves its pattern as a recipe (``_held``), which runs on first
  use, so dynamics whose pattern is never read, as most semigroups of a
  convergence probe, never pay for it.  Each is the factor that
  ``_factor`` scans off the dense matrix, to the bit, except that a block
  a KMS-flipped coupling scatters from its nonzeros holds +0 where the
  dense matrix may hold -0.0.  The dense
  superoperators stay as they are: every dense computation reads them.
* A product with a ``_Factor`` is taken over its support block alone:
  m @ x is nonzero only on the support rows of m and reads only the rows
  of x on its support columns, and x @ m alike.  A matrix whose support
  is everything selects it through ``slice(None)``.  The balance checks
  and the convergence probe read a coupling's factor with its rows
  weighed into the extracted channel's S_E (``_Factor.__mul__``, a copy
  that keeps its index arrays).  On a side with k nonzeros at most in a
  row of the block, the product is taken by row gather where that is
  cheaper: m @ x is the k passes ``w[:, j, None] * x[idx[:, j]]`` over
  the row form, and x @ m the same on the column form, gathering
  columns; the dense block is kept only for a side that stays on BLAS.
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
  place that does).
* The balance defect X A - B X (``balance.is_balanced``: X = S_E, A and B
  the two superoperators) is formed on the patterns
  (``_defect_on_pattern``): each nonzero of X meets a row of A's row form
  and a column of B's column form, and the terms are summed by position
  after one sort, with the Oettli-Prager size |X| |A| + |B| |X| beside
  them, so the defect costs its terms, not n^4.  The same GATHER_COST
  rule decides: below it in an inner dimension (n^2 < 128, n <= 11) BLAS
  wins and no pattern is read, so none is scanned; above it the terms,
  the nonzeros of X times the widths of the two forms, must be fewer than
  the entries of D, or the defect is left to the dense products through
  the factor, with their bytes.  Measured in-process with one BLAS
  thread, per call on held patterns: 1.44 -> 0.17 ms on the generators of
  one 16-cycle, 0.62 -> 0.12 ms on four 4-cycles, 0.46 -> 0.13 ms on one
  12-cycle and 0.22 -> 0.10 ms on three 4-cycles; e^{tK} and e^{tL} at
  t = 1 of the 16-cycle, 16 nonzeros a row, 1.38 -> 0.47 ms.  On
  generators built fresh and scanned in the call (the benchmark's grid):
  0.24 ms either way on three 4-cycles, 0.48 -> 0.28 ms on one 12-cycle;
  at n = 7 the pattern with its scans would take 0.16 ms against 0.10 ms,
  which the inner-dimension cut leaves to BLAS.  The sums differ from the
  dense products by rounding only; a random dense pair (n^6 terms) stays
  dense.
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


def _nonzero(m: np.ndarray) -> np.ndarray:
    """m != 0.  A complex m with contiguous rows is read as pairs of
    doubles, two bools per entry, and a pair read as one uint16 is nonzero
    when either part is: 7.7 against 32.6 us for the complex comparison on
    a 144 x 144 superoperator, 3.2 against 4.7 us on 49 x 49.  A -0.0 part
    is zero, a NaN part nonzero, as in the comparison."""
    if m.dtype != complex:
        return m != 0
    if m.flags.f_contiguous and not m.flags.c_contiguous:
        return _nonzero(m.T).T
    if not m.flags.c_contiguous:
        return m != 0
    return (m.view(np.float64) != 0).view(np.uint16) != 0


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


def _blocks(size: int, r: np.ndarray, c: np.ndarray) -> list[np.ndarray]:
    """The connected components of the graph on ``size`` nodes with an edge
    between r[k] and c[k], grouped by size: one (count, size) array of
    indices per size, sizes ascending, the components of one size in the
    order of their labels, the indices of each ascending."""
    label = _components(size, r, c)
    count = np.bincount(label, minlength=size)
    order = np.lexsort((label, count[label]))
    groups, start = [], 0
    for k, number in zip(*np.unique(count[count > 0], return_counts=True)):
        groups.append(order[start : start + k * number].reshape(number, k))
        start += k * number
    return groups


def _invariant_blocks(m: np.ndarray) -> list[np.ndarray]:
    """The connected components of the exact nonzero pattern of a square
    matrix, symmetrized (i ~ j when m[i, j] != 0 or m[j, i] != 0), grouped by
    size as :func:`_blocks` groups them, from one scan of m.

    A permutation that lists the components one after another makes m
    block-diagonal with square blocks, so a function of m that is analytic,
    its spectrum or its kernel can be taken block by block."""
    n = m.shape[0]
    if m.shape != (n, n):
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return _blocks(n, *_nonzeros(_nonzero(m)))


# The cost rule of a product with a sparse factor: by row gather when
# k * GATHER_COST <= inner, by BLAS otherwise (see the module docstring).
GATHER_COST = 128


def _padded(keys: np.ndarray, others: np.ndarray, entries: np.ndarray, count: np.ndarray):
    """The gather form (idx, w) of the rows of a block from its nonzeros
    sorted by their row, ``keys``, with ``count`` nonzeros in each row:
    per row, the ``others`` of its nonzeros and their ``entries`` in the
    order given, both padded with zeros to k, the most nonzeros in a
    row."""
    size, k = count.size, int(count.max(initial=0))
    if keys.size == size * k:  # k in every row: no padding
        return others.reshape(size, k), entries.reshape(size, k)
    # the flat place of each nonzero: its row's first slot, plus its rank
    # among the row's nonzeros
    start = np.cumsum(count) - count
    at = keys * k + np.arange(keys.size) - start[keys]
    idx = np.zeros(size * k, dtype=np.intp)
    w = np.zeros(size * k, dtype=entries.dtype)
    idx[at], w[at] = others, entries
    return idx.reshape(size, k), w.reshape(size, k)


def _gather_product(x: np.ndarray, form: tuple[np.ndarray, np.ndarray], axis: int) -> np.ndarray:
    """m @ x from the gather form of m (axis 0, gathering rows of x), or
    x @ m from the gather form of m.T (axis -1, gathering columns)."""
    idx, w = form
    # np.take copies an x that is not C-ordered, such as a dual's
    # superoperator (channels.dual), on every pass: once is enough.  This is
    # the one place that puts a gathered operand in C order
    x = np.ascontiguousarray(x)
    dtype = np.result_type(x, w)
    out = None
    for j in range(idx.shape[1]):
        # scaled in place: a second temporary is a pass more (0.26 against
        # 0.19 ms for k = 1 on 256 x 256, with freed memory kept)
        term = np.take(x, idx[:, j], axis=axis).astype(dtype, copy=False)
        term *= w[:, j, None] if axis == 0 else w[:, j]
        out = term if out is None else np.add(out, term, out=out)
    return out


def _index(hit: np.ndarray) -> np.ndarray | slice:
    """The ascending indices of the True entries of ``hit``, or slice(None)
    when it is all of them."""
    return slice(None) if hit.all() else np.flatnonzero(hit)


def _span(index: np.ndarray | slice, size: int) -> np.ndarray:
    """The indices that a support ``index`` of a side of length ``size``
    stands for."""
    return np.arange(size) if isinstance(index, slice) else index


class _Factor:
    """A matrix m, zero outside its support ``rows`` x ``cols``, as its exact
    nonzero pattern and a factor of products (made by :func:`_from_nonzeros`
    from a list of nonzeros, which :func:`_factor` reads off a scan, or by
    :func:`_listed` from a maker's index array).  ``form(0)`` is the gather
    form (idx, w) of the support block and ``form(1)`` that of its
    transpose, with idx relative to the block, each padded to its width k,
    the most nonzeros in a row of it.  The maker gives the two ``widths``
    and each form, or a function of no arguments that builds it on first
    use.  Products take the support block alone: ``f @ x`` is
    (m @ y)[rows] for x = y[cols], and ``x @ f`` is (y @ m)[:, cols] for
    x = y[:, rows].  Each is taken by the gather form, ``left`` or
    ``right``, on a side the cost rule gathers, and by BLAS with the dense
    ``block`` on a side it does not.  The maker gives the block as a
    function of no arguments, called only where a side stays on BLAS;
    ``block`` is None when both sides gather."""

    # numpy defers ``x @ f``, with x an array, to ``f.__rmatmul__(x)``
    __array_ufunc__ = None

    def __init__(self, shape, rows, cols, forms, widths, block):
        self.shape, self.rows, self.cols, self.widths = shape, rows, cols, widths
        self._forms = list(forms)
        n_rows = shape[0] if isinstance(rows, slice) else rows.size
        n_cols = shape[1] if isinstance(cols, slice) else cols.size
        self.gathers = (0 < widths[0] * GATHER_COST <= n_cols,
                        0 < widths[1] * GATHER_COST <= n_rows)
        self.block = None if all(self.gathers) else block()

    def form(self, side: int) -> tuple[np.ndarray, np.ndarray]:
        """The row form (side 0) or the column form (side 1), built once."""
        if callable(self._forms[side]):
            self._forms[side] = self._forms[side]()
        return self._forms[side]

    @property
    def left(self):
        return self.form(0) if self.gathers[0] else None

    @property
    def right(self):
        return self.form(1) if self.gathers[1] else None

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return _gather_product(x, self.form(0), 0) if self.gathers[0] else self.block @ x

    def __rmatmul__(self, x: np.ndarray) -> np.ndarray:
        return _gather_product(x, self.form(1), -1) if self.gathers[1] else x @ self.block

    def _mapped(self, side: int, weigh):
        idx, w = self.form(side)
        return idx, weigh(idx, w)

    def _map(self, block, row, col) -> "_Factor":
        """The factor of the same support and widths, with the weights w of
        the two forms (idx, w), as they are built, passed through the
        functions ``row`` and ``col``, and the block made by ``block``."""
        forms = (lambda: self._mapped(0, row)), (lambda: self._mapped(1, col))
        return _Factor(self.shape, self.rows, self.cols, forms, self.widths, block)

    def __abs__(self) -> "_Factor":
        return self._map(lambda: np.abs(self.block), lambda idx, w: np.abs(w),
                         lambda idx, w: np.abs(w))

    def __mul__(self, column: np.ndarray) -> "_Factor":
        """m with row i multiplied by column[i, 0], for a column of shape
        (m.shape[0], 1): one rounding, in the block and the gathered weights
        alike, so a product with the result has the bits of the product
        with the weighed dense matrix."""
        c = column[self.rows]
        return self._map(lambda: self.block * c, lambda idx, w: w * c, lambda idx, w: w * c[idx, 0])

    def scaled(self, a: np.ndarray, b: np.ndarray, dense: np.ndarray) -> "_Factor":
        """The factor of ``dense``, m with entry (i, j) multiplied by a[i]
        and then by b[j], as ``m * a[:, None] * b[None, :]`` rounds it; only
        the forms are weighed, and the block is cut from ``dense``."""
        a, b = a[self.rows], b[self.cols]
        return self._map(lambda: dense[:, self.cols][self.rows],
                         lambda idx, w: w * a[:, None] * b[idx],
                         lambda idx, w: w * a[idx] * b[:, None])

    @property
    def T(self) -> "_Factor":
        """The factor of m.T: the two forms swapped, the block transposed."""
        forms = (lambda: self.form(1)), (lambda: self.form(0))
        return _Factor(self.shape[::-1], self.cols, self.rows, forms, self.widths[::-1],
                       lambda: self.block.T)

    def entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The nonzeros of m as (rows, columns, values) in m's own indices,
        in row-major order, read off the row form: its padding is the
        slots whose weight is zero."""
        idx, w = self.form(0)
        i, slot = _nonzeros(w != 0)
        rows, cols = _span(self.rows, self.shape[0]), _span(self.cols, self.shape[1])
        return rows[i], cols[idx[i, slot]], w[i, slot]

    def permuted(self, row_map, col_map, dense: np.ndarray | None = None) -> "_Factor":
        """The factor of m' with m'[row_map[i], col_map[j]] = m[i, j], for
        two permutations: the nonzeros moved and put in row-major order
        again, no scan, with the block of ``dense`` as :func:`_from_nonzeros`
        takes it."""
        r, c, v = self.entries()
        r, c = row_map[r], col_map[c]
        order = np.lexsort((c, r))
        return _from_nonzeros(self.shape, r[order], c[order], v[order], dense)

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


def _once(make):
    """A function of no arguments that returns make(), calling it on the
    first call only and dropping it then, with what it holds."""
    made = []

    def once():
        nonlocal make
        if make is not None:
            made.append(make())
            make = None
        return made[0]

    return once


def _forms(listing) -> tuple:
    """The builders of the two forms of a block from ``listing()``: its
    nonzeros (r, c, v) in block indices, in row-major order, and the
    nonzeros in each of its rows and columns.  The row form is the list as
    it stands, the column form the list after one stable sort by column,
    which keeps the rows ascending within each column."""

    def row_form():
        r, c, v, count_r, _ = listing()
        return _padded(r, c, v, count_r)

    def column_form():
        r, c, v, _, count_c = listing()
        # numpy's stable sort of 16-bit keys is a radix sort, 2.5 times
        # faster than its merge sort of 64-bit ones (4096 keys)
        order = np.argsort(c.astype(np.uint16) if count_c.size <= 1 << 16 else c, kind="stable")
        return _padded(c[order], r[order], v[order], count_c)

    return row_form, column_form


def _from_nonzeros(shape, r, c, v, dense=None) -> _Factor:
    """The :class:`_Factor` of the matrix of ``shape`` whose nonzeros are
    v at (r, c), listed in row-major order, with its widths read off the
    list and its forms built from it on first use (:func:`_forms`).  Where
    a side stays on BLAS the block is cut from ``dense`` or, without it,
    scattered from the list into zeros, whose zeros are all +0."""
    counts = np.bincount(r, minlength=shape[0]), np.bincount(c, minlength=shape[1])
    hits = [count > 0 for count in counts]
    rows, cols = map(_index, hits)

    @_once
    def listing():
        r_block, c_block = (x if isinstance(index, slice) else (np.cumsum(hit) - 1)[x]
                            for x, hit, index in zip((r, c), hits, (rows, cols)))
        return r_block, c_block, v, counts[0][hits[0]], counts[1][hits[1]]

    def block():
        if dense is not None:
            return dense[:, cols][rows]
        r, c, v, count_r, count_c = listing()
        out = np.zeros((count_r.size, count_c.size), dtype=v.dtype)
        out[r, c] = v
        return out

    widths = tuple(int(count.max(initial=0)) for count in counts)
    return _Factor(shape, rows, cols, _forms(listing), widths, block)


def _factor(m: np.ndarray) -> _Factor:
    """m as a :class:`_Factor`, from one scan of m != 0 that lists its
    nonzeros in row-major order for :func:`_from_nonzeros`, with the dense
    support block cut from m where a side stays on BLAS, so that such a
    product runs exactly as the product with the block."""
    r, c = _nonzeros(_nonzero(m))
    return _from_nonzeros(m.shape, r, c, m[r, c], m)


def _listed(m: np.ndarray, cand: np.ndarray) -> _Factor:
    """m as a :class:`_Factor` from the columns that can hold a nonzero of
    each row, with no scan of m, for an m whose pattern is symmetric, as a
    split into blocks makes it: cand[i] lists those of row i, and so the
    rows of column i, ascending and padded at the end with -1.  Where every
    row lists a column and no listed entry holds a zero, cand is the index
    array of both forms, padding and all; otherwise the nonzeros are read
    off the list in row-major order."""
    listed = cand >= 0
    at = np.where(listed, cand, 0)
    rows = np.arange(m.shape[0])[:, None]
    v = np.where(listed, m[rows, at], 0)
    hit = v != 0
    if listed[:, 0].all() and np.array_equal(hit, listed):
        forms = (at, v), (at, np.where(listed, m[at, rows], 0))
        return _Factor(m.shape, slice(None), slice(None), forms, (at.shape[1],) * 2, lambda: m)
    r, slot = _nonzeros(hit)
    return _from_nonzeros(m.shape, r, cand[r, slot], v[r, slot], dense=m)


def _block_columns(blocks: list[np.ndarray], size: int) -> np.ndarray:
    """The columns of each row of a matrix of ``size`` rows that is zero
    outside the blocks of a split, as :func:`_listed` takes them: those of
    the row's block, ascending as the split lists them."""
    cand = np.full((size, max(idx.shape[1] for idx in blocks)), -1)
    for idx in blocks:
        cand[idx.ravel(), : idx.shape[1]] = np.repeat(idx, idx.shape[1], axis=0)
    return cand


def _held(obj, **recipes):
    """``obj`` with a recipe left by its maker for each named cached
    property: a function of no arguments that :func:`_made` calls once, on
    first use, in place of a scan.  A frozen dataclass takes them through
    ``object.__setattr__``."""
    for name, make in recipes.items():
        object.__setattr__(obj, "_make_" + name, make)
    return obj


def _made(obj, name: str, scan):
    """The value of the cached property ``name`` of ``obj``: its maker's
    recipe (:func:`_held`), dropped once called, or ``scan()`` where it
    left none."""
    make = vars(obj).pop("_make_" + name, None)
    return (scan if make is None else make)()


def _full_form(f: _Factor, side: int) -> tuple[np.ndarray, np.ndarray]:
    """The gather form of every row (side 0) or every column (side 1) of
    the matrix of ``f``, in its own indices: a row outside the support is
    all padding."""
    idx, w = f.form(side)
    inner, outer = (f.cols, f.rows) if side == 0 else (f.rows, f.cols)
    if not isinstance(inner, slice):
        idx = inner[idx]
    if isinstance(outer, slice):
        return idx, w
    full_idx = np.zeros((f.shape[side], idx.shape[1]), dtype=np.intp)
    full_w = np.zeros((f.shape[side], w.shape[1]), dtype=w.dtype)
    full_idx[outer], full_w[outer] = idx, w
    return full_idx, full_w


def _defect_on_pattern(x: _Factor, alpha, beta):
    """|X A - B X| and its Oettli-Prager size |X| |A| + |B| |X|, entry by
    entry on the union of the patterns of X A and B X, as two flat arrays
    in one order, for square A and B; None when the cost rule leaves the
    defect to the dense products (see the module docstring).  ``alpha``
    and ``beta`` hold the patterns of A and B (``.pattern``), read only
    where the inner dimensions of both products reach GATHER_COST: below
    it no pattern is read, and none is scanned.

    Each nonzero x of X at (i, j) meets row j of A and column i of B: the
    terms x A[j, l] at (i, l) and -B[k, i] x at (k, j), taken k_A and k_B
    at a time from the two padded gather forms, whose padding adds zero
    terms only.  The terms are summed by position, after one sort of the
    positions."""
    if min(x.shape) < GATHER_COST:
        return None
    a, b = alpha.pattern, beta.pattern
    i, j, e = x.entries()
    k_a, k_b = a.widths[0], b.widths[1]
    if i.size * (k_a + k_b) >= x.shape[0] * x.shape[1]:
        return None
    (ra, wa), (rb, wb) = _full_form(a, 0), _full_form(b, 1)
    wa, wb, e = wa[j], wb[i], e[:, None]
    n = a.shape[1]
    at = np.concatenate(((i[:, None] * n + ra[j]).ravel(), (rb[i] * n + j[:, None]).ravel()))
    terms = np.concatenate(((e * wa).ravel(), (wb * -e).ravel()))
    e = np.abs(e)
    sizes = np.concatenate(((e * np.abs(wa)).ravel(), (np.abs(wb) * e).ravel()))
    keys, where = np.unique(at, return_inverse=True)
    magnitude = np.hypot(np.bincount(where, terms.real, keys.size),
                         np.bincount(where, terms.imag, keys.size))
    return magnitude, np.bincount(where, sizes, keys.size)


def _stacks(m: np.ndarray, row_idx: np.ndarray, col_idx: np.ndarray) -> np.ndarray:
    """The blocks m[rows, cols] of one group as a (count, rows, cols) stack."""
    return m[row_idx[:, :, None], col_idx[:, None, :]]


# The coefficients b_j of the [13/13] Pade approximant of e^x,
# r(x) = p(-x)^-1 p(x) with p(x) = sum_j b_j x^j, and theta_13, the largest
# 1-norm at which its backward error stays below 2^-53, as Higham (2005)
# lists them for his Algorithm 2.3.
PADE13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0, 1187353796428800.0,
    129060195264000.0, 10559470521600.0, 670442572800.0, 33522128640.0, 1323241920.0,
    40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)
THETA13 = 5.371920351148152


def _pade13(a: np.ndarray, norm: np.ndarray) -> np.ndarray:
    """e^a of each slice of a (count, k, k) stack whose 1-norms are finite,
    by scaling, the [13/13] Pade approximant and squaring."""
    b = PADE13
    s = np.ceil(np.log2(np.maximum(norm, THETA13) / THETA13)).astype(int)
    a = a / np.exp2(s)[:, None, None]
    eye = np.eye(a.shape[-1])
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2) + b[7] * a6 + b[5] * a4 + b[3] * a2
    u = a @ (u + b[1] * eye)
    v = a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2) + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye
    # r = (v - u)^-1 (v + u), written as 1 + 2 (v - u)^-1 u
    x = eye + 2.0 * np.linalg.solve(v - u, u)
    for i in range(s.max(initial=0)):
        if i < s.min():
            x = x @ x
        else:
            sq = s > i
            y = x[sq]
            x[sq] = y @ y
    return x


def _exp_stack(a: np.ndarray) -> np.ndarray:
    """e^a of each slice of a (count, k, k) stack, each slice on its own."""
    r = np.arange(a.shape[-1])
    diagonal = np.count_nonzero(a, axis=(1, 2)) == np.count_nonzero(a[:, r, r], axis=1)
    norm = np.abs(a).sum(axis=1).max(axis=1)
    pade = ~diagonal & np.isfinite(norm)
    if pade.all():
        return _pade13(a, norm)
    out = np.zeros_like(a)
    d = np.flatnonzero(diagonal)[:, None]
    out[d, r, r] = np.exp(a[d, r, r])
    out[~diagonal & ~pade] = complex(math.nan, math.nan)
    if pade.any():
        out[pade] = _pade13(a[pade], norm[pade])
    return out


def mat_exp(m, blocks: list[np.ndarray] | None = None) -> np.ndarray:
    """Matrix exponential, one invariant block at a time: the blocks of each
    size go to one stacked pass (``_exp_stack``) and are scattered into a
    zero matrix.  ``blocks`` is ``_invariant_blocks(m)`` for a caller that
    holds it, or any split into unions of its blocks.

    Each slice is scaled by 2^-s, with s the least integer >= 0 that brings
    its 1-norm to theta_13 or below, replaced by the [13/13] Pade
    approximant r = 1 + 2 (V - U)^-1 U, with U and V the odd and even parts
    of its numerator, and squared s times (Higham, "The scaling and squaring
    method for the matrix exponential revisited", SIAM J. Matrix Anal.
    Appl. 26, 1179 (2005), Algorithm 2.3; the constants are
    ``PADE13`` and ``THETA13``).  A stack takes A^2, A^4, A^6, U and V by
    stacked products, one stacked solve, and squares only the slices whose
    s is not yet reached.  The form 1 + 2 (V - U)^-1 U is the more
    accurate of the two: on 60 blocks of grid generators at t = 1000 its
    largest entry error against a 40-digit reference is 1.9e-14 (scipy's
    expm: 2.0e-14), where (V - U)^-1 (V + U) reaches 4.6e-14.
    Unlike Al-Mohy & Higham (SIAM J. Matrix Anal. Appl. 31, 970 (2009)),
    no slice takes a lower degree or a smaller s from norms of its powers:
    every slice gets degree 13 and an s read off its own 1-norm, so its bits
    depend on that slice alone, never on the stack it sits in, and a held
    split gives the bytes of the scanned one.

    Exact cases, as in ``scipy.linalg.expm``: a slice with no nonzero off
    its diagonal (a 1 x 1 block and the zero slice included) gets ``np.exp``
    of its diagonal, so t = 0 gives 1 exactly and a t L that
    underflows to a diagonal gives the bits of any split of it.  Any other
    slice with a NaN or infinite entry, or a 1-norm that overflows, is NaN,
    and no squaring count is read off it."""
    m = as_matrix(m)
    out = np.zeros_like(m)
    for idx in _invariant_blocks(m) if blocks is None else blocks:
        block = idx[:, :, None], idx[:, None, :]
        out[block] = _exp_stack(m[block])
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
    """||a||_F.  numpy sums the squares of the entries, which overflows
    once an entry passes about 1e154; where that makes the norm inf and
    every entry is finite, a is scaled by the largest modulus of a real or
    an imaginary part, as LAPACK's dznrm2 scales, and the norm taken
    again.  numpy's overflow warning of the first sum still shows."""
    a = np.asarray(a)
    norm = float(np.linalg.norm(a))
    if norm != math.inf or not np.isfinite(a).all():
        return norm
    big = float(max(np.max(np.abs(a.real)), np.max(np.abs(a.imag))))
    return big * float(np.linalg.norm(a / big))


def frob_distance(a, b) -> float:
    a, b = as_matrix(a), as_matrix(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    return frob_norm(a - b)


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


def nullspace(
    m, tol: float = DEFAULT_TOL, blocks: list[np.ndarray] | None = None
) -> list[np.ndarray]:
    """Orthonormal basis of the numerical kernel: the right singular vectors
    whose singular values are not > tol * the largest (all of them for zero),
    taken one invariant block at a time as in :func:`mat_exp` and padded
    with zeros.  The permutation that makes a square m block-diagonal acts
    on its rows and its columns alike, so the kernel is the direct sum of
    the blocks' kernels.  A matrix that is not square is one block, the
    dense SVD.  For a square m, ``blocks`` is ``_invariant_blocks(m)`` for a
    caller that holds it, or any split into unions of its blocks."""
    m = as_matrix(m)
    r, c = m.shape
    if r != c:
        pairs = [(np.arange(r)[None], np.arange(c)[None])]
    else:
        pairs = [(idx, idx) for idx in (_invariant_blocks(m) if blocks is None else blocks)]
    factored = [(cols, *np.linalg.svd(_stacks(m, rows, cols))[1:]) for rows, cols in pairs]
    top = max((float(sv.max()) for _, sv, _ in factored if sv.size), default=0.0)
    parts = []
    for col_idx, sv, vh in factored:
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
