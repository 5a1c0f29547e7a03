"""Matrix kernel: products, traces, exponentials, kernels, predicates."""

import resource

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from balance_lab import kernel
from balance_lab.couplings import Coupling, diagonal_coupling, extract_channel
from balance_lab.kernel import (
    GATHER_COST,
    _factor,
    _fix_phases,
    _invariant_blocks,
    _relative_residuals,
    check_psd,
    close,
    eigenvalues,
    frob_distance,
    frob_norm,
    is_psd,
    kron,
    mat_exp,
    matrix_from_json,
    matrix_to_json,
    matrix_unit,
    nullspace,
    partial_trace,
    relative_residual,
    deterministic_eigh,
    vec,
    unvec,
)
from balance_lab.lindblad import build_generator, cycle_generator, scenario_build, standard_grid
from balance_lab.states import new_faithful_state

from conftest import (
    assert_same_spectrum,
    check_psd_dense,
    fix_phases_loop,
    invariant_blocks_reference,
    kernel_projector,
    kron_entry_oracle,
    make_spec,
    mpmath_exp_oracle,
    nullspace_dense,
    partial_trace_oracle,
    probe_like_triples,
    random_matrix,
    random_psd,
    rng,
    taylor_exp_oracle,
)


class TestKron:
    def test_identity(self):
        assert_allclose(kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_diagonal(self):
        assert_allclose(kron(np.diag([1, 2]), np.diag([3.0])), np.diag([3.0, 6.0]))

    def test_matrix_units_against_index_oracle(self):
        a = matrix_unit(2, 0, 1)
        b = matrix_unit(2, 1, 0)
        assert_allclose(kron(a, b), kron_entry_oracle(a, b))

    def test_random_against_index_oracle(self):
        a = random_matrix(3, 2, seed=11)
        b = random_matrix(2, 4, seed=12)
        assert_allclose(kron(a, b), kron_entry_oracle(a, b), atol=1e-14)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_mixed_product_law(self, seed):
        a, b = random_matrix(2, seed=seed), random_matrix(3, seed=seed + 1)
        c, d = random_matrix(2, seed=seed + 2), random_matrix(3, seed=seed + 3)
        lhs = kron(a, b) @ kron(c, d)
        rhs = kron(a @ c, b @ d)
        assert frob_distance(lhs, rhs) <= 1e-12 * max(1.0, np.linalg.norm(lhs))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_associativity(self, seed):
        a, b, c = (random_matrix(2, seed=seed + i) for i in range(3))
        assert frob_distance(kron(kron(a, b), c), kron(a, kron(b, c))) <= 1e-12 * 100


class TestPartialTrace:
    def test_product_state(self):
        rho_a = random_psd(2, seed=1)
        rho_a /= np.trace(rho_a)
        rho_b = random_psd(3, seed=2)
        rho_b /= np.trace(rho_b)
        assert_allclose(
            partial_trace(kron(rho_a, rho_b), (2, 3), "second"), rho_a, atol=1e-13
        )
        assert_allclose(
            partial_trace(kron(rho_a, rho_b), (2, 3), "first"), rho_b, atol=1e-13
        )

    def test_entangled_vector_marginal(self):
        # Omega = sum sqrt(p_q) e_q (x) e_q reduces to diag(p) on either side
        p = np.array([0.2, 0.3, 0.5])
        om = np.zeros(9, dtype=complex)
        om[[0, 4, 8]] = np.sqrt(p)
        proj = np.outer(om, om.conj())
        assert_allclose(partial_trace(proj, (3, 3), "second"), np.diag(p), atol=1e-14)
        assert_allclose(partial_trace(proj, (3, 3), "first"), np.diag(p), atol=1e-14)

    def test_random_against_index_oracle(self):
        m = random_psd(4, seed=5)  # on C^2 (x) C^2
        for side in ("first", "second"):
            assert_allclose(
                partial_trace(m, (2, 2), side),
                partial_trace_oracle(m, (2, 2), side),
                atol=1e-13,
            )

    def test_trace_preserved(self):
        m = random_matrix(6, seed=9)
        for side, dims in (("first", (2, 3)), ("second", (3, 2))):
            assert abs(np.trace(partial_trace(m, dims, side)) - np.trace(m)) <= 1e-12

    def test_bad_factorization(self):
        with pytest.raises(ValueError, match="bad factorization"):
            partial_trace(np.eye(5), (2, 3), "first")


class TestMatExp:
    def test_zero(self):
        assert_allclose(mat_exp(np.zeros((3, 3))), np.eye(3))

    def test_diagonal(self):
        d = np.array([0.3, -1.0, 2.0])
        assert_allclose(mat_exp(np.diag(d)), np.diag(np.exp(d)), rtol=1e-12)

    def test_against_taylor_oracle(self):
        m = random_matrix(4, seed=3)
        m *= 10.0 / np.linalg.norm(m, 2)
        x, y = mat_exp(m), taylor_exp_oracle(m)
        assert frob_distance(x, y) / np.linalg.norm(y) <= 1e-10

    def test_inverse_property(self):
        m = random_matrix(5, seed=7)
        m *= 5.0 / np.linalg.norm(m, 2)
        assert frob_distance(mat_exp(m) @ mat_exp(-m), np.eye(5)) <= 1e-9


def block_diagonal_stack(blocks):
    """The block-diagonal matrix of equal-sized blocks, the index of each
    block, and the split that hands mat_exp all of them as one stack."""
    k = blocks[0].shape[0]
    m = np.zeros((k * len(blocks),) * 2, dtype=complex)
    idx = [np.arange(i * k, (i + 1) * k) for i in range(len(blocks))]
    for ix, b in zip(idx, blocks):
        m[np.ix_(ix, ix)] = b
    return m, idx, [np.stack(idx)]


def scaled_to_norm(a, norm):
    return a * (norm / np.abs(a).sum(axis=0).max())


class TestPadeStacks:
    """mat_exp takes each stack of equal-sized blocks in one batched pass of
    scaling, the [13/13] Pade approximant and squaring, each slice with its
    own scaling from its own 1-norm."""

    NORMS = (1e-3, 1e-1, 1.0, 10.0, 1e2, 1e3)

    def test_each_slice_has_the_bits_of_its_own_call(self):
        # mixed norms, so that the slices take different numbers of squarings
        blocks = [scaled_to_norm(random_matrix(5, seed=60 + i), x)
                  for i, x in enumerate(self.NORMS)]
        blocks += [np.diag(random_matrix(5, 1, seed=70)[:, 0]), np.zeros((5, 5), dtype=complex)]
        m, idx, split = block_diagonal_stack(blocks)
        x = mat_exp(m, split)
        for ix, b in zip(idx, blocks):
            assert mat_exp(b).tobytes() == x[np.ix_(ix, ix)].tobytes()
        # and in any order of the stack
        order = np.random.default_rng(71).permutation(len(blocks))
        m2, idx2, split2 = block_diagonal_stack([blocks[i] for i in order])
        x2 = mat_exp(m2, split2)
        for ix, i in zip(idx2, order):
            assert x2[np.ix_(ix, ix)].tobytes() == x[np.ix_(idx[i], idx[i])].tobytes()

    def test_random_generators_match_scipy_and_taylor(self):
        # dense 9 x 9 generators at n = 3; e^L is a channel, so its size stays
        # near 1 at every scale.  The Taylor oracle's own error passes 1e-13
        # above a 1-norm of about 10 (scipy and it part by up to 7e-13 at
        # 1e3 on such generators), so it is compared up to there; the
        # 40-digit reference holds at every norm, up to 1e3.
        for seed in range(4):
            gens = []
            for i, norm in enumerate(self.NORMS):
                g = rng(100 * seed + i)
                jumps = [random_matrix(3, seed=1000 * seed + 10 * i + j) for j in range(2)]
                h = g.normal(size=(3, 3))
                gens.append(scaled_to_norm(build_generator(jumps, h + h.T).superoperator, norm))
            m, idx, split = block_diagonal_stack(gens)
            x = mat_exp(m, split)
            for ix, a, norm in zip(idx, gens, self.NORMS):
                refs = [scipy.linalg.expm(a), mpmath_exp_oracle(a)]
                refs += [taylor_exp_oracle(a)] if norm <= 10 else []
                for ref in refs:
                    assert frob_distance(x[np.ix_(ix, ix)], ref) <= 1e-13 * np.linalg.norm(ref)

    def test_random_dense_matches_scipy_and_taylor(self):
        # scipy and the Taylor oracle up to a 1-norm of 10, the 40-digit
        # reference up to 1e3 (scipy's own error nears 1e-13 above 10).
        # Entries reach 1e166 at 1e3, so both sides are divided by the
        # largest one, which keeps the sums of squares finite
        for seed in range(4):
            blocks = [scaled_to_norm(random_matrix(6, seed=200 + 10 * seed + i), x)
                      for i, x in enumerate(self.NORMS)]
            m, idx, split = block_diagonal_stack(blocks)
            x = mat_exp(m, split)
            for ix, a, norm in zip(idx, blocks, self.NORMS):
                refs = [mpmath_exp_oracle(a)]
                refs += [scipy.linalg.expm(a), taylor_exp_oracle(a)] if norm <= 10 else []
                for ref in refs:
                    top = np.abs(ref).max()
                    got, ref = x[np.ix_(ix, ix)] / top, ref / top
                    assert frob_distance(got, ref) <= 1e-13 * np.linalg.norm(ref)

    @pytest.mark.parametrize("lam", [-1.0, 0.5j, -30.0, 2.0])
    def test_jordan_block(self, lam):
        # far from normal: lam 1 + N with N nilpotent, 1 on the first and
        # 0.3 on the second superdiagonal
        k = 8
        a = lam * np.eye(k) + np.eye(k, k=1) + 0.3 * np.eye(k, k=2)
        x = mat_exp(a)
        for ref in (scipy.linalg.expm(a), taylor_exp_oracle(a), mpmath_exp_oracle(a)):
            assert frob_distance(x, ref) <= 1e-13 * np.linalg.norm(ref)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("entry", [(1, 2), (3, 3)])
    def test_non_finite_slice_is_nan(self, monkeypatch, value, entry):
        a = random_matrix(4, seed=80)
        bad = a.copy()
        bad[entry] = value
        m, idx, split = block_diagonal_stack([a, bad])
        seen = []
        pade = kernel._pade13
        monkeypatch.setattr(kernel, "_pade13", lambda a, norm: seen.append(a) or pade(a, norm))
        x = mat_exp(m, split)
        # as scipy gives it; the slice never reaches the Pade pass, so no
        # squaring count is read off it
        assert np.isnan(scipy.linalg.expm(bad)).all()
        assert np.isnan(x[np.ix_(idx[1], idx[1])]).all()
        assert x[np.ix_(idx[0], idx[0])].tobytes() == mat_exp(a).tobytes()
        assert all(np.isfinite(s).all() for s in seen)

    def test_non_finite_diagonal_slice_is_its_exponential(self):
        d = np.diag([np.inf, -np.inf, np.nan, 0.5]).astype(complex)
        # as four 1 x 1 blocks, scanned, and as one 4 x 4 slice
        for blocks in (None, [np.arange(4)[None]]):
            assert np.array_equal(mat_exp(d, blocks), scipy.linalg.expm(d), equal_nan=True)

    def test_huge_norms(self, monkeypatch):
        a = random_matrix(4, seed=81)
        # a 1-norm of 1e300 takes about 1000 squarings, which overflow to NaN
        # as scipy's do
        huge = scaled_to_norm(a, 1e300)
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.isnan(scipy.linalg.expm(huge)).all()
            assert np.isnan(mat_exp(huge)).all()
        # a 1-norm that overflows with finite entries is NaN, with no pass
        monkeypatch.setattr(kernel, "_pade13", None)
        with np.errstate(over="ignore"):
            assert np.isnan(mat_exp(np.full((3, 3), 1e308 + 0j))).all()


GRID_TRIPLES = [scenario_build(spec) for spec in standard_grid()]
# the superoperators of both generators of every standard_grid scenario
GRID_GENERATORS = [
    sys.dynamics.superoperator for t in GRID_TRIPLES for sys in (t.system_a, t.system_b)
]


PROBE_TRIPLES = probe_like_triples()


def split_block_diagonal(sizes, seed):
    """A dense-blocked block-diagonal matrix, its blocks of the given sizes."""
    return scipy.linalg.block_diag(*(random_matrix(k, seed=seed + i) for i, k in enumerate(sizes)))


class TestInvariantBlocks:
    """mat_exp and eigenvalues work one block of the symmetrized exact-zero
    pattern at a time; a single block is a one-slice stack, bit-identical to
    the dense call."""

    def test_dense_matrix_is_the_single_dense_call(self):
        m = random_matrix(12, seed=21)
        assert len(_invariant_blocks(m)) == 1
        x = mat_exp(m)
        assert np.array_equal(x, kernel._exp_stack(m[None])[0])
        for ref in (scipy.linalg.expm(m), taylor_exp_oracle(m)):
            assert frob_distance(x, ref) <= 1e-13 * np.linalg.norm(ref)
        assert np.array_equal(eigenvalues(m), np.linalg.eigvals(m))

    def test_grid_generators_split(self):
        # otherwise the tests below would only see a single block
        for s in GRID_GENERATORS:
            assert sum(idx.shape[0] for idx in _invariant_blocks(s)) > 1

    @pytest.mark.parametrize("t", [0.1, 1.0, 1000.0])
    def test_grid_generators_match_dense_expm(self, t):
        for s in GRID_GENERATORS:
            x, m = mat_exp(t * s), t * s
            refs = [scipy.linalg.expm(m)] + ([taylor_exp_oracle(m)] if t <= 1.0 else [])
            for ref in refs:
                assert frob_distance(x, ref) <= 1e-13 * np.linalg.norm(ref)

    def test_permutation_covariance(self):
        m = split_block_diagonal((1, 3, 3, 4, 2), seed=30)
        p = np.eye(13)[np.random.default_rng(31).permutation(13)]
        lhs, rhs = mat_exp(p @ m @ p.T), p @ mat_exp(m) @ p.T
        assert frob_distance(lhs, rhs) <= 1e-14 * np.linalg.norm(rhs)

    @pytest.mark.parametrize("entry", [(1, 4), (4, 1)])
    def test_one_way_coupling_joins_blocks(self, entry):
        m = split_block_diagonal((3, 2), seed=40)
        m[entry] = 0.7
        assert m[entry[::-1]] == 0
        ref = scipy.linalg.expm(m)
        assert frob_distance(mat_exp(m), ref) <= 1e-13 * np.linalg.norm(ref)
        assert_same_spectrum(eigenvalues(m), np.linalg.eigvals(m), 1e-12)

    def test_diagonal_and_zero(self):
        d = np.array([0.3, -1.0, 2.0, 0.5j, 0.0])
        assert np.array_equal(mat_exp(np.diag(d)), np.diag(np.exp(d)))
        assert np.array_equal(np.sort_complex(eigenvalues(np.diag(d))), np.sort_complex(d))
        assert np.array_equal(mat_exp(np.zeros((5, 5))), np.eye(5))
        assert np.array_equal(eigenvalues(np.zeros((5, 5))), np.zeros(5))

    def test_eigenvalues_match_dense(self):
        for s in GRID_GENERATORS + [random_matrix(20, seed=50)]:
            assert_same_spectrum(eigenvalues(s), np.linalg.eigvals(s), 1e-12)


def assert_split_matches(m):
    """The split of m's leading square part has the reference's index
    arrays, shapes and dtypes, in the same group order."""
    n = min(m.shape)
    got, ref = _invariant_blocks(m[:n, :n]), invariant_blocks_reference(m[:n, :n])
    assert len(got) == len(ref)
    for a, b in zip(got, ref):
        assert a.shape == b.shape and a.dtype == b.dtype
        assert np.array_equal(a, b)


class TestOneGrouping:
    """The exact-zero split groups its component labels by size, and gives
    the index arrays, in the group order, of the grouping it replaced."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 9),
        st.integers(1, 9),
        st.sampled_from([0.0, 0.05, 0.15, 0.3, 0.6, 1.0]),
        st.booleans(),
        st.integers(0, 10_000),
    )
    @example(1, 1, 0.0, False, 0)
    @example(1, 1, 1.0, False, 0)
    @example(6, 4, 0.0, False, 0)
    @example(4, 7, 1.0, True, 1)
    def test_random_patterns(self, rows, cols, density, blank, seed):
        g = rng(seed)
        m = np.where(g.random((rows, cols)) < density, g.normal(size=(rows, cols)), 0.0)
        if blank:
            m[g.integers(rows)] = 0.0
            m[:, g.integers(cols)] = 0.0
        assert_split_matches(m)
        assert_split_matches(m.T)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), min_size=1, max_size=7),
        st.integers(0, 10_000),
    )
    def test_permuted_block_diagonal(self, shapes, seed):
        g = rng(seed)
        rows, cols = sum(r for r, _ in shapes), sum(c for _, c in shapes)
        assume(rows and cols)
        m = np.zeros((rows, cols))
        i = j = 0
        for r, c in shapes:
            m[i : i + r, j : j + c] = g.normal(size=(r, c))
            i, j = i + r, j + c
        assert_split_matches(m[g.permutation(rows)][:, g.permutation(cols)])
        sizes = [r for r, _ in shapes if r]
        h = scipy.linalg.block_diag(*(g.normal(size=(r, r)) for r in sizes))
        p = g.permutation(len(h))
        assert_split_matches(h[p][:, p])

    def test_grid_generators(self):
        for s in GRID_GENERATORS:
            assert_split_matches(s)


class TestSupport:
    """_factor's support: the rows and the columns that hold a nonzero,
    slice(None) for all of them, and the block they cut out of m."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 9),
        st.integers(1, 9),
        st.sampled_from([0.0, 0.05, 0.15, 0.3, 0.6, 1.0]),
        st.integers(0, 10_000),
    )
    def test_random_patterns(self, rows, cols, density, seed):
        g = rng(seed)
        # real, imaginary or complex entries, so that a zero real part is not a zero
        m = np.where(g.random((rows, cols)) < density, g.normal(size=(rows, cols)), 0.0)
        m = m * g.choice([1.0, 1j, 1.0 + 1j], size=(rows, cols))
        f = _factor(m)
        r, c = f.rows, f.cols
        nonzero = m != 0
        for index, hit in ((r, nonzero.any(axis=1)), (c, nonzero.any(axis=0))):
            if hit.all():
                assert index == slice(None)
            else:
                assert np.array_equal(index, np.flatnonzero(hit))
        # everything outside the support is zero
        assert np.count_nonzero(m[r][:, c]) == np.count_nonzero(m)
        # at most 9 columns or rows: both sides stay on BLAS, with the block
        assert f.left is None and f.right is None and f.shape == m.shape
        assert f.block.tobytes() == m[r][:, c].tobytes()

    def test_negative_zero_is_zero(self):
        m = np.array([[1.0, -0.0], [complex(-0.0, -0.0), 0.0]])
        f = _factor(m)
        assert np.array_equal(f.rows, [0]) and np.array_equal(f.cols, [0])

    def test_full_and_empty(self):
        f = _factor(np.ones((2, 5)))
        assert (f.rows, f.cols) == (slice(None), slice(None))
        f = _factor(np.zeros((3, 4)))
        assert f.rows.size == 0 and f.cols.size == 0 and f.block.shape == (0, 0)


def row_sparse(g, rows: int, cols: int, k_max: int, kind: str) -> np.ndarray:
    """A rows x cols matrix with 0 to k_max nonzeros in a row, at random
    columns: real entries of dtype float ("real"), real entries of dtype
    complex ("real-valued"), or complex entries ("complex")."""
    m = np.zeros((rows, cols), dtype=float if kind == "real" else complex)
    for i in range(rows):
        k = int(g.integers(0, k_max + 1))
        values = g.normal(size=k) + (1j * g.normal(size=k) if kind == "complex" else 0.0)
        m[i, g.choice(cols, size=k, replace=False)] = values
    return m


def other_factor(g, rows: int, cols: int, kind: str) -> np.ndarray:
    x = g.normal(size=(rows, cols))
    return x if kind == "real" else x + 1j * g.normal(size=(rows, cols))


def permutation_sparse(g, n: int, kind: str) -> np.ndarray:
    """An n x n weighted permutation matrix, entries as in row_sparse."""
    m = np.zeros((n, n), dtype=float if kind == "real" else complex)
    values = g.normal(size=n) + (1j * g.normal(size=n) if kind == "complex" else 0.0)
    m[np.arange(n), g.permutation(n)] = values
    return m


@pytest.fixture
def gather_all(monkeypatch):
    """A cost rule that gathers every product, for factors whose support
    block is too small for the real one."""
    monkeypatch.setattr(kernel, "GATHER_COST", 1)


class TestRowGather:
    """Products with a _factor by row gather against the dense BLAS product
    restricted to the support.  A row with one real nonzero gives the bits of
    the sign-normalized product; a complex one, and a row with more
    nonzeros, are within 1e-15 of |m| |x|: numpy's complex multiply fuses
    its two products, and BLAS rounds a complex product either way (with
    OpenBLAS 0.3.31, a 24 x 128 by 128 x 50 product differed from the two
    rounded products and one rounded sum in 1.5 % of its entries, a
    60 x 128 by 128 x 24 one in none)."""

    KINDS = ["real", "real-valued", "complex"]

    @staticmethod
    def assert_matches(got, want, size, count, kind):
        # a gather keeps the -0.0 of a product where BLAS sums it to +0.0
        exact = count <= (0 if kind == "complex" else 1)
        assert (got[exact] + 0.0).tobytes() == (want[exact] + 0.0).tobytes()
        assert np.all(np.abs(got - want)[~exact] <= 1e-15 * size[~exact])

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("k_max", [1, 2, 4])
    def test_left_product(self, kind, k_max, gather_all):
        g = rng(10 * k_max + len(kind))
        m = row_sparse(g, 60, GATHER_COST * k_max, k_max, kind)
        x = other_factor(g, m.shape[1], 24, kind)
        f = _factor(m)
        assert f.left is not None and f.left[0].shape == (np.count_nonzero(m.any(axis=1)), k_max)
        assert (f.left[1].dtype.kind == "c") == (kind != "real")
        r = f.rows
        count = np.count_nonzero(m, axis=1)[r]
        self.assert_matches(f @ x[f.cols], (m @ x)[r], (np.abs(m) @ np.abs(x))[r], count, kind)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("k_max", [1, 2, 4])
    def test_right_product(self, kind, k_max, gather_all):
        g = rng(20 * k_max + len(kind))
        m = row_sparse(g, 50, GATHER_COST * k_max, k_max, kind).T
        x = other_factor(g, 24, m.shape[0], kind)
        f = _factor(m)
        c = f.cols
        count = np.count_nonzero(m, axis=0)[c]
        got = x[:, f.rows] @ f
        self.assert_matches(got.T, (x @ m)[:, c].T, (np.abs(x) @ np.abs(m))[:, c].T, count, kind)

    def test_real_factor_complex_entries(self):
        # the gathered rows of a real x take the complex type of the entries
        g = rng(6)
        m = permutation_sparse(g, GATHER_COST, "complex")
        x = other_factor(g, GATHER_COST, 9, "real")
        f = _factor(m)
        assert f.block is None
        got = f @ x
        assert got.dtype == complex
        assert (got + 0.0).tobytes() == (m @ x + 0.0).tobytes()
        assert (x.T @ f + 0.0).tobytes() == (x.T @ m + 0.0).tobytes()

    def test_vector_times_matrix(self, gather_all):
        g = rng(3)
        m = row_sparse(g, 40, GATHER_COST, 1, "real-valued").T
        v = other_factor(g, 1, m.shape[0], "complex")[0]
        f = _factor(m)
        assert f.right is not None
        assert (v[f.rows] @ f + 0.0).tobytes() == ((v @ m)[f.cols] + 0.0).tobytes()

    @pytest.mark.parametrize("kind", ["real", "real-valued"])
    def test_factor_products(self, kind):
        """A _factor takes every product, its absolute value and its row
        weighing (by a column, twice) by gather, with the bits of the dense
        forms."""
        g = rng(len(kind))
        n = 2 * GATHER_COST
        m = permutation_sparse(g, n, kind)
        f = _factor(m)
        assert f.block is None and f.left is not None and f.right is not None
        x = other_factor(g, n, n, kind)
        first, then = g.random(n) + 0.5, g.random(n) + 0.5
        weighed = m * first[:, None] * then[:, None]
        for got, want in [
            (f @ x, m @ x),
            (x @ f, x @ m),
            (abs(f) @ np.abs(x), np.abs(m) @ np.abs(x)),
            (np.abs(x) @ abs(f), np.abs(x) @ np.abs(m)),
            (f * first[:, None] * then[:, None] @ x, weighed @ x),
            (x @ (f * first[:, None] * then[:, None]), x @ weighed),
        ]:
            assert (got + 0.0).tobytes() == (want + 0.0).tobytes()

    def test_blas_side_keeps_the_dense_matrix(self):
        # one nonzero per row, on every column, but two on most columns:
        # m @ x by gather, x @ m by BLAS (its inner dimension n is below
        # 2 * GATHER_COST), with the dense block, here m itself
        n = 2 * GATHER_COST - 2
        m = np.zeros((n, GATHER_COST), dtype=complex)
        m[np.arange(n), np.arange(n) % GATHER_COST] = 1.0 + np.arange(n)
        f = _factor(m)
        assert f.left is not None and f.right is None
        assert f.block.tobytes() == m.tobytes() and np.shares_memory(f.block, m)
        x = other_factor(rng(4), GATHER_COST, 5, "complex")
        y = other_factor(rng(5), 5, n, "complex")
        assert (f @ x + 0.0).tobytes() == (m @ x + 0.0).tobytes()
        assert (y @ f).tobytes() == (y @ m).tobytes()

    @pytest.mark.parametrize("kind", KINDS)
    def test_forms_built_on_first_use(self, kind):
        """Both forms are built with the factor and kept by a factor mapped
        from it; the column form, read from the row-major nonzeros by one
        stable sort by column, is the row form of m.T."""
        g = rng(7 + len(kind))
        n = 2 * GATHER_COST
        m = permutation_sparse(g, n, kind) + permutation_sparse(g, n, kind)
        f = _factor(m)
        x = other_factor(g, 3, n, kind)
        assert_allclose(x @ f, x @ m, rtol=0, atol=1e-14)
        assert_allclose(f @ x.T, m @ x.T, rtol=0, atol=1e-14)
        weighed = abs(f) * (g.random(n) + 0.5)[:, None]
        assert weighed.left[0] is f.left[0] and weighed.right[0] is f.right[0]
        for got, want in zip(f.right, _factor(np.ascontiguousarray(m.T)).left):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_cost_rule(self, k):
        """Gather exactly when k * GATHER_COST <= the inner dimension, the
        side of the support block that the product sums over."""
        for inner in (k * GATHER_COST - 1, k * GATHER_COST):
            # k nonzeros in every row and every column, on a circulant pattern
            m = np.zeros((inner, inner), dtype=complex)
            i = np.arange(inner)
            for j in range(k):
                m[i, (i + j) % inner] = 1.0
            f = _factor(m)
            gathered = inner >= k * GATHER_COST
            assert (f.left is not None, f.right is not None) == (gathered, gathered)
            assert (f.block is None) == gathered
        assert _factor(np.zeros((4, 4 * GATHER_COST))).left is None

    def test_grid_on_blas_and_16_cycle_gathered(self):
        """Every pairing matrix of the built-in grid stays on BLAS; that of an
        entangled 16-cycle is gathered on both sides, as is the diagonal
        coupling's at n = 12."""
        for spec in standard_grid():
            f = _factor(scenario_build(spec).coupling.pairing())
            assert f.left is None and f.right is None
        g = np.linspace(-0.9, 0.8, 16)
        spec = make_spec(types=("entangled",), partition=((0,),), k=(0.4,), l=(0.4,),
                         g=tuple(g), h=tuple(g + 0.1), cycles=(16,), block_probs=(1.0,))
        f = _factor(scenario_build(spec).coupling.pairing())
        assert f.left is not None and f.right is not None and f.block is None
        assert f.left[0].shape == f.right[0].shape == (256, 1)
        state = new_faithful_state(np.arange(1, 13) / 78)
        f = _factor(diagonal_coupling(state).pairing())
        assert f.left is not None and f.right is not None


class TestNullspace:
    def test_identity_empty(self):
        assert nullspace(np.eye(4)) == []

    def test_zero_full(self):
        basis = nullspace(np.zeros((3, 3)))
        assert len(basis) == 3
        gram = np.array([[u.conj() @ v for v in basis] for u in basis])
        assert_allclose(gram, np.eye(3), atol=1e-12)

    def test_cycle_generator_kernel_contains_identity(self):
        gen = cycle_generator((3,), [0.3])
        one = vec(np.eye(3, dtype=complex))
        # the defining property, checked directly: L(1) = 0
        assert np.linalg.norm(gen.superoperator @ one) <= 1e-12
        basis = nullspace(gen.superoperator)
        coeffs = np.array([b.conj() @ one for b in basis])
        residual = one - sum(c * b for c, b in zip(coeffs, basis))
        assert np.linalg.norm(residual) <= 1e-9


def two_by_three_coupling() -> Coupling:
    """A classical coupling of a qubit and a qutrit, kappa = diag of the
    joint distribution [[0.2, 0.2, 0], [0, 0.1, 0.5]]: S_E is 9 x 4."""
    joint = np.array([[0.2, 0.2, 0.0], [0.0, 0.1, 0.5]])
    return Coupling(
        kappa=np.diag(joint.ravel()).astype(complex),
        state_a=new_faithful_state(joint.sum(axis=1)),
        state_b=new_faithful_state(joint.sum(axis=0)),
    )


def kernel_operators():
    """Matrices whose kernel a probe takes: every grid and probe-like
    generator L, and S - 1 for its channel semigroup(L, 1)."""
    gens = GRID_GENERATORS + [
        sys.dynamics.superoperator for t in PROBE_TRIPLES for sys in (t.system_a, t.system_b)
    ]
    return gens + [mat_exp(s) - np.eye(len(s)) for s in gens]


def psd_inputs():
    """The couplings' kappa and the Choi matrices of their channels."""
    couplings = [t.coupling for t in GRID_TRIPLES + PROBE_TRIPLES]
    return [w.kappa for w in couplings] + [extract_channel(w).choi for w in couplings]


def extracted_superoperators():
    """S_E for every grid and probe-like coupling and the 2 x 3 one."""
    couplings = [t.coupling for t in GRID_TRIPLES + PROBE_TRIPLES] + [two_by_three_coupling()]
    return [extract_channel(w).superoperator for w in couplings]


KERNEL_OPERATORS = kernel_operators()
PSD_INPUTS = psd_inputs()
EXTRACTED = extracted_superoperators()
SCALES = (1e8, 1.0, 1e-3, 1e-9, 1e-12)


def below_psd(m):
    """m shifted down by 1e-3 max |eigenvalue| below its smallest eigenvalue."""
    evals = np.linalg.eigvalsh(m)
    return m - (evals[0] + 1e-3 * np.max(np.abs(evals))) * np.eye(len(m))


def assert_same_kernel(m, tol=1e-9):
    got, ref = nullspace(m, tol), nullspace_dense(m, tol)
    assert len(got) == len(ref)
    n = m.shape[1]
    assert np.linalg.norm(kernel_projector(got, n) - kernel_projector(ref, n), 2) <= 1e-12


def assert_same_psd(m, tol=1e-9):
    (ok, low), (ref_ok, ref_low) = check_psd(m, tol), check_psd_dense(m, tol)
    assert ok == ref_ok
    scale = np.max(np.abs(np.linalg.eigvalsh((m + m.conj().T) / 2)))
    assert abs(low - ref_low) <= 10 * len(m) ** 2 * np.finfo(float).eps * scale


class TestBlockwiseFactorizations:
    """nullspace and check_psd (its Hermitian gate too) work one block of
    the symmetrized exact-zero pattern at a time, each cut against the whole
    matrix's scale; a single block, and any matrix that is not square, is
    the dense call, bit for bit.  The references are the dense
    factorizations they replaced."""

    @pytest.mark.parametrize("shape", [(12, 12), (7, 11), (11, 7), (9, 4), (3, 4)])
    def test_single_block_is_the_dense_call(self, shape):
        m = random_matrix(*shape, seed=60)
        m[:, 0] = m[:, 1]  # rank-deficient, and still one block
        assert shape[0] != shape[1] or len(_invariant_blocks(m)) == 1
        got, ref = nullspace(m), nullspace_dense(m)
        assert len(got) == len(ref) >= 1
        assert all(x.tobytes() == y.tobytes() for x, y in zip(got, ref))
        assert len(got) == m.shape[1] - np.linalg.matrix_rank(m, rtol=1e-9)

    def test_single_block_psd_is_the_dense_call(self):
        for h in (random_psd(12, seed=61), random_psd(12, seed=61) - 5.0 * np.eye(12)):
            assert len(_invariant_blocks(h)) == 1
            assert check_psd(h) == check_psd_dense(h)

    def test_probe_inputs_split(self):
        # otherwise the comparisons below would only see the dense path
        square = [s_e for s_e in EXTRACTED if s_e.shape[0] == s_e.shape[1]]
        assert len(square) == len(EXTRACTED) - 1
        for m in KERNEL_OPERATORS + square + PSD_INPUTS:
            assert sum(idx.shape[0] for idx in _invariant_blocks(m)) > 1

    def test_kernels_match_dense(self):
        for m in KERNEL_OPERATORS:
            assert_same_kernel(m)

    def test_held_split_changes_no_bit(self):
        for m in KERNEL_OPERATORS[::4]:
            blocks = [idx.copy() for idx in _invariant_blocks(m)]
            got, ref = nullspace(m, blocks=blocks), nullspace(m)
            assert len(got) == len(ref) >= 1
            assert all(x.tobytes() == y.tobytes() for x, y in zip(got, ref))

    def test_psd_matches_dense(self):
        for m in PSD_INPUTS:
            assert_same_psd(m)
            assert_same_psd(below_psd(m))
            assert not check_psd(below_psd(m))[0]

    def test_rank_matches_matrix_rank(self):
        assert EXTRACTED[-1].shape == (9, 4)
        for s_e in EXTRACTED:
            assert len(nullspace(s_e)) == s_e.shape[1] - np.linalg.matrix_rank(s_e, rtol=1e-9)
        assert len(nullspace(EXTRACTED[-1])) == 4 - 2  # E(E_ij) = 0 off the diagonal
        for m in (np.zeros((2, 3)), np.zeros((3, 2))):
            assert len(nullspace(m)) == m.shape[1] - np.linalg.matrix_rank(m, rtol=1e-9) == m.shape[1]

    def test_cut_is_global(self):
        # a block of size 1e-12 is numerically zero next to one of size 1:
        # judged by its own scale, it would count as full rank and negative
        big, small = random_matrix(3, 4, seed=62), random_matrix(2, 2, seed=63)
        m = scipy.linalg.block_diag(big, 1e-12 * small)
        assert len(nullspace(m)) == m.shape[1] - np.linalg.matrix_rank(m, rtol=1e-9) == 6 - 3
        assert_same_kernel(m)
        h = scipy.linalg.block_diag(random_psd(3, seed=64), -1e-12 * random_psd(2, seed=65))
        assert check_psd(h)[0] and check_psd_dense(h)[0]
        assert_same_psd(h)

    def test_zero_rows_and_columns(self):
        # index 4 is isolated; the zero columns 0 and 2 each share a block
        # with the one nonzero column of their row
        m = np.zeros((5, 5), dtype=complex)
        m[0, 1], m[2, 3], m[4, 4] = 2.0, 1.0, 3.0
        assert [idx.tolist() for idx in _invariant_blocks(m)] == [[[4]], [[0, 1], [2, 3]]]
        assert len(nullspace(m)) == m.shape[1] - np.linalg.matrix_rank(m, rtol=1e-9) == 5 - 3
        assert_same_kernel(m)
        assert [np.flatnonzero(v).tolist() for v in nullspace(m)] == [[0], [2]]

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4)),
            min_size=1, max_size=6,
        ),
        st.integers(0, 10_000),
    )
    def test_permuted_block_diagonal(self, blocks, seed):
        g = rng(seed)
        shapes = [(r, c, min(k, r, c)) for r, c, k in blocks]
        rows, cols = sum(r for r, _, _ in shapes), sum(c for _, c, _ in shapes)
        assume(rows and cols)
        m = np.zeros((rows, cols), dtype=complex)
        i = j = 0
        for r, c, k in shapes:
            a = g.normal(size=(r, k)) + 1j * g.normal(size=(r, k))
            b = g.normal(size=(k, c)) + 1j * g.normal(size=(k, c))
            m[i : i + r, j : j + c] = a @ b  # rank k
            i, j = i + r, j + c
        m = m[g.permutation(rows)][:, g.permutation(cols)]
        expected = sum(k for _, _, k in shapes)
        assert len(nullspace(m)) == m.shape[1] - np.linalg.matrix_rank(m, rtol=1e-9)
        assert len(nullspace(m)) == cols - expected
        assert_same_kernel(m)

        # a square one, one permutation on its rows and its columns: a block
        # of rank k > 0 is dense, and one of rank 0 is r isolated indices
        square = [(r, min(k, r)) for r, _, k in shapes if r]
        assume(square)
        q = scipy.linalg.block_diag(*(
            (g.normal(size=(r, k)) + 1j * g.normal(size=(r, k)))
            @ (g.normal(size=(k, r)) + 1j * g.normal(size=(k, r)))
            for r, k in square
        ))
        p = g.permutation(len(q))
        q = q[p][:, p]
        assert sum(idx.shape[0] for idx in _invariant_blocks(q)) == \
            sum(1 if k else r for r, k in square)
        assert len(nullspace(q)) == len(q) - sum(k for _, k in square)
        assert_same_kernel(q)

        # a Hermitian one, rank-deficient blocks and one of them negative
        sizes = [r for r, _ in square]
        h = np.zeros((sum(sizes),) * 2, dtype=complex)
        i = 0
        for r in sizes:
            a = g.normal(size=(r, r - 1)) + 1j * g.normal(size=(r, r - 1))
            h[i : i + r, i : i + r] = a @ a.conj().T
            i += r
        p = g.permutation(len(h))
        assert_same_psd(h[p][:, p])
        h[: sizes[0], : sizes[0]] -= 0.1 * np.eye(sizes[0])
        assert_same_psd(h[p][:, p])

    @pytest.mark.parametrize("c", SCALES)
    def test_rescaling_changes_no_verdict(self, c):
        for m in KERNEL_OPERATORS[::8]:
            assert len(nullspace(c * m)) == len(nullspace(m))
        for s_e in EXTRACTED:
            assert len(nullspace(c * s_e)) == len(nullspace(s_e)) == \
                s_e.shape[1] - np.linalg.matrix_rank(s_e, rtol=1e-9)
        for m in PSD_INPUTS[::8]:
            assert check_psd(c * m)[0] and not check_psd(c * below_psd(m))[0]

    @staticmethod
    def split_psd():
        """A Hermitian PSD matrix of three blocks (3, 4 and 2), permuted."""
        h = scipy.linalg.block_diag(random_psd(3, seed=66), random_psd(4, seed=67),
                                    random_psd(2, seed=68))
        p = rng(69).permutation(len(h))
        return h[p][:, p], p

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, complex(0.0, np.inf)])
    @pytest.mark.parametrize("where", ["off-diagonal", "diagonal"])
    def test_non_finite_fails_closed(self, value, where, monkeypatch):
        # a NaN residual, from a NaN entry or from inf - inf, fails the
        # Hermitian gate: no eigensolver sees the matrix
        def no_eigvalsh(*args, **kwargs):
            raise AssertionError("eigvalsh reached")

        dense = random_psd(6, seed=71)
        split, p = self.split_psd()
        # a pair of entries inside the second block of the split
        i, j = np.flatnonzero((p >= 3) & (p < 7))[:2]
        inputs = []
        for m, (a, b) in ((dense, (1, 4)), (split, (i, j))):
            if where == "diagonal":
                inputs.append(m.copy())
                inputs[-1][a, a] = value
                continue
            for mirrored in (False, True):  # alone, and with its adjoint entry
                inputs.append(m.copy())
                inputs[-1][a, b] = value
                if mirrored:
                    inputs[-1][b, a] = np.conj(value)
        # the entry stays inside its block: the split is still three blocks
        assert sorted(idx.shape[1] for idx in _invariant_blocks(inputs[-1])) == [2, 3, 4]
        for m in inputs:
            with monkeypatch.context() as patch:
                patch.setattr(np.linalg, "eigvalsh", no_eigvalsh)
                assert check_psd(m) == check_psd_dense(m) == (False, -np.inf)

    def test_zero_and_negative_scalar(self):
        for m in (np.zeros((5, 5)), np.zeros((1, 1))):
            assert check_psd(m) == check_psd_dense(m) == (True, 0.0)
        assert check_psd(np.array([[-1.0]])) == check_psd_dense(np.array([[-1.0]])) == (False, -1.0)
        assert check_psd(np.array([[2.0]])) == check_psd_dense(np.array([[2.0]])) == (True, 2.0)

    @pytest.mark.parametrize("planted", [0.5, 2.0, 10.0])
    def test_anti_hermitian_perturbation(self, planted):
        # ||m - m*||_F = planted * tol * ||m||_F, over the blocks of the
        # split alone, decides the gate as the dense residual does
        tol = 1e-9
        h, p = self.split_psd()
        a = np.zeros_like(h)
        for lo, hi in ((0, 3), (3, 7), (7, 9)):
            x = random_matrix(hi - lo, seed=72 + lo)
            a[lo:hi, lo:hi] = x - x.conj().T
        a = a[p][:, p]
        assert len(_invariant_blocks(h + a)) == 3
        # m - m* = 2 eps a, and ||m||^2 = ||h||^2 + eps^2 ||a||^2
        # (a Hermitian and an anti-Hermitian matrix are orthogonal)
        r = planted * tol
        eps = r * np.linalg.norm(h) / (np.linalg.norm(a) * np.sqrt(4 - r**2))
        m = h + eps * a
        ratio = np.linalg.norm(m - m.conj().T) / np.linalg.norm(m)
        assert ratio == pytest.approx(r, rel=1e-6)
        if planted < 1:
            assert check_psd(m, tol)[0]
            assert_same_psd(m, tol)
        else:
            assert check_psd(m, tol) == check_psd_dense(m, tol) == (False, -np.inf)


class TestFixPhases:
    """The vectorized phase fix equals the column loop it replaced, bit for
    bit, signs of zero included."""

    def columns(self):
        g = rng(70)
        z = g.normal(size=(6, 5)) + 1j * g.normal(size=(6, 5))
        a, b = 0.3, 0.4  # entries of equal magnitude: the first one is the pivot
        tied = np.array([[a + 1j * b, b - 1j * a, -a + 1j * b], [-b - 1j * a, a - 1j * b, 1j * a + b],
                         [b + 1j * a, -a - 1j * b, -b + 1j * a]])
        signed_zero = np.array([[complex(-0.0, -0.0), 0j], [complex(-0.0, 0.0), 0.5j],
                                [complex(0.0, -0.0), -0.0 - 0.5j]])
        mixed = z.copy()
        mixed[:, 1] = 0.0
        mixed[:, 3] = complex(-0.0, -0.0)
        return [z, tied, signed_zero, mixed, np.asfortranarray(mixed), z[:1], z[:, :1], z.T]

    def test_matches_loop(self):
        for v in self.columns():
            before = v.tobytes()
            got, ref = _fix_phases(v), fix_phases_loop(v)
            assert got.shape == ref.shape and got.tobytes() == ref.tobytes()
            assert v.tobytes() == before  # the input is left as it was

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 12), st.integers(1, 12), st.integers(0, 10_000))
    @example(1, 1, 0)
    @example(1, 2, 0)
    def test_random_matches_loop(self, n, m, seed):
        g = rng(seed)
        v = g.normal(size=(n, m)) + 1j * g.normal(size=(n, m))
        v[:, g.integers(0, m)] = 0.0
        assert _fix_phases(v).tobytes() == fix_phases_loop(v).tobytes()


class TestPredicates:
    def test_is_psd_identity(self):
        assert is_psd(np.eye(3))

    def test_is_psd_small_negative(self):
        assert not is_psd(np.diag([1.0, -1e-3]), 1e-10)

    def test_relative_residual_zero_over_zero(self):
        assert relative_residual(0.0, 0.0) == 0.0
        assert relative_residual(1e-300, 0.0) == np.inf
        assert relative_residual(3.0, 2.0) == 1.5

    def test_array_form_is_the_scalar_rule(self):
        # 0/0 = 0, x/0 = inf, and finite ratios from 1e-300 to 1e300 (and
        # over- and underflowing ones), bit for bit, entry by entry
        values = [0.0, 1e-300, 1e-200, 1e-9, 0.3, 1.0, 7.0, 1e9, 1e200, 1e300]
        res, scale = np.meshgrid(values, values, indexing="ij")
        got = _relative_residuals(res, scale)
        ref = np.array([[relative_residual(r, c) for c in values] for r in values])
        assert got.tobytes() == ref.tobytes()
        assert got[0, 0] == 0.0 and np.all(got[1:, 0] == np.inf)
        assert _relative_residuals(np.array(values), 0.0).tolist() == [0.0] + [np.inf] * 9

    @pytest.mark.parametrize("c", [1e8, 1e-3, 1e-12])
    def test_predicates_scale_free(self, c):
        # no floor at 1: a verdict on c * m is the verdict on m
        a = random_psd(4, seed=3)
        b = a + 1e-6 * random_matrix(4, seed=4)
        assert close(c * a, c * a * (1 + 1e-10)) and not close(c * a, c * b)
        assert close(np.zeros((2, 2)), np.zeros((2, 2)))
        shifted = a - (np.linalg.eigvalsh(a)[0] + 1e-3) * np.eye(4)
        assert is_psd(c * a) and not is_psd(c * shifted)
        gen = cycle_generator((3, 4), [0.3, 0.6]).superoperator
        assert len(nullspace(c * gen)) == len(nullspace(gen)) == 7

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_norms_past_the_overflow_of_the_squares(self):
        """Past about 1e154 an entry's square overflows numpy's sum of
        squares; the norm is rescaled and stays finite, so a gap of 1e-7
        relative is not close, however large the entries."""
        a = np.full((3, 3), 1e160, dtype=complex)
        assert frob_norm(a) == pytest.approx(3e160, rel=1e-15)
        assert frob_distance(a, -a) == pytest.approx(6e160, rel=1e-15)
        assert not close(a, a + 1e153) and close(a, a * (1 + 1e-12))
        assert frob_norm(np.array([1e308, -1e308j])) == pytest.approx(np.sqrt(2) * 1e308, rel=1e-15)
        # a norm past the largest float, and an entry that is not finite,
        # keep numpy's value
        assert frob_norm(np.full(4, 1e308)) == np.inf
        assert frob_norm(np.array([np.inf, 1.0])) == np.inf
        assert np.isnan(frob_norm(np.array([np.nan, 1e300])))

    def test_frob_distance_self(self):
        a = random_matrix(3, seed=4)
        assert frob_distance(a, a) == 0.0

    def test_frob_distance_shape_mismatch(self):
        with pytest.raises(ValueError):
            frob_distance(np.eye(2), np.eye(3))

    def test_deterministic_eigh_phase(self):
        m = random_psd(4, seed=8)
        w1, v1 = deterministic_eigh(m)
        w2, v2 = deterministic_eigh(m.copy())
        assert_allclose(w1, w2)
        assert_allclose(v1, v2)
        assert np.all(np.diff(w1) <= 1e-12)
        for c in range(4):
            k = int(np.argmax(np.abs(v1[:, c])))
            assert abs(v1[k, c].imag) <= 1e-12 and v1[k, c].real > 0


class TestVecJson:
    def test_vec_unvec_roundtrip(self):
        a = random_matrix(3, 2, seed=6)
        assert_allclose(unvec(vec(a), (3, 2)), a)

    def test_vec_is_column_stacking(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert_allclose(vec(a), [1.0, 3.0, 2.0, 4.0])

    def test_json_roundtrip(self):
        a = random_matrix(2, 3, seed=10)
        assert_allclose(matrix_from_json(matrix_to_json(a)), a)

    def test_json_malformed(self):
        with pytest.raises(ValueError, match="malformed matrix"):
            matrix_from_json({"rows": 2})
        with pytest.raises(ValueError, match="entries"):
            matrix_from_json({"rows": 2, "cols": 2, "data": [[1, 0]]})

    @pytest.mark.parametrize("entry, where", [
        ([float("nan"), 0.0], 1), ([0.0, float("inf")], 1), ([float("-inf"), 0.0], 3),
    ])
    def test_json_non_finite(self, entry, where):
        data = [[0.5, 0.0]] * 4
        data[where] = entry
        with pytest.raises(ValueError, match=rf"malformed matrix object: data\[{where}\] must be finite"):
            matrix_from_json({"rows": 2, "cols": 2, "data": data})


    @pytest.mark.parametrize("entry, message", [
        ([True, 0.0], r"data\[2\] must be a number"),
        ([0.5, False], r"data\[2\] must be a number"),
        (["0.5", 0.0], r"data\[2\] must be a number"),
        ([None, 0.0], r"data\[2\] must be a number"),
        ([[0.5], 0.0], r"data\[2\] must be a number"),
        ([0.5], r"data\[2\] must be a pair \[re, im\]"),
        ([0.5, 0.0, 0.0], r"data\[2\] must be a pair \[re, im\]"),
        ([10**400, 0.0], "int too large to convert to float"),
    ])
    def test_json_not_a_number(self, entry, message):
        data = [[0.5, 0.0]] * 4
        data[2] = entry
        with pytest.raises(ValueError, match=rf"malformed matrix object: {message}"):
            matrix_from_json({"rows": 2, "cols": 2, "data": data})

    def test_json_entries_read_as_complex(self):
        """Each entry has the bits of complex(re, im): signed zeros, and
        integers rounded as float() rounds them."""
        data = [[-0.0, 0], [1, -0.0], [2**53 + 1, -(2**60) - 1], [0.1, -1e-320]]
        want = np.array([complex(re, im) for re, im in data])
        got = matrix_from_json({"rows": 2, "cols": 2, "data": data})
        assert got.tobytes() == want.tobytes()


@pytest.mark.skipif(not kernel.FREED_MEMORY_KEPT, reason="the allocation policy is set on glibc only")
class TestAllocationPolicy:
    def test_freed_arrays_stay_in_the_process(self):
        """Importing the package keeps freed arrays in the heap: allocating
        eight live 1 MiB arrays and dropping them, ten times over, faults in
        next to no fresh page.  Under glibc's default policy the heap gives
        them back and faults them in again: 15,040 faults over the ten in
        this suite."""

        def churn():
            live = [np.ones((256, 256), complex) for _ in range(8)]
            del live

        churn()
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(10):
            churn()
        assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 64
