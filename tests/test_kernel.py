"""Matrix kernel: products, traces, exponentials, kernels, predicates."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from balance_lab.kernel import (
    _invariant_blocks,
    close,
    eigenvalues,
    frob_distance,
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
from balance_lab.lindblad import cycle_generator, scenario_build, standard_grid

from conftest import (
    assert_same_spectrum,
    kron_entry_oracle,
    partial_trace_oracle,
    random_matrix,
    random_psd,
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


def grid_generators():
    """The superoperators of both generators of every standard_grid scenario."""
    out = []
    for spec in standard_grid():
        triple = scenario_build(spec)
        out += [triple.system_a.dynamics.superoperator, triple.system_b.dynamics.superoperator]
    return out


GRID_GENERATORS = grid_generators()


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
        assert np.array_equal(mat_exp(m), scipy.linalg.expm(m))
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


class TestPredicates:
    def test_is_psd_identity(self):
        assert is_psd(np.eye(3))

    def test_is_psd_small_negative(self):
        assert not is_psd(np.diag([1.0, -1e-3]), 1e-10)

    def test_relative_residual_zero_over_zero(self):
        assert relative_residual(0.0, 0.0) == 0.0
        assert relative_residual(1e-300, 0.0) == np.inf
        assert relative_residual(3.0, 2.0) == 1.5

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
