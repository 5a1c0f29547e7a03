"""States, GNS vector, the weighted trace pairing, modular transpose, systems."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from balance_lab.channels import identity_channel
from balance_lab.kernel import kron, matrix_unit
from balance_lab.lindblad import cycle_generator
from balance_lab.states import (
    System,
    canonicalize_density_matrix,
    gns_vector,
    new_faithful_state,
    state_from_json,
)

from conftest import kms_pairing, modular_transpose, random_matrix, random_state_vector


class TestFaithfulState:
    def test_tracial_qubit(self):
        s = new_faithful_state([0.5, 0.5])
        assert s.dim == 2
        assert_allclose(s.rho, np.eye(2) / 2)

    def test_block_constant(self):
        s = new_faithful_state([1 / 3] * 3)
        assert_allclose(s.spectrum, [1 / 3] * 3)

    def test_not_faithful(self):
        with pytest.raises(ValueError, match="state not faithful"):
            new_faithful_state([0.7, 0.3, 0.0])

    def test_not_normalized(self):
        with pytest.raises(ValueError, match="not normalized"):
            new_faithful_state([0.7, 0.7])

    @pytest.mark.parametrize("p", [[np.nan, 0.5], [0.5, np.nan], [np.nan, 1.0], [np.inf, 0.5],
                                   [-np.inf, 1.0], [np.nan]])
    def test_non_finite_rejected(self, p):
        # a comparison with NaN is false, so no check may pass one through
        with pytest.raises(ValueError, match="state not faithful|not normalized"):
            new_faithful_state(p)

    def test_json_roundtrip(self):
        s = new_faithful_state([0.2, 0.8])
        assert state_from_json(s.to_json()).same_state(s)

    @pytest.mark.parametrize("spectrum, message", [
        ([np.nan, 0.5], r"spectrum\[0\] must be finite, got nan"),
        ([0.5, np.inf], r"spectrum\[1\] must be finite, got inf"),
        (["0.25", "0.75"], r"spectrum\[0\] must be a number"),
        ([0.25, True], r"spectrum\[1\] must be a number"),
        ([[0.25], [0.75]], r"spectrum\[0\] must be a number"),
        ([10**400, 0.5], "malformed state object"),
        (0.5, "malformed state object"),
    ])
    def test_json_spectrum_entries_are_finite_numbers(self, spectrum, message):
        with pytest.raises(ValueError, match=message):
            state_from_json({"dim": 2, "spectrum": spectrum})

    def test_json_integer_entry(self):
        # a JSON integer is a number
        assert state_from_json({"dim": 1, "spectrum": [1]}).spectrum.tolist() == [1.0]


class TestGnsVector:
    def test_dim_one(self):
        s = new_faithful_state([1.0])
        assert_allclose(gns_vector(s), [1.0])

    def test_tracial_qubit(self):
        s = new_faithful_state([0.5, 0.5])
        expected = np.zeros(4)
        expected[[0, 3]] = 1 / np.sqrt(2)
        assert_allclose(gns_vector(s), expected)

    def test_unit_norm_random(self):
        s = new_faithful_state(random_state_vector(5, seed=3))
        assert abs(np.linalg.norm(gns_vector(s)) - 1.0) <= 1e-12


class TestKmsPairing:
    def test_normalization(self):
        s = new_faithful_state(random_state_vector(3, seed=1))
        assert kms_pairing(s, np.eye(3), np.eye(3)) == pytest.approx(1.0)

    def test_marginal(self):
        s = new_faithful_state(random_state_vector(3, seed=2))
        a = random_matrix(3, seed=4)
        assert kms_pairing(s, a, np.eye(3)) == pytest.approx(
            complex(np.trace(s.rho @ a))
        )

    def test_against_gns_oracle(self):
        s = new_faithful_state(random_state_vector(4, seed=5))
        om = gns_vector(s)
        a, b = random_matrix(4, seed=6), random_matrix(4, seed=7)
        oracle = om.conj() @ kron(a, b) @ om
        assert kms_pairing(s, a, b) == pytest.approx(complex(oracle))

    def test_marginals_on_matrix_units(self):
        s = new_faithful_state(random_state_vector(3, seed=8))
        om = gns_vector(s)
        for i in range(3):
            for j in range(3):
                u = matrix_unit(3, i, j)
                left = om.conj() @ kron(u, np.eye(3)) @ om
                right = om.conj() @ kron(np.eye(3), u) @ om
                assert left == pytest.approx(complex(np.trace(s.rho @ u)))
                assert right == pytest.approx(complex(np.trace(s.rho @ u)))

    def test_sesquilinear_positivity(self):
        # Gram of (a, b) -> Tr(rho^1/2 a* rho^1/2 b) over matrix units is PSD;
        # in pairing form that is kms_pairing(s, a*, b^T)
        s = new_faithful_state(random_state_vector(3, seed=9))
        units = [matrix_unit(3, i, j) for i in range(3) for j in range(3)]
        gram = np.array(
            [[kms_pairing(s, u.conj().T, v.T) for v in units] for u in units]
        )
        assert np.linalg.eigvalsh((gram + gram.conj().T) / 2).min() >= -1e-12

    def test_dimension_mismatch(self):
        s = new_faithful_state([0.5, 0.5])
        with pytest.raises(ValueError):
            kms_pairing(s, np.eye(3), np.eye(3))


class TestModularTranspose:
    def test_diagonal_fixed(self):
        d = np.diag([1.0, 2.0, 3.0])
        assert_allclose(modular_transpose(d), d)

    def test_matrix_unit(self):
        assert_allclose(modular_transpose(matrix_unit(2, 0, 1)), matrix_unit(2, 1, 0))

    def test_involution(self):
        a = random_matrix(4, seed=10)
        assert_allclose(modular_transpose(modular_transpose(a)), a)


class TestCanonicalizeDensityMatrix:
    def test_diagonal_keeps_supplied_order(self):
        state, u = canonicalize_density_matrix(np.diag([0.2, 0.5, 0.3]).astype(complex))
        assert u is None
        assert_allclose(state.spectrum, [0.2, 0.5, 0.3])

    def test_rotated_reconstructs(self):
        rng = np.random.default_rng(1)
        q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        p = np.array([0.4, 0.3, 0.2, 0.1])
        rho = q @ np.diag(p) @ q.conj().T
        state, u = canonicalize_density_matrix(rho)
        assert_allclose(state.spectrum, p, atol=1e-12)
        assert_allclose(u @ state.rho @ u.conj().T, rho, atol=1e-12)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            canonicalize_density_matrix(np.array([[0.5, 0.5], [0.0, 0.5]]))

    def test_rejects_unfaithful(self):
        rng = np.random.default_rng(2)
        q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        rho = q @ np.diag([1.0, 0.0]) @ q.conj().T
        with pytest.raises(ValueError, match="not faithful"):
            canonicalize_density_matrix(rho)

    @pytest.mark.parametrize("factor, faithful", [(0.5, False), (2.0, True)])
    def test_faithfulness_cut_is_absolute_at_unit_trace(self, factor, faithful):
        # the smallest eigenvalue is cut at tol itself: its scale is Tr rho = 1
        tol = 1e-9
        rng = np.random.default_rng(3)
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
        low = factor * tol
        rho = q @ np.diag([0.6, 0.4 - low, low]) @ q.conj().T
        if faithful:
            state, _ = canonicalize_density_matrix(rho, tol)
            assert_allclose(state.spectrum[-1], low, rtol=1e-6)
        else:
            with pytest.raises(ValueError, match="not faithful"):
                canonicalize_density_matrix(rho, tol)


class TestSystem:
    def test_identity_system(self):
        s = new_faithful_state([0.3, 0.7])
        System(state=s, dynamics=identity_channel(2))

    def test_scenario_generator_system(self):
        s = new_faithful_state([1 / 3] * 3)
        System(state=s, dynamics=cycle_generator((3,), [0.4]))

    def test_dimension_mismatch(self):
        s = new_faithful_state([0.3, 0.7])
        with pytest.raises(ValueError, match="endomorphic"):
            System(state=s, dynamics=identity_channel(3))

    def test_state_not_preserved(self):
        # the cycle generator preserves only block-constant states
        s = new_faithful_state([0.5, 0.3, 0.2])
        with pytest.raises(ValueError, match="preserve"):
            System(state=s, dynamics=cycle_generator((3,), [0.4]))
