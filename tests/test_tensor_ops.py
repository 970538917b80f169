import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose

from geodiscord import (
    DensityMatrix,
    StateValidationError,
    Sym3,
    frobenius_norm_sq,
    n_mode_product,
    partial_trace,
    permute_parties,
    sym3_top_eigen,
)
from geodiscord.states import ghz, random_density, w_state
from geodiscord.tensor_ops import POSITIVITY_ATOL


class TestNModeProduct:
    def test_mode_one_row_sum(self):
        t = np.array([[1.0, 2.0], [3.0, 4.0]])
        out = n_mode_product(t, np.array([[1.0, 1.0]]), 1)
        assert_allclose(out, [[4.0, 6.0]])

    def test_mode_two_row_sum(self):
        t = np.array([[1.0, 2.0], [3.0, 4.0]])
        out = n_mode_product(t, np.array([[1.0, 1.0]]), 2)
        assert_allclose(out, [[3.0], [7.0]])

    def test_identity_leaves_tensor_unchanged(self):
        rng = np.random.default_rng(3)
        t = rng.standard_normal((2, 3, 4))
        for mode in (1, 2, 3):
            assert_allclose(n_mode_product(t, np.eye(t.shape[mode - 1]), mode), t)

    def test_mode_out_of_range(self):
        with pytest.raises(ValueError, match="mode"):
            n_mode_product(np.ones((2, 2)), np.ones((1, 2)), 3)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="columns"):
            n_mode_product(np.ones((2, 2)), np.ones((1, 3)), 1)


@settings(max_examples=40, deadline=None)
@given(
    t=arrays(np.float64, (2, 3, 2), elements=st.floats(-5, 5)),
    a=arrays(np.float64, (4, 2), elements=st.floats(-5, 5)),
    b=arrays(np.float64, (2, 3), elements=st.floats(-5, 5)),
)
def test_distinct_mode_products_commute(t, a, b):
    left = n_mode_product(n_mode_product(t, a, 1), b, 2)
    right = n_mode_product(n_mode_product(t, b, 2), a, 1)
    assert_allclose(left, right, atol=1e-10)


@settings(max_examples=40, deadline=None)
@given(
    t=arrays(np.float64, (3, 2), elements=st.floats(-5, 5)),
    a=arrays(np.float64, (4, 3), elements=st.floats(-5, 5)),
    b=arrays(np.float64, (2, 4), elements=st.floats(-5, 5)),
)
def test_repeated_mode_products_collapse(t, a, b):
    chained = n_mode_product(n_mode_product(t, a, 1), b, 1)
    assert_allclose(chained, n_mode_product(t, b @ a, 1), atol=1e-9)


def test_isometry_contraction_shrinks_norm():
    rng = np.random.default_rng(11)
    for _ in range(50):
        t = rng.standard_normal((3, 4, 2))
        q, _ = np.linalg.qr(rng.standard_normal((4, 2)))
        semi = q.T  # orthonormal rows
        assert frobenius_norm_sq(n_mode_product(t, semi, 2)) <= frobenius_norm_sq(t) + 1e-12


class TestFrobenius:
    def test_zero(self):
        assert frobenius_norm_sq(np.zeros((3, 3))) == 0.0

    def test_small_matrix(self):
        assert frobenius_norm_sq([[1.0, 2.0], [3.0, 4.0]]) == 30.0

    def test_pure_state_coefficients_have_unit_norm(self):
        from geodiscord import coefficient_tensor

        rho = random_density((2, 2), rank=1, seed=5)
        c = coefficient_tensor(rho)
        purity = float(np.trace(rho.matrix @ rho.matrix).real)
        assert abs(c.norm_sq() - purity) < 1e-12
        assert abs(c.norm_sq() - 1.0) < 1e-12


class TestSym3TopEigen:
    def test_diagonal(self):
        eta, e = sym3_top_eigen(Sym3.from_matrix(np.diag([2.0, 2.0, 3.0])))
        assert abs(eta - 3.0) < 1e-12
        assert_allclose(e, [0.0, 0.0, 1.0], atol=1e-12)

    def test_identity_tie_break(self):
        eta, e = sym3_top_eigen(np.eye(3))
        assert abs(eta - 1.0) < 1e-14
        assert_allclose(e, [1.0, 0.0, 0.0], atol=1e-12)

    def test_identity_with_z_preference(self):
        _, e = sym3_top_eigen(np.eye(3), prefer_axes=(2, 1, 0))
        assert_allclose(e, [0.0, 0.0, 1.0], atol=1e-12)

    def test_off_diagonal_pair(self):
        g = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        eta, e = sym3_top_eigen(g)
        assert abs(eta - 1.0) < 1e-12
        assert_allclose(e, np.array([1.0, 1.0, 0.0]) / np.sqrt(2), atol=1e-10)

    def test_tie_tolerance_is_relative_to_scale(self):
        g = np.diag([0.5e-13, 1e-13, 0.0])
        eta, e = sym3_top_eigen(g)
        assert abs(eta - 1e-13) < 1e-25
        assert_allclose(e, [0.0, 1.0, 0.0], atol=1e-12)
        for j in range(-20, 21):
            _, e_scaled = sym3_top_eigen(g * 10.0**j)
            assert_allclose(e_scaled, e, atol=1e-12)

    def test_eigen_equation_and_rayleigh_bound(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            m = rng.standard_normal((3, 3))
            g = Sym3.from_matrix(m + m.T)
            eta, e = sym3_top_eigen(g)
            assert_allclose(g.as_matrix() @ e, eta * e, atol=1e-10)
            assert abs(np.linalg.norm(e) - 1.0) < 1e-12
            vecs = rng.standard_normal((1000, 3))
            vecs /= np.linalg.norm(vecs, axis=1)[:, None]
            rayleigh = np.einsum("ni,ij,nj->n", vecs, g.as_matrix(), vecs)
            assert rayleigh.max() <= eta + 1e-12

    def test_from_matrix_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            Sym3.from_matrix(np.eye(2))


class TestPartialTrace:
    def test_ghz_single_qubit_is_maximally_mixed(self):
        reduced = partial_trace(ghz(), [1])
        assert_allclose(reduced.matrix, np.eye(2) / 2, atol=1e-12)

    def test_product_state_recovers_factor(self):
        rho_a = random_density((2,), seed=1)
        rho_b = random_density((3,), seed=2)
        joint = DensityMatrix(np.kron(rho_a.matrix, rho_b.matrix), (2, 3))
        assert_allclose(partial_trace(joint, [1]).matrix, rho_a.matrix, atol=1e-12)
        assert_allclose(partial_trace(joint, [2]).matrix, rho_b.matrix, atol=1e-12)

    def test_w_state_single_qubit(self):
        reduced = partial_trace(w_state(), [1])
        assert_allclose(reduced.matrix, np.diag([2 / 3, 1 / 3]), atol=1e-12)

    def test_sequential_matches_joint(self):
        rho = random_density((2, 2, 2), seed=9)
        joint = partial_trace(rho, [1, 3])
        one_at_a_time = partial_trace(rho, [1, 2, 3])
        one_at_a_time = partial_trace(one_at_a_time, [1, 3])
        assert_allclose(joint.matrix, one_at_a_time.matrix, atol=1e-12)
        other_order = partial_trace(partial_trace(rho, [1, 3]), [1, 2])
        assert_allclose(
            partial_trace(joint, [1]).matrix,
            partial_trace(other_order, [1]).matrix,
            atol=1e-12,
        )

    def test_bad_subsets(self):
        rho = random_density((2, 2), seed=0)
        with pytest.raises(ValueError):
            partial_trace(rho, [])
        with pytest.raises(ValueError):
            partial_trace(rho, [3])


class TestPermuteParties:
    def test_swap_round_trip(self):
        rho = random_density((2, 3), seed=4)
        swapped = permute_parties(rho, (2, 1))
        assert swapped.party_dims == (3, 2)
        back = permute_parties(swapped, (2, 1))
        assert_allclose(back.matrix, rho.matrix, atol=0)

    def test_swap_of_kron_factors(self):
        rho_a = random_density((2,), seed=1)
        rho_b = random_density((2,), seed=2)
        joint = DensityMatrix(np.kron(rho_a.matrix, rho_b.matrix), (2, 2))
        swapped = permute_parties(joint, (2, 1))
        assert_allclose(swapped.matrix, np.kron(rho_b.matrix, rho_a.matrix), atol=1e-14)

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            permute_parties(random_density((2, 2), seed=0), (1, 1))


class TestDensityMatrixValidation:
    def test_non_hermitian_names_check_and_entry(self):
        m = np.eye(2, dtype=complex)
        m[0, 1] = 0.5
        with pytest.raises(StateValidationError) as err:
            DensityMatrix(m, (2,))
        assert err.value.check == "hermiticity"
        assert "(0, 1)" in str(err.value) or "(1, 0)" in str(err.value)

    def test_wrong_trace_reports_value(self):
        with pytest.raises(StateValidationError) as err:
            DensityMatrix(np.diag([0.5, 0.48]), (2,))
        assert err.value.check == "trace"
        assert "0.98" in str(err.value)

    def test_negative_eigenvalue(self):
        with pytest.raises(StateValidationError) as err:
            DensityMatrix(np.diag([1.2, -0.2]), (2,))
        assert err.value.check == "positivity"

    def test_shape_mismatch(self):
        with pytest.raises(StateValidationError) as err:
            DensityMatrix(np.eye(3) / 3, (2,))
        assert err.value.check == "shape"

    def test_purity(self):
        assert abs(ghz().purity() - 1.0) < 1e-12
        mixed = DensityMatrix(np.eye(4) / 4, (2, 2))
        assert abs(mixed.purity() - 0.25) < 1e-12


class TestPositivityBoundary:
    """The Cholesky test of H + POSITIVITY_ATOL * I at and around the boundary."""

    @staticmethod
    def rotated_state(lowest, dim=8, seed=17):
        # trace-1 state whose eigenvalues are ``lowest`` and positive weights,
        # in the basis of a random unitary so no entry is on the diagonal only
        rng = np.random.default_rng(seed)
        weights = rng.uniform(0.5, 1.5, dim - 1)
        evals = np.concatenate([[lowest], weights * (1.0 - lowest) / weights.sum()])
        z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        q, r = np.linalg.qr(z)
        u = q * (np.diag(r) / np.abs(np.diag(r)))
        m = (u * evals) @ u.conj().T
        return (m + m.conj().T) / 2.0

    def test_pure_ten_qubit_state_validates(self):
        rho = random_density((2,) * 10, rank=1, seed=5)
        assert rho.validate() is rho

    @pytest.mark.parametrize("dims", [(2, 2, 2), (2, 2, 2, 2, 2, 2)])
    @pytest.mark.parametrize("scale", [-0.5, -0.9, 0.0])
    def test_lowest_eigenvalue_inside_tolerance_is_accepted(self, dims, scale):
        m = self.rotated_state(scale * POSITIVITY_ATOL, dim=int(np.prod(dims)))
        DensityMatrix(m, dims)

    @pytest.mark.parametrize("dims", [(2, 2, 2), (2, 2, 2, 2, 2, 2)])
    @pytest.mark.parametrize("scale", [-10.0, -1.1])
    def test_lowest_eigenvalue_beyond_tolerance_is_rejected(self, dims, scale):
        m = self.rotated_state(scale * POSITIVITY_ATOL, dim=int(np.prod(dims)))
        with pytest.raises(StateValidationError) as err:
            DensityMatrix(m, dims)
        assert err.value.check == "positivity"
        assert "minimum eigenvalue" in str(err.value)

    def test_validate_returns_self_and_leaves_matrix_untouched(self):
        rho = random_density((2, 3), seed=9)
        before = rho.matrix.copy()
        assert rho.validate() is rho
        assert rho.matrix.tobytes() == before.tobytes()
