import numpy as np
import pytest
from numpy.testing import assert_allclose

from geodiscord import (
    DensityMatrix,
    ProjectiveBasis,
    apply_projective_measurement,
    basis_from_isometry,
    bloch_decompose,
    classical_quantum_state,
    coefficient_tensor,
    coefficients_after_measurement,
    discord_closed_form,
    isometry_from_axis,
    permute_parties,
    qubit_basis,
    qubit_basis_along,
    state_from_coefficients,
)
from geodiscord.states import bell, ghz, maximally_mixed, random_density

from helpers import haar_unitary, kron_all


def z_basis(part=1):
    return ProjectiveBasis(part, np.eye(2, dtype=complex))


def x_basis(part=1):
    h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    return ProjectiveBasis(part, h)


class TestProjectiveBasis:
    def test_rejects_non_orthonormal_kets(self):
        with pytest.raises(ValueError, match="orthonormal"):
            ProjectiveBasis(1, np.array([[1, 0], [1, 0]], dtype=complex))

    def test_axis_constructor_round_trips(self):
        rng = np.random.default_rng(2)
        from helpers import PAULIS

        for _ in range(10):
            e = rng.standard_normal(3)
            e /= np.linalg.norm(e)
            basis = qubit_basis_along(1, e)
            up = basis.kets[0]
            bloch = [float((up.conj() @ sigma @ up).real) for sigma in PAULIS]
            assert_allclose(bloch, e, atol=1e-12)


class TestApplyMeasurement:
    def test_bell_measured_in_z(self):
        out = apply_projective_measurement(bell(), z_basis(1))
        assert_allclose(out.matrix, np.diag([0.5, 0, 0, 0.5]), atol=1e-14)

    def test_single_qubit_x_measurement_depolarizes_z_eigenstate(self):
        rho = DensityMatrix(np.diag([1.0, 0.0]).astype(complex), (2,))
        out = apply_projective_measurement(rho, x_basis(1))
        assert_allclose(out.matrix, np.eye(2) / 2, atol=1e-14)

    def test_classical_quantum_state_is_fixed_point(self):
        chi = classical_quantum_state(
            [0.5, 0.5],
            z_basis(1),
            [random_density((2,), seed=1), random_density((2,), seed=2)],
        )
        out = apply_projective_measurement(chi, z_basis(1))
        assert_allclose(out.matrix, chi.matrix, atol=1e-13)

    def test_idempotent_trace_preserving_purity_decreasing(self):
        rng = np.random.default_rng(5)
        for seed in range(5):
            rho = random_density((2, 2), seed=seed)
            e = rng.standard_normal(3)
            e /= np.linalg.norm(e)
            basis = qubit_basis_along(2, e)
            once = apply_projective_measurement(rho, basis)
            twice = apply_projective_measurement(once, basis)
            assert_allclose(once.matrix, twice.matrix, atol=1e-12)
            assert abs(np.trace(once.matrix) - 1.0) < 1e-12
            assert once.purity() <= rho.purity() + 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            apply_projective_measurement(random_density((3, 2), seed=0), z_basis(1))


class TestMeasuredCoefficients:
    def test_ghz_measured_along_z(self):
        c = coefficient_tensor(ghz())
        post = coefficients_after_measurement(c, isometry_from_axis([0, 0, 1.0]), 1)
        rho_post = state_from_coefficients(post, validate=True)
        expected = np.zeros((8, 8))
        expected[0, 0] = expected[7, 7] = 0.5
        assert_allclose(rho_post.matrix, expected, atol=1e-13)
        # same state by direct projector measurement
        direct = apply_projective_measurement(ghz(), z_basis(1))
        assert_allclose(rho_post.matrix, direct.matrix, atol=1e-13)

    def test_bell_measured_along_z(self):
        c = coefficient_tensor(bell())
        post = coefficients_after_measurement(c, isometry_from_axis([0, 0, 1.0]), 1)
        assert_allclose(
            state_from_coefficients(post).matrix,
            np.diag([0.5, 0, 0, 0.5]),
            atol=1e-13,
        )

    def test_maximally_mixed_unchanged(self):
        c = coefficient_tensor(maximally_mixed((2, 2)))
        rng = np.random.default_rng(1)
        e = rng.standard_normal(3)
        e /= np.linalg.norm(e)
        post = coefficients_after_measurement(c, isometry_from_axis(e), 2)
        assert_allclose(post.tensor, c.tensor, atol=1e-14)

    def test_rejects_invalid_isometry(self):
        from geodiscord import Isometry

        c = coefficient_tensor(bell())
        bad = Isometry(2, np.array([[1, 0, 0, 1], [1, 0, 0, 1]]) / np.sqrt(2))
        with pytest.raises(ValueError, match="orthonormal"):
            coefficients_after_measurement(c, bad, 1)

    def test_rejects_party_out_of_range(self):
        c = coefficient_tensor(bell())
        for part in (0, 3):
            with pytest.raises(ValueError, match="out of range"):
                coefficients_after_measurement(c, isometry_from_axis([0, 0, 1.0]), part)

    def test_matches_direct_measurement_on_random_states(self):
        rng = np.random.default_rng(3)
        for seed in range(6):
            rho = random_density((2, 2), seed=seed)
            e = rng.standard_normal(3)
            e /= np.linalg.norm(e)
            iso = isometry_from_axis(e)
            post = coefficients_after_measurement(coefficient_tensor(rho), iso, 1)
            reconstructed = state_from_coefficients(post, validate=True)
            direct = apply_projective_measurement(rho, basis_from_isometry(iso, 1))
            assert_allclose(reconstructed.matrix, direct.matrix, atol=1e-10)

    def test_distance_identity(self):
        # ||rho - Pi(rho)||^2 equals the norm the projected tensor gives up
        rng = np.random.default_rng(7)
        for seed in range(5):
            rho = random_density((2, 2, 2), seed=seed)
            e = rng.standard_normal(3)
            e /= np.linalg.norm(e)
            iso = isometry_from_axis(e)
            c = coefficient_tensor(rho)
            post = coefficients_after_measurement(c, iso, 2)
            measured = apply_projective_measurement(rho, basis_from_isometry(iso, 2))
            distance = float(np.abs(rho.matrix - measured.matrix).__pow__(2).sum())
            assert abs(distance - (c.norm_sq() - post.norm_sq())) < 1e-10

    def test_b_coefficient_consistency(self):
        # coefficients of the measured state against the mixed product basis
        # with the measurement ket at the measured slot
        rho = bell()
        iso = isometry_from_axis([0.0, 0.0, 1.0])
        c = coefficient_tensor(rho)
        post = coefficients_after_measurement(c, iso, 1)
        chi = state_from_coefficients(post)
        elements = qubit_basis().elements
        contracted = np.tensordot(iso.matrix, c.tensor, axes=(1, 0))  # (l, j)
        for l, row in enumerate(iso.matrix):
            proj = np.tensordot(row, elements, axes=(0, 0))
            for j in range(4):
                op = np.kron(proj, elements[j])
                b_direct = float(np.trace(chi.matrix @ op).real)
                assert abs(b_direct - contracted[l, j]) < 1e-12


class TestBasisFromIsometry:
    def test_z_axis_recovers_computational_kets(self):
        basis = basis_from_isometry(isometry_from_axis([0.0, 0.0, 1.0]), part=1)
        assert_allclose(basis.kets, np.eye(2), atol=1e-12)

    def test_phase_fix_makes_first_amplitude_positive(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            e = rng.standard_normal(3)
            e /= np.linalg.norm(e)
            basis = basis_from_isometry(isometry_from_axis(e), part=1)
            for ket in basis.kets:
                lead = next(amp for amp in ket if abs(amp) > 1e-12)
                assert abs(lead.imag) < 1e-12 and lead.real > 0

    def test_round_trip_through_rows(self):
        rng = np.random.default_rng(10)
        elements = qubit_basis().elements
        e = rng.standard_normal(3)
        e /= np.linalg.norm(e)
        iso = isometry_from_axis(e)
        basis = basis_from_isometry(iso, part=1)
        rows = np.einsum("lc,icd,ld->li", basis.kets.conj(), elements, basis.kets).real
        assert_allclose(rows, iso.matrix, atol=1e-12)


class TestClassicalQuantumState:
    def test_two_qubit_example(self):
        chi = classical_quantum_state(
            [0.5, 0.5],
            z_basis(1),
            [
                DensityMatrix(np.diag([1.0, 0.0]).astype(complex), (2,)),
                DensityMatrix(np.diag([0.0, 1.0]).astype(complex), (2,)),
            ],
        )
        assert_allclose(chi.matrix, np.diag([0.5, 0, 0, 0.5]), atol=1e-14)
        assert discord_closed_form(bloch_decompose(chi), 1).value < 1e-12

    def test_single_term_gives_product_state(self):
        cond = random_density((2,), seed=3)
        chi = classical_quantum_state(
            [1.0, 0.0],
            z_basis(1),
            [cond, maximally_mixed((2,))],
        )
        expected = np.kron(np.diag([1.0, 0.0]), cond.matrix)
        assert_allclose(chi.matrix, expected, atol=1e-14)
        dec = bloch_decompose(chi)
        for k in (1, 2):
            assert discord_closed_form(dec, k).value < 1e-10

    def test_middle_party_with_bell_conditionals(self):
        chi = classical_quantum_state(
            [0.5, 0.5],
            z_basis(part=2),
            [bell(), bell()],
        )
        dec = bloch_decompose(chi)
        assert discord_closed_form(dec, 2).value < 1e-10
        assert discord_closed_form(dec, 1).value > 1e-3  # asymmetric by design

    def test_slot_insertion_for_middle_party(self):
        cond = DensityMatrix(
            np.kron(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])).astype(complex), (2, 2)
        )
        chi = classical_quantum_state([1.0, 0.0], z_basis(part=2), [cond, cond])
        # party 1 ends in |0>, party 2 (measured) in |0>, party 3 in |1>
        expected = kron_all(
            [np.diag([1.0, 0.0]), np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
        )
        assert_allclose(chi.matrix, expected, atol=1e-14)

    def test_bad_distribution(self):
        with pytest.raises(ValueError, match="sum to 1"):
            classical_quantum_state(
                [0.6, 0.6],
                z_basis(1),
                [random_density((2,), seed=1), random_density((2,), seed=2)],
            )

    def test_invalid_conditional(self):
        bad = DensityMatrix(np.diag([1.5, -0.5]).astype(complex), (2,), validate=False)
        with pytest.raises(ValueError):
            classical_quantum_state([0.5, 0.5], z_basis(1), [bad, bad])


class TestQutritBetweenQubits:
    """Party 2 of (2, 3, 2): the measured index has parties on both sides."""

    def test_measurement_matches_lifted_projectors(self):
        rho = random_density((2, 3, 2), seed=9)
        basis = ProjectiveBasis(2, haar_unitary(3, np.random.default_rng(9)).T)
        expected = np.zeros_like(rho.matrix)
        for ket in basis.kets:
            proj = kron_all([np.eye(2), np.outer(ket, ket.conj()), np.eye(2)])
            expected += proj @ rho.matrix @ proj
        out = apply_projective_measurement(rho, basis)
        assert_allclose(out.matrix, expected, rtol=0, atol=1e-14)

    def test_classical_quantum_state_matches_permuted_kron(self):
        rng = np.random.default_rng(10)
        basis = ProjectiveBasis(2, haar_unitary(3, rng).T)
        probs = rng.dirichlet(np.ones(3))
        conds = [random_density((2, 2), seed=70 + l) for l in range(3)]
        chi = classical_quantum_state(probs, basis, conds)
        # party-first build, ordered (2, 1, 3), then sorted back
        first = sum(
            p * np.kron(np.outer(ket, ket.conj()), cond.matrix)
            for p, ket, cond in zip(probs, basis.kets, conds)
        )
        expected = permute_parties(DensityMatrix(first, (3, 2, 2)), (2, 1, 3))
        assert chi.party_dims == (2, 3, 2)
        assert_allclose(chi.matrix, expected.matrix, rtol=0, atol=1e-14)


def test_random_basis_classical_quantum_states_are_fixed_points():
    rng = np.random.default_rng(21)
    for trial in range(5):
        unitary = haar_unitary(2, rng)
        basis = ProjectiveBasis(1, unitary.T)
        probs = rng.dirichlet(np.ones(2))
        chi = classical_quantum_state(
            probs,
            basis,
            [random_density((2,), seed=50 + trial), random_density((2,), seed=60 + trial)],
        )
        again = apply_projective_measurement(chi, basis)
        assert_allclose(again.matrix, chi.matrix, atol=1e-12)
