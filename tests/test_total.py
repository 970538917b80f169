import itertools

import numpy as np
import pytest
from numpy.testing import assert_allclose

from geodiscord import (
    DensityMatrix,
    ProjectiveBasis,
    bloch_decompose,
    classical_quantum_state,
    coefficient_tensor,
    decomposition_from_coefficients,
    discord_closed_form,
    frobenius_norm_sq,
    n_mode_product,
    state_from_coefficients,
    total_quantum_correlations,
    two_qubit_total_correlations,
)
from geodiscord.states import bell, ghz, maximally_mixed, random_density


def fully_classical(report):
    dec = decomposition_from_coefficients(report.steps[-1].coefficients)
    return max(
        discord_closed_form(dec, k).value for k in range(1, dec.n_qubits + 1)
    )


class TestChainValues:
    def test_bell(self):
        report = total_quantum_correlations(bloch_decompose(bell()))
        assert abs(report.q_value - 0.5) < 1e-10
        assert abs(report.steps[0].value - 0.5) < 1e-10
        assert report.steps[1].value < 1e-12
        post = state_from_coefficients(report.steps[0].coefficients)
        assert_allclose(post.matrix, np.diag([0.5, 0, 0, 0.5]), atol=1e-12)

    def test_ghz(self):
        report = total_quantum_correlations(bloch_decompose(ghz()))
        assert abs(report.q_value - 0.5) < 1e-10
        assert abs(report.steps[0].value - 0.5) < 1e-10
        assert report.steps[1].value < 1e-12
        assert report.steps[2].value < 1e-12

    @pytest.mark.parametrize("n_qubits", [4, 6])
    def test_ghz_of_any_size(self, n_qubits):
        report = total_quantum_correlations(bloch_decompose(ghz(n_qubits)))
        assert abs(report.q_value - 0.5) < 1e-10
        assert abs(report.steps[0].value - 0.5) < 1e-10
        assert all(step.value < 1e-12 for step in report.steps[1:])

    def test_product_state(self):
        rho = DensityMatrix(
            np.kron(
                random_density((2,), seed=1).matrix, random_density((2,), seed=2).matrix
            ),
            (2, 2),
        )
        report = total_quantum_correlations(bloch_decompose(rho))
        assert report.q_value < 1e-12

    def test_classical_classical_mixture(self):
        rho = DensityMatrix(np.diag([0.5, 0, 0, 0.5]).astype(complex), (2, 2))
        assert total_quantum_correlations(bloch_decompose(rho)).q_value < 1e-12

    def test_default_order_is_ascending(self):
        report = total_quantum_correlations(bloch_decompose(ghz()))
        assert report.order == (1, 2, 3)
        assert [s.part for s in report.steps] == [1, 2, 3]


class TestChainInvariants:
    def test_q_is_sum_of_steps_and_telescopes(self):
        for seed in range(8):
            rho = random_density((2, 2, 2), seed=seed)
            dec = bloch_decompose(rho)
            report = total_quantum_correlations(dec)
            assert abs(report.q_value - sum(s.value for s in report.steps)) < 1e-10
            c0 = coefficient_tensor(rho)
            final = report.steps[-1].coefficients
            telescoped = c0.norm_sq() - final.norm_sq()
            assert abs(report.q_value - telescoped) < 1e-10

    def test_telescoping_through_isometries(self):
        # contracting with A^t A preserves exactly the norm kept by A
        rho = random_density((2, 2, 2), seed=10)
        report = total_quantum_correlations(bloch_decompose(rho))
        cur = coefficient_tensor(rho).tensor
        for step in report.steps:
            a = step.isometry.matrix
            kept = n_mode_product(cur, a, step.part)
            projected = n_mode_product(cur, a.T @ a, step.part)
            assert abs(frobenius_norm_sq(kept) - frobenius_norm_sq(projected)) < 1e-12
            cur = step.coefficients.tensor

    def test_intermediate_states_are_valid(self):
        for seed in (3, 4):
            report = total_quantum_correlations(
                bloch_decompose(random_density((2, 2, 2), seed=seed))
            )
            for step in report.steps:
                state_from_coefficients(step.coefficients, validate=True)

    def test_final_state_is_fully_classical(self):
        for seed in range(6):
            report = total_quantum_correlations(
                bloch_decompose(random_density((2, 2, 2), seed=seed))
            )
            assert fully_classical(report) < 1e-10

    def test_q_dominates_first_step_discord(self):
        for seed in range(6):
            dec = bloch_decompose(random_density((2, 2, 2), seed=seed))
            report = total_quantum_correlations(dec)
            assert report.q_value >= discord_closed_form(dec, 1).value - 1e-12
            assert report.q_value >= 0.0

    def test_classical_party_first_contributes_nothing(self):
        chi = classical_quantum_state(
            [0.4, 0.6],
            ProjectiveBasis(2, np.eye(2, dtype=complex)),
            [bell(), maximally_mixed((2, 2))],
        )
        report = total_quantum_correlations(bloch_decompose(chi), order=(2, 1, 3))
        assert report.steps[0].value < 1e-10
        assert abs(report.q_value - sum(s.value for s in report.steps[1:])) < 1e-10

    @pytest.mark.parametrize("n_qubits", [2, 3, 4, 5, 6])
    def test_step_coefficients_equal_projected_tensor(self, n_qubits):
        # each step's tensor is C x_1 A(1)^t A(1) ... over the parties so far
        dec = bloch_decompose(random_density((2,) * n_qubits, seed=70 + n_qubits))
        for order in itertools.permutations(range(1, n_qubits + 1)):
            projected = dec.coefficients.tensor
            for step in total_quantum_correlations(dec, order).steps:
                a = step.isometry.matrix
                projected = n_mode_product(projected, a.T @ a, step.part)
                coeffs = step.coefficients
                assert coeffs.party_dims == (2,) * n_qubits
                assert_allclose(coeffs.tensor, projected, rtol=0, atol=1e-12)


class TestTwoQubitTotal:
    def test_bell(self):
        assert abs(two_qubit_total_correlations(bell()) - 0.5) < 1e-12

    def test_product(self):
        rho = DensityMatrix(
            np.kron(
                random_density((2,), seed=5).matrix, random_density((2,), seed=6).matrix
            ),
            (2, 2),
        )
        assert two_qubit_total_correlations(rho) < 1e-12

    def test_classical_quantum_first_step_is_free(self):
        chi = classical_quantum_state(
            [0.5, 0.5],
            ProjectiveBasis(1, np.eye(2, dtype=complex)),
            [random_density((2,), seed=8), random_density((2,), seed=9)],
        )
        total = two_qubit_total_correlations(chi)
        d2 = discord_closed_form(bloch_decompose(chi), 2).value
        assert abs(total - d2) < 1e-12

    def test_matches_chain(self):
        for seed in range(10):
            rho = random_density((2, 2), seed=seed)
            chain = total_quantum_correlations(bloch_decompose(rho), order=(1, 2))
            assert abs(two_qubit_total_correlations(rho) - chain.q_value) < 1e-12

    def test_wrong_structure(self):
        with pytest.raises(ValueError):
            two_qubit_total_correlations(random_density((2, 2, 2), seed=0))


class TestChainErrors:
    def test_invalid_order(self):
        dec = bloch_decompose(random_density((2, 2), seed=0))
        with pytest.raises(ValueError, match="permutation"):
            total_quantum_correlations(dec, order=(1, 1))
        with pytest.raises(ValueError, match="permutation"):
            total_quantum_correlations(dec, order=(1, 2, 3))


def test_reports_compare_by_identity():
    # dataclasses holding arrays compare as objects, never element-wise
    dec = bloch_decompose(ghz())
    first, second = total_quantum_correlations(dec), total_quantum_correlations(dec)
    assert (first == second) is False
    assert (first == first) is True
    assert (first.steps[0] == second.steps[0]) is False
    assert (first.steps[0].isometry == second.steps[0].isometry) is False
    one, two = discord_closed_form(dec, 1), discord_closed_form(dec, 1)
    assert (one == two) is False
    assert (one != two) is True
    assert (dec.coefficients == coefficient_tensor(ghz())) is False
