import numpy as np
import pytest

from geodiscord import (
    GridSpec,
    Sym3,
    bloch_decompose,
    brute_force_discord,
    brute_force_quadratic_max,
    classical_quantum_state,
    coefficient_tensor,
    correlation_gram,
    cross_check_discord,
    discord_closed_form,
    discord_from_isometry,
    isometry_from_axis,
)
from geodiscord.measurement import qubit_basis_along
from geodiscord.states import bell, ghz, random_density, w_state

COARSE = GridSpec(41, 80, 3)


class TestGridSpec:
    def test_defaults(self):
        grid = GridSpec()
        assert (grid.theta_steps, grid.phi_steps) == (181, 360)
        assert grid.refinement_rounds == 3
        assert grid.zoom_factor == 10.0

    def test_rejects_tiny_grids(self):
        with pytest.raises(ValueError):
            GridSpec(theta_steps=7)
        with pytest.raises(ValueError):
            GridSpec(phi_steps=4)

    def test_rejects_bad_rounds_and_zoom(self):
        with pytest.raises(ValueError):
            GridSpec(refinement_rounds=-1)
        with pytest.raises(ValueError):
            GridSpec(zoom_factor=1.0)


@pytest.mark.parametrize(
    "grid, coarse", [(GridSpec(), 32_760), (GridSpec(37, 72, 2), 1_368)]
)
def test_coarse_grid_scores_each_measurement_once(grid, coarse):
    # only the cos(theta) >= 0 rows: n and -n are one measurement
    from geodiscord.oracle import _grid_search

    sizes = []
    _grid_search(lambda axes: sizes.append(len(axes)) or np.zeros(len(axes)), grid)
    assert sizes[0] == coarse


class TestQuadraticMax:
    def test_diagonal(self):
        assert abs(brute_force_quadratic_max(np.diag([2.0, 2.0, 3.0]), COARSE) - 3.0) < 1e-6

    def test_zero_matrix(self):
        assert abs(brute_force_quadratic_max(np.zeros((3, 3)), COARSE)) < 1e-12

    def test_w_state_gram(self):
        g = correlation_gram(bloch_decompose(w_state()), 1)
        assert abs(brute_force_quadratic_max(g, COARSE) - 20.0 / 9.0) < 1e-6

    def test_never_exceeds_top_eigenvalue(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            m = rng.standard_normal((3, 3))
            g = Sym3.from_matrix(m + m.T)
            eta = float(np.linalg.eigvalsh(g.as_matrix())[-1])
            found = brute_force_quadratic_max(g, COARSE)
            assert found <= eta + 1e-12
            assert found >= eta - 1e-5


class TestBruteForceDiscord:
    def test_bell_default_grid(self):
        result = brute_force_discord(bell(), 1)
        assert abs(result.value - 0.5) < 1e-6

    def test_ghz_default_grid(self):
        result = brute_force_discord(ghz(), 1)
        assert abs(result.value - 0.5) < 1e-6

    def test_classical_quantum_state_is_near_zero(self):
        rng = np.random.default_rng(6)
        axis = rng.standard_normal(3)
        axis /= np.linalg.norm(axis)
        chi = classical_quantum_state(
            [0.3, 0.7],
            qubit_basis_along(1, axis),
            [random_density((2,), seed=1), random_density((2,), seed=2)],
        )
        assert brute_force_discord(chi, 1).value < 1e-8

    def test_refinement_is_monotone(self):
        rho = random_density((2, 2), seed=12)
        result = brute_force_discord(rho, 1, GridSpec(41, 80, 4))
        closed = discord_closed_form(bloch_decompose(rho), 1).value
        values = result.round_values
        assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))
        assert all(v >= closed - 1e-9 for v in values)

    def test_best_angles_reproduce_value_through_isometry(self):
        rho = random_density((2, 2), seed=13)
        result = brute_force_discord(rho, 1, COARSE)
        theta, phi = result.theta, result.phi
        axis = np.array(
            [
                np.sin(theta) * np.cos(phi),
                np.sin(theta) * np.sin(phi),
                np.cos(theta),
            ]
        )
        via_isometry = discord_from_isometry(
            coefficient_tensor(rho), isometry_from_axis(axis), 1
        )
        assert abs(via_isometry - result.value) < 1e-10

    def test_quadratic_max_reproduces_kept_norm(self):
        # max ||C x_k A||^2 assembled from the state terms plus the grid max
        rho = random_density((2, 2, 2), seed=14)
        dec = bloch_decompose(rho)
        c = coefficient_tensor(rho)
        report = discord_closed_form(dec, 1)
        eta_grid = brute_force_quadratic_max(report.g, COARSE)
        state_terms = c.norm_sq() - (
            float(np.dot(dec.s[1], dec.s[1]))
            + sum(
                float((dec.t[s] ** 2).sum()) for s in dec.t if 1 in s
            )
        ) / 2.0**3
        kept_direct = c.norm_sq() - report.value
        assert abs(state_terms + eta_grid / 2.0**3 - kept_direct) < 1e-5

    @pytest.mark.parametrize("dims", [(2, 2), (2, 2, 2), (3, 2, 2)])
    def test_axis_is_the_representative_of_e_max(self, dims):
        # n and -n are one measurement; the oracle reports the one whose
        # first component is positive, as e_max does
        for seed in range(3):
            rho = random_density(dims, seed=seed)
            c = coefficient_tensor(rho)
            for part in (k for k in range(1, len(dims) + 1) if dims[k - 1] == 2):
                result = brute_force_discord(rho, part, COARSE)
                theta, phi = result.theta, result.phi
                axis = np.array(
                    [np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)]
                )
                assert axis[0] > 1e-12
                e_max = discord_closed_form(c, part).e_max
                assert np.abs(axis - e_max).max() < 1e-2

    def test_rejects_non_qubit_party(self):
        with pytest.raises(ValueError, match="qubit"):
            brute_force_discord(random_density((3, 2), seed=0), 1, COARSE)


class TestCrossCheck:
    def test_random_two_qubit_states(self):
        for seed in range(5):
            rho = random_density((2, 2), seed=seed)
            report = cross_check_discord(rho, 1, COARSE)
            assert report.gap < 1e-4
            assert report.brute_force >= report.closed_form - 1e-9

    def test_three_qubit_state(self):
        rho = random_density((2, 2, 2), rank=2, seed=3)
        report = cross_check_discord(rho, 2, COARSE)
        assert report.gap < 1e-4

    def test_four_qubit_state(self):
        rho = random_density((2, 2, 2, 2), rank=3, seed=8)
        report = cross_check_discord(rho, 3, COARSE)
        assert report.gap < 1e-4

    @pytest.mark.parametrize("dims, part", [((3, 2, 2), 2), ((2, 3, 2), 3)])
    def test_qubit_between_parties_with_a_qutrit(self, dims, part):
        # parties on both sides of the measured one, one of them a qutrit
        rho = random_density(dims, seed=4)
        assert cross_check_discord(rho, part, COARSE).gap < 1e-5

    def test_pure_product_state(self):
        import numpy as np

        from geodiscord import DensityMatrix

        rho = DensityMatrix(
            np.kron(
                random_density((2,), rank=1, seed=1).matrix,
                random_density((2,), rank=1, seed=2).matrix,
            ),
            (2, 2),
        )
        report = cross_check_discord(rho, 1, COARSE)
        assert report.closed_form < 1e-12
        assert report.brute_force < 1e-8
