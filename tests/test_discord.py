import numpy as np
import pytest
from numpy.testing import assert_allclose

from geodiscord import (
    CoefficientTensor,
    DensityMatrix,
    FamilySpec,
    Isometry,
    bloch_decompose,
    brute_force_discord,
    classical_quantum_state,
    coefficient_tensor,
    correlation_gram,
    discord_closed_form,
    discord_from_isometry,
    discord_two_qubit,
    discord_upper_bound,
    family_state,
    isometry_from_axis,
    permute_parties,
    validate_isometry,
)
from geodiscord.discord import _gram
from geodiscord.measurement import ProjectiveBasis
from geodiscord.oracle import GridSpec
from geodiscord.states import bell, ghz, maximally_mixed, random_density, w_state

from helpers import haar_unitary, kron_all

SMALL_GRID = GridSpec(61, 120, 2)


# discord_upper_bound(coefficient_tensor(random_density(dims, seed=seed)), 1,
# restarts=4) as returned by the polar-step ascent before extrapolation was
# added, rows to 7 decimals
PINNED_UPPER_BOUNDS = [
    (
        (3, 3),
        5,
        0.03632862398497974,
        [
            [0.5773503, -0.0363095, 0.0171605, -0.0473043, -0.0542336, 0.1632962, 0.5770845, -0.164935, -0.522474],
            [0.5773503, -0.5805959, -0.0098506, 0.1056407, 0.3392977, -0.125347, -0.379769, -0.0687529, 0.1962951],
            [0.5773503, 0.6169054, -0.0073098, -0.0583364, -0.2850641, -0.0379492, -0.1973155, 0.2336879, 0.3261789],
        ],
    ),
    (
        (4, 2),
        0,
        0.043227286835199163,
        [
            [0.5, 0.1408716, 0.2408028, 0.1018126, -0.3465559, 0.2275607, -0.4894967, -0.1002369, -0.1063686, -0.1244679, -0.1794938, 0.2796495, 0.0420991, 0.2882854, 0.1223644, -0.0564071],
            [0.5, 0.1216859, -0.2512975, 0.1731439, 0.0599014, -0.0113727, 0.0183121, 0.0714486, 0.603309, -0.0710871, -0.0074773, -0.0103583, 0.0457455, -0.4208213, 0.0614154, 0.2841693],
            [0.5, 0.0236256, -0.1244174, -0.2343301, -0.0037252, 0.1705033, 0.0937903, -0.0621114, -0.3580547, -0.0935568, 0.286875, -0.4934842, -0.261325, -0.0573499, -0.3080085, -0.0899048],
            [0.5, -0.2861831, 0.134912, -0.0406264, 0.2903798, -0.3866913, 0.3773944, 0.0908998, -0.1388857, 0.2891118, -0.0999039, 0.224193, 0.1734804, 0.1898858, 0.1242287, -0.1378574],
        ],
    ),
    (
        (3, 2, 2),
        1,
        0.04224539181997905,
        [
            [0.5773503, 0.091834, 0.5111711, 0.4620359, 0.0775828, 0.1012308, -0.2824675, 0.2391396, 0.1738323],
            [0.5773503, -0.0267816, -0.524043, 0.1171733, 0.094204, -0.203825, 0.2285763, -0.4056339, 0.3322556],
            [0.5773503, -0.0650524, 0.0128719, -0.5792092, -0.1717868, 0.1025942, 0.0538912, 0.1664943, -0.5060879],
        ],
    ),
    (
        (3, 3, 3),
        2,
        0.020967363375694742,
        [
            [0.5773503, 0.3245673, 0.1476743, 0.4929032, 0.1101201, 0.1678048, -0.0352742, 0.4646081, 0.1979181],
            [0.5773503, 0.1096584, -0.1922278, -0.40558, 0.068821, -0.3273723, -0.3994928, -0.050795, -0.4232156],
            [0.5773503, -0.4342257, 0.0445535, -0.0873232, -0.1789411, 0.1595675, 0.4347669, -0.4138131, 0.2252975],
        ],
    ),
]


class TestCorrelationGram:
    def test_ghz_is_twice_identity(self):
        g = correlation_gram(bloch_decompose(ghz()), 1)
        # pairs give diag(0,0,1) twice, the triple gives diag(2,2,0)
        assert_allclose(g.as_matrix(), 2.0 * np.eye(3), atol=1e-12)

    def test_w(self):
        g = correlation_gram(bloch_decompose(w_state()), 1)
        assert_allclose(g.as_matrix(), np.diag([16, 16, 20]) / 9.0, atol=1e-12)

    def test_maximally_mixed_is_zero(self):
        g = correlation_gram(bloch_decompose(maximally_mixed((2, 2, 2))), 1)
        assert_allclose(g.as_matrix(), np.zeros((3, 3)), atol=1e-14)

    def test_part_out_of_range(self):
        with pytest.raises(ValueError):
            correlation_gram(bloch_decompose(bell()), 3)

    def test_matches_subset_sum_on_asymmetric_states(self):
        # the paper's definition: s s^t plus U^t U for every T(S) with k in S
        for n in range(2, 6):
            dec = bloch_decompose(random_density((2,) * n, seed=40 + n))
            s, t = dec.s, dec.t
            for k in range(1, n + 1):
                g = np.outer(s[k], s[k])
                sum_sq = float(s[k] @ s[k])
                for subset, tensor in t.items():
                    if k in subset:
                        u = np.moveaxis(tensor, subset.index(k), -1).reshape(-1, 3)
                        g += u.T @ u
                        sum_sq += float((tensor**2).sum())
                assert_allclose(correlation_gram(dec, k).as_matrix(), g, atol=1e-12)
                eta = np.linalg.eigvalsh(g)[-1]
                value = discord_closed_form(dec, k).value
                assert abs(value - (sum_sq - eta) / 2.0**n) < 1e-12


class TestClosedForm:
    def test_ghz_value_any_party(self):
        dec = bloch_decompose(ghz())
        for k in (1, 2, 3):
            assert abs(discord_closed_form(dec, k).value - 0.5) < 1e-12

    def test_w_value_any_party(self):
        dec = bloch_decompose(w_state())
        for k in (1, 2, 3):
            assert abs(discord_closed_form(dec, k).value - 4 / 9) < 1e-12

    def test_product_state_has_zero_discord(self):
        rng = np.random.default_rng(2)
        factors = [random_density((2,), seed=s) for s in (1, 2, 3)]
        joint = factors[0].matrix
        for f in factors[1:]:
            joint = np.kron(joint, f.matrix)
        dec = bloch_decompose(DensityMatrix(joint, (2, 2, 2)))
        for k in (1, 2, 3):
            assert discord_closed_form(dec, k).value < 1e-12

    @pytest.mark.parametrize("p", [0.25, 0.5, 0.75])
    def test_ghz_noise_family_quadratic(self, p):
        rho = family_state(FamilySpec("ghz-noise", p))
        value = discord_closed_form(bloch_decompose(rho), 1).value
        assert abs(value - p * p / 2.0) < 1e-12
        oracle = brute_force_discord(rho, 1, SMALL_GRID).value
        assert abs(oracle - p * p / 2.0) < 1e-5

    def test_w_ghz_family_piecewise_curve(self):
        # below the branch crossing at p = 3/4 the transverse eigenvalue
        # leads and D = (7p^2 - 7p + 3)/6; above it the longitudinal one
        # leads and D = 17p^2/18 - p + 1/2
        for p in np.linspace(0.0, 1.0, 21):
            rho = family_state(FamilySpec("w-ghz", float(p)))
            value = discord_closed_form(bloch_decompose(rho), 1).value
            expected = min(
                (7 * p * p - 7 * p + 3) / 6.0, 17 * p * p / 18.0 - p + 0.5
            )
            assert abs(value - expected) < 1e-12
        for p in (0.3, 0.9):
            rho = family_state(FamilySpec("w-ghz", p))
            oracle = brute_force_discord(rho, 1, SMALL_GRID).value
            expected = min((7 * p * p - 7 * p + 3) / 6.0, 17 * p * p / 18.0 - p + 0.5)
            assert abs(oracle - expected) < 1e-5

    @pytest.mark.parametrize("n_qubits", [2, 4, 5, 8])
    def test_ghz_value_is_half_for_any_size(self, n_qubits):
        # pairs and even z-subsets pile up to a fully degenerate Gram matrix
        # 2^(N-2) I, and the surviving norm terms total 3 * 2^(N-2)
        report = discord_closed_form(bloch_decompose(ghz(n_qubits)), 1)
        assert abs(report.value - 0.5) < 1e-12
        assert abs(report.eta_max - 2.0 ** (n_qubits - 2)) < 1e-9

    def test_report_witnesses_are_consistent(self):
        for seed in range(6):
            rho = random_density((2, 2, 2), seed=seed)
            dec = bloch_decompose(rho)
            c = coefficient_tensor(rho)
            report = discord_closed_form(dec, 1)
            via_isometry = discord_from_isometry(c, report.a_tilde, 1)
            assert abs(report.value - via_isometry) < 1e-12
            assert report.value >= 0.0
            assert abs(report.norm_c_sq - c.norm_sq()) < 1e-12
            # the identity component always survives the measurement
            assert report.value <= report.norm_c_sq - 2.0 ** -3 + 1e-12


class TestIsometryFromAxis:
    def test_z_axis_rows(self):
        iso = isometry_from_axis([0.0, 0.0, 1.0])
        expected = np.array([[1, 0, 0, 1], [1, 0, 0, -1]]) / np.sqrt(2)
        assert_allclose(iso.matrix, expected, atol=1e-15)
        validate_isometry(iso)

    def test_x_axis_gives_plus_minus_projectors(self):
        iso = isometry_from_axis([1.0, 0.0, 0.0])
        from geodiscord import basis_from_isometry

        basis = basis_from_isometry(iso, part=1)
        plus = np.array([1.0, 1.0]) / np.sqrt(2)
        assert_allclose(np.abs(basis.kets[0] @ plus.conj()), 1.0, atol=1e-12)

    def test_random_axes_give_projector_pairs(self):
        rng = np.random.default_rng(5)
        from geodiscord import qubit_basis

        elements = qubit_basis().elements
        for _ in range(20):
            e = rng.standard_normal(3)
            e /= np.linalg.norm(e)
            iso = isometry_from_axis(e)
            validate_isometry(iso)
            projs = [np.tensordot(row, elements, axes=(0, 0)) for row in iso.matrix]
            for proj in projs:
                assert_allclose(proj @ proj, proj, atol=1e-12)  # idempotent
                assert abs(np.trace(proj) - 1.0) < 1e-12  # rank 1
            assert_allclose(projs[0] + projs[1], np.eye(2), atol=1e-12)
            assert_allclose(projs[0] @ projs[1], np.zeros((2, 2)), atol=1e-12)

    def test_rejects_non_unit_axis(self):
        with pytest.raises(ValueError, match="unit"):
            isometry_from_axis([0.0, 0.0, 0.9])


class TestDiscordFromIsometry:
    def test_bell_along_z(self):
        c = coefficient_tensor(bell())
        value = discord_from_isometry(c, isometry_from_axis([0, 0, 1.0]), 1)
        assert abs(value - 0.5) < 1e-12

    def test_maximally_mixed_any_isometry(self):
        c = coefficient_tensor(maximally_mixed((2, 2)))
        rng = np.random.default_rng(1)
        for _ in range(10):
            e = rng.standard_normal(3)
            e /= np.linalg.norm(e)
            assert discord_from_isometry(c, isometry_from_axis(e), 1) < 1e-14

    def test_w_suboptimal_axis_overestimates(self):
        c = coefficient_tensor(w_state())
        along_x = discord_from_isometry(c, isometry_from_axis([1.0, 0, 0]), 1)
        # eta along x is 16/9 < 20/9, so the candidate exceeds the discord
        assert abs(along_x - 0.5) < 1e-12
        assert along_x > 4 / 9

    def test_ghz_value_is_axis_independent(self):
        # fully degenerate top eigenspace: every axis is optimal
        c = coefficient_tensor(ghz())
        rng = np.random.default_rng(8)
        axes = [np.array([1.0, 0, 0]), np.array([0, 1.0, 0]), np.array([0, 0, 1.0])]
        axes += list(rng.standard_normal((5, 3)))
        for e in axes:
            e = e / np.linalg.norm(e)
            value = discord_from_isometry(c, isometry_from_axis(e), 1)
            assert abs(value - 0.5) < 1e-12

    def test_candidate_upper_bounds_discord(self):
        rng = np.random.default_rng(3)
        for seed in range(5):
            rho = random_density((2, 2), seed=seed)
            c = coefficient_tensor(rho)
            exact = discord_two_qubit(rho, 1)
            for _ in range(10):
                e = rng.standard_normal(3)
                e /= np.linalg.norm(e)
                assert discord_from_isometry(c, isometry_from_axis(e), 1) >= exact - 1e-12

    def test_rejects_invalid_isometry(self):
        c = coefficient_tensor(bell())
        bad = Isometry(2, np.array([[1, 0, 0, 1], [1, 0, 0, 1]]) / np.sqrt(2))
        with pytest.raises(ValueError, match="orthonormal"):
            discord_from_isometry(c, bad, 1)


class TestTwoQubit:
    def test_bell(self):
        assert abs(discord_two_qubit(bell(), 1) - 0.5) < 1e-12
        assert abs(discord_two_qubit(bell(), 2) - 0.5) < 1e-12

    def test_product(self):
        rho = DensityMatrix(
            np.kron(random_density((2,), seed=1).matrix, random_density((2,), seed=2).matrix),
            (2, 2),
        )
        assert discord_two_qubit(rho, 1) < 1e-12

    def test_classical_mixture_is_zero_both_ways(self):
        rho = DensityMatrix(np.diag([0.5, 0, 0, 0.5]).astype(complex), (2, 2))
        assert discord_two_qubit(rho, 1) < 1e-12
        assert discord_two_qubit(rho, 2) < 1e-12

    def test_wrong_structure(self):
        with pytest.raises(ValueError):
            discord_two_qubit(random_density((2, 2, 2), seed=0), 1)
        with pytest.raises(ValueError):
            discord_two_qubit(random_density((2, 3), seed=0), 1)

    def test_three_paths_agree(self):
        for seed in range(10):
            rho = random_density((2, 2), seed=seed)
            dec = bloch_decompose(rho)
            c = coefficient_tensor(rho)
            for k in (1, 2):
                report = discord_closed_form(dec, k)
                from_vectors = discord_two_qubit(rho, k)
                via_a = discord_from_isometry(c, report.a_tilde, k)
                assert abs(report.value - from_vectors) < 1e-12
                assert abs(report.value - via_a) < 1e-12
                assert abs(from_vectors - via_a) < 1e-12


class TestUpperBound:
    def test_two_qubit_matches_closed_form(self):
        for seed in range(3):
            rho = random_density((2, 2), seed=seed)
            c = coefficient_tensor(rho)
            exact = discord_two_qubit(rho, 1)
            bound, iso = discord_upper_bound(c, 1, restarts=32, seed=7)
            assert abs(bound - exact) < 1e-6
            validate_isometry(iso)

    def test_classical_quantum_qutrit_party(self):
        # classical on a qutrit in the computational basis, quantum on a qubit
        rng = np.random.default_rng(4)
        kets = np.eye(3, dtype=complex)
        conditionals = [random_density((2,), seed=s) for s in (1, 2, 3)]
        rho = classical_quantum_state(
            [0.5, 0.3, 0.2], ProjectiveBasis(1, kets), conditionals
        )
        bound, _ = discord_upper_bound(coefficient_tensor(rho), 1, restarts=8, seed=1)
        assert bound < 1e-6

    def test_maximally_mixed_qutrit_qubit(self):
        bound, _ = discord_upper_bound(
            coefficient_tensor(maximally_mixed((3, 2))), 1, restarts=2, seed=0
        )
        assert bound < 1e-12

    def test_deterministic_for_fixed_seed(self):
        c = coefficient_tensor(random_density((2, 2), seed=11))
        first, _ = discord_upper_bound(c, 2, restarts=4, seed=3)
        second, _ = discord_upper_bound(c, 2, restarts=4, seed=3)
        assert first == second

    @staticmethod
    def lower_bound(c, part):
        # all but the top d-1 eigenvalues of the Gram of the non-identity
        # rows of the mode-part unfolding; exact for a qubit party
        t = c.tensor
        m = np.moveaxis(t, part - 1, 0).reshape(t.shape[part - 1], -1)[1:]
        evals = np.linalg.eigvalsh(m @ m.T)
        return evals[: len(evals) - (c.party_dims[part - 1] - 1)].sum()

    def test_qubit_party_of_mixed_dimension_state_is_exact(self):
        cases = [
            ((2, 3), 1, 0),
            ((3, 2), 2, 0),
            ((2, 2, 2), 1, 0),
            ((3, 2), 2, 306),
            ((2, 3), 1, 308),
            ((3, 2), 2, 310),
        ]
        for dims, part, seed in cases:
            c = coefficient_tensor(random_density(dims, seed=seed))
            bound, _ = discord_upper_bound(c, part, restarts=1, seed=0)
            assert abs(bound - self.lower_bound(c, part)) < 1e-9, (dims, part, seed)

    def test_qubit_party_is_exact_at_any_restart_count(self):
        cases = [((2, 3), 1), ((3, 2), 2), ((2, 2, 3), 2), ((2, 4), 1), ((3, 2, 2), 3)]
        for dims, part in cases:
            for seed, rank in ((320, None), (321, 1)):
                c = coefficient_tensor(random_density(dims, rank=rank, seed=seed))
                bound, iso = discord_upper_bound(c, part, restarts=32, seed=0)
                assert abs(bound - self.lower_bound(c, part)) < 1e-12, (dims, part, seed)
                assert abs(discord_from_isometry(c, iso, part) - bound) < 1e-12

    def test_qudit_party_above_lower_bound_and_replayed(self):
        cases = [((3, 3), 1), ((3, 2), 1), ((2, 3), 2), ((4, 2), 1), ((3, 2, 2), 1)]
        for dims, part in cases:
            for seed, rank in ((200, None), (201, 1)):
                c = coefficient_tensor(random_density(dims, rank=rank, seed=seed))
                bound, iso = discord_upper_bound(c, part, restarts=2, seed=0)
                assert bound >= self.lower_bound(c, part) - 1e-12
                assert abs(discord_from_isometry(c, iso, part) - bound) < 1e-12

    def test_rank_one_state_converges(self):
        # steepest ascent zig-zagged here and stopped at its step cap 4.4e-8
        # above the value that coordinate ascent reaches
        c = coefficient_tensor(random_density((3, 2), rank=1, seed=202))
        bound, _ = discord_upper_bound(c, 1, restarts=4, seed=0)
        assert abs(bound - 0.0717389844) < 1e-9

    @pytest.mark.parametrize("dims, seed, value, rows", PINNED_UPPER_BOUNDS)
    def test_pinned_values_and_rows(self, dims, seed, value, rows):
        c = coefficient_tensor(random_density(dims, seed=seed))
        bound, iso = discord_upper_bound(c, 1, restarts=4)
        assert abs(bound - value) <= 1e-12 * c.norm_sq()
        assert np.abs(iso.matrix - np.array(rows)).max() < 1e-5
        assert abs(discord_from_isometry(c, iso, 1) - bound) < 1e-12

    def test_rounding_of_c_keeps_the_returned_rows(self):
        # restarts that reach one optimum end about 1e-14 ||C||^2 apart; an
        # exact comparison let a 1e-15 rescaling of C permute the rows
        c = coefficient_tensor(random_density((3, 3), seed=5))
        _, iso = discord_upper_bound(c, 1, restarts=4, seed=0)
        for factor in (1 + 1e-15, 1 - 1e-15, 1 + 3e-15):
            scaled = CoefficientTensor(c.party_dims, c.tensor * factor)
            _, moved = discord_upper_bound(scaled, 1, restarts=4, seed=0)
            assert np.abs(moved.matrix - iso.matrix).max() < 1e-5, factor


class TestInvariantProperties:
    def test_classical_quantum_states_have_zero_discord(self):
        rng = np.random.default_rng(9)
        for trial in range(10):
            unitary = haar_unitary(2, rng)
            basis = ProjectiveBasis(1, unitary.T)
            probs = rng.dirichlet(np.ones(2))
            conditionals = [
                random_density((2, 2), seed=100 + 2 * trial + i) for i in range(2)
            ]
            chi = classical_quantum_state(probs, basis, conditionals)
            assert discord_closed_form(bloch_decompose(chi), 1).value < 1e-10

    def test_tie_break_independence_of_degenerate_top_eigenvalue(self):
        # the GHZ Gram matrix is fully degenerate; any unit vector from the
        # top eigenspace must give the same discord
        c = coefficient_tensor(ghz())
        report = discord_closed_form(bloch_decompose(ghz()), 1)
        rng = np.random.default_rng(12)
        for _ in range(10):
            e = rng.standard_normal(3)
            e /= np.linalg.norm(e)
            value = discord_from_isometry(c, isometry_from_axis(e), 1)
            assert abs(value - report.value) < 1e-12

    def test_local_unitary_covariance(self):
        rng = np.random.default_rng(13)
        for seed in range(5):
            rho = random_density((2, 2, 2), seed=seed)
            rotated = kron_all([haar_unitary(2, rng) for _ in range(3)])
            rho_rot = DensityMatrix(rotated @ rho.matrix @ rotated.conj().T, (2, 2, 2))
            for k in (1, 2, 3):
                d0 = discord_closed_form(bloch_decompose(rho), k).value
                d1 = discord_closed_form(bloch_decompose(rho_rot), k).value
                assert abs(d0 - d1) < 1e-10

    def test_party_permutation_equivariance(self):
        rho = random_density((2, 2, 2), seed=19)
        dec = bloch_decompose(rho)
        perm = (2, 3, 1)  # new slot j holds old party perm[j]
        dec_perm = bloch_decompose(permute_parties(rho, perm))
        for new_label, old_label in enumerate(perm, start=1):
            d_old = discord_closed_form(dec, old_label).value
            d_new = discord_closed_form(dec_perm, new_label).value
            assert abs(d_old - d_new) < 1e-12

    def test_symmetric_states_have_equal_discords(self):
        for rho in (ghz(), w_state()):
            dec = bloch_decompose(rho)
            values = [discord_closed_form(dec, k).value for k in (1, 2, 3)]
            assert max(values) - min(values) < 1e-10


class TestFullGram:
    @staticmethod
    def unfolding_gram(tensor, part):
        m = np.moveaxis(tensor, part - 1, 0).reshape(tensor.shape[part - 1], -1)
        return m @ m.T

    @pytest.mark.parametrize(
        "dims",
        [(2,) * n for n in range(2, 8)] + [(3, 3), (2, 3), (4, 2), (2, 2, 3)],
    )
    def test_matches_explicit_unfolding(self, dims):
        # at N = 6 parts 1-3 take the stacked products and 4-6 the W^t W blocks
        for rank in (None, 1):
            c = coefficient_tensor(random_density(dims, rank=rank, seed=80)).tensor
            norm = float(np.vdot(c, c))
            for part in range(1, len(dims) + 1):
                g = _gram(c, part)
                assert_allclose(g, self.unfolding_gram(c, part), rtol=0, atol=1e-13 * norm)
                assert abs(np.trace(g) - norm) < 1e-13 * norm

    def test_norm_c_sq_is_the_tensor_norm(self):
        for n in (2, 5, 7):
            for rank in (None, 1):
                rho = random_density((2,) * n, rank=rank, seed=81)
                dec = bloch_decompose(rho)
                norm = dec.coefficients.norm_sq()
                for part in range(1, n + 1):
                    report = discord_closed_form(dec, part)
                    assert abs(report.norm_c_sq - norm) < 1e-13 * norm

    def test_part_out_of_range(self):
        c = coefficient_tensor(random_density((2, 3), seed=82)).tensor
        for part in (0, 3):
            with pytest.raises(ValueError, match="out of range"):
                _gram(c, part)
