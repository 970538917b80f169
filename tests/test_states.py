import numpy as np
import pytest
from numpy.testing import assert_allclose

from geodiscord import (
    FamilySpec,
    bloch_decompose,
    discord_closed_form,
    family_state,
    named_state,
    partial_trace,
    permute_parties,
)
from geodiscord.states import (
    bell,
    ghz,
    ghz_minus,
    maximally_mixed,
    random_density,
)


class TestNamedStates:
    def test_ghz_is_pure_and_symmetric(self):
        rho = named_state("ghz(3)")
        assert rho.party_dims == (2, 2, 2)
        assert abs(rho.purity() - 1.0) < 1e-12
        assert_allclose(rho.matrix, ghz().matrix, atol=0)

    def test_ghz_accepts_other_sizes(self):
        assert named_state("ghz(4)").party_dims == (2, 2, 2, 2)
        assert named_state("ghz-minus(2)").party_dims == (2, 2)

    def test_w_reductions(self):
        rho = named_state("w(3)")
        for k in (1, 2, 3):
            assert_allclose(
                partial_trace(rho, [k]).matrix, np.diag([2 / 3, 1 / 3]), atol=1e-12
            )

    def test_bell(self):
        assert_allclose(named_state("bell").matrix, bell().matrix, atol=0)

    def test_max_mixed(self):
        assert_allclose(named_state("max-mixed(2,2)").matrix, np.eye(4) / 4, atol=0)
        assert named_state("max-mixed(3,2)").party_dims == (3, 2)

    def test_case_and_whitespace(self):
        assert_allclose(named_state(" GHZ( 3 ) ".replace(" ", "")).matrix, ghz().matrix)
        assert_allclose(named_state("Bell").matrix, bell().matrix)

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown"):
            named_state("dicke(3)")
        with pytest.raises(ValueError):
            named_state("w(4)")
        with pytest.raises(ValueError):
            named_state(")(")

    def test_ghz_minus_differs_from_ghz_by_sign(self):
        plus = ghz().matrix
        minus = ghz_minus().matrix
        assert_allclose(np.diag(plus), np.diag(minus), atol=0)
        assert_allclose(plus[0, 7], -minus[0, 7], atol=0)


class TestFamilies:
    def test_ghz_noise_endpoints(self):
        assert_allclose(
            family_state(FamilySpec("ghz-noise", 0.0)).matrix, np.eye(8) / 8, atol=0
        )
        assert_allclose(
            family_state(FamilySpec("ghz-noise", 1.0)).matrix, ghz().matrix, atol=0
        )
        dec = bloch_decompose(family_state(FamilySpec("ghz-noise", 0.0)))
        assert discord_closed_form(dec, 1).value < 1e-14

    def test_ghz_ghzminus_midpoint_is_classical(self):
        rho = family_state(FamilySpec("ghz-ghzminus", 0.5))
        expected = np.zeros((8, 8))
        expected[0, 0] = expected[7, 7] = 0.5
        assert_allclose(rho.matrix, expected, atol=1e-15)
        assert discord_closed_form(bloch_decompose(rho), 1).value < 1e-14

    def test_w_ghz_midpoint_keeps_discord(self):
        rho = family_state(FamilySpec("w-ghz", 0.5))
        assert discord_closed_form(bloch_decompose(rho), 1).value > 0.01

    def test_affine_in_parameter(self):
        for family in ("ghz-noise", "w-ghz", "ghz-ghzminus"):
            lo = family_state(FamilySpec(family, 0.0)).matrix
            hi = family_state(FamilySpec(family, 1.0)).matrix
            for p in (0.2, 0.7):
                mix = family_state(FamilySpec(family, p)).matrix
                assert_allclose(mix, p * hi + (1 - p) * lo, atol=1e-14)

    def test_symmetric_under_qubit_permutation(self):
        for family in ("ghz-noise", "w-ghz", "ghz-ghzminus"):
            rho = family_state(FamilySpec(family, 0.37))
            for perm in [(2, 1, 3), (3, 2, 1), (2, 3, 1)]:
                assert_allclose(
                    permute_parties(rho, perm).matrix, rho.matrix, atol=1e-14
                )

    def test_invalid_spec(self):
        with pytest.raises(ValueError, match="unknown family"):
            FamilySpec("ghz-w", 0.5)
        with pytest.raises(ValueError, match="parameter"):
            FamilySpec("w-ghz", 1.5)


class TestRandomDensity:
    def test_rank_one_is_pure(self):
        rho = random_density((2, 2), rank=1, seed=7)
        assert abs(rho.purity() - 1.0) < 1e-12

    def test_deterministic_per_seed(self):
        a = random_density((2, 2, 2), seed=42)
        b = random_density((2, 2, 2), seed=42)
        assert np.array_equal(a.matrix, b.matrix)
        c = random_density((2, 2, 2), seed=43)
        assert not np.array_equal(a.matrix, c.matrix)

    def test_invalid_rank(self):
        with pytest.raises(ValueError, match="rank"):
            random_density((2, 2), rank=5)
        with pytest.raises(ValueError, match="rank"):
            random_density((2, 2), rank=0)

    def test_dimension_cap_is_checked_before_drawing(self):
        # 13 qubits would draw two 8192 x 8192 complex arrays first
        with pytest.raises(ValueError, match="4096"):
            random_density((2,) * 13)

    def test_full_rank_mean_purity_matches_ensemble_average(self):
        # E[tr rho^2] for the D x D Gaussian-induced ensemble is 2D/(D^2+1)
        dim = 4
        samples = [random_density((2, 2), seed=s).purity() for s in range(1000)]
        expected = 2 * dim / (dim**2 + 1)
        assert abs(np.mean(samples) - expected) / expected < 0.05

    def test_outputs_pass_validation(self):
        for seed in range(5):
            random_density((2, 3), rank=2, seed=seed).validate()
        for p in (0.0, 0.31, 1.0):
            for family in ("ghz-noise", "w-ghz", "ghz-ghzminus"):
                family_state(FamilySpec(family, p)).validate()
        for name in ("ghz(3)", "ghz-minus(3)", "w(3)", "bell", "max-mixed(2,2)"):
            named_state(name).validate()


def test_maximally_mixed_purity():
    assert abs(maximally_mixed((2, 2)).purity() - 0.25) < 1e-14
