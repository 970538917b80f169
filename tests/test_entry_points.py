"""Every compute entry point takes the coefficient tensor C.

``BlochDecomposition`` is the qubit subclass of ``CoefficientTensor``, so
the closed form, the Gram matrix, the chain and the upper bound accept
either and give the same bits on both.
"""

import pytest

from geodiscord import (
    BlochDecomposition,
    CoefficientTensor,
    bloch_decompose,
    coefficient_tensor,
    correlation_gram,
    discord_closed_form,
    discord_upper_bound,
    total_quantum_correlations,
)
from geodiscord.states import ghz, random_density


def same_report(a, b):
    return (
        a.value == b.value
        and a.eta_max == b.eta_max
        and a.norm_c_sq == b.norm_c_sq
        and a.e_max.tobytes() == b.e_max.tobytes()
        and a.g.as_matrix().tobytes() == b.g.as_matrix().tobytes()
        and a.a_tilde.matrix.tobytes() == b.a_tilde.matrix.tobytes()
    )


def test_decomposition_is_the_qubit_coefficient_tensor():
    dec = bloch_decompose(ghz())
    assert isinstance(dec, CoefficientTensor)
    assert dec.coefficients is dec
    with pytest.raises(ValueError, match="requires qubit parties"):
        BlochDecomposition((2, 3), coefficient_tensor(random_density((2, 3))).tensor)


@pytest.mark.parametrize("n", range(2, 7))
def test_coefficients_and_decomposition_give_the_same_bits(n):
    for rank in (None, 1):
        rho = random_density((2,) * n, rank=rank, seed=400 + n)
        c, dec = coefficient_tensor(rho), bloch_decompose(rho)
        for part in range(1, n + 1):
            assert same_report(discord_closed_form(c, part), discord_closed_form(dec, part))
            gram_c = correlation_gram(c, part).as_matrix()
            assert gram_c.tobytes() == correlation_gram(dec, part).as_matrix().tobytes()
            value, iso = discord_upper_bound(dec, part)
            assert value == discord_closed_form(c, part).value
            assert iso.matrix.tobytes() == discord_closed_form(c, part).a_tilde.matrix.tobytes()
        first, second = total_quantum_correlations(c), total_quantum_correlations(dec)
        assert first.q_value == second.q_value
        for a, b in zip(first.steps, second.steps):
            assert a.value == b.value
            assert a.isometry.matrix.tobytes() == b.isometry.matrix.tobytes()


def test_ghz_through_either_type():
    c = coefficient_tensor(ghz())
    assert abs(discord_closed_form(c, 1).value - 0.5) < 1e-12
    assert abs(discord_upper_bound(bloch_decompose(ghz()), 1)[0] - 0.5) < 1e-12
    assert abs(total_quantum_correlations(c).q_value - 0.5) < 1e-12


@pytest.mark.parametrize("dims, part", [((2, 3), 1), ((3, 2), 2), ((2, 2, 3), 1), ((2, 2, 3), 2)])
def test_qubit_party_of_any_system_is_the_upper_bound(dims, part):
    for seed, rank in ((410, None), (411, 1)):
        c = coefficient_tensor(random_density(dims, rank=rank, seed=seed))
        report = discord_closed_form(c, part)
        value, iso = discord_upper_bound(c, part)
        assert report.value == value
        assert report.a_tilde.matrix.tobytes() == iso.matrix.tobytes()
        assert correlation_gram(c, part).as_matrix().tobytes() == report.g.as_matrix().tobytes()


@pytest.mark.parametrize("dims, part", [((2, 3), 2), ((3, 2), 1), ((2, 2, 3), 3), ((3, 3), 1)])
def test_qudit_party_has_no_closed_form(dims, part):
    c = coefficient_tensor(random_density(dims, seed=412))
    with pytest.raises(ValueError, match="dimension"):
        discord_closed_form(c, part)
    with pytest.raises(ValueError, match="dimension"):
        correlation_gram(c, part)


def test_party_out_of_range():
    c = coefficient_tensor(random_density((2, 3), seed=413))
    for part in (0, 3):
        with pytest.raises(ValueError, match="out of range"):
            discord_closed_form(c, part)


def test_chain_needs_qubit_parties():
    for dims in ((2, 3), (3, 3), (2, 2, 3)):
        c = coefficient_tensor(random_density(dims, seed=414))
        with pytest.raises(ValueError, match="qubit"):
            total_quantum_correlations(c)
