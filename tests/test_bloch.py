import itertools

import numpy as np
import pytest
from numpy.testing import assert_allclose

from geodiscord import (
    DensityMatrix,
    HermitianBasis,
    bloch_decompose,
    coefficient_tensor,
    coefficients_from_decomposition,
    decomposition_from_coefficients,
    frobenius_norm_sq,
    hermitian_basis,
    norm_identity_residual,
    norm_sq_from_decomposition,
    permute_parties,
    qubit_basis,
    reconstruct_state,
    state_from_coefficients,
)
from geodiscord.states import bell, ghz, maximally_mixed, random_density, w_state

from helpers import I2, SX, SY, SZ, brute_single, brute_subset_tensor, ket


class TestHermitianBasis:
    def test_qubit_basis_is_scaled_paulis(self):
        basis = qubit_basis()
        scale = 1 / np.sqrt(2)
        assert_allclose(basis.elements[0], I2 * scale, atol=1e-15)
        assert_allclose(basis.elements[1], SX * scale, atol=1e-15)
        assert_allclose(basis.elements[2], SY * scale, atol=1e-15)
        assert_allclose(basis.elements[3], SZ * scale, atol=1e-15)

    def test_qutrit_basis_orthonormal_with_identity_first(self):
        basis = hermitian_basis(3)  # constructor enforces orthonormality
        assert_allclose(basis.elements[0], np.eye(3) / np.sqrt(3), atol=1e-15)
        traces = np.einsum("iaa->i", basis.elements)
        assert abs(traces[0] - np.sqrt(3)) < 1e-12
        assert np.abs(traces[1:]).max() < 1e-12

    def test_rejects_identity_away_from_index_zero(self):
        # orthonormal and Hermitian, but X[0] = sigma_x / sqrt(2)
        swapped = hermitian_basis(2).elements[[1, 0, 2, 3]]
        with pytest.raises(ValueError, match="identity"):
            HermitianBasis(2, swapped)


class TestCoefficientTensor:
    def test_maximally_mixed_has_only_identity_entry(self):
        for dims in [(2, 2), (2, 2, 2), (2, 3)]:
            c = coefficient_tensor(maximally_mixed(dims))
            expected = np.zeros(c.tensor.shape)
            expected[(0,) * len(dims)] = np.prod([d ** -0.5 for d in dims])
            assert_allclose(c.tensor, expected, atol=1e-14)

    def test_bell_state_entries(self):
        c = coefficient_tensor(bell()).tensor
        expected = np.zeros((4, 4))
        expected[0, 0] = 0.5   # identity-identity
        expected[1, 1] = 0.5   # xx
        expected[2, 2] = -0.5  # yy
        expected[3, 3] = 0.5   # zz
        assert_allclose(c, expected, atol=1e-12)

    def test_parseval_matches_matrix_purity(self):
        for seed, dims in [(1, (2, 2)), (2, (2, 2, 2)), (3, (2, 3)), (4, (3, 2))]:
            rho = random_density(dims, seed=seed)
            c = coefficient_tensor(rho)
            purity = float(np.trace(rho.matrix @ rho.matrix).real)
            assert abs(c.norm_sq() - purity) < 1e-12

    def test_reconstruction_round_trip(self):
        for seed, dims in [(5, (2, 2)), (6, (2, 2, 2)), (7, (3, 2))]:
            rho = random_density(dims, seed=seed)
            back = state_from_coefficients(coefficient_tensor(rho))
            assert_allclose(back.matrix, rho.matrix, atol=1e-12)

    def test_mismatched_bases_rejected(self):
        rho = random_density((2, 2), seed=8)
        with pytest.raises(ValueError, match="bases"):
            coefficient_tensor(rho, bases=[hermitian_basis(2), hermitian_basis(3)])
        with pytest.raises(ValueError, match="bases"):
            coefficient_tensor(rho, bases=[hermitian_basis(2)])

    @staticmethod
    def rotated_basis(dim, seed):
        # mixes the traceless elements by a random orthogonal matrix, then
        # conjugates all of them by a random unitary
        rng = np.random.default_rng(seed)
        elements = hermitian_basis(dim).elements
        q = np.linalg.qr(rng.standard_normal((dim * dim - 1,) * 2))[0]
        mixed = np.concatenate([elements[:1], np.einsum("ij,jab->iab", q, elements[1:])])
        z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        u = np.linalg.qr(z)[0]
        return HermitianBasis(dim, u @ mixed @ u.conj().T)

    @staticmethod
    def coefficients_by_einsum(rho, bases):
        # tr(rho X(1)[i_1] (x) ... (x) X(N)[i_N]) = sum rho[r, c] prod X(m)[i_m][c_m, r_m]
        n = len(bases)
        rows, cols, idx = "abcd"[:n], "efgh"[:n], "ijkl"[:n]
        spec = rows + cols + "," + ",".join(
            idx[m] + cols[m] + rows[m] for m in range(n)
        ) + "->" + idx
        dims = rho.party_dims
        operands = [b.elements for b in bases]
        return np.einsum(spec, rho.matrix.reshape(dims + dims), *operands).real

    @pytest.mark.parametrize("dims", [(2,), (2, 3), (3, 2, 2), (4, 2)])
    def test_matches_trace_definition(self, dims):
        default = [hermitian_basis(d) for d in dims]
        rotated = [self.rotated_basis(d, seed=60 + d) for d in dims]
        for seed, rank in ((50, None), (51, 1)):
            rho = random_density(dims, rank=rank, seed=seed)
            for bases in (None, rotated):
                c = coefficient_tensor(rho, bases=bases)
                expected = self.coefficients_by_einsum(rho, bases or default)
                assert_allclose(c.tensor, expected, rtol=0, atol=1e-14)
                back = state_from_coefficients(c, bases=bases)
                assert_allclose(back.matrix, rho.matrix, rtol=0, atol=1e-13)


    @staticmethod
    def coefficients_by_contraction(rho, bases):
        # complex tensordot per party: axes (rows m.., cols m.., indices ..m)
        dims = rho.party_dims
        n = len(dims)
        cur = rho.matrix.reshape(dims + dims)
        for m in range(n):
            cur = np.tensordot(cur, bases[m].elements, axes=([0, n - m], [2, 1]))
        return cur.real

    @pytest.mark.parametrize(
        "dims", [(2, 2, 2), (2,) * 5, (2,) * 8, (2, 2, 3, 2), (3, 2, 2, 2, 2)]
    )
    def test_real_products_match_complex_contraction(self, dims):
        # odd N, N = 8 (every sign class m mod 4 of the imaginary factors)
        # and mixed dims, with the default and with a rotated custom basis
        default = [hermitian_basis(d) for d in dims]
        rotated = [self.rotated_basis(d, seed=70 + d) for d in dims]
        for seed, rank in ((52, None), (53, 1)):
            rho = random_density(dims, rank=rank, seed=seed)
            for bases in (None, rotated):
                c = coefficient_tensor(rho, bases=bases)
                expected = self.coefficients_by_contraction(rho, bases or default)
                assert c.tensor.flags.c_contiguous
                assert_allclose(c.tensor, expected, rtol=0, atol=1e-14)


class TestBlochDecompose:
    def test_ghz_components(self):
        dec = bloch_decompose(ghz())
        for k in (1, 2, 3):
            assert_allclose(dec.s[k], np.zeros(3), atol=1e-12)
        for pair in [(1, 2), (1, 3), (2, 3)]:
            assert_allclose(dec.t[pair], np.diag([0.0, 0.0, 1.0]), atol=1e-12)
        t3 = dec.t[(1, 2, 3)]
        expected = np.zeros((3, 3, 3))
        expected[0, 0, 0] = 1.0
        expected[0, 1, 1] = expected[1, 0, 1] = expected[1, 1, 0] = -1.0
        # zzz expectation of (|000>+|111>)/sqrt(2) vanishes: the two branches
        # carry opposite signs
        assert_allclose(t3, expected, atol=1e-12)
        assert abs(frobenius_norm_sq(t3) - 4.0) < 1e-12

    def test_ghz_matches_brute_force_expectations(self):
        rho = ghz()
        dec = bloch_decompose(rho)
        for k in (1, 2, 3):
            assert_allclose(dec.s[k], brute_single(rho.matrix, 3, k - 1), atol=1e-12)
        for subset in [(1, 2), (1, 3), (2, 3), (1, 2, 3)]:
            zero_based = tuple(p - 1 for p in subset)
            assert_allclose(
                dec.t[subset],
                brute_subset_tensor(rho.matrix, 3, zero_based),
                atol=1e-12,
            )

    def test_w_components(self):
        dec = bloch_decompose(w_state())
        for k in (1, 2, 3):
            assert_allclose(dec.s[k], [0.0, 0.0, 1 / 3], atol=1e-12)
        for pair in [(1, 2), (1, 3), (2, 3)]:
            assert_allclose(dec.t[pair], np.diag([2 / 3, 2 / 3, -1 / 3]), atol=1e-12)
        t3 = dec.t[(1, 2, 3)]
        expected = np.zeros((3, 3, 3))
        expected[2, 2, 2] = -1.0
        for perm in set(itertools.permutations((0, 0, 2))):
            expected[perm] = 2 / 3
        for perm in set(itertools.permutations((1, 1, 2))):
            expected[perm] = 2 / 3
        assert_allclose(t3, expected, atol=1e-12)

    def test_random_state_matches_brute_force(self):
        rho = random_density((2, 2, 2), seed=21)
        dec = bloch_decompose(rho)
        for subset in [(1, 2), (2, 3), (1, 2, 3)]:
            zero_based = tuple(p - 1 for p in subset)
            assert_allclose(
                dec.t[subset],
                brute_subset_tensor(rho.matrix, 3, zero_based),
                atol=1e-12,
            )

    def test_product_of_ground_states(self):
        ket0 = ket([0, 0, 0])
        rho = DensityMatrix(np.outer(ket0, ket0.conj()), (2, 2, 2))
        dec = bloch_decompose(rho)
        z = np.array([0.0, 0.0, 1.0])
        for k in (1, 2, 3):
            assert_allclose(dec.s[k], z, atol=1e-12)
        assert_allclose(dec.t[(1, 2)], np.outer(z, z), atol=1e-12)
        assert_allclose(
            dec.t[(1, 2, 3)], np.einsum("i,j,k->ijk", z, z, z), atol=1e-12
        )

    def test_rejects_qudit_parties(self):
        with pytest.raises(ValueError, match="qubit"):
            bloch_decompose(random_density((2, 3), seed=1))


class TestReconstructState:
    def test_empty_decomposition_is_maximally_mixed(self):
        dec = bloch_decompose(maximally_mixed((2, 2, 2)))
        assert_allclose(reconstruct_state(dec).matrix, np.eye(8) / 8, atol=1e-14)

    def test_ghz_round_trip(self):
        rho = ghz()
        assert_allclose(
            reconstruct_state(bloch_decompose(rho)).matrix, rho.matrix, atol=1e-12
        )

    def test_single_qubit_up(self):
        dec = bloch_decompose(
            DensityMatrix(np.diag([1.0, 0.0]).astype(complex), (2,))
        )
        assert_allclose(reconstruct_state(dec).matrix, np.diag([1.0, 0.0]), atol=1e-14)

    def test_round_trips_on_random_states(self):
        for seed in range(12):
            rho = random_density((2, 2, 2), seed=seed)
            dec = bloch_decompose(rho)
            assert_allclose(reconstruct_state(dec).matrix, rho.matrix, atol=1e-12)
            again = bloch_decompose(reconstruct_state(dec))
            for k in dec.s:
                assert_allclose(again.s[k], dec.s[k], atol=1e-12)
            for subset in dec.t:
                assert_allclose(again.t[subset], dec.t[subset], atol=1e-12)

    def test_coefficient_relabel_round_trip(self):
        rho = random_density((2, 2), seed=31)
        c = coefficient_tensor(rho)
        dec = decomposition_from_coefficients(c)
        back = coefficients_from_decomposition(dec)
        assert_allclose(back.tensor, c.tensor, atol=1e-14)


class TestNormIdentity:
    def test_bell(self):
        rho = bell()
        c = coefficient_tensor(rho)
        dec = bloch_decompose(rho)
        assert norm_identity_residual(c, dec) < 1e-12
        pieces = 1.0 + sum(np.dot(v, v) for v in dec.s.values())
        pieces += sum(frobenius_norm_sq(t) for t in dec.t.values())
        assert abs(pieces - 4.0) < 1e-12  # 1 + 0 + ||T||^2 = 1 + 3

    def test_maximally_mixed(self):
        rho = maximally_mixed((2, 2, 2))
        assert norm_identity_residual(coefficient_tensor(rho), bloch_decompose(rho)) < 1e-15

    def test_ghz(self):
        rho = ghz()
        c = coefficient_tensor(rho)
        dec = bloch_decompose(rho)
        assert norm_identity_residual(c, dec) < 1e-12
        # 2^3 tr rho^2 = 8 decomposes as 1 + 0 + 3 pairs + 4 from the triple
        assert abs(norm_sq_from_decomposition(dec) - 1.0) < 1e-12
        assert abs(frobenius_norm_sq(dec.t[(1, 2, 3)]) - 4.0) < 1e-12

    def test_random_states(self):
        for seed in range(8):
            rho = random_density((2, 2, 2), rank=seed % 8 + 1, seed=seed)
            assert (
                norm_identity_residual(coefficient_tensor(rho), bloch_decompose(rho))
                < 1e-12
            )


def test_party_swap_equivariance():
    rho = random_density((2, 2, 2), seed=17)
    dec = bloch_decompose(rho)
    perm = (3, 1, 2)  # new slot j holds old party perm[j]
    swapped = bloch_decompose(permute_parties(rho, perm))
    for new_label, old_label in enumerate(perm, start=1):
        assert_allclose(swapped.s[new_label], dec.s[old_label], atol=1e-12)
    # pair (1,2) of the permuted state is old pair (3,1) with axes in that order
    expected = np.swapaxes(dec.t[(1, 3)], 0, 1)
    assert_allclose(swapped.t[(1, 2)], expected, atol=1e-12)
