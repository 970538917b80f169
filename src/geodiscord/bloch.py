"""Orthonormal Hermitian operator bases and Bloch-style state expansions.

A state on parties with dimensions d_1..d_N expands as

    rho = sum c[i_1..i_N] X(1)[i_1] (x) ... (x) X(N)[i_N]

over per-party orthonormal Hermitian bases with X[0] = I/sqrt(d).  For
qubits the basis is fixed globally as (I, sigma_x, sigma_y, sigma_z)/sqrt(2),
which makes the coefficient tensor a relabelled and rescaled copy of the
coherent vectors s(k) and correlation tensors T(S): every Pauli expectation
equals 2^(N/2) times the matching coefficient entry.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .tensor_ops import DensityMatrix, frobenius_norm_sq

__all__ = [
    "PAULI_X",
    "PAULI_Y",
    "PAULI_Z",
    "HermitianBasis",
    "CoefficientTensor",
    "BlochDecomposition",
    "hermitian_basis",
    "qubit_basis",
    "coefficient_tensor",
    "state_from_coefficients",
    "bloch_decompose",
    "decomposition_from_coefficients",
    "coefficients_from_decomposition",
    "reconstruct_state",
    "norm_sq_from_decomposition",
    "norm_identity_residual",
    "qubit_subsets",
]

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (PAULI_X, PAULI_Y, PAULI_Z)


@dataclass(frozen=True)
class HermitianBasis:
    """Orthonormal Hermitian basis of the d x d operators, X[0] = I/sqrt(d)."""

    dim: int
    elements: np.ndarray  # (dim^2, dim, dim) complex

    def __post_init__(self):
        e = self.elements
        if e.shape != (self.dim**2, self.dim, self.dim):
            raise ValueError(f"basis for dim {self.dim} has wrong shape {e.shape}")
        if np.abs(e - e.conj().transpose(0, 2, 1)).max() > 1e-12:
            raise ValueError("basis elements must be Hermitian")
        gram = np.einsum("iab,jba->ij", e, e)
        if np.abs(gram - np.eye(self.dim**2)).max() > 1e-12:
            raise ValueError("basis elements must be orthonormal under tr(XY)")


@lru_cache(maxsize=None)
def hermitian_basis(dim: int) -> HermitianBasis:
    """Orthonormal Hermitian basis for dimension ``dim``.

    For dim = 2 this is (I, sigma_x, sigma_y, sigma_z)/sqrt(2).  Larger
    dimensions use the same pattern: identity, then for each index pair the
    symmetric and antisymmetric off-diagonal generators, then the diagonal
    generators, all normalized to tr(X_i X_j) = delta_ij.
    """
    if dim < 1:
        raise ValueError("dimension must be positive")
    elems = [np.eye(dim, dtype=complex) / math.sqrt(dim)]
    for j in range(dim):
        for k in range(j + 1, dim):
            sym = np.zeros((dim, dim), dtype=complex)
            sym[j, k] = sym[k, j] = 1 / math.sqrt(2)
            elems.append(sym)
            anti = np.zeros((dim, dim), dtype=complex)
            anti[j, k] = -1j / math.sqrt(2)
            anti[k, j] = 1j / math.sqrt(2)
            elems.append(anti)
    for l in range(1, dim):
        diag = np.zeros((dim, dim), dtype=complex)
        for i in range(l):
            diag[i, i] = 1.0
        diag[l, l] = -l
        elems.append(diag / math.sqrt(l * (l + 1)))
    return HermitianBasis(dim, np.stack(elems))


def qubit_basis() -> HermitianBasis:
    return hermitian_basis(2)


@dataclass(frozen=True)
class CoefficientTensor:
    """Expansion coefficients of a state, one tensor index per party."""

    party_dims: tuple
    tensor: np.ndarray  # shape (d_1^2, ..., d_N^2) float

    def __post_init__(self):
        dims = tuple(int(d) for d in self.party_dims)
        object.__setattr__(self, "party_dims", dims)
        expected = tuple(d * d for d in dims)
        if self.tensor.shape != expected:
            raise ValueError(
                f"coefficient tensor shape {self.tensor.shape} does not match "
                f"party dims {dims} (expected {expected})"
            )

    @property
    def n_parties(self) -> int:
        return len(self.party_dims)

    def norm_sq(self) -> float:
        return frobenius_norm_sq(self.tensor)


def _bases_for(party_dims, bases):
    if bases is None:
        return [hermitian_basis(d) for d in party_dims]
    bases = list(bases)
    if len(bases) != len(party_dims) or any(
        b.dim != d for b, d in zip(bases, party_dims)
    ):
        raise ValueError("bases do not match the party dimensions")
    return bases


def _contract_modes(cur: np.ndarray, mats) -> np.ndarray:
    # one gemm per matrix: the leading mode of cur is contracted with it and
    # appended last, so after all of them the modes are back in order
    for mat in mats:
        cur = cur.reshape(len(mat), -1).T @ mat
    return cur


def coefficient_tensor(rho: DensityMatrix, bases=None) -> CoefficientTensor:
    """Coefficients c[i_1..i_N] = tr(rho X(1)[i_1] (x) ... (x) X(N)[i_N])."""
    dims = rho.party_dims
    bases = _bases_for(dims, bases)
    n = len(dims)
    # axes (r_1, c_1, ..., r_N, c_N); each pair is summed against X[i][c, r]
    interleaved = [axis for m in range(n) for axis in (m, n + m)]
    cur = rho.matrix.reshape(dims + dims).transpose(interleaved)
    mats = [b.elements.transpose(0, 2, 1).reshape(b.dim**2, -1).T for b in bases]
    c = _contract_modes(cur, mats).real.reshape([d * d for d in dims])
    return CoefficientTensor(dims, np.ascontiguousarray(c))


def state_from_coefficients(
    coeffs: CoefficientTensor, bases=None, *, validate: bool = False
) -> DensityMatrix:
    """Rebuild the matrix from its expansion coefficients.

    Positivity is not enforced by default: slightly non-physical tensors
    (e.g. from noisy measured expectations) reconstruct fine and callers
    decide whether to run the DensityMatrix validator.
    """
    dims = coeffs.party_dims
    bases = _bases_for(dims, bases)
    n = len(dims)
    mats = [b.elements.reshape(b.dim**2, -1) for b in bases]
    cur = _contract_modes(coeffs.tensor, mats).reshape([d for d in dims for _ in range(2)])
    # axes are now (r1, c1, r2, c2, ...); interleave back to (rows..., cols...)
    perm = list(range(0, 2 * n, 2)) + list(range(1, 2 * n, 2))
    side = math.prod(dims)
    matrix = cur.transpose(perm).reshape(side, side)
    return DensityMatrix(matrix, dims, validate=validate)


@dataclass(frozen=True)
class BlochDecomposition:
    """Coherent vectors and correlation tensors of an N-qubit state, as a
    view of its coefficient tensor C.

    Only C is stored.  ``s`` maps each party k to its coherent 3-vector;
    ``t`` maps each party subset (sorted tuple, size >= 2) to the tensor of
    Pauli expectations with one axis per party in subset order.  Both are
    built from C on every access: each component is 2^(N/2) times the slice
    of C with indices 1..3 on its parties and 0 on every other party.
    """

    coefficients: CoefficientTensor

    def __post_init__(self):
        if any(d != 2 for d in self.coefficients.party_dims):
            raise ValueError(
                "operation requires qubit parties, got dimensions "
                f"{self.coefficients.party_dims}"
            )

    @property
    def n_qubits(self) -> int:
        return self.coefficients.n_parties

    def _component(self, parties) -> np.ndarray:
        n = self.n_qubits
        sl = tuple(slice(1, 4) if m + 1 in parties else 0 for m in range(n))
        return 2.0 ** (n / 2.0) * self.coefficients.tensor[sl]

    @property
    def s(self) -> dict:
        return {k: self._component((k,)) for k in range(1, self.n_qubits + 1)}

    @property
    def t(self) -> dict:
        n = self.n_qubits
        return {subset: self._component(subset) for subset in qubit_subsets(n)}


def qubit_subsets(n_qubits: int, min_size: int = 2):
    """All party subsets ordered by size then lexicographically."""
    for size in range(min_size, n_qubits + 1):
        yield from itertools.combinations(range(1, n_qubits + 1), size)


def bloch_decompose(rho: DensityMatrix) -> BlochDecomposition:
    """Coherent vectors s(k) and correlation tensors T(S) of a qubit state."""
    return BlochDecomposition(coefficient_tensor(rho))


def decomposition_from_coefficients(coeffs: CoefficientTensor) -> BlochDecomposition:
    """Bloch view of a qubit coefficient tensor."""
    return BlochDecomposition(coeffs)


def coefficients_from_decomposition(dec: BlochDecomposition) -> CoefficientTensor:
    """Inverse of :func:`decomposition_from_coefficients`."""
    return dec.coefficients


def reconstruct_state(dec: BlochDecomposition) -> DensityMatrix:
    """State matrix of a Bloch decomposition.

    Hermiticity holds by construction, and unit trace whenever C comes from
    a state or a Pauli table; positivity is not checked (run ``.validate()``
    on the result when a physical state is required).
    """
    return state_from_coefficients(dec.coefficients)


def norm_sq_from_decomposition(dec: BlochDecomposition) -> float:
    """tr(rho^2) computed from the Bloch components alone."""
    total = 1.0
    for vec in dec.s.values():
        total += float(np.dot(vec, vec))
    for tensor in dec.t.values():
        total += frobenius_norm_sq(tensor)
    return total / 2.0**dec.n_qubits


def norm_identity_residual(coeffs: CoefficientTensor, dec: BlochDecomposition) -> float:
    """|  ||C||^2 - 2^-N (1 + sum ||s||^2 + sum ||T||^2)  |."""
    return abs(coeffs.norm_sq() - norm_sq_from_decomposition(dec))
