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
]


@dataclass(frozen=True, eq=False)
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
        if np.abs(e[0] - np.eye(self.dim) / math.sqrt(self.dim)).max() > 1e-12:
            raise ValueError("basis element X[0] must be the identity I/sqrt(d)")


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


@dataclass(frozen=True, eq=False)
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


@lru_cache(maxsize=None)
def _real_forms(dim: int):
    """(Y, imaginary) with X[i] = Y[i], or X[i] = i Y[i] where imaginary[i] = 1.

    Every element of ``hermitian_basis(dim)`` is real-symmetric or i times
    real-antisymmetric, so Y = Re X + Im X is real in both cases.
    """
    e = hermitian_basis(dim).elements
    return e.real + e.imag, (e.imag != 0).any(axis=(1, 2)).astype(np.int8)


def _groups(dims) -> list:
    # consecutive qubit pairs share one 16 x 16 map; any other party is alone
    groups = []
    for m, d in enumerate(dims):
        if d == 2 and groups and groups[-1] == (m - 1,) and dims[m - 1] == 2:
            groups[-1] = (m - 1, m)
        else:
            groups.append((m,))
    return groups


@lru_cache(maxsize=None)
def _group_map(dims) -> np.ndarray:
    """Real map from a group's entries of T, rows then columns, to its indices.

    Entry [(r_1..r_g, c_1..c_g), (i_1..i_g)] is the product of the real
    forms Y(m)[i_m][c_m, r_m], so a row of T against it gives tr(T Y...).
    """
    m = np.ones((1, 1, 1))  # (rows, columns, indices) of the parties so far
    for d in dims:
        y = _real_forms(d)[0]
        m = np.einsum("RCI,icr->RrCcIi", m, y).reshape(
            len(m) * d, m.shape[1] * d, m.shape[2] * d * d
        )
    return m.reshape(-1, m.shape[2])


def _signs(dims) -> np.ndarray:
    """s(m) = +1, -1, -1, +1 for m mod 4 = 0, 1, 2, 3, one byte per entry of C.

    m counts the imaginary factors X = i Y of the entry's basis product.
    Built on each call: a cached table would stay in the heap between the
    large buffers and raise the peak memory more than it saves in time.
    """
    m = np.ones((), np.int8)  # 1 + m, so that bit 1 is set for m mod 4 in {1, 2}
    for d in reversed(dims):
        m = np.add.outer(_real_forms(d)[1], m)
    m &= 2
    return np.subtract(1, m, out=m)


def coefficient_tensor(rho: DensityMatrix, bases=None) -> CoefficientTensor:
    """Coefficients c[i_1..i_N] = tr(rho X(1)[i_1] (x) ... (x) X(N)[i_N]).

    Computed in real arithmetic.  Each default basis element is X = Y with
    Y real-symmetric or X = iY with Y real-antisymmetric, and for Hermitian
    rho = R + iJ, with T = R + J,

        tr(rho X(1)[i_1] (x) ... (x) X(N)[i_N]) = s(m) tr(T Y(1)[i_1] (x) ...)

    where m counts the imaginary factors and s(m) = +1, -1, -1, +1 for
    m mod 4 = 0, 1, 2, 3: a product with m antisymmetric factors is
    symmetric for even m and antisymmetric for odd m, so it meets only R or
    only J, and i^m, or i^m i for the J part, is real.  T is permuted once
    so that each group of parties (a pair of qubits, or one party) has its
    rows and columns together, then one real product per group contracts
    them, and the signs are applied in place.  Custom ``bases`` then rotate
    each mode by the real orthogonal Q[i, j] = tr(X[i] E[j]) from the
    default basis E.  The anti-Hermitian part of rho, which validation
    bounds by its Hermiticity tolerance, is not projected out and enters C
    at that size.  C does not record its bases: ``discord_upper_bound``,
    ``discord_from_isometry`` and ``basis_from_isometry`` read it in the
    default ones, and the qubit closed form's ``e_max`` and ``a_tilde`` (not
    its value) come out in C's own basis.
    """
    dims = rho.party_dims
    bases = _bases_for(dims, bases)
    n = len(dims)
    groups = _groups(dims)
    size = rho.matrix.size
    # one work block holds T and the products in turn; the last product
    # writes C fresh, and the block is freed as a whole
    work = np.empty(2 * size)
    halves = (work[:size], work[size:])
    t = np.add(rho.matrix.real, rho.matrix.imag, out=halves[1].reshape(rho.matrix.shape))
    axes = [a for g in groups for a in (*g, *(n + m for m in g))]
    cur = halves[0].reshape([(dims + dims)[a] for a in axes])
    cur[...] = t.reshape(dims + dims).transpose(axes)
    for j, g in enumerate(groups):
        mat = _group_map(tuple(dims[m] for m in g))
        lhs = cur.reshape(len(mat), -1).T
        out = None if j == len(groups) - 1 else halves[(j + 1) % 2].reshape(len(lhs), -1)
        cur = np.matmul(lhs, mat, out=out)
    del work, halves, t, lhs
    c = cur.reshape([d * d for d in dims])
    c *= _signs(dims)
    if any(b is not hermitian_basis(d) for b, d in zip(bases, dims)):
        rotations = [
            np.einsum("iab,jba->ij", b.elements, hermitian_basis(b.dim).elements).real.T
            for b in bases
        ]
        c = _contract_modes(c, rotations).reshape(c.shape)
    return CoefficientTensor(dims, c)


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


@dataclass(frozen=True, eq=False)
class BlochDecomposition(CoefficientTensor):
    """Coefficient tensor C of an N-qubit state, with its Bloch views.

    ``s`` maps each party k to its coherent 3-vector; ``t`` maps each party
    subset (sorted tuple, size >= 2) to the tensor of Pauli expectations
    with one axis per party in subset order.  Both are built from C on
    every access: each component is 2^(N/2) times the slice of C with
    indices 1..3 on its parties and 0 on every other party.
    """

    def __post_init__(self):
        super().__post_init__()
        if any(d != 2 for d in self.party_dims):
            raise ValueError(
                f"operation requires qubit parties, got dimensions {self.party_dims}"
            )

    @property
    def coefficients(self) -> CoefficientTensor:
        return self

    @property
    def n_qubits(self) -> int:
        return self.n_parties

    def _component(self, parties) -> np.ndarray:
        n = self.n_qubits
        sl = tuple(slice(1, 4) if m + 1 in parties else 0 for m in range(n))
        return 2.0 ** (n / 2.0) * self.tensor[sl]

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
    """C of a qubit state, with its coherent vectors and correlation tensors."""
    return decomposition_from_coefficients(coefficient_tensor(rho))


def decomposition_from_coefficients(coeffs: CoefficientTensor) -> BlochDecomposition:
    """Bloch view of a qubit coefficient tensor, sharing its array."""
    return BlochDecomposition(coeffs.party_dims, coeffs.tensor)


def coefficients_from_decomposition(dec: BlochDecomposition) -> CoefficientTensor:
    """Inverse of :func:`decomposition_from_coefficients`: the view is C."""
    return dec


def reconstruct_state(dec: BlochDecomposition) -> DensityMatrix:
    """State matrix of a Bloch decomposition.

    Hermiticity holds by construction, and unit trace whenever C comes from
    a state or a Pauli table; positivity is not checked (run ``.validate()``
    on the result when a physical state is required).
    """
    return state_from_coefficients(dec)


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
