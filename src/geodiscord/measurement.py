"""Non-selective projective measurements and classical-quantum test states."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bloch import CoefficientTensor, HermitianBasis, hermitian_basis
from .discord import Isometry, isometry_from_axis, validate_isometry
from .tensor_ops import DensityMatrix, n_mode_product

__all__ = [
    "ProjectiveBasis",
    "qubit_basis_along",
    "apply_projective_measurement",
    "coefficients_after_measurement",
    "basis_from_isometry",
    "classical_quantum_state",
]


@dataclass(frozen=True, eq=False)
class ProjectiveBasis:
    """Orthonormal measurement basis for one party.

    ``kets[l]`` is the l-th basis ket; the rank-1 projectors |l><l| define a
    von Neumann measurement on the party.
    """

    part: int
    kets: np.ndarray  # (d, d) complex, one ket per row

    def __post_init__(self):
        if self.part < 1:
            raise ValueError("party labels start at 1")
        kets = np.asarray(self.kets, dtype=complex)
        if kets.ndim != 2 or kets.shape[0] != kets.shape[1]:
            raise ValueError(f"expected d kets of length d, got shape {kets.shape}")
        gram = kets.conj() @ kets.T
        if np.abs(gram - np.eye(kets.shape[0])).max() > 1e-12:
            raise ValueError("measurement kets must be orthonormal")
        object.__setattr__(self, "kets", kets)

    @property
    def dim(self) -> int:
        return self.kets.shape[0]


def qubit_basis_along(part: int, axis) -> ProjectiveBasis:
    """Qubit basis with kets along +/- the unit Bloch vector ``axis``."""
    return basis_from_isometry(isometry_from_axis(axis), part)


def apply_projective_measurement(
    rho: DensityMatrix, basis: ProjectiveBasis
) -> DensityMatrix:
    """Sum_l P_l rho P_l with P_l = |l><l| acting on the party's own index.

    On the view (pre, d, post pre, d, post) of rho, block ij of the result
    is sum_l sum_km (P_l)_ik rho_km (P_l)_mj.
    """
    k = basis.part
    if not 1 <= k <= rho.n_parties:
        raise ValueError(f"party {k} out of range 1..{rho.n_parties}")
    if basis.dim != rho.party_dims[k - 1]:
        raise ValueError(
            f"basis dimension {basis.dim} does not match party {k} "
            f"dimension {rho.party_dims[k - 1]}"
        )
    pre = math.prod(rho.party_dims[: k - 1])
    post = math.prod(rho.party_dims[k:])
    view = rho.matrix.reshape(pre, basis.dim, post * pre, basis.dim, post)
    projs = np.einsum("li,lj->lij", basis.kets, basis.kets.conj())
    out = np.einsum("lik,akbmc,lmj->aibjc", projs, view, projs, optimize=True)
    return DensityMatrix(out.reshape(rho.matrix.shape), rho.party_dims)


def coefficients_after_measurement(
    coeffs: CoefficientTensor, iso: Isometry, part: int
) -> CoefficientTensor:
    """Coefficient tensor of the measured state: C x_part (A^t A).

    With the optimal isometry of the measured party this is the nearest
    zero-discord state; with any valid isometry it matches applying the
    corresponding projective measurement directly.  ``n_mode_product``
    rejects a mode out of range or of another size.
    """
    validate_isometry(iso)
    projector = iso.matrix.T @ iso.matrix
    return CoefficientTensor(
        coeffs.party_dims, n_mode_product(coeffs.tensor, projector, part)
    )


def basis_from_isometry(
    iso: Isometry, part: int, basis: HermitianBasis | None = None
) -> ProjectiveBasis:
    """Measurement kets encoded by the rows of an isometry.

    Each row expands a rank-1 projector sum_i a[l, i] X_i; the ket is its
    unit eigenvector, phase-fixed so the first nonzero amplitude is real
    positive.  The rows are read in ``basis``, by default
    ``hermitian_basis(d)``, the basis of every isometry built from C.
    """
    validate_isometry(iso)
    if basis is None:
        basis = hermitian_basis(iso.dim)
    kets = []
    for row in iso.matrix:
        proj = np.tensordot(row, basis.elements, axes=(0, 0))
        evals, evecs = np.linalg.eigh(proj)
        ket = evecs[:, -1]
        if abs(evals[-1] - 1.0) > 1e-8:
            raise ValueError("isometry row does not expand a rank-1 projector")
        for amp in ket:
            if abs(amp) > 1e-12:
                ket = ket * (amp.conj() / abs(amp))
                break
        kets.append(ket)
    return ProjectiveBasis(part, np.stack(kets))


def classical_quantum_state(probs, basis: ProjectiveBasis, conditionals) -> DensityMatrix:
    """Zero-discord state sum_l p_l |l><l| (x) rho_l for the basis party.

    ``conditionals`` are states on the remaining parties in ascending label
    order (party ``basis.part`` removed); the builder re-inserts the measured
    party at its slot.
    """
    p = np.asarray(probs, dtype=float)
    if p.ndim != 1 or len(p) != basis.dim:
        raise ValueError(f"need {basis.dim} probabilities, got shape {p.shape}")
    if p.min() < -1e-12 or abs(p.sum() - 1.0) > 1e-12:
        raise ValueError("probabilities must be non-negative and sum to 1")
    if len(conditionals) != basis.dim:
        raise ValueError(f"need {basis.dim} conditional states, got {len(conditionals)}")
    rest_dims = conditionals[0].party_dims
    for cond in conditionals:
        if cond.party_dims != rest_dims:
            raise ValueError("conditional states must share the same party dims")
        cond.validate()
    k = basis.part
    if k > len(rest_dims) + 1:
        raise ValueError(f"party {k} out of range 1..{len(rest_dims) + 1}")
    pre = math.prod(rest_dims[: k - 1])
    post = math.prod(rest_dims[k - 1 :])
    conds = np.stack([c.matrix for c in conditionals]).reshape(-1, pre, post, pre, post)
    projs = np.einsum("li,lj->lij", basis.kets, basis.kets.conj())
    # the measured party's index goes between the pre and post indices of rho_l
    out = np.einsum("l,lij,labcd->aibcjd", p, projs, conds)
    dims = rest_dims[: k - 1] + (basis.dim,) + rest_dims[k - 1 :]
    return DensityMatrix(out.reshape(pre * basis.dim * post, -1), dims)
