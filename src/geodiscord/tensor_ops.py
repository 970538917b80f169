"""Dense tensor and complex-matrix primitives used by every other module.

Conventions fixed here and inherited package-wide:

* parties (and tensor modes) are labelled 1..N,
* real tensors are C-ordered float64 arrays, complex matrices complex128,
* every function is pure and never mutates its arguments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "StateValidationError",
    "DensityMatrix",
    "Sym3",
    "n_mode_product",
    "frobenius_norm_sq",
    "sym3_top_eigen",
    "partial_trace",
    "permute_parties",
]

HERMITICITY_ATOL = 1e-10
TRACE_ATOL = 1e-10
POSITIVITY_ATOL = 1e-10
# cap on the total dimension of a state built by name or from a Pauli table,
# checked before anything is allocated; a dense 4096 x 4096 matrix is 256 MiB
MAX_DIMENSION = 2**12


class StateValidationError(ValueError):
    """A matrix failed one of the density-matrix checks.

    ``check`` names the failing requirement ("shape", "finite",
    "hermiticity", "trace", "positivity", ...) so callers can report it
    precisely.
    """

    def __init__(self, check: str, message: str):
        super().__init__(message)
        self.check = check


class DensityMatrix:
    """Density matrix over a tensor product of parties.

    Parameters
    ----------
    matrix : array_like
        Square complex matrix of side ``prod(party_dims)``.
    party_dims : sequence of int
        Local dimension of each party, in party order 1..N.
    validate : bool
        When True (default) the matrix must be Hermitian, unit-trace and
        positive semidefinite within the module tolerances.  Reconstruction
        code paths pass ``validate=False`` and leave the check to callers.
    """

    def __init__(self, matrix, party_dims, *, validate: bool = True):
        party_dims = tuple(int(d) for d in party_dims)
        if not party_dims or any(d < 1 for d in party_dims):
            raise ValueError(f"party dimensions must be positive, got {party_dims}")
        matrix = np.array(matrix, dtype=complex)
        dim = math.prod(party_dims)
        if matrix.shape != (dim, dim):
            raise StateValidationError(
                "shape",
                f"expected a {dim}x{dim} matrix for parties {party_dims}, "
                f"got shape {matrix.shape}",
            )
        matrix.setflags(write=False)
        self.matrix = matrix
        self.party_dims = party_dims
        if validate:
            self.validate()

    @property
    def n_parties(self) -> int:
        return len(self.party_dims)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def is_qubit_system(self) -> bool:
        return all(d == 2 for d in self.party_dims)

    def validate(self) -> "DensityMatrix":
        """Check finite entries, Hermiticity, unit trace and positivity.

        Positivity means that the lowest eigenvalue of H = (m + m^H)/2 is at
        least -POSITIVITY_ATOL, that is, that H + POSITIVITY_ATOL * I is
        positive semidefinite.  It is tested by one Cholesky factorization
        of that shifted matrix; only when the factorization fails is the
        lowest eigenvalue computed with ``eigvalsh``, which decides and goes
        into the message.  The two tests can disagree only from rounding,
        in a band of width about n * eps * ||rho|| around -POSITIVITY_ATOL
        (n the side of the matrix).  The matrix itself is never modified.

        Returns ``self``; raises StateValidationError naming the first check
        that fails.
        """
        m = self.matrix
        if not np.isfinite(m).all():
            i, j = np.argwhere(~np.isfinite(m))[0]
            raise StateValidationError(
                "finite", f"matrix entry ({i}, {j}) is not finite: {m[i, j]}"
            )
        # the one full-size temporary, laid out like m: m^H - m, later H
        h = np.conjugate(m.T, order="C")
        h -= m
        delta = np.abs(h)
        if delta.max() > HERMITICITY_ATOL:
            i, j = np.unravel_index(int(np.argmax(delta)), delta.shape)
            raise StateValidationError(
                "hermiticity",
                f"matrix is not Hermitian: entry ({i}, {j}) differs from the "
                f"conjugate of ({j}, {i}) by {delta[i, j]:.3e}",
            )
        del delta  # freed before the factorization needs its own buffers
        tr = np.trace(m)
        if abs(tr - 1.0) > TRACE_ATOL:
            raise StateValidationError(
                "trace", f"trace is {tr.real:.12g}, expected 1"
            )
        h *= 0.5
        h += m
        h.reshape(-1)[:: len(h) + 1] += POSITIVITY_ATOL  # the diagonal, in place
        # h.T is conj(H), with the same eigenvalues, already in the
        # column-major order that LAPACK copies into
        try:
            np.linalg.cholesky(h.T)
        except np.linalg.LinAlgError:
            lowest = float(np.linalg.eigvalsh(h.T)[0]) - POSITIVITY_ATOL
            if lowest < -POSITIVITY_ATOL:
                raise StateValidationError(
                    "positivity", f"minimum eigenvalue {lowest:.3e} is negative"
                ) from None
        return self

    def purity(self) -> float:
        """tr(rho^2); equals the squared Hilbert-Schmidt norm for states."""
        return float(np.vdot(self.matrix, self.matrix).real)

    def __repr__(self) -> str:  # pragma: no cover
        return f"DensityMatrix(party_dims={self.party_dims})"


def n_mode_product(tensor, matrix, mode: int) -> np.ndarray:
    """Contract ``matrix`` with the ``mode``-th index of ``tensor``.

    ``mode`` is 1-based.  For an order-N tensor Y and an I x J_mode matrix A
    the result has the mode-th dimension replaced by I, with entries
    sum_j Y[..., j, ...] * A[i, j].
    """
    t = np.asarray(tensor, dtype=float)
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got array of order {a.ndim}")
    if not 1 <= mode <= t.ndim:
        raise ValueError(f"mode {mode} out of range for an order-{t.ndim} tensor")
    axis = mode - 1
    if a.shape[1] != t.shape[axis]:
        raise ValueError(
            f"matrix has {a.shape[1]} columns but mode {mode} has size {t.shape[axis]}"
        )
    return np.moveaxis(np.tensordot(a, t, axes=(1, axis)), 0, axis)


def frobenius_norm_sq(tensor) -> float:
    """Sum of squared entries of a real tensor, without a full-size temporary."""
    t = np.asarray(tensor, dtype=float)
    return float(np.vdot(t, t))


@dataclass(frozen=True)
class Sym3:
    """Real symmetric 3x3 matrix stored as its upper triangle."""

    xx: float
    xy: float
    xz: float
    yy: float
    yz: float
    zz: float

    @classmethod
    def from_matrix(cls, m) -> "Sym3":
        m = np.asarray(m, dtype=float)
        if m.shape != (3, 3):
            raise ValueError(f"expected a 3x3 matrix, got shape {m.shape}")
        s = (m + m.T) / 2.0
        return cls(s[0, 0], s[0, 1], s[0, 2], s[1, 1], s[1, 2], s[2, 2])

    def as_matrix(self) -> np.ndarray:
        return np.array(
            [
                [self.xx, self.xy, self.xz],
                [self.xy, self.yy, self.yz],
                [self.xz, self.yz, self.zz],
            ]
        )


def _top_eigenspace(g) -> tuple[float, np.ndarray]:
    """Largest eigenvalue of ``g`` and orthonormal columns spanning every
    eigenvector within 1e-12 times the largest eigenvalue magnitude of it."""
    m = g.as_matrix() if isinstance(g, Sym3) else np.asarray(g, dtype=float)
    evals, evecs = np.linalg.eigh(m)
    eta = float(evals[-1])
    return eta, evecs[:, evals >= eta - 1e-12 * np.abs(evals).max()]


def sym3_top_eigen(g, *, prefer_axes=(0, 1, 2)) -> tuple[float, np.ndarray]:
    """Largest eigenvalue of ``g`` with a deterministic unit eigenvector.

    Eigenvalues within 1e-12 times the largest eigenvalue magnitude of the
    top one count as tied, so the choice does not depend on the scale of
    ``g``.  The returned vector is the normalized projection onto the top
    eigenspace of the first coordinate axis in ``prefer_axes`` with a
    nonzero projection; its first nonzero component is made positive.  The
    default preference (x, y, z) makes the fully degenerate case return
    (1, 0, 0).
    """
    eta, cols = _top_eigenspace(g)
    vec = None
    for axis in prefer_axes:
        proj = cols @ cols[axis, :]
        nrm = float(np.linalg.norm(proj))
        if nrm > 1e-8:
            vec = proj / nrm
            break
    if vec is None:  # pragma: no cover - top eigenspace is never empty
        vec = cols[:, 0]
    return eta, _positive_first(vec)


def _positive_first(vec) -> np.ndarray:
    """Flip ``vec`` so its first component above 1e-12 in magnitude is positive."""
    for comp in vec:
        if abs(comp) > 1e-12:
            return -vec if comp < 0 else vec
    return vec


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Reduced density matrix on the parties in ``keep`` (1-based labels)."""
    dims = rho.party_dims
    n = len(dims)
    kept = sorted(set(int(k) for k in keep))
    if not kept:
        raise ValueError("keep must name at least one party")
    if kept[0] < 1 or kept[-1] > n:
        raise ValueError(f"keep={kept} outside parties 1..{n}")
    # row index m of party m + 1 is summed against its column unless kept
    col = [n + m if m + 1 in kept else m for m in range(n)]
    out = [k - 1 for k in kept] + [col[k - 1] for k in kept]
    reduced = np.einsum(rho.matrix.reshape(dims + dims), [*range(n), *col], out)
    kept_dims = tuple(dims[k - 1] for k in kept)
    side = math.prod(kept_dims)
    return DensityMatrix(reduced.reshape(side, side), kept_dims)


def permute_parties(rho: DensityMatrix, new_order) -> DensityMatrix:
    """Reorder parties so the j-th party of the result is party new_order[j].

    ``new_order`` must be a permutation of 1..N in original labels.
    """
    dims = rho.party_dims
    n = len(dims)
    order = tuple(int(k) for k in new_order)
    if sorted(order) != list(range(1, n + 1)):
        raise ValueError(f"{order} is not a permutation of parties 1..{n}")
    axes = [k - 1 for k in order]
    t = rho.matrix.reshape(dims + dims)
    t = t.transpose(axes + [n + a for a in axes])
    new_dims = tuple(dims[a] for a in axes)
    side = math.prod(new_dims)
    return DensityMatrix(t.reshape(side, side), new_dims, validate=False)
