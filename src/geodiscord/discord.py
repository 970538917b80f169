"""Geometric measure of quantum discord for the measured party of a state.

The discord of party k is the squared Hilbert-Schmidt distance from the
state to the nearest state left invariant by some projective measurement on
party k.  Every entry point takes the coefficient tensor C of the state.
A qubit party, whatever the dimensions of the others, has a closed form:
with eta_max the top eigenvalue of G = 2^N F[1:, 1:], F the Gram of the
mode-k unfolding of C,

    D_k = 2^-N ( tr G - eta_max ),

and on N qubits tr G = ||s(k)||^2 + sum_{S containing k} ||T(S)||^2.
The top eigenvector also yields the optimal measurement axis, packaged as a
2 x 4 row isometry whose rows expand the two optimal rank-1 projectors.
For parties of higher dimension no closed form is available and a
multi-start numerical maximization provides a best-found value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bloch import CoefficientTensor, bloch_decompose, hermitian_basis
from .tensor_ops import DensityMatrix, Sym3, frobenius_norm_sq, sym3_top_eigen

__all__ = [
    "Isometry",
    "DiscordReport",
    "validate_isometry",
    "correlation_gram",
    "discord_closed_form",
    "isometry_from_axis",
    "discord_from_isometry",
    "discord_two_qubit",
    "discord_upper_bound",
]


@dataclass(frozen=True, eq=False)
class Isometry:
    """Real d x d^2 matrix whose rows expand rank-1 projectors of a party.

    Rows a_l satisfy a_l[0] = 1/sqrt(d) (identity component of a projector),
    the rows are orthonormal (A A^t = I), and the columns sum to the traces
    of the basis elements: sqrt(d) for the identity column, 0 elsewhere.
    """

    dim: int
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.shape != (self.dim, self.dim**2):
            raise ValueError(
                f"isometry for dimension {self.dim} must be "
                f"{self.dim}x{self.dim**2}, got {m.shape}"
            )
        object.__setattr__(self, "matrix", m)


def validate_isometry(iso: Isometry) -> Isometry:
    """Raise ValueError unless ``iso`` meets each row/column constraint to 1e-10."""
    a = iso.matrix
    d = iso.dim
    gram = a @ a.T
    if np.abs(gram - np.eye(d)).max() > 1e-10:
        raise ValueError("isometry rows are not orthonormal (A A^t != I)")
    if np.abs(a[:, 0] - 1.0 / math.sqrt(d)).max() > 1e-10:
        raise ValueError("isometry rows must have identity component 1/sqrt(d)")
    col_sums = a.sum(axis=0)
    expected = np.zeros(d * d)
    expected[0] = math.sqrt(d)
    if np.abs(col_sums - expected).max() > 1e-10:
        raise ValueError("isometry column sums must equal the basis traces")
    return iso


@dataclass(frozen=True, eq=False)
class DiscordReport:
    """Discord value for one measured party with its optimality witnesses."""

    part: int
    value: float
    g: Sym3
    eta_max: float
    e_max: np.ndarray
    a_tilde: Isometry
    norm_c_sq: float


def _clamp(value: float) -> float:
    # rounding can leave a provably non-negative quantity at ~-1e-16
    return 0.0 if -1e-12 < value < 0.0 else value


def _gram(tensor: np.ndarray, part: int) -> np.ndarray:
    """M M^t for M the mode-``part`` unfolding of C, from one read of C.

    Row and column 0 belong to the identity element, so the trace is
    ||C||^2.  C is viewed without a copy as V of shape (A, d^2, B), A and B
    the sizes of the modes before and after ``part``, and M M^t is the sum
    over a of V[a] V[a]^t.  When d^2 B < 256 and A > 1 it is read instead
    from the (A, d^2 B) view W: W^t W has d^2 x d^2 blocks indexed by pairs
    of the last modes, and the B diagonal blocks add up to M M^t.
    Otherwise the stacked products V[a] V[a]^t are summed, in slices of a
    that keep the stacked result within 2^16 entries.
    """
    n = tensor.ndim
    if not 1 <= part <= n:
        raise ValueError(f"party {part} out of range 1..{n}")
    d2 = tensor.shape[part - 1]
    a = math.prod(tensor.shape[: part - 1])
    b = math.prod(tensor.shape[part:])
    if a > 1 and d2 * b < 256:
        w = tensor.reshape(a, d2 * b)
        return np.trace((w.T @ w).reshape(d2, b, d2, b), axis1=1, axis2=3)
    v = tensor.reshape(a, d2, b)
    step = max(1, 2**16 // d2**2)
    g = np.zeros((d2, d2))
    for start in range(0, a, step):
        x = v[start : start + step]
        g += np.matmul(x, x.transpose(0, 2, 1)).sum(axis=0)
    return g


def _closed_form(tensor: np.ndarray, part: int, prefer_axes=(0, 1, 2)):
    """(D_k, F, eta_max, e_max) of a tensor whose mode ``part`` is a qubit.

    F is the 4 x 4 Gram of the mode-``part`` unfolding, so tr F = ||C||^2,
    and G = 2^N F[1:, 1:].  Measuring along e keeps F[0, 0] + e^t F[1:, 1:] e
    of tr F, so D_k = (tr G - eta_max) / 2^N.
    """
    full = _gram(tensor, part)
    if len(full) != 4:
        raise ValueError(
            f"party {part} has dimension {math.isqrt(len(full))}; "
            "the closed form needs a qubit party"
        )
    g = 2.0**tensor.ndim * full[1:, 1:]
    eta_max, e_max = sym3_top_eigen(g, prefer_axes=prefer_axes)
    return _clamp((float(np.trace(g)) - eta_max) / 2.0**tensor.ndim), full, eta_max, e_max


def correlation_gram(coeffs: CoefficientTensor, part: int) -> Sym3:
    """3x3 Gram matrix G of qubit ``part``, the ``g`` of the closed form.

    On N qubits each tensor containing the party contributes U^t U with U
    the tensor flattened over all other parties (party axis last), and the
    coherent vector contributes its outer product.
    """
    return discord_closed_form(coeffs, part).g


def discord_closed_form(coeffs: CoefficientTensor, part: int) -> DiscordReport:
    """Exact discord of a qubit party of any system, with its optimality witnesses."""
    value, full, eta_max, e_max = _closed_form(coeffs.tensor, part)
    return DiscordReport(
        part=part,
        value=value,
        g=Sym3.from_matrix(2.0**coeffs.n_parties * full[1:, 1:]),
        eta_max=eta_max,
        e_max=e_max,
        a_tilde=isometry_from_axis(e_max),
        norm_c_sq=float(np.trace(full)),
    )


def isometry_from_axis(axis) -> Isometry:
    """2x4 isometry for measuring a qubit along the unit Bloch vector ``axis``.

    Rows are (1, axis)/sqrt(2) and (1, -axis)/sqrt(2), the basis expansions
    of the projectors (I +/- axis . sigma)/2.
    """
    e = np.asarray(axis, dtype=float)
    if e.shape != (3,):
        raise ValueError("axis must be a 3-vector")
    if abs(np.linalg.norm(e) - 1.0) > 1e-10:
        raise ValueError(f"axis must be a unit vector, got norm {np.linalg.norm(e)}")
    rows = np.array(
        [[1.0, e[0], e[1], e[2]], [1.0, -e[0], -e[1], -e[2]]]
    ) / math.sqrt(2.0)
    return Isometry(2, rows)


def discord_from_isometry(
    coeffs: CoefficientTensor, iso: Isometry, part: int
) -> float:
    """||C||^2 - ||C x_part A||^2 for a candidate measurement isometry.

    Upper-bounds the discord for any valid isometry and equals it at the
    optimal one.  A and mode ``part`` of C are read in the default basis.
    """
    validate_isometry(iso)
    g = _gram(coeffs.tensor, part)
    if iso.dim**2 != len(g):
        raise ValueError(
            f"isometry dimension {iso.dim} does not match mode {part} size {len(g)}"
        )
    a = iso.matrix
    return _clamp(float(np.trace(g)) - float(np.vdot(a @ g, a)))


def discord_two_qubit(rho: DensityMatrix, part: int) -> float:
    """Two-qubit discord from the coherent vectors and correlation matrix.

    D_1 = (||x||^2 + ||T||^2 - lambda_max(x x^t + T T^t)) / 4, and the same
    with y and T^t T for the second party.
    """
    if rho.party_dims != (2, 2):
        raise ValueError(f"expected two qubit parties, got {rho.party_dims}")
    if part not in (1, 2):
        raise ValueError("part must be 1 or 2")
    dec = bloch_decompose(rho)
    t = dec.t[(1, 2)]
    vec = dec.s[part]
    m = np.outer(vec, vec) + (t @ t.T if part == 1 else t.T @ t)
    lam, _ = sym3_top_eigen(m)
    return _clamp((float(np.dot(vec, vec)) + frobenius_norm_sq(t) - lam) / 4.0)


# ---------------------------------------------------------------------------
# numerical upper bound for parties of any dimension
# ---------------------------------------------------------------------------


def discord_upper_bound(
    coeffs: CoefficientTensor,
    part: int,
    restarts: int = 32,
    seed: int = 0,
) -> tuple[float, Isometry]:
    """Best-found discord of ``part`` for a party of any dimension.

    With M the mode-``part`` unfolding of C and G = M M^t, measuring in the
    basis of the columns u_l of a unitary U keeps tr(A G A^t) of
    ||C||^2 = tr G, where row l of A expands the projector on u_l.  Each
    restart starts from the Q factor of a complex Gaussian matrix seeded by
    ``[seed, restart]`` and sets U to the polar factor of Z, the columns
    (H_l - lambda_min(H_l) I) u_l with H_l = sum_i (A G)[l, i] X_i (Journee
    et al., JMLR 11, 2010).  From the second step on, a step from U to the
    polar factor U' also tries the polar factor of U' + beta (U' - U) and
    keeps it when its kept norm is larger; beta starts at 1, grows by 1.5 up
    to 8 after a success and halves down to 1/4 after a failure.  A restart
    ends when a step gains less than 1e-15 ||C||^2 or after 500 steps.  As G
    is positive semidefinite the kept norm is convex in each projector, so
    it lies above its linearization, which the polar factor maximizes over
    unitaries because each H_l - lambda_min I is positive semidefinite; an
    extrapolated point is kept only above the polar one, so no step lowers
    the value.  A fixed point is exactly a zero of the Riemannian gradient
    Z U^+ - U Z^+.

    The result comes from the lowest-numbered restart within 1e-12 ||C||^2
    of the best kept norm.  It is an upper bound on the true discord and
    not a certificate: for parties of dimension 3 or more the ascent can
    stop at a local maximum.  A qubit party needs no ascent: whatever the
    dimensions of the others, the closed form and its optimal axis are
    exact, and they are returned without drawing any restart.  The rows are
    built in ``hermitian_basis(d)``, so mode ``part`` of C must be in that
    default basis too; C does not record its basis to check this.
    """
    if 1 <= part <= coeffs.n_parties and coeffs.party_dims[part - 1] == 2:
        report = discord_closed_form(coeffs, part)
        return report.value, report.a_tilde
    g = _gram(coeffs.tensor, part)
    norm_c = float(np.trace(g))
    dim = math.isqrt(len(g))
    flat_basis = hermitian_basis(dim).elements.reshape(dim * dim, -1)

    def point(u):
        # row l is Re <u_l| X_i |u_l>: one product of Q[l, (c, d)] =
        # conj(u_cl) u_dl with the flattened basis; R = A G gives the kept
        # norm here and the next step's H_l
        q = (u.conj().T[:, :, None] * u.T[:, None, :]).reshape(dim, -1)
        rows = (q @ flat_basis.T).real
        r = rows @ g
        return u, rows, r, float(np.vdot(r, rows))

    def polar(m):
        w, _, vh = np.linalg.svd(m)
        return w @ vh

    found = []
    for restart in range(max(1, restarts)):
        gauss = np.random.default_rng([seed, restart]).standard_normal((2, dim, dim))
        u, rows, r, value = point(np.linalg.qr(gauss[0] + 1j * gauss[1])[0])
        beta = 1.0
        for step in range(500):
            h = (r @ flat_basis).reshape(dim, dim, dim)
            z = np.matmul(h, u.T[:, :, None])[:, :, 0].T - np.linalg.eigvalsh(h)[:, 0] * u
            previous, kept = value, point(polar(z))
            if step:
                trial = point(polar(kept[0] + beta * (kept[0] - u)))
                if trial[3] > kept[3]:
                    kept, beta = trial, min(8.0, 1.5 * beta)
                else:
                    beta = max(0.25, 0.5 * beta)
            u, rows, r, value = kept
            if value - previous < 1e-15 * norm_c:
                break
        found.append((value, rows))
    # restarts at one optimum end about 1e-14 ||C||^2 apart, so an exact
    # comparison would let rounding choose the returned row order
    top = max(value for value, _ in found)
    value, rows = next(pair for pair in found if pair[0] >= top - 1e-12 * norm_c)
    return _clamp(norm_c - value), Isometry(dim, rows)
