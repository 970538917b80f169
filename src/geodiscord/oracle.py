"""Brute-force verification of discord values by direct measurement search.

Everything here works on the raw density matrix with explicitly built
measurements, deliberately sharing nothing with the Bloch/closed-form code
path beyond the core matrix type and the axis-sign rule, so agreement
between the two routes is a meaningful check rather than a tautology.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tensor_ops import DensityMatrix, Sym3, _positive_first

__all__ = [
    "GridSpec",
    "BruteForceResult",
    "CrossCheckReport",
    "brute_force_discord",
    "brute_force_quadratic_max",
    "cross_check_discord",
]

_SIGMA = np.array(
    [
        [[0, 1], [1, 0]],
        [[0, -1j], [1j, 0]],
        [[1, 0], [0, -1]],
    ],
    dtype=complex,
)

_LOCAL_POINTS = 33  # refinement grid is LOCAL_POINTS x LOCAL_POINTS per round
_MAX_AXES = 1_000_000  # initial grid cap, about 15 times the default grid
_MAX_ROUNDS = 50  # at the default zoom the window is below rounding after 17


@dataclass(frozen=True)
class GridSpec:
    """Angle grid for the sphere search.

    The initial grid is uniform in cos(theta) on [-1, 1] and in phi on
    [0, 2 pi), and only its cos(theta) >= 0 rows are scored: with an odd
    ``phi_steps`` they are not the antipodes of the others, and values agree
    with the full grid only within its resolution.  Each refinement round
    re-grids a window around the best point shrunk by ``zoom_factor``.
    """

    theta_steps: int = 181
    phi_steps: int = 360
    refinement_rounds: int = 3
    zoom_factor: float = 10.0

    def __post_init__(self):
        if self.theta_steps < 8 or self.phi_steps < 8:
            raise ValueError("grids need at least 8 steps per angle")
        if self.theta_steps * self.phi_steps > _MAX_AXES:
            raise ValueError(f"grids are capped at {_MAX_AXES} axes (theta x phi)")
        if not 0 <= self.refinement_rounds <= _MAX_ROUNDS:
            raise ValueError(f"refinement_rounds must be 0 to the cap of {_MAX_ROUNDS}")
        if self.zoom_factor <= 1.0:
            raise ValueError("zoom_factor must exceed 1")


@dataclass(frozen=True)
class BruteForceResult:
    value: float
    theta: float
    phi: float
    round_values: tuple  # best value after the initial grid and each round


@dataclass(frozen=True)
class CrossCheckReport:
    part: int
    closed_form: float
    brute_force: float
    gap: float
    theta: float
    phi: float


def _axes_from_angles(theta, phi):
    return np.stack(
        [np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)],
        axis=-1,
    )


def _distances(blocks, axes):
    """||rho - Pi(rho)||^2 for measuring along each axis in ``axes``.

    For the projectors P = (I +/- n.sigma)/2 the measured state is
    (rho + S rho S)/2 with S = n.sigma, so the distance is
    ||rho - S rho S||^2 / 4, evaluated entrywise per axis.  S acts on the
    measured qubit alone: block ij of S rho S is sum_kl s_ik rho_kl s_lj
    with s = n.sigma the 2x2 matrix, so an axis costs O(D^2).
    """
    out = np.empty(len(axes))
    chunk = max(1, 2_000_000 // blocks.size)
    for start in range(0, len(axes), chunk):
        batch = axes[start : start + chunk]
        s = np.einsum("na,aij->nij", batch, _SIGMA)
        weights = np.einsum("nik,nlj->nijkl", s, s).reshape(-1, 4)
        delta = (weights @ blocks).reshape(len(batch), 4, -1)
        delta -= blocks
        out[start : start + len(batch)] = 0.25 * (np.abs(delta) ** 2).sum(axis=(1, 2))
    return out


def _tangent_frame(axis):
    pole = np.array([0.0, 0.0, 1.0]) if abs(axis[2]) < 0.9 else np.array([1.0, 0.0, 0.0])
    t1 = np.cross(axis, pole)
    t1 /= np.linalg.norm(t1)
    return t1, np.cross(axis, t1)


def _grid_search(evaluate_axes, grid):
    """Half-sphere grid, then tangent-plane re-gridding around the best axis.

    Only the coarse cos(theta) >= 0 rows are scored (see ``GridSpec``), as
    n and -n are one measurement.  Refining in the tangent plane keeps the
    window isotropic even at the poles, where phi degenerates.  Returns the
    minimum, the angles of the best axis under the sign rule of
    ``sym3_top_eigen``, and the tuple of per-round best values.
    """
    cos_thetas = np.linspace(-1.0, 1.0, grid.theta_steps)
    thetas = np.arccos(cos_thetas[cos_thetas >= 0.0])
    phis = np.linspace(0.0, 2.0 * math.pi, grid.phi_steps, endpoint=False)
    tt, pp = np.meshgrid(thetas, phis, indexing="ij")
    axes = _axes_from_angles(tt.ravel(), pp.ravel())
    values = evaluate_axes(axes)
    idx = int(np.argmin(values))
    value = float(values[idx])
    best_axis = axes[idx]
    # worst-case angular cell diameter: theta cells widen to ~sqrt(2 dcos)
    # at the poles
    width = max(
        math.sqrt(4.0 / (grid.theta_steps - 1)), 2.0 * math.pi / grid.phi_steps
    )
    history = [value]
    offsets = np.linspace(-1.0, 1.0, _LOCAL_POINTS)
    uu, vv = np.meshgrid(offsets, offsets, indexing="ij")
    for _ in range(grid.refinement_rounds):
        t1, t2 = _tangent_frame(best_axis)
        cand = (
            best_axis[None, :]
            + width * uu.reshape(-1, 1) * t1[None, :]
            + width * vv.reshape(-1, 1) * t2[None, :]
        )
        cand /= np.linalg.norm(cand, axis=1)[:, None]
        values = evaluate_axes(cand)
        idx = int(np.argmin(values))
        if values[idx] < value:
            value = float(values[idx])
            best_axis = cand[idx]
        history.append(value)
        width /= grid.zoom_factor
    best_axis = _positive_first(best_axis)
    theta = math.acos(float(np.clip(best_axis[2], -1.0, 1.0)))
    phi = math.atan2(float(best_axis[1]), float(best_axis[0])) % (2.0 * math.pi)
    return value, theta, phi, tuple(history)


def brute_force_discord(
    rho: DensityMatrix, part: int, grid: GridSpec | None = None
) -> BruteForceResult:
    """Minimum measured-state distance over a refined grid of qubit axes."""
    grid = grid or GridSpec()
    if not 1 <= part <= rho.n_parties:
        raise ValueError(f"party {part} out of range 1..{rho.n_parties}")
    if rho.party_dims[part - 1] != 2:
        raise ValueError(
            f"party {part} has dimension {rho.party_dims[part - 1]}, "
            "the measurement search only handles qubits"
        )
    pre = math.prod(rho.party_dims[: part - 1])
    post = math.prod(rho.party_dims[part:])
    # rho_kl, the blocks in the measured qubit's index, one row each (2k + l)
    view = rho.matrix.reshape(pre, 2, post * pre, 2, post)
    blocks = view.transpose(1, 3, 0, 2, 4).reshape(4, -1)
    return BruteForceResult(*_grid_search(lambda axes: _distances(blocks, axes), grid))


def brute_force_quadratic_max(g, grid: GridSpec | None = None) -> float:
    """max of e G e^t over unit vectors e, by the same grid search."""
    grid = grid or GridSpec()
    m = g.as_matrix() if isinstance(g, Sym3) else np.asarray(g, dtype=float)

    def evaluate(axes):
        return -np.einsum("ni,ij,nj->n", axes, m, axes)

    return -_grid_search(evaluate, grid)[0]


def cross_check_discord(
    rho: DensityMatrix, part: int, grid: GridSpec | None = None
) -> CrossCheckReport:
    """Closed-form discord versus the brute-force search, with their gap."""
    from .bloch import coefficient_tensor
    from .discord import discord_closed_form

    closed = discord_closed_form(coefficient_tensor(rho), part).value
    result = brute_force_discord(rho, part, grid)
    return CrossCheckReport(
        part=part, closed_form=closed, brute_force=result.value,
        gap=abs(closed - result.value), theta=result.theta, phi=result.phi,
    )
