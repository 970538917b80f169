"""Brute-force verification of discord values by direct measurement search.

Everything here works on the raw density matrix with explicitly built
measurements, deliberately sharing nothing with the Bloch/closed-form code
path beyond the core matrix type, so agreement between the two routes is a
meaningful check rather than a tautology.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tensor_ops import DensityMatrix, Sym3

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
    [0, 2 pi); each refinement round re-grids a window around the best point
    shrunk by ``zoom_factor``.
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
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    return np.stack(
        [np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)],
        axis=-1,
    )


def _lifted_paulis(party_dims, part):
    pre = math.prod(party_dims[: part - 1])
    post = math.prod(party_dims[part:])
    return np.stack(
        [
            np.kron(np.kron(np.eye(pre), sigma), np.eye(post))
            for sigma in _SIGMA
        ]
    )


def _distances(rho_matrix, lifted, axes):
    """||rho - Pi(rho)||^2 for measuring along each axis in ``axes``.

    For the projectors P = (I +/- n.sigma)/2 the measured state is
    (rho + S rho S)/2 with S = n.sigma, so the distance is
    ||rho - S rho S||^2 / 4, evaluated entrywise per axis.
    """
    dim = rho_matrix.shape[0]
    out = np.empty(len(axes))
    chunk = max(1, 2_000_000 // (dim * dim))
    for start in range(0, len(axes), chunk):
        block = axes[start : start + chunk]
        s = np.einsum("na,aij->nij", block, lifted)
        delta = rho_matrix - s @ rho_matrix @ s
        out[start : start + len(block)] = 0.25 * (
            np.abs(delta) ** 2
        ).sum(axis=(1, 2))
    return out


def _tangent_frame(axis):
    pole = np.array([0.0, 0.0, 1.0]) if abs(axis[2]) < 0.9 else np.array([1.0, 0.0, 0.0])
    t1 = np.cross(axis, pole)
    t1 /= np.linalg.norm(t1)
    return t1, np.cross(axis, t1)


def _grid_search(evaluate_axes, grid, minimize=True):
    """Full sphere grid, then tangent-plane re-gridding around the best axis.

    The coarse grid is uniform in cos(theta) and phi; refining in the local
    tangent plane (rather than in the angles) keeps the window isotropic
    even at the poles, where the phi coordinate degenerates.  Returns
    (value, theta, phi, per-round best values).
    """
    sign = 1.0 if minimize else -1.0
    thetas = np.arccos(np.linspace(-1.0, 1.0, grid.theta_steps))
    phis = np.linspace(0.0, 2.0 * math.pi, grid.phi_steps, endpoint=False)
    tt, pp = np.meshgrid(thetas, phis, indexing="ij")
    axes = _axes_from_angles(tt.ravel(), pp.ravel())
    values = evaluate_axes(axes)
    idx = int(np.argmin(sign * values))
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
        idx = int(np.argmin(sign * values))
        if sign * values[idx] < sign * value:
            value = float(values[idx])
            best_axis = cand[idx]
        history.append(value)
        width /= grid.zoom_factor
    theta = math.acos(float(np.clip(best_axis[2], -1.0, 1.0)))
    phi = math.atan2(float(best_axis[1]), float(best_axis[0])) % (2.0 * math.pi)
    return value, theta, phi, history


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
    lifted = _lifted_paulis(rho.party_dims, part)

    def evaluate(axes):
        return _distances(rho.matrix, lifted, axes)

    value, theta, phi, history = _grid_search(evaluate, grid, minimize=True)
    return BruteForceResult(value, theta, phi, tuple(history))


def brute_force_quadratic_max(g, grid: GridSpec | None = None) -> float:
    """max of e G e^t over unit vectors e, by the same grid search."""
    grid = grid or GridSpec()
    m = g.as_matrix() if isinstance(g, Sym3) else np.asarray(g, dtype=float)

    def evaluate(axes):
        return np.einsum("ni,ij,nj->n", axes, m, axes)

    value, _, _, _ = _grid_search(evaluate, grid, minimize=False)
    return value


def cross_check_discord(
    rho: DensityMatrix, part: int, grid: GridSpec | None = None
) -> CrossCheckReport:
    """Closed-form discord versus the brute-force search, with their gap."""
    from .bloch import coefficient_tensor
    from .discord import discord_closed_form

    closed = discord_closed_form(coefficient_tensor(rho), part).value
    result = brute_force_discord(rho, part, grid)
    return CrossCheckReport(
        part=part,
        closed_form=closed,
        brute_force=result.value,
        gap=abs(closed - result.value),
        theta=result.theta,
        phi=result.phi,
    )
