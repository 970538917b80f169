"""Parameter sweeps over the mixing families and eigen-branch diagnostics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bloch import coefficient_tensor
from .discord import correlation_gram, discord_closed_form
from .states import FamilySpec, family_state
from .tensor_ops import _top_eigenspace
from .total import total_quantum_correlations

__all__ = ["SweepRow", "sweep_family", "write_sweep_csv", "find_branch_crossings"]

_MAX_STEPS = 100_000


@dataclass(frozen=True)
class SweepRow:
    p: float
    parts: tuple  # the reported parties
    discords: tuple  # D_k for each of ``parts``, in order
    q: float


def sweep_family(family: str, p_from: float, p_to: float, steps: int, parts=None):
    """Rows of (p, D_k..., Q) on a uniform inclusive grid of the parameter."""
    if not 2 <= steps <= _MAX_STEPS:
        raise ValueError(f"a sweep needs 2 to {_MAX_STEPS} steps, got {steps}")
    probe = family_state(FamilySpec(family, min(max(p_from, 0.0), 1.0)))
    n = probe.n_parties
    if parts is None:
        parts = tuple(range(1, n + 1))
    parts = tuple(int(k) for k in parts)
    if any(not 1 <= k <= n for k in parts):
        raise ValueError(f"parts {parts} outside parties 1..{n}")
    rows = []
    for p in np.linspace(p_from, p_to, steps):
        coeffs = coefficient_tensor(family_state(FamilySpec(family, float(p))))
        discords = tuple(discord_closed_form(coeffs, k).value for k in parts)
        q = total_quantum_correlations(coeffs).q_value
        rows.append(SweepRow(float(p), parts, discords, q))
    return rows


def write_sweep_csv(rows, path) -> None:
    """CSV with columns p, d<k> per reported party, q at 12 significant digits."""
    header = ["p"] + [f"d{k}" for k in rows[0].parts] + ["q"]
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(",".join(header) + "\n")
        for row in rows:
            cells = [f"{row.p:.12g}"]
            cells += [f"{d:.12g}" for d in row.discords]
            cells.append(f"{row.q:.12g}")
            handle.write(",".join(cells) + "\n")


def _top_space(family, part, p):
    coeffs = coefficient_tensor(family_state(FamilySpec(family, float(p))))
    return _top_eigenspace(correlation_gram(coeffs, part))[1]


def _nested(space_a, space_b) -> bool:
    # one space lies within 60 degrees of the other: every principal angle
    # between them, as many as the smaller dimension, has cosine above 1/2
    return bool(np.linalg.svd(space_a.T @ space_b, compute_uv=False).min() > 0.5)


def find_branch_crossings(
    family: str,
    part: int = 1,
    lo: float = 0.0,
    hi: float = 1.0,
    scan_steps: int = 201,
    tol: float = 1e-9,
):
    """Parameters where the top eigenvalue of the party's Gram matrix
    switches eigenvector branch.

    The top eigenspace (every eigenvalue tied with the largest, as in
    ``sym3_top_eigen``) is taken at each point of the parameter grid.  A
    grid point whose space has a larger dimension than that of every grid
    neighbour is an isolated tie, such as a crossing that falls on the grid
    or G = 2I at both ends of ghz-ghzminus, and is skipped.  Between the
    remaining consecutive points a switch is counted only when neither
    space contains the other, and it is localized by bisection with the
    same containment test, so a tie is never reported as a crossing.
    """
    ps = np.linspace(lo, hi, scan_steps)
    spaces = [_top_space(family, part, p) for p in ps]
    sizes = [space.shape[1] for space in spaces]
    kept = [
        i
        for i in range(len(ps))
        if not all(sizes[i] > sizes[j] for j in (i - 1, i + 1) if 0 <= j < len(ps))
    ]
    crossings = []
    for i, j in zip(kept, kept[1:]):
        if _nested(spaces[i], spaces[j]):
            continue
        a, b = float(ps[i]), float(ps[j])
        while b - a > tol:
            mid = (a + b) / 2.0
            if _nested(spaces[i], _top_space(family, part, mid)):
                a = mid
            else:
                b = mid
        crossings.append((a + b) / 2.0)
    return crossings
