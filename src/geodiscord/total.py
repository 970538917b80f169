"""Total quantum correlations via successive optimal measurements.

Measuring party k optimally removes D_k worth of correlations and leaves a
state that is classical for that party but generally still correlated.
Measuring every party in turn, each step optimal for the current (already
partially measured) state, removes everything; the accumulated per-step
discords telescope into

    Q = ||C||^2 - ||C x_1 A(1) x_2 A(2) ... x_N A(N)||^2

for the recorded step isometries.  Per-step values depend on the order; the
report therefore records the order used.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bloch import CoefficientTensor, bloch_decompose
from .discord import Isometry, _clamp, _closed_form, isometry_from_axis
from .tensor_ops import DensityMatrix, frobenius_norm_sq, n_mode_product, sym3_top_eigen

__all__ = [
    "ChainStep",
    "TotalCorrelationReport",
    "total_quantum_correlations",
    "two_qubit_total_correlations",
]

# When a step's top eigenvalue is degenerate the measurement choice changes
# the residual correlations downstream even though the step value does not.
# Preferring the z axis keeps chains on computational-basis states (GHZ and
# friends) inside their natural classical basis.
CHAIN_AXIS_PREFERENCE = (2, 1, 0)


@dataclass(frozen=True, eq=False)
class ChainStep:
    """One measurement of the chain.

    ``kept`` is C x_j A(j) over the parties j measured up to this step, with
    2 entries on each of their modes.  ``coefficients``, the full-shape
    tensor after this step's measurement, is built from it on each access.
    """

    part: int
    value: float
    isometry: Isometry
    measured: tuple  # (part, Isometry) of this step and every earlier one
    kept: np.ndarray

    @property
    def coefficients(self) -> CoefficientTensor:
        t = self.kept
        for part, iso in self.measured:
            t = n_mode_product(t, iso.matrix.T, part)
        return CoefficientTensor((2,) * t.ndim, t)


@dataclass(frozen=True, eq=False)
class TotalCorrelationReport:
    q_value: float
    order: tuple
    steps: tuple


def total_quantum_correlations(
    coeffs: CoefficientTensor, order=None
) -> TotalCorrelationReport:
    """Greedy successive-measurement chain over all qubit parties.

    At each step the discord of the next party in ``order`` is computed on
    the current (partially measured) tensor via the closed form, the optimal
    isometry A recorded, and the tensor contracted with A, which halves it
    and, A having orthonormal rows, leaves every later Gram matrix as for
    C x A^t A.  Q is the sum of the step values; each step's full-shape
    ``coefficients`` are built only when accessed.
    """
    if any(d != 2 for d in coeffs.party_dims):
        raise ValueError(
            f"operation requires qubit parties, got dimensions {coeffs.party_dims}"
        )
    n = coeffs.n_parties
    if order is None:
        order = tuple(range(1, n + 1))
    order = tuple(int(k) for k in order)
    if sorted(order) != list(range(1, n + 1)):
        raise ValueError(f"{order} is not a permutation of parties 1..{n}")
    cur = coeffs.tensor
    measured = ()
    steps = []
    for part in order:
        value, _, _, axis = _closed_form(cur, part, CHAIN_AXIS_PREFERENCE)
        iso = isometry_from_axis(axis)
        cur = n_mode_product(cur, iso.matrix, part)
        measured += ((part, iso),)
        steps.append(ChainStep(part, value, iso, measured, cur))
    return TotalCorrelationReport(sum(step.value for step in steps), order, tuple(steps))


def two_qubit_total_correlations(rho: DensityMatrix) -> float:
    """D_1 of the state plus D_2 of the optimally measured state.

    Matches ``total_quantum_correlations`` with order (1, 2); kept as a
    direct two-qubit expression in terms of the coherent vectors and the
    (measured) correlation matrix.
    """
    if rho.party_dims != (2, 2):
        raise ValueError(f"expected two qubit parties, got {rho.party_dims}")
    dec = bloch_decompose(rho)
    x = dec.s[1]
    y = dec.s[2]
    t = dec.t[(1, 2)]
    eta, axis = sym3_top_eigen(
        np.outer(x, x) + t @ t.T, prefer_axes=CHAIN_AXIS_PREFERENCE
    )
    d1 = _clamp((float(x @ x) + frobenius_norm_sq(t) - eta) / 4.0)
    # measured state: y is untouched, T keeps its component along the axis
    t_tilde = np.outer(axis, axis @ t)
    zeta, _ = sym3_top_eigen(np.outer(y, y) + t_tilde.T @ t_tilde)
    d2 = _clamp((float(y @ y) + frobenius_norm_sq(t_tilde) - zeta) / 4.0)
    return d1 + d2
