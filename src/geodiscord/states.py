"""Reference states, one-parameter mixing families and random states."""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .tensor_ops import MAX_DIMENSION, DensityMatrix

__all__ = [
    "FAMILIES",
    "FamilySpec",
    "ghz",
    "ghz_minus",
    "w_state",
    "bell",
    "maximally_mixed",
    "named_state",
    "family_state",
    "random_density",
]

FAMILIES = ("ghz-noise", "w-ghz", "ghz-ghzminus")
_MAX_QUBITS = int(math.log2(MAX_DIMENSION))


def _pure(amplitudes, party_dims) -> DensityMatrix:
    ket = np.asarray(amplitudes, dtype=complex)
    ket = ket / np.linalg.norm(ket)
    return DensityMatrix(np.outer(ket, ket.conj()), party_dims)


def ghz(n_qubits: int = 3) -> DensityMatrix:
    """(|0..0> + |1..1>)/sqrt(2) on ``n_qubits`` qubits."""
    if not 2 <= n_qubits <= _MAX_QUBITS:
        raise ValueError(f"ghz needs 2 to {_MAX_QUBITS} qubits (dimension cap {MAX_DIMENSION})")
    ket = np.zeros(2**n_qubits)
    ket[0] = ket[-1] = 1.0
    return _pure(ket, (2,) * n_qubits)


def ghz_minus(n_qubits: int = 3) -> DensityMatrix:
    """(|0..0> - |1..1>)/sqrt(2) on ``n_qubits`` qubits."""
    if not 2 <= n_qubits <= _MAX_QUBITS:
        raise ValueError(f"ghz-minus needs 2 to {_MAX_QUBITS} qubits (dimension cap {MAX_DIMENSION})")
    ket = np.zeros(2**n_qubits)
    ket[0], ket[-1] = 1.0, -1.0
    return _pure(ket, (2,) * n_qubits)


def w_state() -> DensityMatrix:
    """(|100> + |010> + |001>)/sqrt(3)."""
    ket = np.zeros(8)
    ket[4] = ket[2] = ket[1] = 1.0
    return _pure(ket, (2, 2, 2))


def bell() -> DensityMatrix:
    """(|00> + |11>)/sqrt(2)."""
    return ghz(2)


def maximally_mixed(party_dims) -> DensityMatrix:
    dims = tuple(int(d) for d in party_dims)
    side = math.prod(dims)
    if side > MAX_DIMENSION:
        raise ValueError(f"total dimension {side} exceeds the cap of {MAX_DIMENSION}")
    return DensityMatrix(np.eye(side) / side, dims)


_NAME_RE = re.compile(r"^([a-z][a-z-]*)\s*(?:\(\s*([\d,\s]*)\))?$")


def named_state(name: str) -> DensityMatrix:
    """Build a state from a name like ``ghz(3)``, ``bell``, ``max-mixed(2,2)``."""
    match = _NAME_RE.match(name.strip().lower())
    if not match:
        raise ValueError(f"cannot parse state name {name!r}")
    base, arg_text = match.group(1), match.group(2)
    args = [int(a) for a in arg_text.split(",") if a.strip()] if arg_text else []
    if base == "ghz":
        return ghz(args[0] if args else 3)
    if base == "ghz-minus":
        return ghz_minus(args[0] if args else 3)
    if base == "w":
        if args and args != [3]:
            raise ValueError("the w state is only defined for 3 qubits")
        return w_state()
    if base == "bell":
        if args:
            raise ValueError("bell takes no arguments")
        return bell()
    if base == "max-mixed":
        return maximally_mixed(args if args else (2, 2))
    raise ValueError(f"unknown state name {name!r}")


@dataclass(frozen=True)
class FamilySpec:
    """One member of a named one-parameter family of 3-qubit states."""

    family: str
    p: float

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(
                f"unknown family {self.family!r}; choose one of {FAMILIES}"
            )
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"family parameter must lie in [0, 1], got {self.p}")


def family_state(spec: FamilySpec) -> DensityMatrix:
    """Convex mixture selected by ``spec``.

    ghz-noise      p GHZ + (1-p)/8 I
    w-ghz          p W + (1-p) GHZ
    ghz-ghzminus   p GHZ- + (1-p) GHZ
    """
    p = spec.p
    if spec.family == "ghz-noise":
        mix = p * ghz().matrix + (1.0 - p) * np.eye(8) / 8.0
    elif spec.family == "w-ghz":
        mix = p * w_state().matrix + (1.0 - p) * ghz().matrix
    else:
        mix = p * ghz_minus().matrix + (1.0 - p) * ghz().matrix
    return DensityMatrix(mix, (2, 2, 2))


def random_density(party_dims, rank=None, seed: int = 0) -> DensityMatrix:
    """Random state rho = M M+ / tr(M M+), M a D x rank complex Gaussian.

    Randomness comes from numpy's default 64-bit generator (PCG64) seeded
    with ``seed``; the same seed always returns the identical matrix.
    """
    dims = tuple(int(d) for d in party_dims)
    side = math.prod(dims)
    if side > MAX_DIMENSION:
        raise ValueError(f"total dimension {side} exceeds the cap of {MAX_DIMENSION}")
    if rank is None:
        rank = side
    if not 1 <= rank <= side:
        raise ValueError(f"rank must lie in 1..{side}, got {rank}")
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((side, rank)) + 1j * rng.standard_normal((side, rank))
    gram = m @ m.conj().T
    return DensityMatrix(gram / np.trace(gram).real, dims)
