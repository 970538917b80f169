"""Plain-NumPy references that the benchmark checks the program against.

Nothing here imports geodiscord.  The qubit basis is (I, X, Y, Z)/sqrt(2),
the order the library documents, so isometries it returns can be applied
to these tensors directly.  Qudit parties use the generalized Gell-Mann
basis; the bounds computed from it do not depend on that choice.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np


def ginibre(rng, dims, rank):
    """Random state rho = M M^dagger / tr, M a side x rank complex Gaussian."""
    side = math.prod(dims)
    m = rng.standard_normal((side, rank)) + 1j * rng.standard_normal((side, rank))
    rho = m @ m.conj().T
    return rho / np.trace(rho).real


def haar_unitary(rng, d):
    """Haar-random d x d unitary: QR of a complex Gaussian, phases fixed."""
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    diag = np.diag(r)
    return q * (diag / np.abs(diag))


def local_unitary(rng, dims, parties):
    """Kronecker product of Haar unitaries on ``parties`` (1-based), identity elsewhere."""
    u = np.eye(1)
    for k, d in enumerate(dims, start=1):
        u = np.kron(u, haar_unitary(rng, d) if k in parties else np.eye(d))
    return u


def ket_state(amplitudes):
    ket = np.asarray(amplitudes, dtype=complex)
    ket = ket / np.linalg.norm(ket)
    return np.outer(ket, ket.conj())


def ghz(n, sign=1.0):
    ket = np.zeros(2**n)
    ket[0], ket[-1] = 1.0, sign
    return ket_state(ket)


def w_state():
    ket = np.zeros(8)
    ket[[1, 2, 4]] = 1.0
    return ket_state(ket)


def family(name, p):
    """The three-qubit mixing families as documented by the library."""
    if name == "ghz-noise":
        return p * ghz(3) + (1.0 - p) * np.eye(8) / 8.0
    if name == "w-ghz":
        return p * w_state() + (1.0 - p) * ghz(3)
    if name == "ghz-ghzminus":
        return p * ghz(3, -1.0) + (1.0 - p) * ghz(3)
    raise ValueError(name)


@lru_cache(maxsize=None)
def gell_mann(d):
    """Orthonormal Hermitian basis, identity/sqrt(d) first; Paulis for d = 2."""
    elems = [np.eye(d, dtype=complex) / math.sqrt(d)]
    for j in range(d):
        for k in range(j + 1, d):
            sym = np.zeros((d, d), dtype=complex)
            sym[j, k] = sym[k, j] = 1.0
            anti = np.zeros((d, d), dtype=complex)
            anti[j, k], anti[k, j] = -1j, 1j
            elems += [sym / math.sqrt(2.0), anti / math.sqrt(2.0)]
    for level in range(1, d):
        diag = np.zeros(d)
        diag[:level] = 1.0
        diag[level] = -level
        elems.append(np.diag(diag).astype(complex) / math.sqrt(level * (level + 1)))
    return np.stack(elems)


def coefficients(rho, dims):
    """C[i_1..i_N] = tr(rho X_1[i_1] (x) ... (x) X_N[i_N])."""
    dims = tuple(dims)
    n = len(dims)
    cur = np.asarray(rho).reshape(dims + dims)
    for m in range(n):
        # axes are (rows m.., cols m.., indices ..m): contract row m and col m
        cur = np.tensordot(cur, gell_mann(dims[m]), axes=([0, n - m], [2, 1]))
    return np.ascontiguousarray(cur.real)


def unfolding(c, part):
    """Mode-``part`` unfolding (1-based): one row per basis index of the party."""
    return np.moveaxis(c, part - 1, 0).reshape(c.shape[part - 1], -1)


def norm_sq(c):
    return float(np.vdot(c, c).real)


def discord_lower_bound(c, part):
    """Sum of all but the top d-1 eigenvalues of the non-identity unfolding Gram.

    It bounds the geometric discord of the party from below and equals it
    for a qubit party (the sum of the two smallest eigenvalues of M M^t).
    """
    m = unfolding(c, part)[1:]
    d = math.isqrt(c.shape[part - 1])
    evals = np.linalg.eigvalsh(m @ m.T)
    return float(evals[: len(evals) - (d - 1)].sum())


def mode_product(c, a, part):
    return np.moveaxis(np.tensordot(a, c, axes=(1, part - 1)), 0, part - 1)


def telescoped_q(c, isometries):
    """||C||^2 - ||C x_k1 A_k1 ... x_kN A_kN||^2 for (part, A) pairs."""
    kept = c
    for part, a in isometries:
        kept = mode_product(kept, a, part)
    return norm_sq(c) - norm_sq(kept)


def greedy_chain(c, order, prefer=(2, 1, 0)):
    """Step values of successive optimal qubit measurements in ``order``.

    On a degenerate top eigenvalue (within 1e-12 on the Pauli-scaled Gram)
    the axis is the normalized projection of the first preferred coordinate
    axis onto the top eigenspace, the tie rule the library documents for
    its chain.
    """
    scale = 2.0 ** c.ndim
    cur = c
    steps = []
    for part in order:
        m = unfolding(cur, part)[1:]
        gram = m @ m.T
        evals, evecs = np.linalg.eigh(scale * gram)
        top = evecs[:, evals >= evals[-1] - 1e-12]
        axis = top[:, -1]
        for k in prefer:
            proj = top @ top[k, :]
            if np.linalg.norm(proj) > 1e-8:
                axis = proj / np.linalg.norm(proj)
                break
        steps.append(float(np.trace(gram) - axis @ gram @ axis))
        projector = np.zeros((4, 4))
        projector[0, 0] = 1.0
        projector[1:, 1:] = np.outer(axis, axis)
        cur = mode_product(cur, projector, part)
    return steps
