"""Quantum relative entropy between dense states, in base-2 units.

``relative_entropy`` is the dense route: it validates both operators,
diagonalizes them and applies the shared support rule of ``linalg`` (an
eigenvalue or a weight at or below the support floor counts as zero), so
a genuine eigenvalue above the floor is never dropped and weight of rho
on a kernel of sigma makes D infinite.  ``detection`` uses it for the
warden's divergence in every scenario.

``DvqTriple`` holds D with its centered second and fourth moments V and
Q (bits, bits^2, bits^4).  The joint-output moments and the E1 warden's
divergence and curvature have scalar closed forms in ``covert``; the
dense moments and curvature functionals they replaced live next to the
tests as their oracles.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .linalg import (
    _support_floor,
    _support_mask,
    density_operator,
    eig_hermitian,
    matrix_log2,
)


class DvqTriple(NamedTuple):
    """Relative entropy and its centered second and fourth moments."""

    d: float
    v: float
    q4: float


def _support_violation(rho: np.ndarray, sigma: np.ndarray) -> bool:
    """True if rho carries weight above the support floor on the kernel of sigma."""
    w, v = eig_hermitian(sigma)
    kernel = v[:, ~_support_mask(w)]
    if kernel.shape[1] == 0:
        return False
    leaked = float(np.einsum("ij,ji->", kernel.conj().T @ rho, kernel).real)
    return leaked > _support_floor(w)


def relative_entropy(rho, sigma) -> float:
    """Quantum relative entropy D(rho||sigma) in bits.

    Tr[rho (log2 rho - log2 sigma)] when supp(rho) is contained in
    supp(sigma); +inf otherwise.
    """
    rho = density_operator(rho)
    sigma = density_operator(sigma)
    if rho.shape != sigma.shape:
        raise ValueError(f"incompatible shapes {rho.shape} and {sigma.shape}")
    if _support_violation(rho, sigma):
        return math.inf
    diff = matrix_log2(rho) - matrix_log2(sigma)
    return float(np.trace(rho @ diff).real)
