"""Dense complex Hermitian linear algebra on small dimensions.

The few matrix steps of the library run through the primitives here:
Hermitian validation, symmetric powers of 2x2 matrices by a degree
recurrence (``monomial_step`` and ``dicke_scaling``, the Schur-Weyl
blocks of ``detection``), a Hermitian eigensolver with a deterministic
ordering convention and one support rule for its kernel (the feasibility
verdicts of ``channels``), and the trace distance.  The scalar closed
forms of ``covert`` (moments, warden divergence, curvature) need none of
them.  The validated states, Kronecker, tensor and one-matrix symmetric
powers, partial traces and operator logarithms that the tests check the
library against live in ``tests/oracles.py``.  Dimensions are capped at
2**12.

All functions are pure: inputs are never mutated and outputs are fresh
arrays (``dicke_scaling``'s are cached and read-only), so values are
safe to share between threads.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

DIM_CAP = 2**12

HERMITICITY_TOL = 1e-12
# Support rule, shared by every kernel test: an eigenvalue or a weight at or
# below SUPPORT_RTOL * dim * lambda_max counts as zero.  A backward-stable
# Hermitian eigensolver moves eigenvalues by a small multiple of
# eps * lambda_max (at most 5 eps * lambda_max measured on rank-deficient
# states up to dim 1024), so anything above the floor is a genuine
# eigenvalue and keeps its logarithm.
SUPPORT_RTOL = 4.0 * float(np.finfo(np.float64).eps)


def hermitian_operator(matrix) -> np.ndarray:
    """Validate a dense Hermitian matrix and return it as complex128.

    Parameters
    ----------
    matrix : array_like
        Square matrix expected to satisfy A = A^dagger entrywise within
        HERMITICITY_TOL.

    Returns
    -------
    numpy.ndarray
        The validated matrix, dtype complex128.

    Raises
    ------
    ValueError
        If the matrix is not square, contains non-finite entries,
        violates Hermiticity, or its dimension falls outside [1, DIM_CAP].
    """
    a = np.asarray(matrix, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    dim = a.shape[0]
    if dim < 1 or dim > DIM_CAP:
        raise ValueError(f"dimension {dim} outside [1, {DIM_CAP}]")
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise ValueError("matrix contains non-finite entries")
    defect = np.max(np.abs(a - a.conj().T))
    if defect > HERMITICITY_TOL:
        raise ValueError(f"matrix is not Hermitian: max |A - A^dag| = {defect:g}")
    return a


def monomial_step(a, mono) -> np.ndarray:
    """Monomial matrix of Sym^(k+1)(A) from that of Sym^k(A), stacked.

    On the monomial basis x^(k-l) y^l of degree-k polynomials, A sends
    x -> a00 x + a10 y and y -> a01 x + a11 y, so column m of the monomial
    matrix M_k(A) holds the coefficients of (a00 x + a10 y)^(k-m)
    (a01 x + a11 y)^m.  One more factor a00 x + a10 y gives the columns
    m <= k of M_(k+1), and one more a01 x + a11 y on column k gives the
    new last column: two taps per column, no polynomial product.  The
    step is linear in A and in M separately.  ``a`` has shape (..., 2, 2)
    and ``mono`` (..., k+1, k+1); their leading axes broadcast.
    """
    lead = np.broadcast_shapes(a.shape[:-2], mono.shape[:-2])
    size = mono.shape[-1] + 1
    out = np.zeros(lead + (size, size), dtype=np.result_type(a, mono))
    a00, a01, a10, a11 = (a[..., i, j, np.newaxis] for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)))
    out[..., :-1, :-1] = a00[..., np.newaxis] * mono
    out[..., 1:, :-1] += a10[..., np.newaxis] * mono
    last = mono[..., -1]
    out[..., :-1, -1] = a01 * last
    out[..., 1:, -1] += a11 * last
    return out


@functools.lru_cache(maxsize=256)
def dicke_scaling(k: int) -> np.ndarray:
    """Entrywise factors sqrt(C(k, m) / C(k, l)) taking M_k(A) to Sym^k(A).

    Dicke vector m is sqrt(C(k, m)) times the monomial's symmetric
    tensor.  The array is cached per k and read-only.
    """
    root = np.sqrt([float(math.comb(k, m)) for m in range(k + 1)])
    scale = root[np.newaxis, :] / root[:, np.newaxis]
    scale.flags.writeable = False
    return scale


class SpectralDecomposition(NamedTuple):
    """Eigenvalues (real, descending) and matching orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        """Reassemble sum_i lambda_i |v_i><v_i|."""
        w, v = self
        return (v * w) @ v.conj().T


def _lexicographic_key(column: np.ndarray):
    return tuple(x for entry in column for x in (entry.real, entry.imag))


def order_eigensystem(eigenvalues, eigenvectors) -> SpectralDecomposition:
    """Put an eigensystem into the package's deterministic convention.

    Eigenvalues sorted descending; each eigenvector's first entry of
    non-negligible magnitude is rotated to be real positive; exact
    eigenvalue ties are broken by lexicographic comparison of the
    phase-fixed vectors.  Equal inputs therefore give identical outputs.
    """
    w = np.asarray(eigenvalues, dtype=np.float64).copy()
    v = np.asarray(eigenvectors, dtype=np.complex128).copy()
    order = np.argsort(-w, kind="stable")
    w = w[order]
    v = v[:, order]
    for k in range(v.shape[1]):
        col = v[:, k]
        lead = np.flatnonzero(np.abs(col) > 1e-12 * np.abs(col).max())[0]
        z = col[lead]
        v[:, k] = col * (z.conjugate() / abs(z))
    start = 0
    for stop in range(1, len(w) + 1):
        if stop == len(w) or w[stop] != w[start]:
            if stop - start > 1:
                cols = sorted(range(start, stop), key=lambda k: _lexicographic_key(v[:, k]))
                v[:, start:stop] = v[:, cols]
            start = stop
    return SpectralDecomposition(w, v)


def eig_hermitian(h) -> SpectralDecomposition:
    """Spectral decomposition of a Hermitian matrix, deterministically ordered."""
    a = hermitian_operator(h)
    w, v = np.linalg.eigh(a)
    return order_eigensystem(w, v)


def _support_floor(eigenvalues: np.ndarray) -> float:
    """Largest magnitude that counts as zero beside these (descending) eigenvalues."""
    return SUPPORT_RTOL * len(eigenvalues) * max(float(eigenvalues[0]), 0.0)


def _support_mask(eigenvalues: np.ndarray) -> np.ndarray:
    """Boolean mask of the eigenvalues above the support floor."""
    return eigenvalues > _support_floor(eigenvalues)


def trace_distance(rho, sigma) -> float:
    """Half the trace norm of rho - sigma for Hermitian arguments."""
    r = np.asarray(rho, dtype=np.complex128)
    s = np.asarray(sigma, dtype=np.complex128)
    if r.shape != s.shape or r.ndim != 2 or r.shape[0] != r.shape[1]:
        raise ValueError(f"incompatible shapes {r.shape} and {s.shape}")
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(r - s))))
