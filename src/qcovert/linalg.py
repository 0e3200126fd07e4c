"""Dense complex Hermitian linear algebra on small dimensions.

Every other module runs through the handful of primitives here: validated
operator construction, Kronecker products, symmetric powers of 2x2
matrices, partial traces, a Hermitian eigensolver with a deterministic
ordering convention, operator logarithms in base 2, and the trace
distance.  Dimensions are capped at 2**12 so tensor powers stay
comfortably in memory.

All functions are pure: inputs are never mutated and outputs are fresh
arrays, so values are safe to share between threads.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

DIM_CAP = 2**12

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-10
PSD_TOL = 1e-10
NORM_TOL = 1e-12
# Eigenvalues below SUPPORT_RTOL * lambda_max count as kernel.
SUPPORT_RTOL = 1e-12


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


def density_operator(matrix) -> np.ndarray:
    """Validate a density operator: Hermitian, unit trace, PSD up to tolerance."""
    a = hermitian_operator(matrix)
    tr = a.trace().real
    if abs(tr - 1.0) > TRACE_TOL:
        raise ValueError(f"trace {tr!r} differs from 1 by more than {TRACE_TOL:g}")
    smallest = np.linalg.eigvalsh(a)[0]
    if smallest < -PSD_TOL:
        raise ValueError(f"negative eigenvalue {smallest:g} below -{PSD_TOL:g}")
    return a


def pure_state(vector) -> np.ndarray:
    """Validate a unit-norm complex state vector."""
    v = np.asarray(vector, dtype=np.complex128)
    if v.ndim != 1 or v.size < 1:
        raise ValueError(f"expected a nonempty vector, got shape {v.shape}")
    if not np.all(np.isfinite(v.real)) or not np.all(np.isfinite(v.imag)):
        raise ValueError("vector contains non-finite entries")
    norm = np.linalg.norm(v)
    if abs(norm - 1.0) > NORM_TOL:
        raise ValueError(f"norm {norm!r} differs from 1 by more than {NORM_TOL:g}")
    return v


def projector(psi) -> np.ndarray:
    """Rank-1 projector |psi><psi| of a state vector."""
    v = np.asarray(psi, dtype=np.complex128)
    return np.outer(v, v.conj())


def tensor(*factors) -> np.ndarray:
    """Kronecker product, first factor's indices most significant.

    Accepts matrices or vectors.  Raises ValueError if the result's
    leading dimension would exceed DIM_CAP.
    """
    if not factors:
        raise ValueError("tensor() needs at least one factor")
    out = np.asarray(factors[0], dtype=np.complex128)
    for f in factors[1:]:
        f = np.asarray(f, dtype=np.complex128)
        if out.shape[0] * f.shape[0] > DIM_CAP:
            raise ValueError(
                f"tensor result dimension {out.shape[0] * f.shape[0]} exceeds cap {DIM_CAP}"
            )
        out = np.kron(out, f)
    return out


def tensor_power(op, n: int) -> np.ndarray:
    """n-fold Kronecker power of an operator."""
    if n < 1:
        raise ValueError(f"power {n} must be a positive integer")
    out = np.asarray(op, dtype=np.complex128)
    for _ in range(n - 1):
        out = tensor(out, op)
    return out


def symmetric_power(a, k: int) -> np.ndarray:
    """k-th symmetric power Sym^k(A) of a 2x2 matrix, in the Dicke basis.

    Sym^k(A) is A^{(x)k} restricted to the symmetric subspace of k qubits,
    whose orthonormal Dicke basis vector m (0 <= m <= k) is the uniform
    superposition of the C(k, m) strings with m ones.  The map is a
    representation: Sym^k(AB) = Sym^k(A) Sym^k(B), Sym^k(I) = I,
    Sym^1(A) = A, and Sym^0(A) = [[1]].  Cost O(k^3) with no k-qubit matrix.
    """
    a = np.asarray(a, dtype=np.complex128)
    if a.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {a.shape}")
    if k < 0 or k != int(k):
        raise ValueError(f"power {k!r} must be a nonnegative integer")
    # On the monomial basis x^(k-m) y^m, A sends x -> a00 x + a10 y and
    # y -> a01 x + a11 y, so column m holds the coefficients in t of
    # (a00 + a10 t)^(k-m) (a01 + a11 t)^m.
    u_pow, v_pow = [np.ones(1, dtype=np.complex128)], [np.ones(1, dtype=np.complex128)]
    for _ in range(k):
        u_pow.append(np.convolve(u_pow[-1], a[:, 0]))
        v_pow.append(np.convolve(v_pow[-1], a[:, 1]))
    mono = np.column_stack([np.convolve(u_pow[k - m], v_pow[m]) for m in range(k + 1)])
    # Dicke vector m is sqrt(C(k, m)) times the monomial's symmetric tensor.
    root = np.sqrt([float(math.comb(k, m)) for m in range(k + 1)])
    return mono * (root[np.newaxis, :] / root[:, np.newaxis])


def partial_trace(rho, dims, keep) -> np.ndarray:
    """Trace out all subsystems not listed in `keep`.

    Parameters
    ----------
    rho : array_like
        Operator on the composite space, dimension prod(dims).
    dims : sequence of int
        Subsystem dimensions, most significant first.
    keep : iterable of int
        Indices (into dims) of the subsystems to retain; the result keeps
        them in their original order.
    """
    a = np.asarray(rho, dtype=np.complex128)
    dims = [int(d) for d in dims]
    if any(d < 1 for d in dims):
        raise ValueError(f"subsystem dimensions must be positive, got {dims}")
    total = math.prod(dims)
    if a.ndim != 2 or a.shape != (total, total):
        raise ValueError(f"shape {a.shape} does not match subsystem dims {dims}")
    keep = sorted(set(int(k) for k in keep))
    if not keep or keep[0] < 0 or keep[-1] >= len(dims):
        raise ValueError(f"keep={keep} is not a nonempty subset of subsystem indices")

    t = a.reshape(dims + dims)
    # Trace out in descending index order so earlier axis numbers stay valid.
    for ax in sorted(set(range(len(dims))) - set(keep), reverse=True):
        half = t.ndim // 2
        t = np.trace(t, axis1=ax, axis2=ax + half)
    kept = math.prod(dims[k] for k in keep)
    return t.reshape(kept, kept)


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


def _support_mask(eigenvalues: np.ndarray) -> np.ndarray:
    """Boolean mask of eigenvalues above the relative kernel threshold."""
    lam_max = max(float(eigenvalues[0]), 0.0)
    if lam_max == 0.0:
        return np.zeros(len(eigenvalues), dtype=bool)
    return eigenvalues > SUPPORT_RTOL * lam_max


def matrix_log2(rho, kernel_policy: str = "on_support") -> np.ndarray:
    """Operator logarithm base 2 of a positive semidefinite matrix.

    kernel_policy "on_support" maps kernel eigenvalues to 0, giving the
    log on the support only; "reject" raises if the kernel is nontrivial.
    Eigenvalues below -PSD_TOL are a domain error.
    """
    if kernel_policy not in ("on_support", "reject"):
        raise ValueError(f"unknown kernel_policy {kernel_policy!r}")
    w, v = eig_hermitian(rho)
    if w[-1] < -PSD_TOL:
        raise ValueError(f"matrix is not PSD: eigenvalue {w[-1]:g}")
    support = _support_mask(w)
    if kernel_policy == "reject" and not support.all():
        raise ValueError("matrix has a nontrivial kernel; log rejected")
    logw = np.zeros_like(w)
    logw[support] = np.log2(w[support])
    return (v * logw) @ v.conj().T


def matrix_exp2(h) -> np.ndarray:
    """Operator power 2**H of a Hermitian matrix."""
    w, v = eig_hermitian(h)
    return (v * np.exp2(w)) @ v.conj().T


def trace_distance(rho, sigma) -> float:
    """Half the trace norm of rho - sigma for Hermitian arguments."""
    r = np.asarray(rho, dtype=np.complex128)
    s = np.asarray(sigma, dtype=np.complex128)
    if r.shape != s.shape or r.ndim != 2 or r.shape[0] != r.shape[1]:
        raise ValueError(f"incompatible shapes {r.shape} and {s.shape}")
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(r - s))))
