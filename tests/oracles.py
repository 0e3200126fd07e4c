"""Reference implementations the tests compare the library against.

Two kinds live here, neither used by the library itself:

* Dense double-precision functionals on arbitrary density matrices:
  ``moments`` (D, V, Q from operator logarithms) and ``eta`` (the
  divided-difference curvature).  They are the generic routes that the
  scalar closed forms in ``qcovert.covert`` replaced.
* mpmath references at ``DPS`` digits (more where a value is tiny): the
  joint-output moments, the E1 warden's single-use divergence and its
  curvature, each from a high-precision eigendecomposition of the dense
  matrices, so none shares a formula with the closed forms it checks.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np

from qcovert.divergences import DvqTriple, _support_violation
from qcovert.linalg import (
    _support_mask,
    density_operator,
    eig_hermitian,
    hermitian_operator,
    matrix_log2,
)

LN2 = math.log(2.0)
DPS = 50


# ----------------------------------------------------------------------
# Dense double-precision oracles


def moments(rho, sigma) -> DvqTriple:
    """D with the centered moments V = Tr[rho (L-D)^2], Q = Tr[rho (L-D)^4].

    L = log2 rho - log2 sigma on the support.  A support violation makes
    all three entries +inf.
    """
    rho = density_operator(rho)
    sigma = density_operator(sigma)
    if rho.shape != sigma.shape:
        raise ValueError(f"incompatible shapes {rho.shape} and {sigma.shape}")
    if _support_violation(rho, sigma):
        return DvqTriple(math.inf, math.inf, math.inf)
    loglike = matrix_log2(rho) - matrix_log2(sigma)
    d = float(np.trace(rho @ loglike).real)
    centered = loglike - d * np.eye(rho.shape[0])
    sq = centered @ centered
    v = float(np.trace(rho @ sq).real)
    q4 = float(np.trace(rho @ sq @ sq).real)
    return DvqTriple(d, v, q4)


def eta(rho, sigma) -> float:
    """Curvature of relative entropy at sigma in the direction rho - sigma.

    With sigma = sum_i lambda_i |v_i><v_i| and Delta = rho - sigma,

        eta = sum_{i,j} c_ij |<v_i| Delta |v_j>|^2,

    where c_ij is the divided difference (log2 lambda_i - log2 lambda_j)
    / (lambda_i - lambda_j), replaced by its analytic limit
    1/(lambda_i ln 2) when the eigenvalues coincide within 1e-12
    relative.  Returns +inf if Delta touches the kernel of sigma.
    """
    rho = hermitian_operator(rho)
    sigma = density_operator(sigma)
    if rho.shape != sigma.shape:
        raise ValueError(f"incompatible shapes {rho.shape} and {sigma.shape}")
    w, vecs = eig_hermitian(sigma)
    m = vecs.conj().T @ (rho - sigma) @ vecs
    support = _support_mask(w)
    if not support.all():
        coupling = np.abs(m[~support, :]).max(initial=0.0)
        coupling = max(coupling, np.abs(m[:, ~support]).max(initial=0.0))
        if coupling > 1e-12:
            return math.inf
    idx = np.flatnonzero(support)
    total = 0.0
    for i in idx:
        for j in idx:
            gap = w[i] - w[j]
            if abs(gap) < 1e-12 * w[0]:
                coeff = 1.0 / (w[i] * LN2)
            else:
                coeff = (math.log2(w[i]) - math.log2(w[j])) / gap
            total += coeff * float(abs(m[i, j]) ** 2)
    return total


# ----------------------------------------------------------------------
# mpmath references


def _digits(tiny: float) -> int:
    """Working digits that leave DPS digits after cancelling down to ``tiny``."""
    return DPS + max(0, int(-math.log10(tiny)))


def _logm_hermitian(m):
    w, v = mp.eighe(m)
    return v * mp.diag([mp.log(x) for x in w]) * v.transpose_conj()


def _trace_mul(a, b):
    return mp.re(sum(a[i, k] * b[k, i] for i in range(a.rows) for k in range(a.cols)))


def mp_dvq(alpha: float, q: float) -> tuple:
    """(D, V, Q) in bits of the arrow-matrix joint output vs its marginals.

    Builds the 4x4 joint output and the product of its marginals from
    the model, and takes log rho by a high-precision eigendecomposition.
    """
    with mp.workdps(_digits(alpha)):
        a, q_ = mp.mpf(alpha), mp.mpf(q)
        half = q_ / 2
        e = (1 - q_) * mp.sqrt(a * (1 - a))
        rho = mp.matrix([[(1 - half) * (1 - a), 0, 0, e],
                         [0, half * (1 - a), 0, 0],
                         [0, 0, half * a, 0],
                         [e, 0, 0, (1 - half) * a]])
        m0 = (1 - half) * (1 - a) + half * a  # retained qubit, P(0)
        m1 = half * (1 - a) + (1 - half) * a
        sigma = [(1 - a) * m0, (1 - a) * m1, a * m0, a * m1]
        loglike = _logm_hermitian(rho) - mp.diag([mp.log(s) for s in sigma])
        d = _trace_mul(rho, loglike)
        centered = loglike - d * mp.eye(4)
        sq = centered * centered
        v = _trace_mul(rho, sq)
        q4 = _trace_mul(rho, sq * sq)
        ln2 = mp.log(2)
        return d / ln2, v / ln2**2, q4 / ln2**4


def _e1_marginal(alpha, q):
    s = mp.sqrt((1 - 3 * q / 4) * q / 4)
    off = (1 - 2 * alpha) * (s - 0.25j * q)
    return mp.matrix([[1 - q / 2, off], [mp.conj(off), q / 2]])


def mp_willie_divergence(alpha: float, q: float):
    """D(omega_alpha || omega_0) in bits for the E1 warden's 2x2 marginals."""
    with mp.workdps(2 * _digits(alpha)):
        a, q_ = mp.mpf(alpha), mp.mpf(q)
        omega_a, omega_0 = _e1_marginal(a, q_), _e1_marginal(mp.mpf(0), q_)
        diff = _logm_hermitian(omega_a) - _logm_hermitian(omega_0)
        return _trace_mul(omega_a, diff) / mp.log(2)


def mp_willie_eta(q: float):
    """eta(omega_1 || omega_0) in bits by divided differences in omega_0's eigenbasis."""
    with mp.workdps(DPS):
        q_ = mp.mpf(q)
        omega_0, omega_1 = _e1_marginal(mp.mpf(0), q_), _e1_marginal(mp.mpf(1), q_)
        w, v = mp.eighe(omega_0)
        m = v.transpose_conj() * (omega_1 - omega_0) * v
        total = mp.mpf(0)
        for i in range(2):
            for j in range(2):
                if i == j:
                    coeff = 1 / w[i]
                else:
                    coeff = (mp.log(w[i]) - mp.log(w[j])) / (w[i] - w[j])
                total += coeff * abs(m[i, j]) ** 2
        return total / mp.log(2)
