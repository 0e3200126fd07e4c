"""Symmetric powers of 2x2 matrices by a degree recurrence.

``monomial_step`` takes the monomial matrix of Sym^k(A) to that of
Sym^(k+1)(A), stacked over leading axes, and ``dicke_scaling`` maps a
monomial matrix to Sym^k(A) on the orthonormal Dicke basis.  They build
the Schur-Weyl blocks of ``detection``.  Every other quantity the
library prints is a scalar closed form in ``channels`` or ``covert``
and needs no matrix step.  The validated states, Hermitian eigensolver
with its ordering convention and support rule, trace distance, tensor
products and powers, one-matrix symmetric powers, partial traces and
operator logarithms that the tests check the library against live in
``tests/oracles.py``.

Both functions are pure: inputs are never mutated and outputs are fresh
arrays (``dicke_scaling``'s are cached and read-only), so values are
safe to share between threads.
"""

from __future__ import annotations

import functools
import math

import numpy as np


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
