"""Dicke scaling of the symmetric powers of 2x2 matrices.

``dicke_scaling`` maps the monomial matrix of Sym^k(A), which
``detection`` builds by its degree recurrence, to Sym^k(A) on the
orthonormal Dicke basis.  Every other quantity the library prints is a
scalar closed form in ``channels`` or ``covert`` and needs no matrix
step.  The validated states, Hermitian eigensolver with its ordering
convention and support rule, trace distance, tensor products and powers,
the one-matrix degree step ``monomial_step`` and symmetric powers,
partial traces and operator logarithms that the tests check the library
against live in ``tests/oracles.py``.

``dicke_scaling`` is pure: its outputs are cached and read-only, so
they are safe to share between threads.
"""

import functools
import math

import numpy as np


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
