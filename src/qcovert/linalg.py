"""Dicke scaling of the symmetric powers of 2x2 matrices.

``dicke_scaling`` maps the monomial matrix of Sym^k(A), which
``detection`` builds by its degree recurrence, to Sym^k(A) on the
orthonormal Dicke basis.  Every other quantity the library prints is a
scalar closed form in ``channels`` or ``covert`` and needs no matrix
step.  The dense linear algebra that the tests check the library against
lives in ``tests/oracles.py``: numpy's Hermitian eigensolver with the
eigenvalues descending (``eig_hermitian``) and the support rule, the
trace distance and root fidelity, projectors, Kronecker tensor products
and powers, the one-matrix degree step ``monomial_step`` and symmetric
powers, partial traces and the operator logarithm ``matrix_log2``.

``dicke_scaling`` is pure: its outputs are cached and read-only, so
they are safe to share between threads.

numpy loads with the E1 block route only: ``dicke_scaling`` imports it
when it builds an uncached degree, so a launch that runs no E1 table,
such as the closed-form commands, never loads it.
"""

import functools
import math


@functools.lru_cache(maxsize=256)
def dicke_scaling(k: int):
    """Entrywise factors sqrt(C(k, m) / C(k, l)) taking M_k(A) to Sym^k(A).

    Dicke vector m is sqrt(C(k, m)) times the monomial's symmetric
    tensor.  The numpy array is cached per k and read-only.
    """
    import numpy as np

    root = np.sqrt([float(math.comb(k, m)) for m in range(k + 1)])
    scale = root[np.newaxis, :] / root[:, np.newaxis]
    scale.flags.writeable = False
    return scale
