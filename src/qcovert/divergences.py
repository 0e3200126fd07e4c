"""Relative entropy moments as the library returns them.

``DvqTriple`` holds D with its centered second and fourth moments V and
Q (bits, bits^2, bits^4).  Every divergence the library prints has a
scalar closed form in ``covert``; the dense relative entropy, moments
and curvature they replaced live in ``tests/oracles.py`` as the tests'
oracles.
"""

from typing import NamedTuple


class DvqTriple(NamedTuple):
    """Relative entropy and its centered second and fourth moments."""

    d: float
    v: float
    q4: float
