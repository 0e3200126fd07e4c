"""Relative entropy moments as the library returns them.

``DvqTriple`` holds D with its centered second and fourth moments V and
Q (bits, bits^2, bits^4).  Every divergence the library prints has a
scalar closed form in ``covert``.  The tests hold the moments and the
curvature to mpmath references alone (``mp_dvq``, ``mp_willie_eta`` in
``tests/oracles.py``), which also keeps the dense relative entropy that
the warden divergence's closed form replaced.
"""

from typing import NamedTuple


class DvqTriple(NamedTuple):
    """Relative entropy and its centered second and fourth moments."""

    d: float
    v: float
    q4: float
