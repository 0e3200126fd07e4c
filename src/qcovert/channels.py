"""The warden scenarios of the qubit depolarizing channel and their verdicts.

The channel's Stinespring dilation maps the input qubit into
B (x) E1 (x) E2 with B most significant and E1 before E2 inside the
environment.  A warden listening on different environment subsets sees
one of three marginal channels; which subset decides whether covert
signalling is impossible, free, or genuinely constrained.
``scenario_reports`` states that verdict for a table of scenarios at one
q, from closed forms of the kernel overlap, trace distance and
determinants, with no eigensolver.  ``ChannelSpec`` is a NamedTuple that
validates on construction; ``SupportReport`` is a plain NamedTuple, built
without checks, and is the printed row of ``qcovert scenario`` as it stands.
The warden's states themselves have one closed form, the real block
``detection._warden_block``.  The dilation, the dense channel, the
partial-trace route to the marginals and the eigensolver route to the
support report (``dense_support_report``) are the test oracles in
``tests/oracles.py``.
"""

import math
from enum import IntEnum
from typing import NamedTuple

from .covert import _TINY


class Scenario(IntEnum):
    """Which environment subsystems the warden observes."""

    ALL_ENV = 1  # E1 and E2 jointly
    E2_ONLY = 2  # E2 alone
    E1_ONLY = 3  # E1 alone


class _SpecFields(NamedTuple):
    q: float
    scenario: Scenario


class ChannelSpec(_SpecFields):
    """Depolarizing noise parameter q plus the warden's scenario, checked on construction.

    q must lie in [0, 1], and the scenario is taken as ``Scenario`` takes it.
    Every route to a new spec (a call, ``_replace``, ``_make``, a copy or a
    pickle) goes through ``__new__``, so every spec has passed the check.
    """

    __slots__ = ()

    def __new__(cls, q: float, scenario: Scenario):
        _check_q(q)
        return tuple.__new__(cls, (q, Scenario(scenario)))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


def _check_q(q: float):
    if not 0.0 <= q <= 1.0:  # false for nan as well
        raise ValueError(f"noise parameter q={q!r} outside [0, 1]")


class SupportReport(NamedTuple):
    """Numerical feasibility verdict for one warden scenario: a row of ``qcovert scenario``."""

    scenario: int  # the scenario's number, 1 to 3
    label: str     # its name, such as "E1_ONLY"
    q: float
    support_contained: bool
    kernel_overlap: float
    trace_dist: float
    det_omega0: float
    det_omega1: float
    verdict: str
    note: str = ""


_BOUNDARY_NOTES = {
    0.0: (
        "q=0: the channel is noiseless, the environment decouples from the "
        "input, and the warden sees a constant state while the receiver "
        "gets the input unchanged"
    ),
    1.0: (
        "q=1: the output is the maximally mixed state regardless of input; "
        "nothing reaches the receiver, so there is nothing to hide"
    ),
}


# Each scenario's number and name.  A lookup by an int, a float or a member finds
# what ``Scenario(...)`` would, and no Enum call runs per row.
_LABELS = {s: (int(s), s.name) for s in Scenario}


def scenario_reports(q: float, scenarios) -> list[SupportReport]:
    """Feasibility verdict at noise q for each of ``scenarios``, in order.

    Verdicts: "impossible" when supp(omega_1) escapes supp(omega_0) (the
    warden detects a single use with positive probability), "trivial"
    when omega_0 = omega_1 (the warden learns nothing at any power),
    "nontrivial" otherwise, and "degenerate" at the q in {0, 1}
    boundaries where the channel itself collapses.

    Every field is a closed form in q.  E2_ONLY: omega_0 = omega_1 =
    diag(1 - q/2, q/2).  E1_ONLY: that diagonal with coherences of
    opposite sign and squared modulus q/4 - q^2/8, so both states have
    determinant q(2 - q)/8 and their difference has eigenvalues
    +-sqrt(q - q^2/2).  ALL_ENV: both states have rank 2, their
    difference has eigenvalues +-2s and +-q/2 with s^2 = (1 - 3q/4) q/4,
    and omega_1 does not couple the kernel vectors e_0 = (0, i, 0, 1)/sqrt(2)
    and f ~ (sqrt(q/4), 0, -sqrt(1 - 3q/4), 0) of omega_0 (index
    2*E1 + E2), so the kernel overlap is the larger of
    <e_0|omega_1|e_0> = q/2 and <f|omega_1|f> = q(4 - 3q)/(2(2 - q)),
    which is the second for q <= 1.  The rational fields are computed in
    Python integers from q = m/d and rounded once, correctly.  q is
    checked once per table, and each scenario is taken as ``Scenario``
    takes it: an unknown one raises the Enum's ValueError.

    At 0 < q the determinants of E2_ONLY and E1_ONLY and the overlap of
    ALL_ENV are positive, of size q; where that field falls below the
    normal range (at q below 9e-308 or less) it has lost its relative
    accuracy or rounded to 0, so the call raises ArithmeticError instead.
    """
    _check_q(q)
    m, d = q.as_integer_ratio()
    q_pos = m / d  # q, with -0.0 as +0.0 so that no field is a signed zero
    note = _BOUNDARY_NOTES.get(q, "")
    reports = []
    for scenario in scenarios:
        try:
            number, label = _LABELS[scenario]
        except (KeyError, TypeError):  # Scenario raises its own ValueError for an unknown one
            number, label = _LABELS[Scenario(scenario)]
        if number == 2:  # E2_ONLY
            overlap, dist, det = 0.0, 0.0, m * (2 * d - m) / (4 * d * d)
        elif number == 3:  # E1_ONLY
            overlap, det = 0.0, m * (2 * d - m) / (8 * d * d)
            dist = math.sqrt(m * (2 * d - m) / (2 * d * d))
        else:  # ALL_ENV
            overlap, det = m * (4 * d - 3 * m) / (2 * d * (2 * d - m)), 0.0
            dist = 0.5 * (math.sqrt(q_pos * (4.0 - 3.0 * q_pos)) + q_pos)  # 2s + q/2
        size = overlap or det  # the one field of size q: ALL_ENV's overlap, else the det
        if size < _TINY and m:
            field = "kernel overlap" if number == 1 else "determinant"
            raise ArithmeticError(
                f"{label} {field} {size!r} at q={q!r} is not a positive normal float")
        contained = overlap == 0.0
        if note:
            verdict = "degenerate"
        elif not contained:
            verdict = "impossible"
        else:
            verdict = "trivial" if dist == 0.0 else "nontrivial"
        reports.append(SupportReport(
            number, label, q, contained, overlap, dist, det, det, verdict, note))
    return reports
