"""Qubit depolarizing channel, its isometric dilation, and the warden marginals.

The dilation maps the input qubit into B (x) E1 (x) E2 with B most
significant and E1 before E2 inside the environment.  A warden listening
on different environment subsets sees one of three marginal channels;
which subset decides whether covert signalling is impossible, free, or
genuinely constrained.  ``scenario_support_report`` states that verdict
numerically from support containment and trace distance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np

from .linalg import (
    _support_floor,
    _support_mask,
    density_operator,
    eig_hermitian,
    partial_trace,
    trace_distance,
)

SIGMA_I = np.eye(2, dtype=np.complex128)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)


class Scenario(IntEnum):
    """Which environment subsystems the warden observes."""

    ALL_ENV = 1  # E1 and E2 jointly
    E2_ONLY = 2  # E2 alone
    E1_ONLY = 3  # E1 alone


@dataclass(frozen=True)
class ChannelSpec:
    """Depolarizing noise parameter q plus the warden's scenario."""

    q: float
    scenario: Scenario

    def __post_init__(self):
        _check_q(self.q)
        object.__setattr__(self, "scenario", Scenario(self.scenario))

    @property
    def boundary(self) -> bool:
        """True at the degenerate noise extremes q = 0 and q = 1."""
        return self.q in (0.0, 1.0)


def _check_q(q: float):
    if not (0.0 <= q <= 1.0) or math.isnan(q):
        raise ValueError(f"noise parameter q={q!r} outside [0, 1]")


def _require_qubit(rho) -> np.ndarray:
    rho = density_operator(rho)
    if rho.shape != (2, 2):
        raise ValueError(f"expected a qubit state, got shape {rho.shape}")
    return rho


def depolarize(rho, q: float) -> np.ndarray:
    """Apply the qubit depolarizing channel with noise parameter q.

    Returns (1-q) rho + q I/2.  Equivalently, by the Pauli twirl
    identity, (1 - 3q/4) rho + (q/4)(X rho X + Y rho Y + Z rho Z);
    ``depolarize_pauli_form`` computes that version for cross-checking.
    """
    _check_q(q)
    rho = _require_qubit(rho)
    return (1.0 - q) * rho + (q / 2.0) * SIGMA_I


def depolarize_pauli_form(rho, q: float) -> np.ndarray:
    """Depolarizing channel as an explicit Pauli mixture (twirl form)."""
    _check_q(q)
    rho = _require_qubit(rho)
    flipped = sum(p @ rho @ p for p in (SIGMA_X, SIGMA_Y, SIGMA_Z))
    return (1.0 - 0.75 * q) * rho + 0.25 * q * flipped


def stinespring_isometry(q: float) -> np.ndarray:
    """8x2 isometry dilating the depolarizing channel into (B, E1, E2).

    Column action on the input qubit:

        V |psi> = sqrt(1 - 3q/4) |psi>|00>
                + sqrt(q/4) (X|psi>|01> + Y|psi>|11> + Z|psi>|10>)

    with the environment kets labelled |E1 E2>.  Satisfies V^dag V = I_2.
    """
    _check_q(q)
    env = np.eye(4, dtype=np.complex128)  # index = 2*E1 + E2
    terms = (
        (math.sqrt(1.0 - 0.75 * q), SIGMA_I, env[0]),
        (math.sqrt(0.25 * q), SIGMA_X, env[1]),
        (math.sqrt(0.25 * q), SIGMA_Y, env[3]),
        (math.sqrt(0.25 * q), SIGMA_Z, env[2]),
    )
    v = np.zeros((8, 2), dtype=np.complex128)
    for weight, pauli, ket in terms:
        v += weight * np.kron(pauli, ket.reshape(4, 1))
    defect = np.max(np.abs(v.conj().T @ v - SIGMA_I))
    if defect > 1e-12:
        raise ArithmeticError(f"isometry defect {defect:g} exceeds 1e-12")
    return v


def dilated_output(rho, q: float) -> np.ndarray:
    """Joint (B, E1, E2) output state V rho V^dag of the dilation."""
    rho = _require_qubit(rho)
    v = stinespring_isometry(q)
    return v @ rho @ v.conj().T


def willie_marginal(rho, spec: ChannelSpec) -> np.ndarray:
    """Warden's output state, obtained from the dilation by partial trace.

    Dimension 4 (on E1 (x) E2) for ALL_ENV, 2 otherwise.  This is the
    ground-truth route; ``basis_marginal_pair`` provides the closed forms
    it is cross-checked against.
    """
    joint = dilated_output(rho, spec.q)
    keep = {
        Scenario.ALL_ENV: [1, 2],
        Scenario.E2_ONLY: [2],
        Scenario.E1_ONLY: [1],
    }[spec.scenario]
    return partial_trace(joint, [2, 2, 2], keep)


def basis_marginal_pair(spec: ChannelSpec) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form warden marginals (omega_0, omega_1) for the basis inputs.

    omega_0 is the response to the innocent input |0><0|, omega_1 to
    |1><1|.  In the E2_ONLY scenario the two matrices are built from the
    same expression, so omega_0 == omega_1 holds bit for bit.
    """
    q = spec.q
    if spec.scenario is Scenario.E2_ONLY:
        omega = np.diag([1.0 - q / 2.0, q / 2.0]).astype(np.complex128)
        return omega, omega.copy()
    if spec.scenario is Scenario.E1_ONLY:
        return e1only_marginal(0.0, q), e1only_marginal(1.0, q)
    # ALL_ENV: rank-2 4x4 states on E1 (x) E2, index = 2*E1 + E2.
    s = math.sqrt((1.0 - 0.75 * q) * 0.25 * q)
    omega_0 = np.array(
        [
            [1.0 - 0.75 * q, 0.0, s, 0.0],
            [0.0, 0.25 * q, 0.0, -0.25j * q],
            [s, 0.0, 0.25 * q, 0.0],
            [0.0, 0.25j * q, 0.0, 0.25 * q],
        ],
        dtype=np.complex128,
    )
    omega_1 = np.array(
        [
            [1.0 - 0.75 * q, 0.0, -s, 0.0],
            [0.0, 0.25 * q, 0.0, 0.25j * q],
            [-s, 0.0, 0.25 * q, 0.0],
            [0.0, -0.25j * q, 0.0, 0.25 * q],
        ],
        dtype=np.complex128,
    )
    return omega_0, omega_1


def e1only_marginal(alpha: float, q: float) -> np.ndarray:
    """Closed-form E1 marginal for the input diag(1-alpha, alpha).

    The diagonal (1-q/2, q/2) is input-independent; only the off-diagonal
    coherence sqrt((1-3q/4) q/4) - i q/4, weighted by (1-2 alpha),
    distinguishes the hypotheses.
    """
    if not (0.0 <= alpha <= 1.0):
        raise ValueError(f"alpha={alpha!r} outside [0, 1]")
    _check_q(q)
    s = math.sqrt((1.0 - 0.75 * q) * 0.25 * q)
    off = (1.0 - 2.0 * alpha) * (s - 0.25j * q)
    return np.array(
        [[1.0 - q / 2.0, off], [np.conj(off), q / 2.0]], dtype=np.complex128
    )


def allenv_null_vectors(q: float) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal basis (e_0, f) of the ALL_ENV omega_0 kernel.

    e_0 = (0, i, 0, 1)/sqrt(2) is noise-independent and satisfies
    <e_0| omega_1 |e_0> = q/2, which is what makes detection of a single
    use already conclusive in that scenario.  f completes the kernel.
    """
    _check_q(q)
    e0 = np.array([0.0, 1.0j, 0.0, 1.0], dtype=np.complex128) / math.sqrt(2.0)
    f = np.array(
        [math.sqrt(0.25 * q), 0.0, -math.sqrt(1.0 - 0.75 * q), 0.0],
        dtype=np.complex128,
    )
    norm = np.linalg.norm(f)
    if norm == 0.0:  # q = 0: omega_0 = |00><00|, f reduces to -|10>
        f = np.array([0.0, 0.0, -1.0, 0.0], dtype=np.complex128)
    else:
        f = f / norm
    return e0, f


@dataclass(frozen=True)
class SupportReport:
    """Numerical feasibility verdict for one warden scenario."""

    scenario: Scenario
    q: float
    support_contained: bool
    kernel_overlap: float
    trace_dist: float
    det_omega0: float
    det_omega1: float
    verdict: str
    note: str = field(default="")


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


def scenario_support_report(spec: ChannelSpec) -> SupportReport:
    """Feasibility verdict from support containment and trace distance.

    Verdicts: "impossible" when supp(omega_1) escapes supp(omega_0) (the
    warden detects a single use with positive probability), "trivial"
    when omega_0 = omega_1 (the warden learns nothing at any power),
    "nontrivial" otherwise, and "degenerate" at the q in {0, 1}
    boundaries where the channel itself collapses.
    """
    omega_0, omega_1 = basis_marginal_pair(spec)
    w, v = eig_hermitian(omega_0)
    kernel = v[:, ~_support_mask(w)]
    if kernel.shape[1] == 0:
        overlap = 0.0
    else:
        compressed = kernel.conj().T @ omega_1 @ kernel
        overlap = float(np.max(np.abs(np.linalg.eigvalsh(compressed))))
    contained = overlap <= _support_floor(w)
    dist = trace_distance(omega_0, omega_1)
    det0 = float(np.linalg.det(omega_0).real)
    det1 = float(np.linalg.det(omega_1).real)

    if spec.boundary:
        verdict, note = "degenerate", _BOUNDARY_NOTES[spec.q]
    elif not contained:
        verdict, note = "impossible", ""
    elif dist == 0.0:
        verdict, note = "trivial", ""
    else:
        verdict, note = "nontrivial", ""
    return SupportReport(
        scenario=spec.scenario,
        q=spec.q,
        support_contained=contained,
        kernel_overlap=overlap,
        trace_dist=dist,
        det_omega0=det0,
        det_omega1=det1,
        verdict=verdict,
        note=note,
    )
