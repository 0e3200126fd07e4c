"""Exact simulation of the warden's optimal test over n channel uses.

The warden performs a binary hypothesis test between the n-fold innocent
output and the n-fold response to input weight alpha, at equal priors.
The optimal error probability is (1 - T)/2 with T the trace distance of
the two n-copy states, and it can never drop below the Pinsker floor
(1 - sqrt(ln2 * D / 2))/2 set by the divergence budget D.

T is computed exactly without any 2^n-dimensional matrix.  By Schur-Weyl
duality the n-fold power of a qubit operator A splits over the spin
irreps j = n/2, n/2 - 1, ...: the block of spin j is
det(A)^(n/2-j) Sym^(2j)(A), of dimension 2j + 1, repeated
C(n, n/2-j) - C(n, n/2-j-1) times.  Both hypotheses share this block
structure, so the trace norm of their difference is the multiplicity-
weighted sum of the blockwise trace norms.  The 4x4 ALL_ENV marginals
are block diagonal in the E2 register (E2 records whether B was flipped
by X or Y, a classical bit for diagonal inputs), so their n-fold power
splits into sectors with k copies in the E2 = 1 block, C(n, k) of each,
and every sector is a Kronecker product of two qubit Schur-Weyl blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import ChannelSpec, Scenario, basis_marginal_pair
from .covert import ScheduleParams
from .divergences import relative_entropy
from .linalg import symmetric_power

LN2 = math.log(2.0)

# Qubit wardens (E1_ONLY, E2_ONLY): the largest block at n uses is
# (n+1) x (n+1) and a call costs O(n^4) flops, about 0.1 s at the cap on a
# 2-core x86-64 host; n = 100 is far enough for the square-root law to show.
MAX_USES = 100
# ALL_ENV: the support escape makes the warden's error collapse within a
# few uses, so five show it.  Past that the cost rises steeply: the sector
# blocks grow to (n/2 + 1)^2 dimensions and their count like n^3/24 (about
# 2 s at n = 30 on the same host).
MAX_USES_ALLENV = 5


@dataclass(frozen=True)
class DetectionResult:
    """Outcome of the warden's optimal n-use test at one input weight."""

    n: int
    alpha: float
    trace_dist: float
    error_prob: float
    pinsker_floor: float
    div_total: float


def pinsker_floor(div_total_bits: float) -> float:
    """Lower bound (1 - sqrt(ln2 * D / 2))/2 on the warden's error."""
    if div_total_bits < 0.0:
        raise ValueError(f"divergence {div_total_bits!r} must be nonnegative")
    return 0.5 * (1.0 - math.sqrt(LN2 * div_total_bits / 2.0))


def _qubit_power_blocks(a: np.ndarray, n: int) -> list[tuple[int, np.ndarray]]:
    """Spin blocks det(a)^r Sym^(n-2r)(a), r = 0..n//2, with multiplicities."""
    det = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
    return [
        (math.comb(n, r) - (math.comb(n, r - 1) if r else 0),
         det**r * symmetric_power(a, n - 2 * r))
        for r in range(n // 2 + 1)
    ]


def _e2_sectors(omega: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """E2 = 0 and E2 = 1 blocks of a 4x4 marginal on E1 (x) E2 (index 2*E1 + E2).

    Raises ArithmeticError unless every entry between the two blocks is
    exactly zero, since the sector split is exact only then.
    """
    if np.any(omega[0::2, 1::2]) or np.any(omega[1::2, 0::2]):
        raise ArithmeticError("warden marginal is not block diagonal in E2")
    return omega[0::2, 0::2], omega[1::2, 1::2]


def _power_blocks(omega: np.ndarray, n: int) -> list[tuple[int, np.ndarray]]:
    """Block-diagonal form of omega^{(x)n} as (multiplicity, block) pairs.

    omega is a 2x2 qubit marginal or a 4x4 ALL_ENV marginal.  The blocks
    come in an order fixed by n and omega's shape alone, so the lists of
    two states of the same shape pair up block by block.  Summing
    multiplicity * dimension gives omega's dimension to the n.
    """
    if omega.shape == (2, 2):
        return _qubit_power_blocks(omega, n)
    zero, one = _e2_sectors(omega)
    blocks = []
    for k in range(n + 1):
        inner = _qubit_power_blocks(one, k)
        for m0, b0 in _qubit_power_blocks(zero, n - k):
            blocks.extend(
                (math.comb(n, k) * m0 * m1, np.kron(b0, b1)) for m1, b1 in inner
            )
    return blocks


def warden_error(n: int, alpha: float, spec: ChannelSpec) -> DetectionResult:
    """Exact warden error probability for n channel uses at weight alpha.

    Takes the trace distance T of the two n-copy hypothesis states block
    by block (see the module docstring) and reports E = (1 - T)/2
    together with the divergence budget n * D(omega_alpha || omega_0) and
    its Pinsker floor.
    """
    cap = MAX_USES_ALLENV if spec.scenario is Scenario.ALL_ENV else MAX_USES
    if n < 1 or n != int(n):
        raise ValueError(f"number of uses n={n!r} must be a positive integer")
    if n > cap:
        raise ValueError(f"n={n} exceeds the cap {cap} for scenario {spec.scenario.name}")
    if not (0.0 <= alpha <= 1.0) or math.isnan(alpha):
        raise ValueError(f"alpha={alpha!r} outside [0, 1]")

    omega_0, omega_1 = basis_marginal_pair(spec)
    # Channel linearity: the response to diag(1-alpha, alpha) is the
    # alpha-mixture of the basis responses.  alpha = 0 and omega_1 ==
    # omega_0 (E2_ONLY) short-circuit to omega_0 itself, because the
    # rounded mixture need not equal omega_0; those rows come out exactly
    # zero.
    if alpha == 0.0 or np.array_equal(omega_0, omega_1):
        omega_alpha = omega_0
    else:
        omega_alpha = (1.0 - alpha) * omega_0 + alpha * omega_1
    dist = 0.5 * sum(
        mult * float(np.sum(np.abs(np.linalg.eigvalsh(block_a - block_0))))
        for (mult, block_a), (_, block_0) in zip(
            _power_blocks(omega_alpha, n), _power_blocks(omega_0, n)
        )
    )
    div_single = relative_entropy(omega_alpha, omega_0)
    div_total = n * div_single
    return DetectionResult(
        n=n,
        alpha=alpha,
        trace_dist=dist,
        error_prob=0.5 * (1.0 - dist),
        pinsker_floor=pinsker_floor(div_total) if math.isfinite(div_total) else -math.inf,
        div_total=div_total,
    )


def covertness_sweep(nu: float, q: float, n_list) -> list[DetectionResult]:
    """Scheduled detection sweep: alpha_n = n**(nu - 2/3) at each n.

    Runs the single-environment-qubit warden scenario and checks the
    Pinsker consistency E >= floor at every point before returning.
    """
    spec = ChannelSpec(q, Scenario.E1_ONLY)
    results = []
    for n in n_list:
        sched = ScheduleParams(int(n), nu)
        result = warden_error(sched.n, sched.alpha_n, spec)
        if result.error_prob < result.pinsker_floor - 1e-12:
            raise ArithmeticError(
                f"error probability {result.error_prob} fell below the "
                f"Pinsker floor {result.pinsker_floor} at n={n}"
            )
        results.append(result)
    return results
