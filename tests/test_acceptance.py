"""Acceptance gate: one test and one printed verdict line per criterion.

Run with ``pytest -s tests/test_acceptance.py`` to see the report lines.
Every tolerance is stated inline next to its assertion.  Each test first
computes its measurements, then prints ``[criterion NN] PASS/FAIL`` with
the margins, then asserts, so the report line survives a failure.

Criterion 4 checks the leading alpha*log(1/alpha) form of the first
moment against the exact value through its analytic remainder: the
exact D must match the two-term expansion A*alpha*ln(1/alpha) + B*alpha
(B derived independently in the test body) to within alpha*ln(1/alpha)
relative, and the leading form's deviation at alpha=1e-6 must equal the
predicted (B/A)/ln(1e6) = 0.1385.
"""

import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import qcovert as qc

Q_TRIPLE = (0.25, 0.5, 0.75)
ALPHA_GRID = (1e-3, 1e-4, 1e-5, 1e-6)


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {detail}")


def test_criterion_01_dilation_equivalence():
    """Tracing the environment out of the dilation reproduces the channel."""
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        rho = np.outer(v, v.conj()) / np.vdot(v, v).real
        for q in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9):
            joint = qc.dilated_output(rho, q)
            received = qc.partial_trace(joint, [2, 2, 2], [0])
            # full trace norm, i.e. twice the trace distance
            dev = 2.0 * qc.trace_distance(received, qc.depolarize(rho, q))
            worst = max(worst, dev)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 1.0
    _verdict(1, ok, f"worst trace-norm dev {worst:.3g} (tol 1e-12), {elapsed:.2f} s (cap 1 s)")
    assert worst <= 1e-12
    assert elapsed < 1.0


def test_criterion_02_scenario_verdicts():
    start = time.perf_counter()
    overlaps, dets = [], []
    ok = True
    for q in Q_TRIPLE:
        full = qc.scenario_support_report(qc.ChannelSpec(q, qc.Scenario.ALL_ENV))
        e0, _ = qc.allenv_null_vectors(q)
        _, omega_1 = qc.basis_marginal_pair(qc.ChannelSpec(q, qc.Scenario.ALL_ENV))
        direct = float(np.vdot(e0, omega_1 @ e0).real)
        overlaps.append(min(full.kernel_overlap, direct))
        ok &= not full.support_contained
        ok &= full.kernel_overlap >= q / 2.0 - 1e-10  # violation energy vs q/2
        ok &= direct >= q / 2.0 - 1e-10

        middle = qc.scenario_support_report(qc.ChannelSpec(q, qc.Scenario.E2_ONLY))
        ok &= middle.trace_dist == 0.0  # exact equality, no tolerance

        part = qc.scenario_support_report(qc.ChannelSpec(q, qc.Scenario.E1_ONLY))
        dets += [part.det_omega0, part.det_omega1]
        ok &= part.support_contained
        ok &= part.det_omega0 > 1e-3 and part.det_omega1 > 1e-3
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    _verdict(
        2,
        ok,
        f"min kernel overlap {min(overlaps):.4f} (floor q/2 - 1e-10), "
        f"min det {min(dets):.4f} (floor 1e-3), {elapsed:.2f} s (cap 1 s)",
    )
    assert ok


def test_criterion_03_arrow_closed_forms():
    grid = np.linspace(0.02, 0.98, 20)
    worst_eig = worst_recon = 0.0
    for alpha in grid:
        for q in grid:
            p = qc.arrow_params(float(alpha), float(q))
            m = qc.arrow_matrix(p)
            closed = qc.arrow_spectral(p)
            generic = qc.eig_hermitian(m)
            worst_eig = max(
                worst_eig, float(np.abs(closed.eigenvalues - generic.eigenvalues).max())
            )
            worst_recon = max(
                worst_recon,
                float(np.abs(closed.reconstruct() - m).max()),
                float(np.abs(generic.reconstruct() - m).max()),
            )
    ok = worst_eig <= 1e-10 and worst_recon <= 1e-10
    _verdict(
        3,
        ok,
        f"20x20 grid: eigenvalue dev {worst_eig:.3g}, "
        f"reconstruction dev {worst_recon:.3g} (tol 1e-10 each)",
    )
    assert worst_eig <= 1e-10
    assert worst_recon <= 1e-10


def _first_moment_coefficients(q: float) -> tuple:
    """Coefficients (A, B) of D = A*a*ln(1/a) + B*a + o(a), in nats.

    Derived by hand, independently of the library.  D is the mutual
    information h(a) + h(m1) - S(rho) of the arrow state with diagonal
    ((1-q/2)(1-a), (q/2)(1-a), (q/2)a, (1-q/2)a) and corner coupling
    (1-q)sqrt(a(1-a)), where m1 = q/2 + a(1-q).  Its spectrum is
    b = (q/2)(1-a), c = (q/2)a, the small corner eigenvalue
    l4 = (ad - e^2)/l1 = kappa*a + O(a^2) with
    kappa = q(4-3q)/(2(2-q)), and l1 = 1 - q/2 - kappa*a + O(a^2).
    To first order in a:

        h(a)    = a ln(1/a) + a
        h(m1)   = h(q/2) + a (1-q) ln((2-q)/q)
        S(rho)  = h(q/2) + a ln(1/a) (q/2 + kappa)
                  + a (q/2 + kappa + kappa ln((2-q)/(2 kappa)))

    so A = 1 - q/2 - kappa = 2(1-q)^2/(2-q) and

        B = A + (1-q) ln((2-q)/q) - kappa ln((2-q)^2 / (q(4-3q))).
    """
    a_coeff = 2.0 * (1.0 - q) ** 2 / (2.0 - q)
    kappa = q * (4.0 - 3.0 * q) / (2.0 * (2.0 - q))
    b_coeff = (
        a_coeff
        + (1.0 - q) * math.log((2.0 - q) / q)
        - kappa * math.log((2.0 - q) ** 2 / (q * (4.0 - 3.0 * q)))
    )
    return a_coeff, b_coeff


def test_criterion_04_leading_order_ratios():
    start = time.perf_counter()
    q = 0.5
    a_coeff, b_coeff = _first_moment_coefficients(q)
    d_devs, v_devs, two_term_errs, two_term_bounds = [], [], [], []
    for alpha in ALPHA_GRID:
        exact = qc.dvq_exact(alpha, q)
        lead = qc.dvq_asymptotic(alpha, q)
        d_devs.append(abs(exact.d / lead.d - 1.0))
        v_devs.append(abs(exact.v / lead.v - 1.0))
        log_inv = math.log(1.0 / alpha)
        two_term = (a_coeff * alpha * log_inv + b_coeff * alpha) / math.log(2.0)
        two_term_errs.append(abs(exact.d / two_term - 1.0))
        # the dropped terms are O(alpha^2 log^2 alpha), i.e. relative
        # O(alpha log(1/alpha)); a 1% error in A or B exceeds this bound
        two_term_bounds.append(alpha * log_inv)
    decreasing = all(b < a for a, b in zip(d_devs, d_devs[1:]))
    two_term_ok = all(err <= bound for err, bound in zip(two_term_errs, two_term_bounds))
    # the leading form drops B*alpha, so its relative deviation is
    # (B/A)/ln(1/alpha) + O(alpha log(1/alpha)); at alpha = 1e-6 and
    # q = 0.5 that is 1.9132/ln(1e6) = 0.1385, pinned to 1e-4 relative
    predicted = (b_coeff / a_coeff) / math.log(1.0 / ALPHA_GRID[-1])
    remainder_match = abs(d_devs[-1] / predicted - 1.0)
    remainder_ok = remainder_match <= 1e-4
    v_band = v_devs[-1] <= 0.25
    # sign arbitration: with a negated second-moment coefficient the same
    # band must be violated by a wide margin
    exact = qc.dvq_exact(1e-6, q)
    lead = qc.dvq_asymptotic(1e-6, q)
    negated_fails = abs(exact.v / (-lead.v) - 1.0) > 0.25
    elapsed = time.perf_counter() - start
    ok = decreasing and two_term_ok and remainder_ok and v_band and negated_fails
    ok = ok and elapsed < 1.0
    _verdict(
        4,
        ok,
        f"|D ratio - 1| {['%.4f' % d for d in d_devs]} decreasing={decreasing}; "
        f"at 1e-6: {d_devs[-1]:.4f} vs predicted (B/A)/ln(1/alpha) = {predicted:.4f} "
        f"(rel dev {remainder_match:.2g}, tol 1e-4); two-term rel err "
        f"{['%.2g' % e for e in two_term_errs]} (bounds alpha*ln(1/alpha) "
        f"{['%.2g' % b for b in two_term_bounds]}); |V ratio - 1| {v_devs[-1]:.4f} "
        f"(band 0.25); negated V form fails band: {negated_fails}; "
        f"{elapsed:.2f} s (cap 1 s)",
    )
    assert decreasing
    assert two_term_ok, f"two-term errors {two_term_errs} exceed bounds {two_term_bounds}"
    assert remainder_ok, f"deviation {d_devs[-1]:.6f} vs predicted {predicted:.6f}"
    assert v_band
    assert negated_fails
    assert elapsed < 1.0


def test_criterion_05_quadratic_divergence_law():
    worst = {1e-3: 0.0, 1e-5: 0.0}
    for q in (0.3, 0.5, 0.7):
        curvature = qc.willie_eta(q)
        for alpha in worst:
            d = qc.relative_entropy(
                qc.e1only_marginal(alpha, q), qc.e1only_marginal(0.0, q)
            )
            ratio = d / (alpha * alpha * curvature / 2.0)
            worst[alpha] = max(worst[alpha], abs(ratio - 1.0))
    ok = worst[1e-3] <= 0.1 and worst[1e-5] <= 0.01
    _verdict(
        5,
        ok,
        f"worst |ratio - 1|: {worst[1e-3]:.5f} at 1e-3 (band 0.10), "
        f"{worst[1e-5]:.6f} at 1e-5 (band 0.01)",
    )
    assert worst[1e-3] <= 0.1
    assert worst[1e-5] <= 0.01


def test_criterion_06_capacity_curve_shape():
    grid = [round(0.05 * k, 2) for k in range(1, 20)]
    caps = [qc.capacity_lower_bound(q) for q in grid]
    decreasing = all(b < a for a, b in zip(caps, caps[1:]))
    edge_ratio = caps[-1] / caps[0]
    # regression pin established once from the curvature-functional oracle
    pin = 0.1459389779600682
    mid = qc.capacity_lower_bound(0.5)
    pinned = abs(mid / pin - 1.0) <= 1e-12
    ok = decreasing and edge_ratio < 0.05 and pinned
    _verdict(
        6,
        ok,
        f"strictly decreasing over 19 points: {decreasing}; "
        f"edge ratio {edge_ratio:.2e} (cap 0.05); q=0.5 value {mid:.12g} "
        f"vs pin {pin:.12g} (rel tol 1e-12)",
    )
    assert decreasing
    assert edge_ratio < 0.05
    assert pinned


def test_criterion_07_finite_vs_asymptotic_logM():
    start = time.perf_counter()
    nu, eps, q = 0.05, 0.05, 0.5
    ratios = {}
    for n in (10**6, 10**9):
        s = qc.ScheduleParams(n, nu)
        finite = qc.finite_blocklength_logM(n, eps, qc.dvq_exact(s.alpha_n, q))
        ratios[n] = finite / qc.asymptotic_logM(s, q)
    elapsed = time.perf_counter() - start
    wide = 0.8 <= ratios[10**6] <= 1.2
    narrow = 0.9 <= ratios[10**9] <= 1.1
    ok = wide and narrow and elapsed < 1.0
    _verdict(
        7,
        ok,
        f"ratio {ratios[10**6]:.4f} at n=1e6 (band [0.8, 1.2]), "
        f"{ratios[10**9]:.4f} at n=1e9 (band [0.9, 1.1]), {elapsed:.2f} s (cap 1 s)",
    )
    assert wide
    assert narrow
    assert elapsed < 1.0


def test_criterion_08_scaling_law_window():
    # Schedule choice: the normalized curve logM/(sqrt(n) log2 n) carries a
    # factor n**(nu - 1/6), so exponents far below 1/6 make it decay.  To
    # demonstrate the between-sqrt(n)-and-n scaling on this window the
    # exponent sits near the top of its admissible range and eps is small
    # enough that the shrinking normal-approximation deficit dominates.
    nu, eps, q = 0.165, 0.01, 0.5
    grid = (10**4, 10**5, 10**6, 10**7)
    normalized, linear = [], []
    for n in grid:
        s = qc.ScheduleParams(n, nu)
        logm = qc.finite_blocklength_logM(n, eps, qc.dvq_exact(s.alpha_n, q))
        normalized.append(logm / (math.sqrt(n) * math.log2(n)))
        linear.append(logm / n)
    increasing = all(b > a for a, b in zip(normalized, normalized[1:]))
    vanishing = all(b < a for a, b in zip(linear, linear[1:])) and linear[-1] < 0.01
    ok = increasing and vanishing
    _verdict(
        8,
        ok,
        f"logM/(sqrt(n) log2 n) = {['%.4f' % v for v in normalized]} increasing={increasing}; "
        f"logM/n = {['%.2e' % v for v in linear]} decreasing to {linear[-1]:.2e} "
        f"(< 0.01) at nu={nu}, eps={eps}",
    )
    assert increasing
    assert vanishing


def test_criterion_09_detection_simulator():
    start = time.perf_counter()
    nu, q = 0.05, 0.5
    spec = qc.ChannelSpec(q, qc.Scenario.E1_ONLY)
    results = qc.covertness_sweep(nu, q, range(1, 9))
    margin = min(r.error_prob - r.pinsker_floor for r in results)
    floor_ok = all(r.error_prob >= r.pinsker_floor for r in results)

    null_dev = max(abs(qc.warden_error(n, 0.0, spec).error_prob - 0.5) for n in (1, 4, 8))

    div_dev = 0.0
    for r in results:
        single = qc.relative_entropy(
            qc.e1only_marginal(r.alpha, q), qc.e1only_marginal(0.0, q)
        )
        div_dev = max(div_dev, abs(r.div_total - r.n * single))
    elapsed = time.perf_counter() - start
    ok = floor_ok and null_dev <= 1e-12 and div_dev <= 1e-10 and elapsed < 30.0
    _verdict(
        9,
        ok,
        f"min margin over floor {margin:.4f}; null-control dev {null_dev:.3g} "
        f"(tol 1e-12); divergence-additivity dev {div_dev:.3g} (tol 1e-10); "
        f"{elapsed:.2f} s (cap 30 s)",
    )
    assert floor_ok
    assert null_dev <= 1e-12
    assert div_dev <= 1e-10
    assert elapsed < 30.0


def _erf_series(x: float) -> float:
    # Maclaurin series; the bisection bracket keeps |x| small enough for
    # full convergence
    total, term = x, x
    for k in range(1, 400):
        term *= -x * x / k
        contrib = term / (2 * k + 1)
        total += contrib
        if abs(contrib) < 1e-17 * abs(total):
            break
    return total * 2.0 / math.sqrt(math.pi)


def _oracle_quantile(p: float) -> float:
    lo, hi = -3.5, 3.5
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        cdf = 0.5 * (1.0 + _erf_series(mid / math.sqrt(2.0)))
        if cdf < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_criterion_10_quantile_accuracy():
    worst = 0.0
    for k in range(1, 1000):
        p = k / 1000.0
        worst = max(worst, abs(qc.inverse_normal_cdf(p) - _oracle_quantile(p)))
    ok = worst <= 1e-8
    _verdict(10, ok, f"worst |quantile - bisection oracle| {worst:.3g} (tol 1e-8)")
    assert worst <= 1e-8


def test_criterion_11_cli_determinism(tmp_path):
    commands = [
        ["bound-curve"],
        ["approx-check", "--format", "json"],
        ["rate-table", "--n-grid", "1e4,1e5"],
        ["scenario"],
        ["detect-sim", "--n-grid", "1,2,3,4"],
    ]
    # The subprocesses import the same qcovert as this test, installed or not.
    src = str(Path(qc.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    identical = True
    for idx, argv in enumerate(commands):
        outputs = []
        for attempt in (0, 1):
            path = tmp_path / f"cmd{idx}_{attempt}"
            run = subprocess.run(
                [sys.executable, "-m", "qcovert.cli", *argv, "--out", str(path)],
                capture_output=True,
                text=True,
                env=env,
            )
            assert run.returncode == 0, run.stderr
            outputs.append(path.read_bytes())
        identical &= outputs[0] == outputs[1]
    _verdict(
        11, identical, f"{len(commands)} commands rerun byte-identical: {identical}"
    )
    assert identical
