"""Accuracy of the closed forms against 50-digit mpmath references.

Each printed quantity must sit within a stated relative error of the
references in ``oracles.py``, over grids that reach the ends of the
domain the CLI accepts.  Where the closed forms cannot keep that
accuracy (values near the float underflow), the CLI must refuse with
exit code 3, never print a number with exit code 0.

Stated bounds (relative), with the route each row audits:

    D, V and Q                               ``moment_curve``        1e-13
    warden divergence D(omega_alpha || omega_0)
      at the q and weight edges              ``_willie_divergence``  1e-13
    rate-table ``div_total``                 ``rate_reports``        1e-13
    eta                                      ``capacity_curve``      1e-14
    rate-table ``alpha_n``, ``logM_lemma2``  ``rate_reports``        1e-13
    rate-table ``logM_lemma1``, of its terms ``rate_reports``        1e-13
    rate-table ``L_n``, of its terms         ``rate_reports``        1e-13
    rate-table ``L_limit``                   ``rate_reports``        1e-13
    detect-sim ``div_total`` (E1_ONLY)       ``warden_errors``       1e-13
    detect-sim trace distance T              ``warden_errors``       1e-10
    detect-sim ALL_ENV T, n <= 30            ``warden_errors``       1e-13
    detect-sim ALL_ENV ``E_n``, n <= 30      ``warden_errors``       1e-13
    scenario overlap, trace distance, dets   ``scenario_reports``    1e-15

Measured worst cases on these grids: 1.8e-15 (D), 1.3e-15 (V),
1.7e-15 (Q), 2.0e-15 (``div_total``) and 3.9e-16 (eta); 3.7e-15 for the
moments at q = 1e-6 and 1 - 1e-6 and 5.6e-16 for the warden divergence
at weights from 1/2 on; 7.3e-16 for the detect-sim budget and 8.0e-16 for
its trace distance (ALL_ENV: 6.8e-16 at n = 1..5, q from 1e-6 to 1);
for E1's T at n = 50, 99 and 100 against ``tests/e1_reference.json``,
2.7e-11 at n = 99, q = 1 and at most 2.8e-14 on the other rows;
for ALL_ENV against the reduced-sector reference, 6.4e-15 for T and
1.4e-14 for ``E_n`` at n <= 30 (both at n = 30; at n <= 5, 9.8e-16 and
2.7e-15), ``E_n`` down to 2.6e-172 at n = 30, q = 0.999, alpha = 1
(an ``E_n`` below the normal range refuses, but for the exact 0 at
q = alpha = 1);
1.5e-16 for the scenario fields, q from 5e-324 to 1 (the overlap and
the determinants are rounded once, correctly), where a field of size q
below the normal range refuses; for rate-table at n from
2 to 1e15 and q from 1e-6 to 0.95, 2.7e-15 (``alpha_n``, at n = 1e15),
4.0e-16 (``logM_lemma2``), 2.8e-15 (``logM_lemma1``), 1.2e-15 (``L_n``)
and 4.0e-16 (``L_limit``).  ``logM_lemma1`` is n D + sqrt(n V) z - C_n
and crosses 0 (near n = 496 at the defaults), so it and L_n, its
quotient by log2(n) sqrt(n div_total), are bounded relative to the sum of
the magnitudes of those three terms.  The
bounds are a factor of about 1000 inside the project target of 1e-10
for D and ``div_total``; T is held to the target itself, since its
reference is a 40-digit block sum.  ALL_ENV's T and ``E_n`` are held to
1e-13: both are sums of positive terms whose roundings grow about
linearly in n.  Printed values carry 12 significant digits, so CLI rows
are held to 1e-11.

The detect-sim budget is exact outside E1_ONLY: +inf for ALL_ENV at
alpha > 0 and q > 0 (the support escape), and exactly 0 for ALL_ENV at
alpha = 0 or q = 0 and for E2_ONLY.  E2_ONLY's T is exactly 0 too
(``test_detection.py``), so T is audited on E1_ONLY and ALL_ENV.  A
scenario field whose analytic value is 0 (the overlap outside ALL_ENV,
E2_ONLY's trace distance, ALL_ENV's determinants) must be exactly +0.0.
"""

import csv
import json
import math
import random
from pathlib import Path

import mpmath as mp
import pytest

from oracles import (
    ALLENV_GRID,
    DPS,
    E1_ROWS,
    allenv_reference,
    e1_reference,
    mp_allenv_distances,
    mp_dvq,
    mp_support_fields,
    mp_warden_trace_distances,
    mp_willie_divergence,
    mp_willie_eta,
)
from qcovert import cli, covert
from qcovert.channels import Scenario, scenario_reports
from qcovert.covert import (
    BERRY_ESSEEN,
    _e1_bloch,
    _willie_divergence,
    capacity_curve,
    moment_curve,
    rate_reports,
    schedule_weights,
)
from qcovert.detection import warden_errors

TOL_MOMENT = 1e-13
TOL_DIV = 1e-13
TOL_ETA = 1e-14
TOL_RATE = 1e-13
TOL_T = 1e-10
TOL_ALLENV = 1e-13
TOL_SUPPORT = 1e-15
TOL_PRINTED = 1e-11

Q_GRID = (0.05, 0.3, 0.5, 0.8, 0.95)
# alpha log-spaced over [1e-16, 0.5], five points per decade
ALPHA_GRID = tuple(10.0 ** (-16 + k / 5) for k in range(80)) + (0.5,)
# n log-spaced over [1e2, 1e18], two points per decade
N_GRID = tuple(round(10.0 ** (2 + k / 2)) for k in range(33))


def _rel(got, ref):
    return float(abs(mp.mpf(got) - ref) / abs(ref))


def _moments(row):
    """D, V, Q of a ``moment_curve`` row."""
    return row[2], row[4], row[6]


@pytest.mark.parametrize("q", Q_GRID)
def test_dvq_exact_matches_mpmath(q):
    worst = [0.0, 0.0, 0.0]
    for alpha, row in zip(ALPHA_GRID, moment_curve(ALPHA_GRID, q)):
        worst = [max(w, _rel(g, r)) for w, g, r in zip(worst, _moments(row), mp_dvq(alpha, q))]
    assert max(worst) <= TOL_MOMENT, f"D, V, Q off by {worst}"


@pytest.mark.parametrize("q", Q_GRID)
def test_div_total_matches_mpmath(q):
    worst = 0.0
    for row in rate_reports(N_GRID, 0.05, q):
        ref = row.n * mp_willie_divergence(row.alpha_n, q)
        worst = max(worst, _rel(row.willie_div_total, ref))
    assert worst <= TOL_DIV, f"div_total off by {worst:.2e}"


def test_closed_forms_near_the_edges():
    """q near 0 and 1, and warden weights from 1/2 on, where the branches matter."""
    worst = 0.0
    for q in (1e-6, 1.0 - 1e-6):
        alphas = (1e-12, 1e-6, 1e-2, 0.3, 0.5)
        for alpha, row in zip(alphas, moment_curve(alphas, q)):
            worst = max([worst] + [_rel(g, r) for g, r in zip(_moments(row), mp_dvq(alpha, q))])
    assert worst <= TOL_MOMENT, f"D, V, Q off by {worst:.2e}"
    worst = 0.0
    for q in (0.95, 1.0 - 1e-6, 1.0):
        warden = _e1_bloch(q)
        for alpha in (0.5, 0.6, 0.9, 1.0):
            got = _willie_divergence(alpha, *warden)
            worst = max(worst, _rel(got, mp_willie_divergence(alpha, q)))
    assert worst <= TOL_DIV, f"warden divergence off by {worst:.2e}"


def test_willie_eta_matches_mpmath():
    grid = [0.001, 0.01] + [k / 20 for k in range(1, 20)] + [0.99, 0.999]
    worst = max(_rel(eta, mp_willie_eta(q)) for q, eta, _ in capacity_curve(grid))
    assert worst <= TOL_ETA, f"eta off by {worst:.2e}"


# n from 2 to 1e15, about three points per decade, and n = 496, where logM_lemma1
# crosses 0 at the defaults
RATE_NS = sorted({2, 496} | {round(10.0 ** (k / 3)) for k in range(1, 46)})


def mp_rate_row(n: int, nu: float, q: float, eps: float, eta):
    """One rate-table row at 50 digits, eta being ``mp_willie_eta(q)``.

    Returns alpha_n, the terms (n D, sqrt(n V) z, -C_n) whose sum is
    logM_lemma1, logM_lemma2, div_total, 1 / (log2(n) sqrt(n div_total))
    and L_limit.
    """
    with mp.workdps(DPS):
        n_, nu_, q_ = mp.mpf(n), mp.mpf(nu), mp.mpf(q)
        alpha = n_ ** (nu_ - mp.mpf(2) / 3)
    d, v, q4 = mp_dvq(alpha, q)
    div = n_ * mp_willie_divergence(alpha, q)
    with mp.workdps(DPS):
        z = -mp.sqrt(2) * mp.erfinv(1 - 2 * mp.mpf(eps))  # Phi^{-1}(eps)
        root = mp.sqrt(2 * mp.pi)
        c_n = (mp.mpf(BERRY_ESSEEN) / root * q4 ** mp.mpf(0.75) / v + v / root
               + mp.log(4 * mp.mpf(eps) * n_, 2))
        coeff = 2 * (mp.mpf(2) / 3 - nu_) * (1 - q_) ** 2 / (2 - q_)
        asym = coeff * n_ ** (nu_ - mp.mpf(1) / 6) * mp.sqrt(n_) * mp.log(n_, 2)
        per_rate = 1 / (mp.log(n_, 2) * mp.sqrt(n_ * div))
        return (alpha, (n_ * d, mp.sqrt(n_ * v) * z, -c_n), asym, div, per_rate,
                coeff / mp.sqrt(eta / 2))


@pytest.mark.parametrize("q", (1e-6, 0.05, 0.5, 0.95))
def test_rate_table_columns_match_mpmath(q):
    nu, eps, eta = 0.05, 0.05, mp_willie_eta(q)
    worst = dict.fromkeys(("alpha_n", "logM_lemma1", "logM_lemma2", "L_n", "L_limit"), 0.0)
    for row in rate_reports(RATE_NS, nu, q, eps):
        alpha, terms, asym, div, per_rate, limit = mp_rate_row(row.n, nu, q, eps, eta)
        scale = sum(abs(t) for t in terms)
        for name, err in (
                ("alpha_n", _rel(row.alpha_n, alpha)),
                ("logM_lemma1", abs(row.logM_finite - sum(terms)) / scale),
                ("logM_lemma2", _rel(row.logM_asymptotic, asym)),
                ("L_n", abs(row.covert_rate_L - sum(terms) * per_rate) / (scale * per_rate)),
                ("L_limit", _rel(row.covert_rate_limit, limit))):
            worst[name] = max(worst[name], float(err))
    assert max(worst.values()) <= TOL_RATE, f"rate-table columns off by {worst}"


def _cli_rows(argv, tmp_path):
    path = tmp_path / "out.csv"
    code = cli.main(argv + ["--out", str(path)])
    if code != 0:
        return code, None
    header, *rows = csv.reader(path.read_text().splitlines())
    return code, [dict(zip(header, map(float, row))) for row in rows]


def test_former_faults_now_pass(tmp_path):
    """The four rows once known to be wrong: alpha 1e-12, 2e-12; n 1e12, 1e15."""
    code, rows = _cli_rows(["approx-check", "--alpha-grid", "1e-12,2e-12"], tmp_path)
    assert code == 0
    for row in rows:
        assert _rel(row["D_exact"], mp_dvq(row["alpha"], 0.5)[0]) <= TOL_PRINTED
    code, rows = _cli_rows(["rate-table", "--n-grid", "1e12,1e15"], tmp_path)
    assert code == 0
    for row in rows:
        (alpha,) = schedule_weights([int(row["n"])], 0.05)
        ref = row["n"] * mp_willie_divergence(alpha, 0.5)
        assert _rel(row["div_total"], ref) <= TOL_PRINTED


@pytest.mark.parametrize("alpha", ["1e-300", "1e-306", "2.2e-308", "1e-310", "5e-324"])
def test_tiny_alpha_is_accurate_or_refused(alpha, tmp_path):
    code, rows = _cli_rows(["approx-check", "--q", "0.05", "--alpha-grid", alpha], tmp_path)
    assert code in (0, 3)
    if code == 0:
        (row,) = rows
        ref = mp_dvq(float(alpha), 0.05)
        for name, value in zip(("D_exact", "V_exact", "Q_exact"), ref):
            assert _rel(row[name], value) <= TOL_PRINTED


@pytest.mark.parametrize("n", ["1e100", "1e200", "1e250", "1e260", "1e300"])
def test_huge_n_is_accurate_or_refused(n, tmp_path):
    code, rows = _cli_rows(["rate-table", "--n-grid", n], tmp_path)
    assert code in (0, 3)
    if code == 0:
        (row,) = rows
        (alpha,) = schedule_weights([int(float(n))], 0.05)
        ref = int(float(n)) * mp_willie_divergence(alpha, 0.5)
        assert _rel(row["div_total"], ref) <= TOL_PRINTED


# q down to 1e-300.  D and the warden divergence keep their precision; a
# row is refused where an eigenvalue alpha q / 2 or the divergence
# underflows (alpha = 1e-12), or where V ~ q log^2 q near alpha = 1/2 is
# within the rounding of L - D.  alpha = 1 is a warden weight only: the
# moments' table takes alpha in [0, 1).
SMALL_QS = (1e-300, 1e-200, 1e-100, 1e-20, 1e-17)
SMALL_Q_ALPHAS = (1e-12, 1e-3, 0.3, 0.5, 1.0)


@pytest.mark.parametrize("q", SMALL_QS)
def test_closed_forms_at_tiny_noise_are_accurate_or_refused(q):
    worst_moment = worst_div = 0.0
    refused = set()
    warden = _e1_bloch(q)
    for alpha in SMALL_Q_ALPHAS:
        try:
            if alpha < 1.0:
                got = _moments(moment_curve([alpha], q)[0])
                worst_moment = max([worst_moment] + [_rel(g, r) for g, r in zip(got, mp_dvq(alpha, q))])
        except ArithmeticError:
            refused.add(alpha)
        try:
            got = _willie_divergence(alpha, *warden)
            worst_div = max(worst_div, _rel(got, mp_willie_divergence(alpha, q)))
        except ArithmeticError:
            refused.add(alpha)
    assert worst_moment <= TOL_MOMENT, f"D, V, Q off by {worst_moment:.2e}"
    assert worst_div <= TOL_DIV, f"warden divergence off by {worst_div:.2e}"
    assert refused <= {1e-12, 0.5}


def _refusal_grid(count=4000):
    """(q, alpha) for the refusal pin: SMALL_QS x SMALL_Q_ALPHAS (alpha < 1), then seeded points.

    A seeded q is log-uniform over [2^-996, 1/2) (2^-996 = 1.5e-300) or
    1 - q is over [2^-29, 1/2) (2^-29 = 1.9e-9); a seeded alpha is
    log-uniform over [2^-996, 1/2), or 1/2 - alpha is over [2^-55, 1/8), or
    alpha is 1/2.  Each point is an ``ldexp`` of a drawn mantissa and at most
    one correctly rounded subtraction, so the grid is the same on every
    platform.
    """
    rng = random.Random(32)
    grid = [(q, alpha) for q in SMALL_QS for alpha in SMALL_Q_ALPHAS if alpha < 1.0]
    for _ in range(count):
        if rng.random() < 0.7:
            q = math.ldexp(1.0 + rng.random(), -rng.randint(2, 996))
        else:
            q = 1.0 - math.ldexp(1.0 + rng.random(), -rng.randint(2, 29))
        pick = rng.random()
        if pick < 0.4:
            alpha = 0.5 - math.ldexp(1.0 + rng.random(), -rng.randint(4, 55))
        elif pick < 0.5:
            alpha = 0.5
        else:
            alpha = math.ldexp(1.0 + rng.random(), -rng.randint(2, 996))
        grid.append((q, alpha))
    return grid


def _dvq_outcome(q, alpha):
    """``_dvq``'s moments at (q, alpha), or the message of its refusal."""
    try:
        return covert._dvq(alpha, q)
    except ArithmeticError as exc:
        return str(exc)


def test_dvq_refuses_exactly_the_pinned_set(monkeypatch):
    """``_dvq`` refuses the pinned (q, alpha) of ``_refusal_grid``, and its rows keep their bits.

    ``tests/dvq_refusals.json`` holds the grid indices that the moments
    refused at commit 3fe5483, before the closed-form centring clearance,
    when every row took the perturbed re-evaluation of V and Q, by the
    refusal's message: a spectral term or a moment below the normal range,
    or V and Q within the rounding of L - D.  With ``_CLEAR_FLOOR`` raised
    to inf no row clears the closed-form centring test, so every row takes
    that re-evaluation again: the rows and refusal messages must be the
    same, bit for bit.
    """
    pin = json.loads((Path(__file__).parent / "dvq_refusals.json").read_text())
    pinned, grid = pin["refused"], _refusal_grid()
    assert len(grid) == pin["points"]
    got = [_dvq_outcome(q, alpha) for q, alpha in grid]
    refused = {kind: [] for kind in pinned}
    for index, outcome in enumerate(got):
        if isinstance(outcome, str):  # each kind is a part of its message
            refused[next(kind for kind in pinned if kind in outcome)].append(index)
    assert refused == pinned
    monkeypatch.setattr(covert, "_CLEAR_FLOOR", math.inf)
    changed = [(grid[i], g, e) for i, (g, e) in
               enumerate(zip(got, (_dvq_outcome(q, alpha) for q, alpha in grid)))
               if repr(g) != repr(e)]
    assert not changed, changed[:3]


@pytest.mark.parametrize("q", [str(q) for q in SMALL_QS])
def test_tiny_noise_on_the_cli_is_accurate_or_refused(q, tmp_path):
    for alpha in SMALL_Q_ALPHAS[:-1]:
        code, rows = _cli_rows(["approx-check", "--q", q, "--alpha-grid", str(alpha)], tmp_path)
        assert code in (0, 3)
        if code == 0:
            (row,) = rows
            for name, value in zip(("D_exact", "V_exact", "Q_exact"), mp_dvq(alpha, float(q))):
                assert _rel(row[name], value) <= TOL_PRINTED
    code, rows = _cli_rows(["rate-table", "--q", q], tmp_path)
    assert code in (0, 3)
    for row in rows or []:
        (alpha,) = schedule_weights([int(row["n"])], 0.05)
        ref = row["n"] * mp_willie_divergence(alpha, float(q))
        assert _rel(row["div_total"], ref) <= TOL_PRINTED


@pytest.mark.parametrize("q", ["3.9e-305", "1e-305"])
def test_tiny_noise_tables_print_the_rows_they_can_hold(q, tmp_path):
    # below q of about 4e-305, the moments at alpha = 1e-3 refuse, but a table computes only
    # the moments it prints: each row whose own moments are normal floats is printed
    alphas = (0.0, 0.05, 0.3, 0.45, 0.7)
    code, rows = _cli_rows(["approx-check", "--q", q, "--alpha-grid", ",".join(map(str, alphas))],
                           tmp_path)
    assert code == 0
    assert rows[0]["D_exact"] == rows[0]["V_exact"] == rows[0]["Q_exact"] == 0.0
    for alpha, row in zip(alphas[1:], rows[1:]):
        for name, value in zip(("D_exact", "V_exact", "Q_exact"), mp_dvq(alpha, float(q))):
            assert _rel(row[name], value) <= TOL_PRINTED


# ----------------------------------------------------------------------
# detect-sim: the warden's divergence budget n D(omega_alpha || omega_0)

# alpha log-spaced over [1e-15, 1], one point per decade, plus weights past 1/2
DETECT_ALPHAS = tuple(10.0 ** -k for k in range(15, -1, -1)) + (0.3, 0.5, 0.7)
# the blocklengths are cycled over the weights, so each reaches n = 100 twice
DETECT_NS = (1, 2, 3, 5, 8, 13, 21, 34, 55, 100)


@pytest.mark.parametrize("q", Q_GRID)
def test_detect_e1_div_total_matches_mpmath(q):
    worst = 0.0
    for k, alpha in enumerate(DETECT_ALPHAS):
        n = DETECT_NS[k % len(DETECT_NS)]
        got = warden_errors([n], [alpha], q, Scenario.E1_ONLY)[0].div_total
        worst = max(worst, _rel(got, n * mp_willie_divergence(alpha, q)))
    assert worst <= TOL_DIV, f"detect-sim div_total off by {worst:.2e}"


@pytest.mark.parametrize("q", (0.05, 0.5, 0.95, 1.0))
def test_detect_all_env_budget_is_infinite(q):
    for alpha in (1e-16, 1e-15, 1e-14, 0.3):
        for n in (1, 5):
            r = warden_errors([n], [alpha], q, Scenario.ALL_ENV)[0]
            assert r.div_total == math.inf
            assert r.pinsker_floor == -math.inf


def test_detect_budget_is_exactly_zero_without_signal():
    for alpha, q in ((0.0, 0.5), (0.3, 0.0), (1.0, 0.0)):
        r = warden_errors([3], [alpha], q, Scenario.ALL_ENV)[0]
        assert r.div_total == 0.0
        assert r.pinsker_floor == 0.5
    for alpha in (0.0, 1e-15, 0.3, 1.0):
        for q in (0.05, 0.5, 1.0):
            assert warden_errors([7], [alpha], q, Scenario.E2_ONLY)[0].div_total == 0.0


# ----------------------------------------------------------------------
# detect-sim: the trace distance T of the two n-copy hypotheses

T_ALPHAS = (1e-15, 1e-9, 1e-3, 0.5, 1.0)


@pytest.mark.parametrize("q", (0.05, 0.5, 0.95))
@pytest.mark.parametrize(
    "scenario, n",
    [(Scenario.E1_ONLY, n) for n in (1, 2, 7, 20)] + [(Scenario.ALL_ENV, n) for n in (1, 3, 5)],
    ids=lambda v: v.name if isinstance(v, Scenario) else str(v),
)
def test_detect_trace_distance_matches_mpmath(scenario, n, q):
    rows = warden_errors([n] * len(T_ALPHAS), T_ALPHAS, q, scenario)
    refs = mp_warden_trace_distances(n, T_ALPHAS, q, scenario)
    worst = max(_rel(r.trace_dist, ref) for r, ref in zip(rows, refs))
    assert worst <= TOL_T, f"T off by {worst:.2e}"


@pytest.mark.parametrize("q", (1e-6, 0.999, 1.0))
def test_detect_all_env_trace_distance_at_the_q_edges(q):
    """ALL_ENV at every n up to 5 against the full block sum, at the ends of the q range."""
    for n in range(1, 6):
        rows = warden_errors([n] * len(T_ALPHAS), T_ALPHAS, q, Scenario.ALL_ENV)
        refs = mp_warden_trace_distances(n, T_ALPHAS, q, Scenario.ALL_ENV)
        worst = max(_rel(r.trace_dist, ref) for r, ref in zip(rows, refs))
        assert worst <= TOL_T, f"T off by {worst:.2e} at n={n}"


# E1's T past the direct block sums' n <= 20, against the 40-digit values of
# ``mp_warden_trace_distances`` in ``tests/e1_reference.json`` (n = 100 costs
# minutes in mpmath; ``oracles.write_e1_reference`` regenerates the file).  E1's
# E_n = (1 - T)/2 has no stated bound, so only T is held here.

E1_REFS = e1_reference()


def test_e1_reference_file_covers_the_rows():
    assert sorted(E1_REFS) == sorted(E1_ROWS)


@pytest.mark.parametrize("n, q, alpha", E1_ROWS)
def test_detect_e1_trace_distance_to_the_cap_matches_the_reference(n, q, alpha):
    (row,) = warden_errors([n], [alpha], q, Scenario.E1_ONLY)
    err = _rel(row.trace_dist, E1_REFS[n, q, alpha][0])
    assert err <= TOL_T, f"T off by {err:.2e}"


# ALL_ENV's T and E_n on the secular-equation route, against the 50-digit
# reduced-sector references in ``tests/allenv_reference.json`` (n up to the
# cap of 30 costs minutes in mpmath; ``oracles.write_allenv_reference``
# regenerates the file).

ALLENV_REFS = allenv_reference()


def test_allenv_reference_file_covers_the_grid():
    assert sorted(ALLENV_REFS) == sorted(
        (n, q, alpha) for n in ALLENV_GRID["n"] for q in ALLENV_GRID["q"]
        for alpha in ALLENV_GRID["alpha"])


@pytest.mark.parametrize("n", ALLENV_GRID["n"])
def test_detect_all_env_t_and_error_match_the_reference(n):
    worst_t = worst_e = 0.0
    for (n_, q, alpha), (dist, error) in ALLENV_REFS.items():
        if n_ != n:
            continue
        (row,) = warden_errors([n], [alpha], q, Scenario.ALL_ENV)
        worst_t = max(worst_t, _rel(row.trace_dist, dist))
        if error == 0:
            # q = 1, alpha = 1: the states are orthogonal and E is exactly 0
            assert row.error_prob == 0.0, (q, alpha, row)
        else:
            worst_e = max(worst_e, _rel(row.error_prob, error))
    assert worst_t <= TOL_ALLENV, f"T off by {worst_t:.2e}"
    assert worst_e <= TOL_ALLENV, f"E_n off by {worst_e:.2e}"


@pytest.mark.parametrize("q", (0.05, 0.999))
def test_reduced_reference_matches_the_kronecker_oracle(q):
    """The reduction to one top block per sector, checked on the full block sum."""
    alphas = ALLENV_GRID["alpha"]
    for n in (1, 3, 5):
        pairs = mp_allenv_distances(n, alphas, q)
        full = mp_warden_trace_distances(n, alphas, q, Scenario.ALL_ENV)
        # the 40-digit block sum subtracts its blocks: 25 digits are left at alpha = 1e-15
        assert all(abs(dist - ref) <= mp.mpf(10) ** -20 * ref
                   for (dist, _), ref in zip(pairs, full)), (n, q)


def test_reference_file_matches_a_fresh_computation():
    """The committed references at n <= 5, recomputed here (the rest take minutes)."""
    for n in (1, 3, 5):
        for q in ALLENV_GRID["q"]:
            alphas = ALLENV_GRID["alpha"]
            for alpha, fresh in zip(alphas, mp_allenv_distances(n, alphas, q)):
                # the file keeps 25 significant digits
                assert all(abs(kept - value) <= mp.mpf(10) ** -23 * value for kept, value
                           in zip(ALLENV_REFS[n, q, alpha], fresh)), (n, q, alpha)


# ----------------------------------------------------------------------
# scenario: the feasibility report's fields

SUPPORT_FIELDS = ("kernel_overlap", "trace_dist", "det_omega0", "det_omega1")
# from the smallest subnormal through the normal range's edge 2.2e-308 to 1
SUPPORT_QS = (5e-324, 1e-320, 1e-310, 3e-308, 5e-308, 1e-307, 1e-300, 1e-15, 3e-15, 1e-6,
              0.01, 0.3, 0.5, 0.885731, 0.99, 1.0 - 1e-12, 1.0)
# and evenly across the interior, where every verdict is decided far from a boundary
INTERIOR_QS = tuple(0.01 + 0.98 * k / 49 for k in range(50))


@pytest.mark.parametrize("scenario", list(Scenario), ids=lambda s: s.name)
def test_scenario_fields_match_mpmath(scenario):
    worst, refused = 0.0, []
    for q in SUPPORT_QS + INTERIOR_QS:
        try:
            rep = scenario_reports(q, [scenario])[0]
        except ArithmeticError:
            refused.append(q)
            continue
        refs = mp_support_fields(q, scenario)
        for name, ref in zip(SUPPORT_FIELDS, refs):
            got = getattr(rep, name)
            if ref == 0:
                # an analytic zero is printed as +0.0, not as a rounding residue
                assert got == 0.0 and math.copysign(1.0, got) == 1.0, (q, name, got)
            else:
                worst = max(worst, _rel(got, ref))
        # the verdict the reference fields give: a kernel overlap escapes the support,
        # equal states are blind, and the channel collapses at q in {0, 1}
        overlap, dist = refs[:2]
        verdict = ("degenerate" if q in (0.0, 1.0) else "impossible" if overlap
                   else "trivial" if dist == 0 else "nontrivial")
        assert (rep.verdict, rep.support_contained) == (verdict, overlap == 0), (q, rep)
    assert worst <= TOL_SUPPORT, f"scenario fields off by {worst:.2e}"
    # the field of size q (ALL_ENV's overlap, else the determinant) is refused below
    # the normal range, and only there
    assert refused == [q for q in SUPPORT_QS if q < {"ALL_ENV": 2.3e-308, "E2_ONLY": 4.5e-308,
                                                     "E1_ONLY": 8.9e-308}[scenario.name]]
