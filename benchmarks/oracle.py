"""Independent reference values and row checks for every qcovert table.

Nothing here imports qcovert.  Each reference is derived from the model
itself (the arrow-matrix joint output, the qubit Bloch vectors of the
warden's marginals) and evaluated in mpmath at ``DPS`` digits, or it is a
property the method must have (verdicts, E = (1 - T)/2, the Pinsker and
Fuchs-van de Graaf bounds).  No check compares against stored output.

``check_table(argv, code, text)`` returns a list of failure strings for
one CLI call; an empty list means every row passed.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math

import mpmath as mp

DPS = 50
mp.mp.dps = DPS

# Tolerances.  Each lets every healthy grid of the workloads pass with a
# margin of at least 3 over the worst error measured (README.md) and fails
# a row whose D (alpha >~ 1e-8), div_total or eta is off by a relative 1e-6.
TOL_MOMENT = 5e-7      # relative, D, V, logM and their ratios
# D is a difference of O(1)-bit traces, so its error has an absolute floor
# of a few ulp (6e-16 measured for alpha down to 1e-11).
ATOL_D = 5e-15
TOL_Q4 = 1e-4          # fourth moment: error grows like eps/alpha (2.3e-5)
TOL_DIV = 4e-7         # warden divergence total on n in [1e2, 1e7] (7.3e-8)
TOL_CLOSED = 1e-10     # closed forms printed with 12 significant digits
TOL_PROPERTY = 1e-12   # identities such as E = (1 - T)/2

BERRY_ESSEEN = mp.mpf("0.4784")
NU_DEFAULT = 0.05
EPS_DEFAULT = 0.05
Q_DEFAULT = 0.5


def _mpf(x) -> mp.mpf:
    return mp.mpf(float(x))


# ----------------------------------------------------------------------
# Joint-output moments (approx-check, rate-table)


def _mul2(x, y):
    """Product of 2x2 matrices held as nested tuples."""
    return ((x[0][0] * y[0][0] + x[0][1] * y[1][0], x[0][0] * y[0][1] + x[0][1] * y[1][1]),
            (x[1][0] * y[0][0] + x[1][1] * y[1][0], x[1][0] * y[0][1] + x[1][1] * y[1][1]))


def _trace_mul2(x, y):
    return x[0][0] * y[0][0] + x[0][1] * y[1][0] + x[1][0] * y[0][1] + x[1][1] * y[1][1]


def arrow_moments(alpha, q):
    """Exact (D, V, Q) of the arrow-matrix joint output vs its marginals, bits.

    The joint output is block-diagonal: a 2x2 block on indices {0, 3} and
    the scalars b, c on indices 1, 2.  So is the log-likelihood operator
    L = log rho - log sigma (sigma is diagonal), and every trace below is
    taken block by block.
    """
    a_, q_ = _mpf(alpha), _mpf(q)
    half = q_ / 2
    a = (1 - half) * (1 - a_)
    b = half * (1 - a_)
    c = half * a_
    d = (1 - half) * a_
    e = (1 - q_) * mp.sqrt(a_ * (1 - a_))
    m0 = (1 - (1 - half)) * a_ + (1 - half) * (1 - a_)
    m1 = (1 - half) * a_ + half * (1 - a_)
    sigma = [(1 - a_) * m0, (1 - a_) * m1, a_ * m0, a_ * m1]

    # Diagonalize the {0, 3} block of rho in closed form to take its log.
    r = mp.sqrt((a - d) ** 2 + 4 * e * e)
    l00 = l03 = l33 = mp.mpf(0)
    for lam in ((a + d + r) / 2, (a + d - r) / 2):
        v0, v3 = e, lam - a
        norm2 = v0 * v0 + v3 * v3
        if norm2 == 0:
            continue
        w = mp.log(lam, 2) / norm2
        l00 += w * v0 * v0
        l03 += w * v0 * v3
        l33 += w * v3 * v3
    rho_block = ((a, e), (e, d))
    block = ((l00 - mp.log(sigma[0], 2), l03), (l03, l33 - mp.log(sigma[3], 2)))
    l1 = mp.log(b, 2) - mp.log(sigma[1], 2)
    l2 = mp.log(c, 2) - mp.log(sigma[2], 2)
    dval = _trace_mul2(rho_block, block) + b * l1 + c * l2
    centered = ((block[0][0] - dval, block[0][1]), (block[1][0], block[1][1] - dval))
    c1, c2 = l1 - dval, l2 - dval
    sq = _mul2(centered, centered)
    vval = _trace_mul2(rho_block, sq) + b * c1 ** 2 + c * c2 ** 2
    qval = _trace_mul2(rho_block, _mul2(sq, sq)) + b * c1 ** 4 + c * c2 ** 4
    return dval, vval, qval


def leading_moments(alpha, q):
    """Leading small-alpha forms D ~ -c a log2 a and V ~ c a log2(a)^2."""
    a_, q_ = _mpf(alpha), _mpf(q)
    coeff = 2 * (1 - q_) ** 2 / (2 - q_)
    log_a = mp.log(a_, 2)
    return -coeff * a_ * log_a, coeff * a_ * log_a * log_a


# ----------------------------------------------------------------------
# Qubit warden marginals (rate-table, bound-curve, detect-sim, scenario)


def e1_bloch(alpha, q):
    """Bloch vector of the E1-only warden marginal for input weight alpha."""
    a_, q_ = _mpf(alpha), _mpf(q)
    s = mp.sqrt((1 - 3 * q_ / 4) * q_ / 4)
    scale = 1 - 2 * a_
    # omega_01 = scale*(s - i q/4) = (x - i y)/2
    return (2 * scale * s, scale * q_ / 2, 1 - q_)


def _norm(v):
    return mp.sqrt(sum(x * x for x in v))


def _dot(u, v):
    return sum(x * y for x, y in zip(u, v))


def qubit_relative_entropy(r, s):
    """D(rho||sigma) in bits for qubit states with Bloch vectors r and s."""
    nr, ns = _norm(r), _norm(s)
    total = mp.mpf(0)
    for sign in (1, -1):
        p = (1 + sign * nr) / 2
        if p > 0:
            total += p * mp.log(p, 2)
        weight = (1 + sign * _dot(r, s) / ns) / 2
        lam = (1 + sign * ns) / 2
        if weight != 0:
            total -= weight * mp.log(lam, 2)
    return total


def qubit_eta(r1, r0):
    """Curvature eta(rho1||rho0) by divided differences in rho0's eigenbasis."""
    n0 = _norm(r0)
    hat = [x / n0 for x in r0]
    delta = [x - y for x, y in zip(r1, r0)]
    along = _dot(delta, hat)
    perp2 = _dot(delta, delta) - along * along
    lam_p, lam_m = (1 + n0) / 2, (1 - n0) / 2
    ln2 = mp.log(2)
    c_pp = 1 / (lam_p * ln2)
    c_mm = 1 / (lam_m * ln2)
    c_pm = (mp.log(lam_p, 2) - mp.log(lam_m, 2)) / (lam_p - lam_m)
    return (c_pp + c_mm) * along * along / 4 + 2 * c_pm * perp2 / 4


def willie_eta(q):
    return qubit_eta(e1_bloch(1, q), e1_bloch(0, q))


def capacity_lb(q):
    q_ = _mpf(q)
    return 4 * mp.sqrt(2) / 3 * (1 - q_) ** 2 / ((2 - q_) * mp.sqrt(willie_eta(q)))


@functools.lru_cache(maxsize=None)  # one (nu, q) per table
def rate_limit(nu, q):
    nu_, q_ = _mpf(nu), _mpf(q)
    coeff = 2 * (mp.mpf(2) / 3 - nu_) * (1 - q_) ** 2 / (2 - q_)
    return coeff / mp.sqrt(willie_eta(q) / 2)


def schedule_alpha(n, nu):
    return mp.power(mp.mpf(int(n)), _mpf(nu) - mp.mpf(2) / 3)


def _allenv_pair(q):
    q_ = _mpf(q)
    s = mp.sqrt((1 - 3 * q_ / 4) * q_ / 4)
    t = q_ / 4
    w0 = mp.matrix([[1 - 3 * t, 0, s, 0], [0, t, 0, -1j * t],
                    [s, 0, t, 0], [0, 1j * t, 0, t]])
    w1 = mp.matrix([[1 - 3 * t, 0, -s, 0], [0, t, 0, 1j * t],
                    [-s, 0, t, 0], [0, -1j * t, 0, t]])
    return w0, w1


def _psd_sqrt(m):
    w, v = mp.eighe(m)
    d = mp.diag([mp.sqrt(max(mp.re(x), 0)) for x in w])
    return v * d * v.transpose_conj()


def root_fidelity(r, s):
    """Tr sqrt(sqrt(r) s sqrt(r)) for mpmath Hermitian matrices."""
    root = _psd_sqrt(r)
    w, _ = mp.eighe(root * s * root)
    return sum(mp.sqrt(max(mp.re(x), 0)) for x in w)


def _bloch_matrix(r):
    x, y, z = r
    return mp.matrix([[(1 + z) / 2, (x - 1j * y) / 2], [(x + 1j * y) / 2, (1 - z) / 2]])


def detection_reference(n, alpha, q, scenario):
    """(single-use fidelity, n-use divergence or None for +inf) at weight alpha."""
    a_ = _mpf(alpha)
    if scenario == 3:
        r0, ra = e1_bloch(0, q), e1_bloch(alpha, q)
        fid = root_fidelity(_bloch_matrix(ra), _bloch_matrix(r0))
        return fid, n * qubit_relative_entropy(ra, r0)
    w0, w1 = _allenv_pair(q)
    wa = w0 if a_ == 0 else (1 - a_) * w0 + a_ * w1
    fid = root_fidelity(wa, w0)
    # omega_1 puts weight q/2 on the kernel of omega_0, so any alpha > 0
    # leaves the support: D = +inf.
    return fid, (mp.mpf(0) if a_ == 0 else None)


# ----------------------------------------------------------------------
# Row checks


def _close(got, ref, rtol, scale=None, atol=0) -> bool:
    """|got - ref| <= rtol * scale + atol, scale defaulting to |ref|."""
    if not math.isfinite(got):
        return False
    if scale is None:
        scale = abs(ref)
    return abs(mp.mpf(got) - ref) <= rtol * scale + atol


def _opt(argv, flag, default):
    return argv[argv.index(flag) + 1] if flag in argv else default


def _csv_rows(text):
    lines = list(csv.reader(io.StringIO(text)))
    return lines[0], [[float(x) for x in row] for row in lines[1:]]


def _grid(spec):
    return [float(x) for x in spec.split(",")]


def check_approx(argv, header, rows):
    q = float(_opt(argv, "--q", Q_DEFAULT))
    alphas = _grid(_opt(argv, "--alpha-grid", None))
    fails = []
    if len(rows) != len(alphas):
        return [f"{len(rows)} rows for {len(alphas)} grid points"]
    for alpha, row in zip(alphas, rows):
        got = dict(zip(header, row))
        d, v, q4 = arrow_moments(alpha, q)
        d_lead, v_lead = leading_moments(alpha, q)
        checks = [
            ("alpha", got["alpha"], _mpf(alpha), TOL_CLOSED, 0),
            ("q", got["q"], _mpf(q), TOL_CLOSED, 0),
            ("D_exact", got["D_exact"], d, TOL_MOMENT, ATOL_D),
            ("D_lead", got["D_lead"], d_lead, TOL_CLOSED, 0),
            ("V_exact", got["V_exact"], v, TOL_MOMENT, 0),
            ("V_lead", got["V_lead"], v_lead, TOL_CLOSED, 0),
            ("Q_exact", got["Q_exact"], q4, TOL_Q4, 0),
            ("ratio_D", got["ratio_D"], d / d_lead, TOL_MOMENT, ATOL_D / d_lead),
            ("ratio_V", got["ratio_V"], v / v_lead, TOL_MOMENT, 0),
        ]
        fails += [f"alpha={alpha:g}: {name}={g!r} vs {mp.nstr(ref, 15)}"
                  for name, g, ref, tol, atol in checks
                  if not _close(g, ref, tol, atol=atol)]
    return fails


@functools.lru_cache(maxsize=None)  # one eps per table
def _normal_quantile(eps):
    return -mp.sqrt(2) * mp.erfinv(1 - 2 * _mpf(eps))


def rate_reference(n, nu, q, eps):
    """Reference (alpha_n, logM pieces, logM_asymptotic, div_total, L_limit)."""
    alpha = schedule_alpha(n, nu)
    d, v, q4 = arrow_moments(alpha, q)
    n_ = mp.mpf(n)
    eps_ = _mpf(eps)
    z = _normal_quantile(eps)
    c_n = (BERRY_ESSEEN / mp.sqrt(2 * mp.pi) * q4 ** mp.mpf(0.75) / v
           + v / mp.sqrt(2 * mp.pi) + mp.log(4 * eps_ * n_, 2))
    terms = (n_ * d, mp.sqrt(n_ * v) * z, -c_n)
    nu_, q_ = _mpf(nu), _mpf(q)
    gamma = mp.power(n_, nu_ - mp.mpf(1) / 6)
    logm_asym = (2 * (mp.mpf(2) / 3 - nu_) * (1 - q_) ** 2 / (2 - q_)
                 * gamma * mp.sqrt(n_) * mp.log(n_, 2))
    div = n_ * qubit_relative_entropy(e1_bloch(alpha, q), e1_bloch(0, q))
    return alpha, terms, logm_asym, div, rate_limit(nu, q)


def check_rate(argv, header, rows):
    q = float(_opt(argv, "--q", Q_DEFAULT))
    nu = float(_opt(argv, "--nu", NU_DEFAULT))
    eps = float(_opt(argv, "--eps", EPS_DEFAULT))
    ns = [int(round(x)) for x in _grid(_opt(argv, "--n-grid", None))]
    if len(rows) != len(ns):
        return [f"{len(rows)} rows for {len(ns)} grid points"]
    fails = []
    for n, row in zip(ns, rows):
        got = dict(zip(header, row))
        alpha, terms, logm_asym, div, limit = rate_reference(n, nu, q, eps)
        logm = sum(terms)
        # logM is a difference of terms that can nearly cancel; its error
        # is relative to the size of the terms, not of the result.
        scale = sum(abs(t) for t in terms)
        per_rate = 1 / (mp.log(n, 2) * mp.sqrt(n * div))
        rate = logm * per_rate
        checks = [
            ("n", got["n"], mp.mpf(n), 0, None, 0),
            ("nu", got["nu"], _mpf(nu), TOL_CLOSED, None, 0),
            ("q", got["q"], _mpf(q), TOL_CLOSED, None, 0),
            ("alpha_n", got["alpha_n"], alpha, TOL_CLOSED, None, 0),
            ("logM_lemma1", got["logM_lemma1"], logm, TOL_MOMENT, scale, 0),
            ("logM_lemma2", got["logM_lemma2"], logm_asym, TOL_CLOSED, None, 0),
            ("div_total", got["div_total"], div, TOL_DIV, None, 0),
            # L_n inherits the logM error and half the div_total error.
            ("L_n", got["L_n"], rate, TOL_MOMENT, scale * per_rate, abs(rate) * TOL_DIV),
            ("L_limit", got["L_limit"], limit, TOL_CLOSED, None, 0),
        ]
        fails += [f"n={n}: {name}={g!r} vs {mp.nstr(ref, 15)}"
                  for name, g, ref, tol, scale_, atol in checks
                  if not _close(g, ref, tol, scale_, atol)]
    return fails


def check_bound(argv, header, rows):
    qs = _grid(_opt(argv, "--q-grid", None))
    if len(rows) != len(qs):
        return [f"{len(rows)} rows for {len(qs)} grid points"]
    fails = []
    for q, row in zip(qs, rows):
        got = dict(zip(header, row))
        checks = [
            ("q", got["q"], _mpf(q)),
            ("eta", got["eta"], willie_eta(q)),
            ("capacity_lb", got["capacity_lb"], capacity_lb(q)),
        ]
        fails += [f"q={q:g}: {name}={g!r} vs {mp.nstr(ref, 15)}"
                  for name, g, ref in checks if not _close(g, ref, TOL_CLOSED)]
    return fails


VERDICTS = {1: "impossible", 2: "trivial", 3: "nontrivial"}
LABELS = {1: "ALL_ENV", 2: "E2_ONLY", 3: "E1_ONLY"}


def check_scenario(argv, text):
    q = float(_opt(argv, "--q", Q_DEFAULT))
    rows = json.loads(text)["rows"]
    fails = []
    if [r["scenario"] for r in rows] != [1, 2, 3]:
        return [f"scenarios {[r['scenario'] for r in rows]} instead of [1, 2, 3]"]
    q_ = _mpf(q)
    e1_dist = mp.sqrt(q_ - q_ * q_ / 2)
    e1_det = q_ / 4 - q_ * q_ / 8
    for r in rows:
        s = r["scenario"]
        prefix = f"q={q:g} scenario {s}"
        if r["verdict"] != VERDICTS[s] or r["label"] != LABELS[s] or r["q"] != q:
            fails.append(f"{prefix}: verdict {r['verdict']!r}, label {r['label']!r}")
        if r["support_contained"] != (s != 1):
            fails.append(f"{prefix}: support_contained={r['support_contained']}")
        if s == 2 and r["trace_distance"] != 0.0:
            fails.append(f"{prefix}: trace distance {r['trace_distance']!r} != 0")
        if s == 3:
            for name, ref in (("trace_distance", e1_dist), ("det_omega0", e1_det),
                              ("det_omega1", e1_det)):
                if not _close(r[name], ref, TOL_CLOSED):
                    fails.append(f"{prefix}: {name}={r[name]!r} vs {mp.nstr(ref, 15)}")
        if s == 1 and not r["kernel_overlap"] > 0.0:
            fails.append(f"{prefix}: kernel overlap {r['kernel_overlap']!r} not positive")
    return fails


def check_detect(argv, header, rows):
    q = float(_opt(argv, "--q", Q_DEFAULT))
    nu = float(_opt(argv, "--nu", NU_DEFAULT))
    scenario = int(_opt(argv, "--scenario", 3))
    spec = _opt(argv, "--n-grid", None)
    if ":" in spec:
        lo, hi, step = (int(x) for x in spec.split(":"))
        ns = list(range(lo, hi + 1, step))
    else:
        ns = [int(x) for x in spec.split(",")]
    if len(rows) != len(ns):
        return [f"{len(rows)} rows for {len(ns)} blocklengths"]
    fails = []
    for n, row in zip(ns, rows):
        got = dict(zip(header, row))
        alpha = schedule_alpha(n, nu)
        fid, div = detection_reference(n, alpha, q, scenario)
        t, err, floor = got["trace_dist"], got["E_n"], got["pinsker_floor"]
        prefix = f"n={n} scenario {scenario}"
        lower = 1 - fid ** n
        upper = mp.sqrt(1 - fid ** (2 * n))
        if not _close(got["alpha"], alpha, TOL_CLOSED):
            fails.append(f"{prefix}: alpha={got['alpha']!r} vs {mp.nstr(alpha, 15)}")
        if abs(err - (1 - t) / 2) > TOL_PROPERTY:
            fails.append(f"{prefix}: E_n={err!r} is not (1 - T)/2 for T={t!r}")
        if not err >= floor:
            fails.append(f"{prefix}: E_n={err!r} below the Pinsker floor {floor!r}")
        if not (lower - TOL_PROPERTY <= t <= upper + TOL_PROPERTY):
            fails.append(f"{prefix}: T={t!r} outside the Fuchs-van de Graaf bounds "
                         f"[{mp.nstr(lower, 12)}, {mp.nstr(upper, 12)}]")
        if div is None:
            if got["div_total"] != math.inf or floor != -math.inf:
                fails.append(f"{prefix}: div_total={got['div_total']!r} should be inf")
        elif not _close(got["div_total"], div, TOL_DIV):
            fails.append(f"{prefix}: div_total={got['div_total']!r} vs {mp.nstr(div, 15)}")
    return fails


def check_table(argv, code, text):
    """Failure strings for one CLI call (argv without --out); [] means pass."""
    if code != 0:
        return [f"exit code {code}"]
    command = argv[0]
    if command == "scenario":
        return check_scenario(argv, text)
    header, rows = _csv_rows(text)
    checker = {
        "approx-check": check_approx,
        "rate-table": check_rate,
        "bound-curve": check_bound,
        "detect-sim": check_detect,
    }[command]
    return checker(argv, header, rows)
