"""Achievable covert throughput over the depolarizing channel.

For the weakly entangled input sqrt(1-alpha)|00> + sqrt(alpha)|11>
this module gives three tables and the schedule they share:
``moment_curve`` (the exact and leading-order relative entropy moments
of the joint sender/receiver output per weight alpha), ``rate_reports``
(the finite-blocklength achievable message size, the warden's divergence
budget and the covert rate per blocklength) and ``capacity_curve`` (the
warden's curvature and the capacity lower bound per q), with
``schedule_weights``, the one form of the schedule alpha_n = n**(nu - 2/3).
Each table's rows are the rows its ``qcovert`` command prints, cell for
cell in the command's column order.
The dense input state, the arrow matrix of the joint output, its
parameters and spectral decomposition that these closed forms are
checked against live in ``tests/oracles.py``.

Message sizes are in bits (all logs base 2).  The natural rate unit is
log M / (log2(n) sqrt(n * divergence)), which stays finite when the
message size grows like sqrt(n) log n.

Each quantity has one kernel, which takes its arguments unchecked: the
moments D, V, Q (``_dvq``), the message size (``_logM``), the warden's
single-use divergence (``_willie_divergence``, which
``detection.warden_errors`` calls too) and its curvature eta (``_eta``),
the last two from q's constants ``_e1_bloch``.  They are scalar closed
forms in plain ``math``: no matrix, no eigensolver, each written so that
no subtraction cancels but the one centring of V and Q, whose rounding is
bounded.  A closed-form value that is not a positive normal float (inputs
near the float underflow), or V and Q within the rounding of that
centring, raises ArithmeticError instead of being returned.  The tables
check every argument once, before any row, and compute what the grid does
not vary once per table: ``moment_curve`` the leading forms'
coefficient, and ``rate_reports`` the warden's per-q constants and eta
from them, the schedule exponents and Phi^{-1}(eps).
"""

import math
import sys
from typing import NamedTuple

from .divergences import DvqTriple

# Berry-Esseen constant: the true value is only known to sit in
# [0.40973, 0.4784]; the upper end keeps the bound valid.
BERRY_ESSEEN = 0.4784

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_CAPACITY_COEFF = 4.0 * math.sqrt(2.0) / 3.0  # the capacity bound's 4 sqrt(2)/3
_BE_SQRT_2PI = BERRY_ESSEEN / _SQRT_2PI
LN2 = math.log(2.0)
_LN2_2, _LN2_4 = LN2**2, LN2**4
# Smallest positive normal float.  A closed-form quantity below it has lost
# relative precision (or underflowed to zero), so the computation refuses.
_TINY = sys.float_info.min
_EPS = sys.float_info.epsilon
_INF = math.inf
# ``_dvq`` clears its centring refusal without the perturbed evaluation where
# D^2 <= _CENTRING_CLEAR * V and V, Q >= _CLEAR_FLOOR = 2^-970 (the proof is in its docstring).
_CENTRING_CLEAR = 4.0
_CLEAR_FLOOR = _TINY / _EPS


# Wichura's AS241 (PPND16) rational approximations, (numerator, denominator)
# with the highest power first: in 0.180625 - (p - 1/2)^2 for |p - 1/2| <= 0.425,
# and in the tails, r = sqrt(-log(min(p, 1 - p))), in r - 1.6 for r <= 5 and in
# r - 5 past it.
_AS241_CENTRAL = (
    (2.5090809287301226727e+3, 3.3430575583588128105e+4, 6.7265770927008700853e+4,
     4.5921953931549871457e+4, 1.3731693765509461125e+4, 1.9715909503065514427e+3,
     1.3314166789178437745e+2, 3.3871328727963666080e+0),
    (5.2264952788528545610e+3, 2.8729085735721942674e+4, 3.9307895800092710610e+4,
     2.1213794301586595867e+4, 5.3941960214247511077e+3, 6.8718700749205790830e+2,
     4.2313330701600911252e+1, 1.0))
_AS241_NEAR = (
    (7.7454501427834140764e-4, 2.2723844989269184583e-2, 2.4178072517745061177e-1,
     1.2704582524523683826e+0, 3.6478483247632046050e+0, 5.7694972214606914055e+0,
     4.6303378461565452959e+0, 1.4234371107496835773e+0),
    (1.0507500716444168432e-9, 5.4759380849953449460e-4, 1.5198666563616457197e-2,
     1.4810397642748007459e-1, 6.8976733498510000455e-1, 1.6763848301838038494e+0,
     2.0531916266377588219e+0, 1.0))
_AS241_FAR = (
    (2.0103343992922881326e-7, 2.7115555687434875782e-5, 1.2426609473880784386e-3,
     2.6532189526576123093e-2, 2.9656057182850489123e-1, 1.7848265399172913358e+0,
     5.4637849111641143699e+0, 6.6579046435011037772e+0),
    (2.0442631033899397856e-15, 1.4215117583164458887e-7, 1.8463183175100546818e-5,
     7.8686913114561329059e-4, 1.4875361290850615025e-2, 1.3692988092273580531e-1,
     5.9983220655588793769e-1, 1.0))


def _horner(coeffs, r: float) -> float:
    """The polynomial in r, as (c_0 r + c_1) r + ... + c_m: AS241's order of operations."""
    acc = coeffs[0]
    for c in coeffs[1:]:
        acc = acc * r + c
    return acc


def _inv_normal_cdf(p: float) -> float:
    """Phi^{-1}(p), the standard normal quantile, for 0 < p < 1 (the caller checks p).

    Wichura's algorithm AS241 (PPND16; Appl. Statist. 37, 477, 1988) in
    plain ``math``, with no ``statistics`` import.  It performs the
    operations of CPython's ``statistics._normal_dist_inv_cdf`` (the same
    algorithm) in the same order, each Horner step acc * r + c, so it
    returns ``statistics.NormalDist().inv_cdf(p)`` bit for bit;
    tests/test_covert.py checks both that and its relative error against
    mpmath.
    """
    q = p - 0.5
    if math.fabs(q) <= 0.425:
        r = 0.180625 - q * q
        num, den = _AS241_CENTRAL
        return (_horner(num, r) * q) / _horner(den, r)
    r = math.sqrt(-math.log(p if q <= 0.0 else 1.0 - p))
    if r <= 5.0:
        r, (num, den) = r - 1.6, _AS241_NEAR
    else:
        r, (num, den) = r - 5.0, _AS241_FAR
    x = _horner(num, r) / _horner(den, r)
    return -x if q < 0.0 else x


def _require_normal(what: str, *values: float):
    """Raise ArithmeticError unless every value is a positive, finite, normal float."""
    for x in values:
        if not (_TINY <= x < math.inf):
            raise ArithmeticError(f"{what} {x!r} is not a positive normal float")


def check_nu(nu: float):
    if not (0.0 < nu < 1.0 / 6.0):
        raise ValueError(f"schedule exponent nu={nu!r} outside (0, 1/6)")


def schedule_weights(blocklengths, nu: float):
    """Yield the schedule's input weight alpha_n = n**(nu - 2/3) for each blocklength n.

    This is the one form of the schedule.  nu is checked at the first
    weight and each n as its weight is taken: it must be a finite
    positive integer.  n = 1 is admitted for simulation sweeps, though it puts
    alpha_1 at the boundary value 1.
    """
    check_nu(nu)
    exponent = nu - 2.0 / 3.0
    for n in blocklengths:
        if not 1 <= n < math.inf or n != int(n):
            raise ValueError(f"blocklength n={n!r} must be a positive integer")
        yield float(n) ** exponent


class RateReport(NamedTuple):
    """One row of the covert-rate analysis at a fixed blocklength: a ``rate-table`` row."""

    n: int
    nu: float
    q: float
    alpha_n: float
    logM_finite: float
    logM_asymptotic: float
    willie_div_total: float
    covert_rate_L: float
    covert_rate_limit: float


def _dvq(alpha: float, q: float) -> DvqTriple:
    """Exact relative entropy moments of the joint output vs its marginals.

    D = Tr[rho L], V = Tr[rho (L-D)^2] and Q = Tr[rho (L-D)^4] in bits,
    with L = log2 rho - log2 sigma, rho the arrow-matrix joint output and
    sigma the (diagonal) product of its marginals, at 0 < alpha <= 1/2 and
    0 < q < 1, unchecked.  The moments are symmetric under alpha -> 1 - alpha
    (X (x) X maps one input onto the other and commutes with the channel),
    so the tables pass min(alpha, 1 - alpha).  Both operators are block
    diagonal: the {0, 3} block of rho has closed-form eigenpairs, and
    indices 1, 2 are the scalars b, c against sigma_1, sigma_2, so the
    moments are scalar algebra on two eigenvalues, the block's rotation
    angle and two scalars.  Nearly every constant depends on alpha, so none
    is kept across calls.

    D is written as KL(diag rho || sigma) + S(diag rho) - S(rho), a sum
    of seven nonnegative terms in g(u) = (1+u) log(1+u) - u (with 1 + u
    taken as a quotient where it is near 0); V and Q are sums of
    nonnegative terms whose logarithms are formed from ratios near 1
    (log1p of closed-form differences), centred by D.  The relative error
    stays near 1e-15 from alpha ~ 1e-300 to 1/2 and for q from 1e-300 to
    1 - 1e-9, except near alpha = 1/2 at q below about 1e-20: there V is
    about q log^2 q and the centring's rounding can dominate it, so V and
    Q are refused where that rounding could move them by 1e-14.  Raises
    ArithmeticError when an eigenvalue, a marginal or a moment is not a
    positive normal float (alpha q near the float underflow), or on that
    refusal of V and Q, instead of returning a number that has lost its
    precision.

    The refusal pushes each L_ii - D outward by eps (|L_ii| + |D|), an ulp
    of its operands, and refuses when the re-evaluated V_hi - V > 1e-14 V or
    Q_hi - Q > 1e-14 Q.  That second evaluation runs only where the
    sufficient test D^2 <= 4 V with V, Q >= 2^-970 fails, which the
    following bound proves.  In rho's eigenbasis rho = diag(p),
    p = (lam1, lam4, b, c), and X = L - D is the block [[c11, l14],
    [l14, c44]] plus the scalars c_b, c_c, so V = ||X W||^2 and
    Q = ||X^2 W||^2 in the Frobenius norm, W = rho^(1/2).  Take V, Q and
    V', Q' as the exact values at the computed entries, unperturbed and
    perturbed, and u = 2^-53.  The rounding of |L_ii| + |D|, of c_i = L_ii - D
    and of the shifted sum bound each shift by |Delta_i| <= s|c_i| + t|D| with
    s = 3.0001 u and t = 4.0001 u.  Delta is diagonal, so it commutes with W.
    By Minkowski, with c_i^2 <= (X^2)_ii, (X^2)_ii^2 <= (X^4)_ii and
    tr rho <= w = 1 + 2^-48:

        sqrt V' <= (1 + s) sqrt V + t |D| sqrt w.

    X'^2 = X^2 + X Delta + Delta X + Delta^2, and sum_ij c_i^2 X_ij^2 p_j <= 2Q
    (with c44^2 <= 2 (c11 + c44)^2 + 2 c11^2 in the block's cross terms), so

        sqrt Q' <= (1 + (1 + sqrt 2) s + s^2) sqrt Q + 2t (1 + s) |D| sqrt V + t^2 D^2 sqrt w.

    With D^2 <= 4 V (computed, so 4 (1 + 8u) V) and V^2 <= w Q (Jensen), this
    gives sqrt V' <= (1 + 11.01 u) sqrt V and sqrt Q' <= (1 + 23.25 u) sqrt Q.
    The float forms of V and Q are sums of nonnegative terms within 6 and 10
    roundings (a power within an ulp counting as two), so the computed
    v_hi - v <= 34.01 u v and q4_hi - q4 <= 66.5 u q4, below 1e-14 = 90.07 u
    (the difference is exact by Sterbenz's lemma).  The floor 2^-970 keeps
    1e-14 V and 1e-14 Q normal and each product's underflow, at most 2^-1075
    times a factor below 2^30, under 2^-75 relative.
    """
    half, eps = q / 2.0, 1.0 - q
    # rho: diagonal (a, b, c, d) with the corner coupling e between a and d
    a, b = (1.0 - half) * (1.0 - alpha), half * (1.0 - alpha)
    c, d = half * alpha, (1.0 - half) * alpha
    e = eps * math.sqrt(alpha * (1.0 - alpha))
    shift = alpha * eps
    m0, m1 = (1.0 - half) - shift, half + shift  # retained-qubit marginal
    det = alpha * (1.0 - alpha) * q * (1.0 - 0.75 * q)  # ad - e^2
    # Eigenvalues lam1 >= lam4 of the block [[a, e], [e, d]] (a >= d, as alpha <= 1/2), the
    # small one as det / lam1 and gap = lam1 - a = d - lam4 rationalized, so neither cancels.
    r = math.hypot(a - d, 2.0 * e)
    lam1 = 0.5 * (a + d + r)
    lam4 = det / lam1
    gap = 2.0 * e * e / (r + (a - d))
    sigma0, sigma1, sigma2, sigma3 = (1.0 - alpha) * m0, (1.0 - alpha) * m1, alpha * m0, alpha * m1
    if not (_TINY <= lam4 < _INF and _TINY <= gap < _INF and _TINY <= c < _INF
            and _TINY <= sigma3 < _INF):
        _require_normal("spectral term", lam4, gap, c, sigma3)
    # rho_ii / sigma_i - 1 for the diagonal (a, b, c, d), each in closed form.
    rel0, rel1 = shift / m0, -shift / m1
    rel2, rel3 = -eps * (1.0 - alpha) / m0, eps * (1.0 - alpha) / m1
    # D = KL(diag rho || sigma) + S(diag rho) - S(rho), both parts sums of
    # nonnegative terms: sigma_i g(rel_i) and a g(gap/a) + d g(-gap/d)
    # + gap log(a/d), where g(u) = (1+u) log(1+u) - u, or (num/den) log(num/den) - u
    # where 1 + u = num / den < 1e-3 may round to 0.
    log_ad = math.log1p((1.0 - 2.0 * alpha) / alpha)  # log(a/d) = log((1-alpha)/alpha)
    u = -gap / d
    mean = (sigma0 * _g(rel0)
            + sigma1 * (_g(rel1) if rel1 > -0.999 else half / m1 * math.log(half / m1) - rel1)
            + sigma2 * (_g(rel2) if rel2 > -0.999 else half / m0 * math.log(half / m0) - rel2)
            + sigma3 * _g(rel3) + a * _g(gap / a)
            + d * (_g(u) if u > -0.999 else lam4 / d * math.log(lam4 / d) - u) + gap * log_ad)

    # L = log rho - log sigma in rho's eigenbasis (cos, sin), (-sin, cos)
    # of the block, tan = gap / e, in nats, from logs of ratios near 1: log(1 + u)
    # for 1 + u = num / den is log1p(u) near 1 and log(num / den) near 0.
    h = math.hypot(e, gap)
    cos, sin = e / h, gap / h
    cos2, sin2 = cos * cos, sin * sin
    l0, l3 = math.log1p(rel0), math.log1p(rel3)  # log(rho_ii / sigma_i)
    l_b = math.log1p(rel1) if rel1 > -0.5 else math.log(half / m1)
    l_c = math.log1p(rel2) if rel2 > -0.5 else math.log(half / m0)
    log_s03 = log_ad + math.log1p(eps * (1.0 - 2.0 * alpha) / m1)  # log(sigma_0/sigma_3)
    l11 = math.log1p(gap / a) + cos2 * l0 + sin2 * (log_ad + l3)
    l44 = (math.log1p(u) if u > -0.5 else math.log(lam4 / d)) + l3 - sin2 * log_s03
    l14 = cos * sin * log_s03

    c11, c44, c_b, c_c = l11 - mean, l44 - mean, l_b - mean, l_c - mean
    v, q4 = _central_moments(c11, c44, c_b, c_c, l14, lam1, lam4, b, c)
    # Each L_ii - D is off by up to an ulp of |L_ii| + |D|; where that can move V or Q by
    # 1e-14 relative (alpha near 1/2 at q below about 1e-20, V ~ q log^2 q), both refuse.
    # D^2 <= 4 V clears that refusal (see the docstring); elsewhere V and Q are re-evaluated.
    if not (mean * mean <= _CENTRING_CLEAR * v and v >= _CLEAR_FLOOR and q4 >= _CLEAR_FLOOR):
        abs_mean = abs(mean)
        v_hi, q4_hi = _central_moments(
            c11 + math.copysign(_EPS * (abs(l11) + abs_mean), c11),
            c44 + math.copysign(_EPS * (abs(l44) + abs_mean), c44),
            c_b + math.copysign(_EPS * (abs(l_b) + abs_mean), c_b),
            c_c + math.copysign(_EPS * (abs(l_c) + abs_mean), c_c), l14, lam1, lam4, b, c)
        if not (v_hi - v <= 1e-14 * v and q4_hi - q4 <= 1e-14 * q4):
            raise ArithmeticError(
                f"V={v / _LN2_2!r}, Q={q4 / _LN2_4!r} are within rounding of L - D")
    d, v, q4 = mean / LN2, v / _LN2_2, q4 / _LN2_4
    if not (_TINY <= d < _INF and _TINY <= v < _INF and _TINY <= q4 < _INF):
        _require_normal("moment", d, v, q4)
    return DvqTriple(d, v, q4)


def _central_moments(c11, c44, c_b, c_c, l14, lam1, lam4, b, c) -> tuple[float, float]:
    """(V, Q) in nats from L - D in rho's eigenbasis: diagonal c11, c44, c_b, c_c, coupling l14."""
    sq11 = c11 * c11 + l14 * l14
    sq44 = c44 * c44 + l14 * l14
    sq14 = l14 * (c11 + c44)
    v = lam1 * sq11 + lam4 * sq44 + b * c_b**2 + c * c_c**2
    q4 = (lam1 * (sq11 * sq11 + sq14 * sq14) + lam4 * (sq44 * sq44 + sq14 * sq14)
          + b * c_b**4 + c * c_c**4)
    return v, q4


def moment_curve(alphas, q: float) -> list[tuple[float, ...]]:
    """(alpha, q, D, D_lead, V, V_lead, Q, D / D_lead, V / V_lead) per weight alpha, at one q.

    D, V and Q are ``_dvq``'s moments; D_lead and V_lead are their
    leading small-alpha terms, which share the coefficient 2(1-q)^2/(2-q):

        D ~ -coeff * alpha * log2(alpha)
        V ~ +coeff * alpha * log2(alpha)^2

    q must lie in (0, 1) and every alpha in [0, 1); all are checked before
    any row is computed, so the alphas are taken as a list first.  alpha = 0
    gives zeros after its alpha and q.
    """
    alphas = list(alphas)
    if not (0.0 < q < 1.0):
        raise ValueError(f"q={q:g} outside (0, 1)")
    for alpha in alphas:
        if not (0.0 <= alpha < 1.0):
            raise ValueError(f"alpha={alpha:g} outside [0, 1)")
    coeff = 2.0 * (1.0 - q) ** 2 / (2.0 - q)
    rows = []
    for alpha in alphas:
        if alpha == 0.0:
            rows.append((alpha, q) + (0.0,) * 7)
            continue
        d, v, q4 = _dvq(min(alpha, 1.0 - alpha), q)
        log_a = math.log2(alpha)
        d_lead, v_lead = -coeff * alpha * log_a, coeff * alpha * log_a * log_a
        rows.append((alpha, q, d, d_lead, v, v_lead, q4, d / d_lead, v / v_lead))
    return rows


def _logM(n: int, eps: float, z: float, d: float, v: float, q4: float) -> float:
    """Achievable message size (bits) over n uses at error tolerance eps.

    n*D + sqrt(n*V) * z - C_n of the moments (d, v, q4), z = Phi^{-1}(eps),
    where the correction

        C_n = (beta / sqrt(2 pi)) * Q^(3/4) / V + V / sqrt(2 pi) + log2(4 eps n)

    uses the conservative Berry-Esseen constant.  Unchecked: n >= 2,
    0 < eps < 1 and V > 0.
    """
    c_n = _BE_SQRT_2PI * q4**0.75 / v + v / _SQRT_2PI + math.log2(4.0 * eps * n)
    return n * d + math.sqrt(n * v) * z - c_n


def _e1_bloch(q: float) -> tuple[float, float, float, float, float]:
    """(P, z, S, 1 - S, atanh S) of the E1 warden's innocent marginal omega_0.

    omega_alpha has Bloch vector ((1 - 2 alpha) p, z) with p the part
    perpendicular to the z axis: |p|^2 = P = q - q^2/2 and z = 1 - q, so
    omega_0's length is S = sqrt(P + z^2) and 1 - S^2 = P exactly, which
    gives 1 - S = P / (1 + S) and atanh S = log((1 + S)^2 / P) / 2 without
    cancellation.  A subnormal P (q below the smallest normal float)
    raises ArithmeticError.
    """
    perp2 = q * (1.0 - 0.5 * q)
    _require_normal("warden's Bloch weight P = q(1 - q/2)", perp2)
    z = 1.0 - q
    s_len = math.sqrt(perp2 + z * z)
    return perp2, z, s_len, perp2 / (1.0 + s_len), 0.5 * math.log((1.0 + s_len) ** 2 / perp2)


def _g(u: float) -> float:
    """(1 + u) log(1 + u) - u >= 0, by its series where that form would cancel.

    The series is u^2 sum_{k >= 2} (-u)^(k-2) / (k (k-1)) in Horner form; the
    terms past k = 14 are below 1e-16 of the sum at |u| = 0.05.
    """
    if abs(u) > 0.05:
        return (1.0 + u) * math.log1p(u) - u
    return u * u * (1 / 2 - u * (1 / 6 - u * (1 / 12 - u * (1 / 20 - u * (1 / 30 - u * (
        1 / 42 - u * (1 / 56 - u * (1 / 72 - u * (1 / 90 - u * (1 / 110 - u * (
            1 / 132 - u * (1 / 156 - u * (1 / 182)))))))))))))


def _willie_divergence(alpha, perp2, z, s_len, one_minus_s, atanh_s) -> float:
    """Single-use warden divergence D(omega_alpha || omega_0) in bits, E1 warden.

    At 0 < alpha <= 1, from q's ``_e1_bloch`` constants (0 < q <= 1);
    unchecked.  For qubit states with Bloch vectors r (omega_alpha, length
    R) and s (omega_0, length S), D splits into the binary KL divergence
    between the eigenvalue pairs (1 +/- R)/2 and (1 +/- S)/2 plus a
    perpendicular term atanh(S) |r x s|^2 / (S (RS + r.s)), in nats.  Here
    S^2 - R^2 = 4 alpha (1 - alpha) P and |r x s|^2 = 4 alpha^2 z^2 P, and
    the binary term is written as
    ((1+S)/2) g(-delta/(1+S)) + ((1-S)/2) g(delta/(1-S)) with
    delta = S - R and g(u) = (1+u) log(1+u) - u.  Every term is
    nonnegative and formed without cancellation, so D keeps full
    relative precision down to alpha ~ 1e-150, where it underflows:
    a result that is not a positive normal float raises ArithmeticError.
    """
    u = 1.0 - 2.0 * alpha
    r_len = math.sqrt(u * u * perp2 + z * z)
    delta = 4.0 * alpha * (1.0 - alpha) * perp2 / (s_len + r_len)
    binary = (0.5 * (1.0 + s_len) * _g(-delta / (1.0 + s_len))
              + 0.5 * one_minus_s * _g(delta / one_minus_s))
    if u >= 0.0:  # (RS - r.s) = |r x s|^2 / (RS + r.s), r.s = u P + z^2 >= 0
        # |r x s|^2 carries z^2, so it is 0 at q = 1 (where alpha = 1/2 makes the form 0/0)
        excess = 0.0 if z == 0.0 else (
            4.0 * alpha * alpha * z * z * perp2 / (r_len * s_len + u * perp2 + z * z))
    else:  # r.s may be negative: RS - z^2 rationalized, -u P added
        excess = (perp2 * (u * u * perp2 + (1.0 + u * u) * z * z) / (r_len * s_len + z * z)
                  - u * perp2)
    d = (binary + atanh_s * excess / s_len) / LN2
    if not _TINY <= d < _INF:
        _require_normal("warden divergence", d)
    return d


def _eta(warden) -> float:
    """Curvature of the warden's divergence at the innocent output, from q's ``_e1_bloch``.

    eta(omega_1 || omega_0) for the single-environment-qubit warden; this
    is the constant that converts squared input weight into divergence,
    D(omega_alpha || omega_0) = alpha^2 eta / 2 + O(alpha^3).  On Bloch
    vectors the divided-difference form of eta is

        eta = (|along|^2 / (1 - S^2) + |perp|^2 atanh(S) / S) / ln 2

    for the change Delta = r_1 - r_0 = (-2p, 0) split along and across
    omega_0's vector; with 1 - S^2 = P this is
    4P / (S^2 ln 2) * (1 + z^2 atanh(S) / S).  q is unchecked.
    """
    perp2, z, s_len, _, atanh_s = warden
    eta = 4.0 * perp2 / (s_len * s_len * LN2) * (1.0 + z * z * atanh_s / s_len)
    _require_normal("eta", eta)
    return eta


def capacity_curve(q_grid) -> list[tuple[float, float, float]]:
    """(q, eta, capacity lower bound) per q, the bound (4 sqrt(2)/3) (1-q)^2 / ((2-q) sqrt(eta)).

    Every q must lie in (0, 1); the grid is taken as a list and checked whole
    before any q is computed.
    """
    q_grid = list(q_grid)
    for q in q_grid:
        if not (0.0 < q < 1.0):
            raise ValueError(f"q={q:g} outside (0, 1)")
    etas = [_eta(_e1_bloch(q)) for q in q_grid]
    return [(q, eta, _CAPACITY_COEFF * (1.0 - q) ** 2 / ((2.0 - q) * math.sqrt(eta)))
            for q, eta in zip(q_grid, etas)]


def rate_reports(blocklengths, nu: float, q: float, eps: float = 0.05) -> list[RateReport]:
    """Full covert-rate rows at one (nu, q, eps), one per blocklength.

    logM_asymptotic is the leading-order message size under the schedule,
    2 (2/3 - nu) (1-q)^2/(2-q) * n**(nu - 1/6) * sqrt(n) * log2(n) bits: the
    sqrt(n) log n growth that survives the covertness constraint.  The
    covert rate is L = logM / (log2(n) sqrt(n * div_total)), and its
    limit as n grows is covert_rate_limit.

    q, nu and eps are checked once, then every n, all before any row: each
    n must be an integer >= 2, and a row's n is that int.  What does not
    depend on n is computed once per table: the warden's ``_e1_bloch``
    constants and eta from them (behind covert_rate_limit), the coefficient
    of logM_asymptotic, its exponent and Phi^{-1}(eps).  A row takes alpha_n
    from ``schedule_weights`` and its message size and divergence from the
    kernels ``_dvq``, ``_logM`` and ``_willie_divergence``.
    """
    if not (0.0 < q < 1.0):
        raise ValueError(f"q={q:g} outside (0, 1)")
    warden = _e1_bloch(q)
    eta = _eta(warden)
    check_nu(nu)
    if not (0.0 < eps < 1.0):
        raise ValueError(f"error tolerance eps={eps!r} outside (0, 1)")
    z = _inv_normal_cdf(eps)
    coeff = 2.0 * (2.0 / 3.0 - nu) * (1.0 - q) ** 2 / (2.0 - q)
    limit = coeff / math.sqrt(eta / 2.0)
    gamma_exp = nu - 1.0 / 6.0  # of n**(nu - 1/6)
    blocklengths = list(blocklengths)
    alphas = []  # every n, in grid order, before any row
    for n, alpha in zip(blocklengths, schedule_weights(blocklengths, nu)):
        if n == 1:  # the message size needs n >= 2
            raise ValueError(f"blocklength n={n!r} must be an integer >= 2")
        alphas.append(alpha)
    rows = []
    for n, alpha in zip(blocklengths, alphas):
        logM = _logM(n, eps, z, *_dvq(min(alpha, 1.0 - alpha), q))
        div = n * _willie_divergence(alpha, *warden)
        log_n = math.log2(n)
        rows.append(RateReport(  # the fields in order
            int(n), nu, q, alpha, logM, coeff * float(n) ** gamma_exp * math.sqrt(n) * log_n,
            div, logM / (log_n * math.sqrt(n * div)), limit))
    return rows
