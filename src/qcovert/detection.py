"""Exact simulation of the warden's optimal test over n channel uses.

The warden performs a binary hypothesis test between the n-fold innocent
output and the n-fold response to input weight alpha, at equal priors.
The optimal error probability is (1 - T)/2 with T the trace distance of
the two n-copy states, and it can never drop below the Pinsker floor
(1 - sqrt(ln2 * D / 2))/2 set by the divergence budget D.
``warden_errors(ns, alphas, q, scenario)`` checks q and the scenario once,
then every row's n and alpha, and holds every row's E to that floor.  A
schedule's sweep is one table: the blocklengths with their weights from
``covert.schedule_weights``.

T is computed exactly without any 2^n-dimensional matrix.  By Schur-Weyl
duality the n-fold power of a qubit operator A splits over the spin
irreps j = n/2, n/2 - 1, ...: the block of spin j is
det(A)^r Sym^k(A) with k = 2j = n - 2r, of dimension k + 1, repeated
C(n, r) - C(n, r-1) times.  Both hypotheses share this block structure,
so the trace norm of their difference is the multiplicity-weighted sum
of the blockwise trace norms.

Each warden route reads its own closed form in q.  E2_ONLY's marginal is
diag(1 - q/2, q/2) under both hypotheses, and at q = 0 so is every
warden's: such a warden is blind by rule, T = 0 exactly and no state is
formed.  The E1 marginal at input weight alpha is the real 2x2 block
[[a, (1 - 2 alpha) c], [(1 - 2 alpha) c, b]] of ``_warden_block``: it has
diagonal (1 - q/2, q/2) and coherence (1 - 2 alpha) w, and the
alpha-independent diagonal unitary diag(1, conj(w)/|w|) on every copy
makes it real, c = |w| = sqrt(q (2 - q)/8), and leaves T unchanged.
ALL_ENV's 4x4 marginals are block diagonal in the E2 register (E2
records whether B was flipped by X or Y), and E2 = 1 has weight q/2
under both hypotheses.  Given E2 = 1 the two states are diagonal in one
alpha-independent basis, the innocent one pure, so k such copies differ
only by the factor (1 - alpha)^k on the innocent string.  Given E2 = 0
the block Z_alpha, of the same form, has a = 1 - 3q/4, b = q/4 and
c = sqrt(a) sqrt(b) (``_allenv_errors``), so the innocent Z_0 = v v^T,
v = (sqrt(a), sqrt(b)), has rank one, and (1 - alpha)^k Z_alpha^(x m) -
Z_0^(x m), m = n - k, has a single negative eigenvalue -s_k, in its top
spin block; the trace fixes the rest of the trace norm:

  T = sum_k C(n, k) (q/2)^k s_k.

s_k is the root of a rank-one secular equation (Golub, SIAM Rev. 15,
1973; Bunch, Nielsen and Sorensen, Numer. Math. 31, 1978).  Z_alpha has
closed-form eigenpairs mu_+ >= mu_-, e_+, e_-, with mu_- = det/mu_+ and
det = 4 c^2 alpha (1 - alpha).  In the Dicke basis of e_+, e_- the top
block is D - u u^T with D = diag(d_j), d_j = (1 - alpha)^k
mu_+^(m-j) mu_-^j, and u_j^2 = w_j^2 = C(m, j) p_+^(m-j) p_-^j,
p_(+/-) = <v, e_(+/-)>^2, so s_k in (0, |u|^2] solves
sum_j w_j^2/(d_j + s) = 1.  The probability of error needs no
subtraction either: |u|^2 - s = sum_j w_j^2 d_j/(d_j + s), and
sum_k C(n, k) (q/2)^k |u|^2 = 1, so

  E = 1/2 sum_k C(n, k) (q/2)^k sum_j w_j^2 d_j/(d_j + s_k),

a sum of positive terms that keeps its relative accuracy when the states
are all but orthogonal (E ~ 1e-30 and below).  As alpha -> 0, sum_j
w_j^2/d_j -> 1 and the equation cancels; it is deflated around j = 0:
s = (w_0^2 - d_0) + (d_0 + s) sum_(j>=1) w_j^2/(d_j + s), with
w_0^2 - d_0 = (p_+^m - mu_+^m) + mu_+^m (1 - (1 - alpha)^k) built from
p_+ - mu_+ = <e_+|Z_0 - Z_alpha|e_+> = 4 alpha c e_+x e_+y by two power
recurrences that add terms of one sign.  For alpha >= 1/2, p_+ < mu_+
and the two parts have opposite signs, so there (but for k = 0) w_0^2 -
d_0 is taken directly.  Each equation is solved by Newton's method from
a proven lower bound inside a proven bracket (``_secular_root``), in
plain ``math``; no matrix is built and no eigensolver is called.

Three things keep the E1 route cheap and accurate at every weight:

* Degree recurrence.  The monomial matrix M_k of Sym^k for k = 0..n
  comes from one two-tap step per degree on M_(k-1), and the fixed Dicke
  scaling (``linalg.dicke_scaling``) takes it to Sym^k; each degree
  reuses the one before it.
* Difference form.  The step is linear in A, so with
  omega_alpha = omega_0 + alpha Delta the block difference is carried
  through the recurrence itself:
  D_(k+1) = L[omega_alpha](D_k) + L[alpha Delta](M_k(omega_0)).  Powers
  use b_a^(s+1) - b_0^(s+1) = b_a (b_a^s - b_0^s) + (b_a - b_0) b_0^s
  for the determinant factor (b_a - b_0 = 4 c^2 alpha (1 - alpha)).  No
  step subtracts two O(1) numbers, so T keeps its relative accuracy as
  alpha -> 0 (T is linear in alpha there).
* One chunk of rows, one stacked step per degree.  The rows are sorted
  by n, descending, and cut into chunks of bounded memory (at n <= 100,
  up to 51 rows make one chunk).  Within a chunk one stack holds
  omega_0's monomial matrix in slot 0 and every row's difference behind
  it, so a single two-tap step per degree advances them all (each slot
  with its own off-diagonal, the L[alpha Delta] taps read from slot 0).
  Only slot 0 and the slots that carry a block at k are Dicke-scaled,
  as the degree's blocks are formed.  The degrees are streamed:
  each is built from the one before and then dropped, and a row leaves
  the stack once k passes its n.  Each chunk's tables are built once, in
  plain Python floats: per degree, the stack slots of the rows whose
  spin blocks sit there (n - k even), their spin multiplicities and
  their power coefficients det_a^r and det_a^r - det_0^r.  A degree
  takes its slices of three flat arrays, forms its blocks and makes one
  eigvalsh for all of them.  Each row's multiplicity-weighted block
  norms are added k descending in Python floats, so T does not depend
  on the chunking or on the order of the rows.

numpy loads with the E1 block route only: ``_qubit_distances`` and
``_sym_levels`` import it once per chunk of rows (and
``linalg.dicke_scaling`` when it builds an uncached degree), so ALL_ENV,
E2_ONLY and the closed-form commands run without it.
"""

import itertools
import math
from typing import NamedTuple

from .channels import Scenario, _check_q
from .covert import _TINY, LN2, _e1_bloch, _willie_divergence
from .linalg import dicke_scaling

# E1_ONLY (and the blind E2_ONLY): the largest block at n uses is
# (n+1) x (n+1) and a row costs O(n^4) flops, about 0.015 s at the cap on a
# 2-core x86-64 host; n = 100 is far enough for the square-root law to show.
MAX_USES = 100
# ALL_ENV: the support escape makes the warden's error collapse within a
# few uses.  A row costs O(n^2) plain-float operations per Newton step, about
# 0.5 ms at the cap, and T and E are audited to it (tests/test_accuracy.py).
MAX_USES_ALLENV = 30
# Newton steps per secular equation (five at most over n <= 30, q and alpha from
# 1e-300 to 1): a row that uses them all up is refused with an ArithmeticError.
NEWTON_STEPS = 60
# Rows are processed in chunks of CHUNK_ENTRIES // (n + 1)**2 rows, n the
# chunk's largest (51 rows at n = 100), however long the table is.  The
# constant bounds the float64 entries of one degree's stack of block
# differences (4 MB; the stack holds rows + 1 blocks).  ``_sym_levels`` drops
# the stack it came from and its tap products before it yields, so while a
# degree's blocks are formed only the new stack and three block-sized
# temporaries of the assembly are alive: a chunk's working set is about four
# times 4 MB, and tracemalloc peaks at 17.1 MB in
# warden_errors([100] * 51, alphas, 0.5, 3), every alpha > 0.
CHUNK_ENTRIES = 2**19


class DetectionResult(NamedTuple):
    """Outcome of the warden's optimal n-use test at one input weight."""

    n: int
    alpha: float
    trace_dist: float
    error_prob: float
    pinsker_floor: float
    div_total: float


def _pinsker_floor(div_total_bits: float) -> float:
    """Lower bound (1 - sqrt(ln2 * D / 2))/2 on the warden's error, for a finite D >= 0."""
    return 0.5 * (1.0 - math.sqrt(LN2 * div_total_bits / 2.0))


def _warden_block(q: float) -> tuple[float, float, float]:
    """(a, b, c) of the E1 warden's real block [[a, (1 - 2 alpha) c], [(1 - 2 alpha) c, b]].

    The E1 marginal after the diagonal unitary.  c is 0.5 sqrt(q) times a
    square root near 1, so no product under a root underflows: c > 0 for
    every q > 0, subnormal q too.
    """
    return 1.0 - q / 2.0, q / 2.0, 0.5 * math.sqrt(q) * math.sqrt(1.0 - 0.5 * q)


def _fidelity_floor(n: int, alpha: float, perp2: float) -> float:
    """Fuchs-van de Graaf's floor (1 - sqrt(1 - F^(2n)))/2 on the E1 warden's n-use error.

    F is the root fidelity of omega_alpha and omega_0, F^2 = tr(omega_alpha
    omega_0) + 2 sqrt(det omega_alpha det omega_0), and F^n that of the n
    copies.  On the Bloch vectors of ``covert._e1_bloch`` (P = ``perp2``,
    u = 1 - 2 alpha) 1 - F^2 = (|r - s|^2 - |r x s|^2) / (2 (1 - r.s +
    sqrt((1 - R^2)(1 - S^2)))) = 4 alpha^2 P / (1 + 2 alpha + sqrt(2 - u^2)),
    with 2 - u^2 = 1 + 4 alpha (1 - alpha).  So F^(2n) = exp(n log1p(-(1 -
    F^2))), 1 - F^(2n) is its expm1, and the floor is F^(2n) / (2 (1 +
    sqrt(1 - F^(2n)))): no step cancels.
    """
    root = math.sqrt(1.0 + 4.0 * alpha * (1.0 - alpha))
    log_power = n * math.log1p(-4.0 * alpha * alpha * perp2 / (1.0 + 2.0 * alpha + root))
    return math.exp(log_power) / (2.0 * (1.0 + math.sqrt(-math.expm1(log_power))))


def _sym_levels(block, alphas, ns):
    """Yield [M_k(omega_0), M_k(omega_a) - M_k(omega_0) per live row] for k = 0..ns[0].

    M_k is the monomial matrix that ``dicke_scaling(k)`` takes to Sym^k.
    omega_0 is the block (a, b, c) at alpha = 0 and omega_a = omega_0 +
    alpha Delta per row, Delta = [[0, -2c], [-2c, 0]].  ``ns`` is sorted
    descending, so the rows with n >= k are a prefix: the stack at degree k
    holds slot 0 and those rows only.  Each degree is built from the one
    before it, which is then dropped.
    """
    import numpy as np

    a, b, c = block
    shift = np.concatenate(([0.0], np.multiply(alphas, -2.0 * c)))[:, np.newaxis, np.newaxis]
    edge = c + shift  # the off-diagonal of omega_0 on slot 0, of omega_a on row i's
    stack = np.zeros((len(alphas) + 1, 1, 1))
    stack[0] = 1.0
    yield stack
    live = len(ns)
    for k in range(1, int(ns[0]) + 1):
        while ns[live - 1] < k:
            live -= 1
        prev = stack[:live + 1]
        e, s = edge[:len(prev)], shift[1:len(prev)]
        # Column m of M_(k-1)(A) holds the coefficients of (a x + e y)^(k-1-m)
        # (e x + b y)^m on x^(k-1-l) y^l: one more factor a x + e y gives the
        # columns m < k, one more e x + b y on column k - 1 the last.  Each
        # difference then adds L[alpha Delta](M_(k-1)(omega_0)), taps s on slot
        # 0 whose diagonal is exactly zero, so it rounds as three separate steps.
        stack = np.zeros((len(prev), k + 1, k + 1))
        np.multiply(prev, a, out=stack[:, :-1, :-1])
        taps = np.multiply(prev, e)
        stack[:, 1:, :-1] += taps
        stack[:, :-1, -1] = e[..., 0] * prev[:, :, -1]
        stack[:, 1:, -1] += b * prev[:, :, -1]
        stack[1:, 1:, :-1] += np.multiply(prev[0], s, out=taps[1:])
        stack[1:, :-1, -1] += s[..., 0] * prev[0, :, -1]
        del prev, taps  # only the new stack stays alive while the caller forms its blocks
        yield stack


def _qubit_distances(block, ns: list, alphas: list) -> list:
    """T for a qubit warden's block, rows sorted by n descending: one eigvalsh per degree k.

    ``np.linalg.eigvalsh`` is looked up per degree, so a replaced solver is
    the one called, and a solver failure is an ArithmeticError.
    """
    import numpy as np

    a, b, c = block
    base_0 = a * b - c * c  # det_0
    # det_0^s by numpy's power: Python's ** rounds some of them differently
    pow_0 = (base_0 ** np.arange(ns[0] // 2 + 1)).tolist()
    # Row i's spin block r sits at degree n - 2r, weighted by its repeats
    # C(n, r) - C(n, r-1) = C(n+1, r) (n - 2r + 1) / (n + 1), det_a^r and
    # det_a^r - det_0^r; the difference is carried as det_a (det_a^r - det_0^r)
    # + (det_a - det_0) det_0^r, det_a - det_0 = 4 c^2 alpha (1 - alpha), so no
    # step subtracts two O(1) powers.
    levels = [[] for _ in range(ns[0] + 1)]
    repeats = {}
    for slot, (n, alpha) in enumerate(zip(ns, alphas), 1):
        if n not in repeats:
            repeats[n] = [float(math.comb(n + 1, r) * (n - 2 * r + 1) // (n + 1))
                          for r in range(n // 2 + 1)]
        base_d = 4.0 * c * c * alpha * (1.0 - alpha)
        base_a = base_0 + base_d
        pow_a, pow_d = 1.0, 0.0
        for r, mult in enumerate(repeats[n]):
            levels[n - 2 * r].append((slot, mult, pow_a, pow_d))
            pow_a, pow_d = base_a * pow_a, base_a * pow_d + base_d * pow_0[r]
    # degree k's rows are entries ends[k]..ends[k + 1] of the flat tables
    ends = [0, *itertools.accumulate(map(len, levels))]
    slots, mults, coef_a, coef_d = zip(*[entry for level in levels for entry in level])
    rows = np.array(slots)
    coef_a = np.array(coef_a)[:, np.newaxis, np.newaxis]
    coef_d = np.array(coef_d)[:, np.newaxis, np.newaxis]
    norms = []
    for k, stack in enumerate(_sym_levels(block, alphas, ns)):
        lo, hi = ends[k], ends[k + 1]
        if lo < hi:
            scale = dicke_scaling(k)
            blocks = coef_a[lo:hi] * (stack[rows[lo:hi]] * scale) + coef_d[lo:hi] * (stack[0] * scale)
            try:
                values = np.linalg.eigvalsh(blocks)
            except np.linalg.LinAlgError as exc:
                raise ArithmeticError(f"eigensolver failed: {exc}") from exc
            norms.append((lo, hi, np.abs(values).sum(axis=-1).tolist()))
    # each row's multiplicity-weighted block norms, added k descending
    total = [0.0] * (len(ns) + 1)
    for lo, hi, values in reversed(norms):
        for slot, mult, value in zip(slots[lo:hi], mults[lo:hi], values):
            total[slot] += mult * value
    return [0.5 * t for t in total[1:]]


def _positive_root(lin: float, const: float) -> float:
    """The root x >= 0 of x^2 + lin x - const = 0, const >= 0, without cancellation."""
    hyp = math.hypot(lin, 2.0 * math.sqrt(const))
    return 0.5 * (hyp - lin) if lin <= 0.0 else 2.0 * const / (lin + hyp)


def _secular_root(base: float, d_0: float, amps: list, poles: list) -> tuple[float, float]:
    """(s, sum_j w_j^2 d_j/(d_j + s)) at the root s > 0 of g(s) below.

    g(s) = base + (d_0 + s) sum_j w_j^2/(d_j + s) - s, where ``amps`` and
    ``poles`` hold w_j and d_j for j >= 1, d_0 >= d_1 >= d_j >= 0.  g is
    convex and decreasing, g' <= -1.  Since d_j <= d_1, moving every pole
    to d_1 bounds g from below, and moving it to 0 bounds it from above;
    the two models are quadratics in s = |w| x, solved without
    cancellation, and their roots bracket the root.  Newton's method
    starts at the lower one, where it climbs monotonically; a step past
    the upper bound stops at it, and one below the lower bound is replaced
    by bisection.  It stops once |g| is at its rounding level, and raises
    ArithmeticError if NEWTON_STEPS steps do not get it there.  The
    weights enter as amplitudes, w_j (w_j / (d_j + s)), so a w_j^2 below
    the float range does not lose its term at subnormal q.
    """
    norm = math.hypot(*amps)
    if norm == 0.0:
        return base, 0.0
    lo, hi = 0.0, norm * _positive_root(-(base / norm + norm), d_0)
    if not hi > 0.0:
        return 0.0, 0.0  # no positive root in floats: the row's T is refused
    const = (base / norm) * (poles[0] / norm) + d_0
    if const > 0.0:
        lo = min(norm * _positive_root((poles[0] - base) / norm - norm, const), hi)
    s, rest = (lo if lo > 0.0 else 0.5 * hi), 0.0
    for _ in range(NEWTON_STEPS):
        total, rest, slope = 0.0, 0.0, 1.0
        for w, d in zip(amps, poles):
            ratio = w / (d + s)
            total += w * ratio
            rest += w * ratio * d
            slope += ratio * ratio * (d_0 - d)
        scaled = (d_0 + s) * total
        value = base + scaled - s
        if abs(value) <= 2.0**-50 * (abs(base) + scaled + s):
            return s + value / slope, rest
        if value > 0.0:
            lo = s
        else:
            hi = s
        s += value / slope
        if s > hi:
            s = hi  # the upper model can be exact (every d_j = 0)
        elif not s > lo:
            s = 0.5 * (lo + hi)
    raise ArithmeticError(f"secular equation not solved in {NEWTON_STEPS} Newton steps")


def _allenv_errors(n: int, alpha: float, q: float) -> tuple[float, float]:
    """(T, E) for ALL_ENV at n uses and weight 0 < alpha <= 1 by the secular equation.

    The E2 = 0 block Z_alpha has a = 1 - 3q/4, b = q/4 and c = sqrt(a) sqrt(b),
    formed here from q alone; see the module docstring for the method.
    """
    half, gap = 0.5 * q, 1.0 - q  # the weight of E2 = 1, and a - b
    root_a, root_b = math.sqrt(1.0 - 0.75 * q), 0.5 * math.sqrt(q)  # q/4 underflows first
    c = root_a * root_b
    off = (1.0 - 2.0 * alpha) * c
    radius = math.hypot(0.5 * gap, off)  # (mu_+ - mu_-)/2
    mu_p = 0.5 * (1.0 - half) + radius
    mu_m = 4.0 * c * c * alpha * (1.0 - alpha) / mu_p
    # e_+ = (ex, ey sign(off)); at q = 1, alpha = 1/2, Z_alpha = I/4 and any basis
    # will do: this is the limit alpha -> 1/2 from above
    edge = 0.5 * gap + radius
    norm = math.hypot(edge, off)
    ex, ey = (edge / norm, abs(off) / norm) if norm else (0.5**0.5, 0.5**0.5)
    # |<v, e_+> <v, e_->| = <e_-|Z_0 - Z_alpha|e_+>: the amplitude whose two
    # terms have one sign is summed, the other divided out
    cross = alpha * c * gap / radius if gap else 0.0
    excess = 4.0 * alpha * c * ex * ey  # |p_+ - mu_+|
    deflate = alpha < 0.5
    if deflate:
        amp_p = root_a * ex + root_b * ey
        amp_m = cross / amp_p
    else:  # p_+ < mu_+
        amp_m = root_a * ey + root_b * ex
        amp_p, excess = cross / amp_m, -excess
    p_p = amp_p * amp_p
    # powers, and lead[m] = p_+^m - mu_+^m as a sum of terms of one sign
    pow_p, pow_m, pow_mu_p, pow_mu_m, lead = [1.0], [1.0], [1.0], [1.0], [0.0]
    for _ in range(n):
        lead.append(p_p * lead[-1] + excess * pow_mu_p[-1])
        pow_p.append(pow_p[-1] * amp_p)
        pow_m.append(pow_m[-1] * amp_m)
        pow_mu_p.append(pow_mu_p[-1] * mu_p)
        pow_mu_m.append(pow_mu_m[-1] * mu_m)
    dist = error = 0.0
    keep, lose = 1.0, 0.0  # (1 - alpha)^k and 1 - (1 - alpha)^k
    for k in range(n + 1):
        m = n - k
        d_0, w0_sq = keep * pow_mu_p[m], pow_p[m] * pow_p[m]
        # w_0^2 - d_0, deflated where its two parts have one sign
        base = lead[m] + pow_mu_p[m] * lose if deflate or k == 0 else w0_sq - d_0
        s, rest = _secular_root(
            base, d_0,
            [math.sqrt(math.comb(m, j)) * pow_p[m - j] * pow_m[j] for j in range(1, m + 1)],
            [keep * pow_mu_p[m - j] * pow_mu_m[j] for j in range(1, m + 1)])
        if d_0:
            rest += w0_sq * (d_0 / (d_0 + s))  # with the j >= 1 part, |u|^2 - s
        weight = math.comb(n, k) * half**k
        dist += weight * s
        error += weight * rest
        keep, lose = keep * (1.0 - alpha), lose * (1.0 - alpha) + alpha
    return dist, 0.5 * error


def warden_errors(ns, alphas, q: float, scenario: Scenario) -> list[DetectionResult]:
    """Exact warden error probabilities at noise q for the rows (ns[i], alphas[i]).

    Takes the trace distance T of the two n-copy hypothesis states block
    by block, all rows together (see the module docstring), and reports
    E = (1 - T)/2 (for ALL_ENV, the same E as its own sum of positive
    terms, which does not cancel as T -> 1) together with the divergence budget
    n * D(omega_alpha || omega_0) and its Pinsker floor.  The budget is 0
    when the hypotheses coincide, +inf for ALL_ENV at alpha > 0
    (omega_alpha leaves the support of omega_0), and n times the closed
    form ``covert._willie_divergence`` for E1_ONLY, its per-q constants
    ``_e1_bloch`` taken once per table, before any block is built.  A row
    whose hypotheses differ but whose T is not a positive normal float
    raises ArithmeticError, as does a row whose E falls more than 1e-12
    below its Pinsker floor (a consistency check that no exact T can
    fail), an E1 row whose E falls below the Fuchs-van de Graaf floor (``_fidelity_floor``) by more than that
    floor's rounding: there (1 - T)/2 has lost its relative accuracy, and
    an ALL_ENV row whose E is below the normal range, but for the
    orthogonal states at q = alpha = 1, where E is exactly 0.

    q is checked once per table, before any row, and the scenario is taken
    as ``Scenario`` takes it: an unknown one raises the Enum's ValueError.
    """
    _check_q(q)
    scenario = Scenario(scenario)
    ns, alphas = list(ns), list(alphas)
    if len(ns) != len(alphas):
        raise ValueError(f"{len(ns)} blocklengths for {len(alphas)} weights")
    cap = MAX_USES_ALLENV if scenario is Scenario.ALL_ENV else MAX_USES
    for n, alpha in zip(ns, alphas):
        if not 1 <= n < math.inf or n != int(n):
            raise ValueError(f"number of uses n={n!r} must be a positive integer")
        if n > cap:
            raise ValueError(f"n={n} exceeds the cap {cap} for scenario {scenario.name}")
        if not (0.0 <= alpha <= 1.0):
            raise ValueError(f"alpha={alpha!r} outside [0, 1]")
    ns = list(map(int, ns))  # a row's n is an int, also for an integral float such as 2.0

    allenv = scenario is Scenario.ALL_ENV
    # Channel linearity: the response to diag(1-alpha, alpha) is
    # omega_0 + alpha (omega_1 - omega_0).  At alpha = 0, and at every alpha
    # when omega_1 == omega_0 (E2_ONLY, or q = 0, -0.0 included), it is
    # omega_0 itself: T = 0 exactly, the budget is 0, and no block is built.
    blind = scenario is Scenario.E2_ONLY or q == 0.0
    signal = [i for i, alpha in enumerate(alphas) if alpha != 0.0 and not blind]
    dist = [0.0] * len(ns)
    errors = {}  # ALL_ENV's E, from its own sum; every other row's is (1 - T)/2
    if allenv:
        for i in signal:
            dist[i], errors[i] = _allenv_errors(ns[i], float(alphas[i]), q)
    elif signal:
        # E1's per-q constants first: a subnormal q is refused before any eigensolver runs
        warden, block = _e1_bloch(q), _warden_block(q)
        signal.sort(key=lambda i: -ns[i])
        sig_ns = [ns[i] for i in signal]
        sig_alphas = [float(alphas[i]) for i in signal]
        width = max(1, CHUNK_ENTRIES // (sig_ns[0] + 1) ** 2)
        for lo in range(0, len(signal), width):
            part = slice(lo, lo + width)
            for i, t in zip(signal[part], _qubit_distances(block, sig_ns[part], sig_alphas[part])):
                dist[i] = t
    results = []
    for i, (n, alpha) in enumerate(zip(ns, alphas)):
        # T <= 1 exactly; the sum of the block norms can round a few ulps past it.
        t = min(dist[i], 1.0)
        error = errors[i] if i in errors else 0.5 * (1.0 - t)
        if alpha == 0.0 or blind:
            div_total = 0.0
        elif not _TINY <= t < math.inf:
            raise ArithmeticError(
                f"trace distance {t!r} at n={n}, alpha={alpha!r} is not a positive normal float")
        elif allenv:
            # omega_alpha weights e_0 = (0, i, 0, 1)/sqrt(2), a kernel vector
            # of omega_0, by alpha * q / 2 > 0: the support escapes.
            div_total = math.inf
            # E is 0 only for orthogonal states, at q = alpha = 1; any other E
            # below the normal range has lost its relative accuracy or rounded to 0
            if error < _TINY and not (alpha == 1.0 and q == 1.0):
                raise ArithmeticError(
                    f"error probability {error!r} at n={n}, alpha={alpha!r} is not a "
                    f"positive normal float")
        else:
            div_total = n * _willie_divergence(alpha, *warden)
            # (1 - T)/2 loses its relative accuracy as T -> 1: an E below the
            # fidelity floor by more than that floor's rounding is refused
            fidelity_floor = _fidelity_floor(n, alpha, warden[0])
            if error < fidelity_floor * (1.0 - 1e-12):
                raise ArithmeticError(
                    f"error probability {error!r} at n={n}, alpha={alpha!r} fell below "
                    f"the Fuchs-van de Graaf floor {fidelity_floor!r}")
        floor = _pinsker_floor(div_total) if math.isfinite(div_total) else -math.inf
        if error < floor - 1e-12:
            raise ArithmeticError(
                f"error probability {error} fell below the Pinsker floor {floor} at n={n}")
        results.append(DetectionResult(n, alpha, t, error, floor, div_total))
    return results
