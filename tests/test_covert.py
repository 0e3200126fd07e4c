import math
import random
import statistics

import mpmath as mp
import numpy as np
import pytest

from oracles import (
    ArrowMatrixParams,
    arrow_matrix,
    arrow_params,
    arrow_spectral,
    binary_convolution,
    e1only_marginal,
    eig_hermitian,
    entangled_input,
    joint_output_closed_form,
    mp_dvq,
    mp_normal_quantile,
    mp_willie_divergence,
    partial_trace,
    product_of_marginals,
    projector,
    relative_entropy,
    stinespring_isometry,
)
from qcovert import covert
from qcovert.covert import (
    BERRY_ESSEEN,
    capacity_curve,
    moment_curve,
    rate_reports,
    schedule_weights,
)

SQRT_2PI = math.sqrt(2.0 * math.pi)

# Regression pins, produced once by this library; ``test_accuracy.py`` holds the
# same eta to ``mp_willie_eta`` at 1e-14 over a q grid.
ETA_PINS = {0.3: 3.439146196075672, 0.5: 4.637269831353988, 0.7: 5.373790176566614}
CAPACITY_PIN_Q05 = 0.1459389779600682
# Relative error of D, V, Q against ``mp_dvq``, the bound of ``test_accuracy.py``
TOL_MOMENT = 1e-13


def test_entangled_input_vector():
    psi = entangled_input(0.36)
    np.testing.assert_allclose(psi, [0.8, 0.0, 0.0, 0.6], atol=1e-15)
    assert np.linalg.norm(entangled_input(0.0)) == pytest.approx(1.0, abs=1e-15)


def test_arrow_params_formulas():
    alpha, q = 0.3, 0.4
    p = arrow_params(alpha, q)
    assert p.a == pytest.approx((1.0 - q / 2.0) * (1.0 - alpha), rel=1e-15)
    assert p.b == pytest.approx((q / 2.0) * (1.0 - alpha), rel=1e-15)
    assert p.c == pytest.approx((q / 2.0) * alpha, rel=1e-15)
    assert p.d == pytest.approx((1.0 - q / 2.0) * alpha, rel=1e-15)
    assert p.e == pytest.approx((1.0 - q) * math.sqrt(alpha * 0.7), rel=1e-15)


def test_arrow_matrix_layout():
    p = ArrowMatrixParams(0.4, 0.25, 0.15, 0.2, 0.1)
    m = arrow_matrix(p)
    assert m[0, 3] == m[3, 0] == 0.1
    assert m[1, 2] == 0.0
    np.testing.assert_array_equal(np.diag(m).real, [0.4, 0.25, 0.15, 0.2])
    np.testing.assert_array_equal(m, m.conj().T)


@pytest.mark.parametrize("alpha", [0.05, 0.3, 0.8])
@pytest.mark.parametrize("q", [0.1, 0.5, 0.9])
def test_joint_output_matches_dilation(alpha, q):
    """Closed form vs sending half of the entangled pair through the dilation."""
    psi = entangled_input(alpha)
    v = stinespring_isometry(q)
    psi_out = np.kron(np.eye(2), v) @ psi
    joint = partial_trace(projector(psi_out), [2, 2, 2, 2], [0, 1])
    np.testing.assert_allclose(joint, joint_output_closed_form(alpha, q), atol=1e-14)


def test_joint_output_trace_one():
    m = joint_output_closed_form(0.25, 0.65)
    assert m.trace().real == pytest.approx(1.0, abs=1e-14)


def test_binary_convolution_edge_cases():
    assert binary_convolution(0.3, 0.0) == pytest.approx(0.3)
    assert binary_convolution(0.3, 1.0) == pytest.approx(0.7)
    assert binary_convolution(0.2, 0.4) == pytest.approx(binary_convolution(0.4, 0.2))


def test_product_of_marginals_is_product_of_partial_traces():
    for alpha, q in [(0.2, 0.3), (0.7, 0.6)]:
        joint = joint_output_closed_form(alpha, q)
        left = partial_trace(joint, [2, 2], [0])
        right = partial_trace(joint, [2, 2], [1])
        np.testing.assert_allclose(
            product_of_marginals(alpha, q), np.kron(left, right), atol=1e-15
        )


def test_arrow_spectral_matches_generic_eigensolver():
    rng = np.random.default_rng(17)
    for _ in range(50):
        alpha = rng.uniform(0.01, 0.99)
        q = rng.uniform(0.01, 0.99)
        p = arrow_params(alpha, q)
        closed = arrow_spectral(p)
        generic = eig_hermitian(arrow_matrix(p))
        np.testing.assert_allclose(closed.eigenvalues, generic.eigenvalues, atol=1e-12)
        np.testing.assert_allclose(closed.reconstruct(), arrow_matrix(p), atol=1e-12)


def test_arrow_spectral_determinant_identity():
    # prod(w) = bc(ad - e^2) = (q^3/4)(1 - 3q/4) alpha^2 (1 - alpha)^2,
    # ordering-independent so it holds even when the coupled block's small
    # root crosses below the uncoupled entries
    for alpha, q in [(1e-8, 0.5), (0.3, 0.2), (0.999, 0.9)]:
        w = arrow_spectral(arrow_params(alpha, q)).eigenvalues
        expected = 0.25 * q**3 * (1.0 - 0.75 * q) * (alpha * (1.0 - alpha)) ** 2
        assert np.prod(w) == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_arrow_spectral_tiny_alpha_stays_accurate():
    """The rationalized branch keeps the small coupled eigenvalue accurate."""
    alpha, q = 1e-12, 0.5
    p = arrow_params(alpha, q)
    dec = arrow_spectral(p)
    assert np.all(dec.eigenvalues >= 0.0)
    # b and c pass through the solver bit-exact; the other two eigenvalues
    # are the corner-coupled pair, wherever sorting placed them
    coupled = sorted(x for x in dec.eigenvalues if x not in (p.b, p.c))
    assert len(coupled) == 2
    expected_small = q * (1.0 - 0.75 * q) * alpha * (1.0 - alpha) / coupled[1]
    assert coupled[0] == pytest.approx(expected_small, rel=1e-9, abs=0.0)
    np.testing.assert_allclose(dec.reconstruct(), arrow_matrix(p), atol=1e-15)


def test_arrow_spectral_uncoupled_branch():
    p = ArrowMatrixParams(0.4, 0.3, 0.2, 0.1, 0.0)
    dec = arrow_spectral(p)
    np.testing.assert_array_equal(dec.eigenvalues, [0.4, 0.3, 0.2, 0.1])


@pytest.mark.parametrize("alpha", [0.0, 1e-3, 0.2, 0.5, 0.7, 0.999, 1.0])
@pytest.mark.parametrize("q", [0.0, 0.3, 0.9, 1.0])
def test_dvq_exact_matches_dense_oracle(alpha, q):
    """``moment_curve`` vs ``mp_dvq`` on both sides of alpha = 1/2; the table refuses the boundaries.

    ``mp_dvq`` is the dense oracle: the 4x4 joint output and its
    marginals' product in mpmath, with log rho by eigendecomposition.
    Past 1/2 the table evaluates ``_dvq`` at 1 - alpha, which ``mp_dvq`` does not.
    """
    if not (0.0 < q < 1.0 and alpha < 1.0):  # no command computes the moments there
        with pytest.raises(ValueError, match="outside"):
            moment_curve([alpha], q)
        return
    got = moment_curve([alpha], q)[0][2:7:2]
    if alpha == 0.0:
        assert got == (0.0, 0.0, 0.0)
        return
    for g, ref in zip(got, mp_dvq(alpha, q)):
        assert abs(mp.mpf(g) - ref) <= TOL_MOMENT * abs(ref), (g, ref)


def divergence_kernel(alpha, q):
    """``covert._willie_divergence`` at q's constants, as the tables call it."""
    return covert._willie_divergence(alpha, *covert._e1_bloch(q))


def test_warden_closed_forms_match_dense_oracles():
    rng = np.random.default_rng(23)
    for _ in range(40):
        q, alpha = rng.uniform(0.01, 0.99), rng.uniform(0.01, 1.0)
        dense = relative_entropy(e1only_marginal(alpha, q), e1only_marginal(0.0, q))
        assert divergence_kernel(alpha, q) == pytest.approx(dense, rel=1e-10)


def test_dvq_asymptotic_leading_forms():
    alpha, q = 1e-4, 0.5
    (_, _, _, d_lead, _, v_lead, *_), zero = moment_curve([alpha, 0.0], q)
    coeff = 2.0 * 0.25 / 1.5  # 2(1-q)^2/(2-q) = 1/3 at q = 0.5
    assert d_lead == pytest.approx(-coeff * alpha * math.log2(alpha), rel=1e-14)
    assert d_lead == pytest.approx(4.429e-4, abs=1e-7)
    assert v_lead == pytest.approx(coeff * alpha * math.log2(alpha) ** 2, rel=1e-14)
    assert v_lead > 0.0
    assert zero == (0.0, q) + (0.0,) * 7


def test_dvq_ratio_regression_values():
    """Exact-to-leading ratio minus one, pinned along the alpha grid."""
    pins = {1e-3: 0.277163, 1e-4: 0.207750, 1e-5: 0.166181, 1e-6: 0.138481}
    rows = moment_curve(list(pins), 0.5)
    for pin, (alpha, _, d, d_lead, *_, ratio_d, _) in zip(pins.values(), rows):
        assert d == covert._dvq(alpha, 0.5).d and ratio_d == d / d_lead
        assert ratio_d - 1.0 == pytest.approx(pin, abs=5e-6)


def test_moments_keep_their_bits_next_to_the_branch_switches():
    """D, V, Q to the last bit on rows just inside the branches of ``_dvq``'s log(1 + u) forms.

    At q = 0.002, alpha = 0.1, 1 + u lies in [1e-3, 1e-2) for rel1, rel2 and
    -gap/d, so each g(u) is (1 + u) log1p(u) - u, less than a decade above the
    1e-3 where the quotient form takes over; at q = 0.02, alpha = 0.008,
    1 + rel1 = 0.56 takes log1p, just above the 0.5 where the log of the
    quotient takes over.  Each row is within 1.1e-15 of ``mp_dvq``.
    """
    pins = {(0.002, 0.1): (0.9261474231136916, 3.667760268291293, 212.37523406696997),
            (0.02, 0.008): (0.11267073159457369, 1.2623994149733984, 1.7540751477665133)}
    for (q, alpha), moments in pins.items():
        d, _, v, _, q4 = moment_curve([alpha], q)[0][2:7]
        assert repr((d, v, q4)) == repr(moments), (q, alpha)
    # g's series keeps its last Horner term, k = 14: it decides the last bit here
    assert repr(covert._g(-0.0487)) == "0.0012055781173599233"


def _passes_the_centring_refusal(c, l14, weights, mean):
    """``_dvq``'s centring refusal at centred entries c = (c11, c44, c_b, c_c) of L - D, D = mean.

    Each entry is pushed outward by eps (|L_ii| + |D|), L_ii = c_i + D, and
    V and Q re-evaluated: the refusal passes where neither moved by 1e-14.
    """
    v, q4 = covert._central_moments(*c, l14, *weights)
    pushed = [x + math.copysign(covert._EPS * (abs(x + mean) + abs(mean)), x) for x in c]
    v_hi, q4_hi = covert._central_moments(*pushed, l14, *weights)
    return v_hi - v <= 1e-14 * v and q4_hi - q4 <= 1e-14 * q4


def test_centring_clearance_is_sound_at_its_bound():
    """At D^2 = _CENTRING_CLEAR * V the centring refusal passes, so ``_dvq`` may skip it there.

    ``_dvq`` re-evaluates V and Q only where D^2 > _CENTRING_CLEAR * V (or V
    or Q is below ``_CLEAR_FLOOR``); its docstring proves that the refusal
    passes everywhere else.  Here D sits on that bound: at the proof's
    equality case (all four entries 1 and no coupling, the worst for the |D|
    part of the shift) and at 2000 seeded rows with entries of either sign
    over twelve decades, a coupling and weights that sum to 1.
    """
    rows = [((1.0, 1.0, 1.0, 1.0), 0.0, (0.25, 0.25, 0.25, 0.25))]
    rng = random.Random(7)
    for _ in range(2000):
        c = tuple(rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-6.0, 6.0) for _ in range(4))
        raw = [rng.random() for _ in range(4)]
        weights = tuple(w / sum(raw) for w in raw)
        rows.append((c, rng.uniform(-1.0, 1.0) * 10.0 ** rng.uniform(-6.0, 3.0), weights))
    for c, l14, weights in rows:
        v, _ = covert._central_moments(*c, l14, *weights)
        mean = math.sqrt(covert._CENTRING_CLEAR * v)
        assert _passes_the_centring_refusal(c, l14, weights, mean), (c, l14, weights)


def test_centring_clearance_stops_at_its_floor(monkeypatch):
    """Below ``_CLEAR_FLOOR`` (2^-970) in V or Q, ``_dvq`` re-evaluates V and Q whatever D is.

    At q = 1/2, alpha = 1e-298 has V and Q near 1e-293, under the floor, so
    ``_central_moments`` runs twice; alpha = 1e-290 (V near 1e-285) clears by
    the bound and runs it once.
    """
    kernel, calls = covert._central_moments, []
    monkeypatch.setattr(covert, "_central_moments", lambda *c: calls.append(c) or kernel(*c))
    for alpha, evaluations in ((1e-298, 2), (1e-290, 1)):
        calls.clear()
        covert._dvq(alpha, 0.5)
        assert len(calls) == evaluations, alpha


def test_inverse_normal_cdf_basics():
    # rate_reports' Phi^{-1}(eps), taken once per table after eps is checked
    inv_cdf = covert._inv_normal_cdf
    assert inv_cdf(0.5) == 0.0
    assert inv_cdf(0.975) == pytest.approx(1.959963985, abs=1e-8)
    assert inv_cdf(0.2) == pytest.approx(-inv_cdf(0.8), abs=1e-14)
    for bad in (0.0, 1.0, -0.1, math.nan):
        with pytest.raises(ValueError, match=r"^error tolerance eps="):
            rate_reports([10**4], 0.05, 0.5, bad)


# p = k/1000, the float edges and extremes, and 10^5 seeded p over the three
# AS241 branches: uniform (mostly |p - 1/2| <= 0.425), log-uniform in both tails
# (r = sqrt(-log p) below 5, and past it down to 1e-300)
QUANTILE_EDGES = [1e-300, 1e-16, 0.5, 1.0 - 2.0**-53]


def _seeded_quantile_points(count):
    rng = random.Random(241)
    return ([rng.random() for _ in range(count // 2)]
            + [10.0 ** -rng.uniform(1.0, 300.0) for _ in range(count // 4)]
            + [1.0 - 10.0 ** -rng.uniform(1.0, 16.0) for _ in range(count // 4)])


def test_inverse_normal_cdf_is_statistics_bit_for_bit():
    # AS241 with the operations of CPython's statistics._normal_dist_inv_cdf, in order
    inv_cdf = statistics.NormalDist().inv_cdf
    points = [k / 1000 for k in range(1, 1000)] + QUANTILE_EDGES + _seeded_quantile_points(10**5)
    assert all(0.0 < p < 1.0 for p in points)
    mismatches = [p for p in points if repr(covert._inv_normal_cdf(p)) != repr(inv_cdf(p))]
    assert mismatches == []


def test_inverse_normal_cdf_matches_mpmath():
    # worst measured relative error 6.3e-16 (2.9 eps), over 34 008 p covering all
    # three branches and their edges, against the 50-digit erfinv
    points = [k / 1000 for k in range(1, 1000)] + QUANTILE_EDGES + _seeded_quantile_points(120)
    for p in points:
        want = mp_normal_quantile(p)
        got = covert._inv_normal_cdf(p)
        if p == 0.5:
            assert got == want == 0.0
        else:
            assert abs(got - want) <= 1e-15 * abs(want), p


def test_finite_blocklength_logM_formula():
    n, eps, q = 10**5, 0.05, 0.5
    (rep,) = rate_reports([n], 0.05, q, eps)
    d, _, v, _, q4 = moment_curve([rep.alpha_n], q)[0][2:7]
    c_n = BERRY_ESSEEN / SQRT_2PI * q4**0.75 / v + v / SQRT_2PI + math.log2(4.0 * eps * n)
    expected = n * d + math.sqrt(n * v) * covert._inv_normal_cdf(eps) - c_n
    assert rep.logM_finite == pytest.approx(expected, rel=1e-14)


def test_finite_blocklength_logM_validation():
    # the message size needs n >= 2 and eps in (0, 1), checked before any row
    with pytest.raises(ValueError, match=r"^blocklength n=1 must be an integer >= 2$"):
        rate_reports([1], 0.05, 0.5)
    with pytest.raises(ValueError, match=r"^error tolerance eps=1\.0 outside \(0, 1\)$"):
        rate_reports([100], 0.05, 0.5, 1.0)


def test_schedule_params():
    (alpha,) = schedule_weights([10**6], 0.05)
    assert alpha == pytest.approx(10.0 ** (6 * (0.05 - 2.0 / 3.0)), rel=1e-12)
    assert list(schedule_weights([1], 0.1)) == [1.0]  # boundary blocklength
    for n, nu in ((0, 0.05), (100, 0.0), (100, 1.0 / 6.0)):
        with pytest.raises(ValueError):
            list(schedule_weights([n], nu))


def test_schedule_weights_are_the_one_schedule():
    # rate_reports and detect-sim take alpha_n = n**(nu - 2/3) here
    ns, nu = [1, 2, 7, 10**6, 10**15], 0.05
    weights = list(schedule_weights(ns, nu))
    assert weights == [float(n) ** (nu - 2.0 / 3.0) for n in ns]
    assert [rep.alpha_n for rep in rate_reports(ns[1:], nu, 0.5)] == weights[1:]
    with pytest.raises(ValueError, match=r"^blocklength n=0 must be a positive integer$"):
        list(schedule_weights([3, 0], nu))
    with pytest.raises(ValueError, match=r"^blocklength n=2\.5 must be a positive integer$"):
        list(schedule_weights([2.5], nu))
    with pytest.raises(ValueError, match=r"^schedule exponent nu=0\.2 outside \(0, 1/6\)$"):
        list(schedule_weights([0], 0.2))


def test_tables_check_q_once_and_take_eta_unchecked(monkeypatch):
    qs = [1e-300, 1e-6, 0.5, 1.0 - 1e-9]
    kernel, calls = covert._eta, []
    monkeypatch.setattr(covert, "_eta", lambda warden: calls.append(warden) or kernel(warden))
    curve = capacity_curve(qs)
    assert len(calls) == len(qs)  # one eta per q
    rates = [rate_reports([10**4, 10**5], 0.05, q) for q in qs]
    assert len(calls) == 2 * len(qs)  # one eta per table, not per row
    assert [(q, eta) for q, eta, _ in curve] == [(q, kernel(covert._e1_bloch(q))) for q in qs]
    assert [r.covert_rate_limit for r, _ in rates] == [
        2.0 * (2.0 / 3.0 - 0.05) * (1.0 - q) ** 2 / (2.0 - q) / math.sqrt(eta / 2.0)
        for q, eta, _ in curve]


def test_asymptotic_logM_formula():
    n, nu, q = 10**5, 0.08, 0.4
    expected = (
        2.0 * (2.0 / 3.0 - 0.08) * 0.36 / 1.6 * float(n) ** (nu - 1.0 / 6.0)
        * math.sqrt(n) * math.log2(n)
    )
    (rep,) = rate_reports([n], nu, q)
    assert rep.logM_asymptotic == pytest.approx(expected, rel=1e-13)


def test_willie_eta_pins_and_quadratic_limit():
    for (_, eta_q, _), pin in zip(capacity_curve(list(ETA_PINS)), ETA_PINS.values()):
        assert eta_q == pytest.approx(pin, rel=1e-12)
    # independent check: the curvature really is the small-weight limit of
    # 2 D(omega_t || omega_0) / t^2 for the single-environment-qubit warden
    q = 0.5
    t = 1e-4
    d = relative_entropy(e1only_marginal(t, q), e1only_marginal(0.0, q))
    assert 2.0 * d / (t * t) == pytest.approx(capacity_curve([q])[0][1], rel=1e-3)


def test_willie_divergence_total_exact_additivity():
    n, nu, q = 10**4, 0.05, 0.5
    (rep,) = rate_reports([n], nu, q)
    exact = rep.willie_div_total
    quadratic = n * rep.alpha_n**2 * capacity_curve([q])[0][1] / 2.0
    # n times the single-use divergence, against the 50-digit reference
    # (the dense double-precision route is itself 7e-12 off here)
    single = mp_willie_divergence(rep.alpha_n, q)
    assert exact == pytest.approx(float(n * single), rel=1e-14)
    # quadratic law is within half a percent at this weight (alpha ~ 3e-3)
    assert exact / quadratic == pytest.approx(1.0, abs=6e-3)
    with pytest.raises(ValueError):
        rate_reports([n], nu, 1.0)


def test_covert_rate_formula_and_validation():
    (rep,) = rate_reports([10**4], 0.05, 0.5)
    assert rep.covert_rate_L == pytest.approx(
        rep.logM_finite / (math.log2(10**4) * math.sqrt(10**4 * rep.willie_div_total)), rel=1e-14
    )
    with pytest.raises(ValueError):
        rate_reports([1], 0.05, 0.5)  # the finite-blocklength bound needs n >= 2
    # the rate's divergence is a positive normal float, or the row is refused
    with pytest.raises(ArithmeticError, match="warden divergence"):
        rate_reports([10**300], 0.05, 0.5)


def test_capacity_lower_bound_values(monkeypatch):
    ((q, eta, capacity),) = capacity_curve([0.5])
    assert eta == pytest.approx(ETA_PINS[0.5], rel=1e-12)
    assert q == 0.5 and capacity == pytest.approx(CAPACITY_PIN_Q05, rel=1e-12)
    # closed form against the pinned eta
    expected = 4.0 * math.sqrt(2.0) / 3.0 * 0.25 / (1.5 * math.sqrt(ETA_PINS[q]))
    assert capacity == pytest.approx(expected, rel=1e-12)
    # q = 0 and q = 1 are outside the open interval, and the whole grid is
    # checked before any eta is computed
    monkeypatch.setattr(covert, "_eta", lambda warden: 1 / 0)
    for grid in ([0.0], [1.0], [0.5, 1.0]):
        with pytest.raises(ValueError):
            capacity_curve(grid)


def test_rate_limit_formula():
    nu, q = 0.05, 0.5
    coeff = 2.0 * (2.0 / 3.0 - nu) * 0.25 / 1.5
    (rep,) = rate_reports([10**4], nu, q)
    assert rep.covert_rate_limit == pytest.approx(
        coeff / math.sqrt(capacity_curve([q])[0][1] / 2.0), rel=1e-13
    )
    with pytest.raises(ValueError):
        rate_reports([10**4], 0.2, 0.5)
    with pytest.raises(ValueError):
        rate_reports([10**4], 0.05, 0.0)


def test_rate_report_is_internally_consistent():
    n, nu = 10**5, 0.05
    (rep,) = rate_reports([n], nu, 0.5, eps=0.05)
    assert type(rep.n) is int and rep.n == n and rep.q == 0.5
    (alpha,) = schedule_weights([n], nu)
    assert rep.alpha_n == alpha
    dvq = covert._dvq(alpha, 0.5)
    logM = covert._logM(n, 0.05, covert._inv_normal_cdf(0.05), *dvq)
    assert rep.logM_finite == pytest.approx(logM, rel=1e-14)
    assert rep.logM_asymptotic == pytest.approx(
        2.0 * (2.0 / 3.0 - nu) * 0.25 / 1.5 * float(n) ** (nu - 1.0 / 6.0)
        * math.sqrt(n) * math.log2(n),
        rel=1e-14,
    )
    assert rep.willie_div_total == n * divergence_kernel(alpha, 0.5)
    assert rep.covert_rate_L == pytest.approx(
        rep.logM_finite / (math.log2(n) * math.sqrt(n * rep.willie_div_total)), rel=1e-14
    )


def test_grid_forms_match_pointwise_forms():
    # the per-q constants are computed once per grid, with the same values
    q, nu = 0.4, 0.07
    ns = [10**3, 10**5, 10**7]
    reports = rate_reports(ns, nu, q)
    assert reports == [rate_reports([n], nu, q)[0] for n in ns]
    qs = [q, 0.5, q]
    assert capacity_curve(qs) == [capacity_curve([x])[0] for x in qs]
    alphas = [0.0, 1e-9, 1e-4, 0.3, 0.7]
    assert moment_curve(alphas, q) == [moment_curve([a], q)[0] for a in alphas]


def test_finite_rate_convergence_approaches_limit():
    reports = rate_reports([10**4, 10**5, 10**6, 10**7], 0.05, 0.5)
    rates = [r.covert_rate_L for r in reports]
    limit = reports[0].covert_rate_limit
    gaps = [limit - r for r in rates]
    # the finite-n rate climbs toward the limit and may overshoot it once
    # the exact divergence's surplus over its leading form dominates the
    # remaining finite-n deficits; the overshoot decays only
    # logarithmically, so assert closeness rather than a sign
    assert rates == sorted(rates)
    assert abs(gaps[-1]) < abs(gaps[0]) / 5.0
    assert abs(gaps[-1]) < 0.05 * limit
    coeff = 2.0 * (2.0 / 3.0 - 0.05) * 0.25 / 1.5
    assert limit == pytest.approx(coeff / math.sqrt(capacity_curve([0.5])[0][1] / 2.0), rel=1e-14)
