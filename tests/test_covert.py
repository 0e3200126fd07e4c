import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import oracles
from oracles import (
    ArrowMatrixParams,
    approx_rows_reference,
    arrow_matrix,
    arrow_params,
    arrow_spectral,
    binary_convolution,
    dvq_reference,
    e1only_marginal,
    eig_hermitian,
    entangled_input,
    eta,
    joint_output_closed_form,
    logM_reference,
    moments,
    mp_willie_divergence,
    partial_trace,
    product_of_marginals,
    projector,
    rate_rows_reference,
    relative_entropy,
    stinespring_isometry,
    willie_divergence_reference,
)
from qcovert import covert
from qcovert.covert import (
    BERRY_ESSEEN,
    capacity_curve,
    moment_curve,
    rate_reports,
    schedule_weights,
)
from qcovert.divergences import DvqTriple

SQRT_2PI = math.sqrt(2.0 * math.pi)

# Regression pins, produced once by this library and cross-checked against
# the independent oracles in this file at looser tolerance.
ETA_PINS = {0.3: 3.439146196075672, 0.5: 4.637269831353988, 0.7: 5.373790176566614}
CAPACITY_PIN_Q05 = 0.1459389779600682


def entropy_bits(rho):
    w = np.linalg.eigvalsh(rho)
    return -sum(x * math.log2(x) for x in w if x > 1e-14)


def dense_log2(m):
    """Operator log2 built directly from numpy's eigh, bypassing the library."""
    w, v = np.linalg.eigh(m)
    out = np.zeros_like(np.asarray(m, dtype=complex))
    for lam, vec in zip(w, v.T):
        if lam > 1e-14:
            out += math.log2(lam) * np.outer(vec, vec.conj())
    return out


def test_entangled_input_vector():
    psi = entangled_input(0.36)
    np.testing.assert_allclose(psi, [0.8, 0.0, 0.0, 0.6], atol=1e-15)
    assert np.linalg.norm(entangled_input(0.0)) == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValueError):
        entangled_input(1.5)


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


def test_dvq_exact_first_moment_matches_entropy_route():
    # mutual-information identity: D(rho_AB || rho_A x rho_B)
    #                            = S(A) + S(B) - S(AB)
    for alpha, q in [(0.1, 0.3), (0.01, 0.5), (0.45, 0.8)]:
        joint = joint_output_closed_form(alpha, q)
        expected = (
            entropy_bits(partial_trace(joint, [2, 2], [0]))
            + entropy_bits(partial_trace(joint, [2, 2], [1]))
            - entropy_bits(joint)
        )
        assert moment_curve([alpha], q)[0][0] == pytest.approx(expected, abs=1e-11)


def test_dvq_exact_higher_moments_match_direct_construction():
    alpha, q = 0.2, 0.45
    rho = joint_output_closed_form(alpha, q)
    sigma = product_of_marginals(alpha, q)
    loglike = dense_log2(rho) - dense_log2(sigma)
    d = float(np.trace(rho @ loglike).real)
    centered = loglike - d * np.eye(4)
    v = float(np.trace(rho @ centered @ centered).real)
    q4 = float(np.trace(rho @ np.linalg.matrix_power(centered, 4)).real)
    got_d, _, got_v, _, got_q4, *_ = moment_curve([alpha], q)[0]
    assert got_d == pytest.approx(d, abs=1e-12)
    assert got_v == pytest.approx(v, abs=1e-12)
    assert got_q4 == pytest.approx(q4, abs=1e-12)


@pytest.mark.parametrize("alpha", [0.0, 1e-3, 0.2, 0.5, 0.7, 0.999, 1.0])
@pytest.mark.parametrize("q", [0.0, 0.3, 0.9, 1.0])
def test_dvq_exact_matches_dense_oracle(alpha, q):
    """Closed form vs operator logarithms, across alpha = 1/2; the table refuses the boundaries."""
    if not (0.0 < q < 1.0 and alpha < 1.0):  # no command computes the moments there
        with pytest.raises(ValueError, match="outside"):
            moment_curve([alpha], q)
        return
    d, _, v, _, q4, *_ = moment_curve([alpha], q)[0]
    expected = moments(joint_output_closed_form(alpha, q), product_of_marginals(alpha, q))
    np.testing.assert_allclose((d, v, q4), expected, rtol=1e-10, atol=1e-12)


def test_warden_closed_forms_match_dense_oracles():
    rng = np.random.default_rng(23)
    for _ in range(40):
        q, alpha = rng.uniform(0.01, 0.99), rng.uniform(0.01, 1.0)
        omega_0, omega_1 = e1only_marginal(0.0, q), e1only_marginal(1.0, q)
        dense = relative_entropy(e1only_marginal(alpha, q), omega_0)
        assert divergence_kernel(alpha, q) == pytest.approx(dense, rel=1e-10)
        assert capacity_curve([q])[0][0] == pytest.approx(eta(omega_1, omega_0), rel=1e-12)


def test_dvq_asymptotic_leading_forms():
    alpha, q = 1e-4, 0.5
    (_, d_lead, _, v_lead, *_), zero = moment_curve([alpha, 0.0], q)
    coeff = 2.0 * 0.25 / 1.5  # 2(1-q)^2/(2-q) = 1/3 at q = 0.5
    assert d_lead == pytest.approx(-coeff * alpha * math.log2(alpha), rel=1e-14)
    assert d_lead == pytest.approx(4.429e-4, abs=1e-7)
    assert v_lead == pytest.approx(coeff * alpha * math.log2(alpha) ** 2, rel=1e-14)
    assert v_lead > 0.0
    assert zero == (0.0,) * 7


def test_dvq_ratio_regression_values():
    """Exact-to-leading ratio minus one, pinned along the alpha grid."""
    pins = {1e-3: 0.277163, 1e-4: 0.207750, 1e-5: 0.166181, 1e-6: 0.138481}
    rows = moment_curve(list(pins), 0.5)
    for (alpha, pin), (d, d_lead, *_, ratio_d, _) in zip(pins.items(), rows):
        assert d == dvq_reference(alpha, 0.5).d and ratio_d == d / d_lead
        assert ratio_d - 1.0 == pytest.approx(pin, abs=5e-6)


def test_inverse_normal_cdf_basics():
    # rate_reports' Phi^{-1}(eps), taken once per table after eps is checked
    inv_cdf = covert._inv_normal_cdf
    assert inv_cdf(0.5) == 0.0
    assert inv_cdf(0.975) == pytest.approx(1.959963985, abs=1e-8)
    assert inv_cdf(0.2) == pytest.approx(-inv_cdf(0.8), abs=1e-14)
    for bad in (0.0, 1.0, -0.1, math.nan):
        with pytest.raises(ValueError, match=r"^error tolerance eps="):
            rate_reports([10**4], 0.05, 0.5, bad)


def test_finite_blocklength_logM_formula():
    n, eps, q = 10**5, 0.05, 0.5
    (rep,) = rate_reports([n], 0.05, q, eps)
    d, _, v, _, q4, *_ = moment_curve([rep.alpha_n], q)[0]
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
    assert [eta for eta, _ in curve] == [kernel(covert._e1_bloch(q)) for q in qs]
    assert [r.capacity_lb for r, _ in rates] == [capacity for _, capacity in curve]


def test_asymptotic_logM_formula():
    n, nu, q = 10**5, 0.08, 0.4
    expected = (
        2.0 * (2.0 / 3.0 - 0.08) * 0.36 / 1.6 * float(n) ** (nu - 1.0 / 6.0)
        * math.sqrt(n) * math.log2(n)
    )
    (rep,) = rate_reports([n], nu, q)
    assert rep.logM_asymptotic == pytest.approx(expected, rel=1e-13)


def test_willie_eta_pins_and_quadratic_limit():
    for (eta_q, _), pin in zip(capacity_curve(list(ETA_PINS)), ETA_PINS.values()):
        assert eta_q == pytest.approx(pin, rel=1e-12)
    # independent check: the curvature really is the small-weight limit of
    # 2 D(omega_t || omega_0) / t^2 for the single-environment-qubit warden
    q = 0.5
    t = 1e-4
    d = relative_entropy(e1only_marginal(t, q), e1only_marginal(0.0, q))
    assert 2.0 * d / (t * t) == pytest.approx(capacity_curve([q])[0][0], rel=1e-3)


def test_willie_divergence_total_exact_additivity():
    n, nu, q = 10**4, 0.05, 0.5
    (rep,) = rate_reports([n], nu, q)
    exact = rep.willie_div_total
    quadratic = n * rep.alpha_n**2 * capacity_curve([q])[0][0] / 2.0
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
    ((eta, capacity),) = capacity_curve([0.5])
    assert eta == pytest.approx(ETA_PINS[0.5], rel=1e-12)
    assert capacity == pytest.approx(CAPACITY_PIN_Q05, rel=1e-12)
    # closed form against the pinned eta
    q = 0.5
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
        coeff / math.sqrt(capacity_curve([q])[0][0] / 2.0), rel=1e-13
    )
    with pytest.raises(ValueError):
        rate_reports([10**4], 0.2, 0.5)
    with pytest.raises(ValueError):
        rate_reports([10**4], 0.05, 0.0)


def test_rate_report_is_internally_consistent():
    n, nu = 10**5, 0.05
    (rep,) = rate_reports([n], nu, 0.5, eps=0.05)
    assert rep.n == n and rep.q == 0.5 and rep.eps == 0.05
    (alpha,) = schedule_weights([n], nu)
    assert rep.alpha_n == alpha
    dvq = dvq_reference(alpha, 0.5)
    assert rep.logM_finite == pytest.approx(logM_reference(n, 0.05, dvq), rel=1e-14)
    assert rep.logM_asymptotic == pytest.approx(
        2.0 * (2.0 / 3.0 - nu) * 0.25 / 1.5 * float(n) ** (nu - 1.0 / 6.0)
        * math.sqrt(n) * math.log2(n),
        rel=1e-14,
    )
    assert rep.willie_div_total == n * willie_divergence_reference(alpha, 0.5)
    assert rep.covert_rate_L == pytest.approx(
        rep.logM_finite / (math.log2(n) * math.sqrt(n * rep.willie_div_total)), rel=1e-14
    )
    assert rep.capacity_lb == pytest.approx(CAPACITY_PIN_Q05, rel=1e-12)


def test_grid_forms_match_pointwise_forms():
    # the per-q constants are computed once per grid, with the same values
    q, nu = 0.4, 0.07
    ns = [10**3, 10**5, 10**7]
    reports = rate_reports(ns, nu, q)
    assert reports == [rate_reports([n], nu, q)[0] for n in ns]
    assert {r.capacity_lb for r in reports} == {capacity_curve([q])[0][1]}
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
    assert limit == pytest.approx(coeff / math.sqrt(capacity_curve([0.5])[0][0] / 2.0), rel=1e-14)


# ----------------------------------------------------------------------
# The flat closed forms against their helper-route copies in ``oracles``:
# the same floats bit for bit (compared by repr, which tells every double
# apart), or the same exception type with the same message.  The kernels
# are compared on the domain the tables hand them: ``_dvq`` at
# min(alpha, 1 - alpha) in (0, 1/2] and q in (0, 1), ``_willie_divergence``
# at alpha in (0, 1] with the constants ``_e1_bloch`` of q in (0, 1].


def outcome(f, *args):
    try:
        return repr(f(*args))
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)


def divergence_kernel(alpha, q):
    """``covert._willie_divergence`` at q's constants, as the tables call it."""
    return covert._willie_divergence(alpha, *covert._e1_bloch(q))


EDGE_QS = (0.0, 5e-324, 1e-300, 1e-20, 1e-17, 1e-6, 1.0 - 1e-9, 1.0)
# log-uniform over [1e-320, 1] and uniform over [0, 1], with the ends; q noise is drawn
# also from [1e-5, 0.1], where the quotient branches of D and log(1 + u) switch
noise_level = st.one_of(st.sampled_from(EDGE_QS), st.floats(0.0, 1.0),
                        st.floats(-320.0, 0.0).map(lambda x: 10.0**x),
                        st.floats(-5.0, -1.0).map(lambda x: 10.0**x))
weight_level = st.one_of(st.sampled_from((0.0, 5e-324, 1e-320, 0.5, 1.0)), st.floats(0.0, 1.0),
                         st.floats(-320.0, 0.0).map(lambda x: 10.0**x))


@seed(20261019)
@settings(max_examples=500, deadline=None, database=None)
@given(alpha=weight_level, q=noise_level, u=st.floats(-0.06, 0.06))
def test_flat_forms_match_the_helper_route(alpha, q, u):
    assert repr(covert._g(u)) == repr(oracles._g(u))  # one Horner expression against the loop
    folded = min(alpha, 1.0 - alpha)
    if folded > 0.0 and 0.0 < q < 1.0:
        assert outcome(covert._dvq, folded, q) == outcome(dvq_reference, alpha, q)
    if alpha > 0.0 and q > 0.0:
        assert outcome(divergence_kernel, alpha, q) == outcome(willie_divergence_reference, alpha, q)


@seed(20261019)
@settings(max_examples=150, deadline=None, database=None)
@given(offset=st.one_of(st.integers(-2000, 2000).map(lambda k: k * 2.0**-53),
                        st.floats(-16.0, -1.0).map(lambda x: 10.0**x),
                        st.floats(-16.0, -1.0).map(lambda x: -(10.0**x))),
       q=st.one_of(st.sampled_from((1e-300, 1e-100, 1e-20)),
                   st.floats(-300.0, -20.0).map(lambda x: 10.0**x)))
def test_moments_refuse_as_before_near_half_weight(offset, q):
    # alpha = 1/2 + k ulp, or 1/2 +- 10^-x, at q <= 1e-20: V ~ q log^2 q can be within
    # the rounding of L - D
    alpha = 0.5 + offset
    assert outcome(covert._dvq, min(alpha, 1.0 - alpha), q) == outcome(dvq_reference, alpha, q)


blocklength = st.one_of(st.sampled_from((2, 3, 496, 10**15, 10**300)),
                        st.floats(math.log10(2.0), 300.0).map(lambda x: round(10.0**x)))
rate_noise = st.one_of(st.sampled_from((1e-300, 1e-20, 1e-6, 0.05, 0.5, 0.95, 1.0 - 1e-9)),
                       st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))


@seed(20261019)
@settings(max_examples=150, deadline=None, database=None)
@given(ns=st.lists(blocklength, min_size=1, max_size=5), q=rate_noise,
       nu=st.floats(0.0, 1.0 / 6.0, exclude_min=True, exclude_max=True),
       eps=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
def test_rate_rows_match_the_helper_route(ns, q, nu, eps):
    got = outcome(rate_reports, ns, nu, q, eps)
    assert got == outcome(rate_rows_reference, ns, nu, q, eps)
    if isinstance(got, str):  # a table's rows are the rows run alone
        assert got == repr([rate_reports([n], nu, q, eps)[0] for n in ns])
        (alpha,) = schedule_weights(ns[:1], nu)
        dvq = covert._dvq(min(alpha, 1.0 - alpha), q)
        assert outcome(covert._logM, ns[0], eps, covert._inv_normal_cdf(eps), *dvq) == \
            outcome(logM_reference, ns[0], eps, dvq)


# ``moment_curve`` against ``oracles.approx_rows_reference``: the CLI's checks, ``dvq_reference``
# per row and the leading forms of ``oracles.leading_reference``.


def uncalibrated_leads(alphas, q):
    """``leading_reference`` with its fourth-moment fit at alpha = 1e-3 made a constant."""
    with mock.patch.object(oracles, "dvq_reference", lambda alpha, q: DvqTriple(1.0, 1.0, 1.0)):
        return oracles.leading_reference(alphas, q)


moment_weight = st.one_of(
    st.sampled_from((0.0, -0.0, 5e-324, 1e-310, 0.5, 1.0 - 2.0**-53, 1.0, -1e-300, math.nan)),
    st.floats(0.0, 1.0), st.floats(-320.0, 0.0).map(lambda x: 10.0**x),
    st.floats(-16.0, -1.0).map(lambda x: 1.0 - 10.0**x),  # alpha -> 1 from below
    st.integers(-2000, 2000).map(lambda k: 0.5 + k * 2.0**-53))  # the refusal band at tiny q
moment_noise = st.one_of(
    st.sampled_from(EDGE_QS + (1e-310, 1e-305, 1e-100, 0.5, 1.0 - 2.0**-53, 1.5, math.nan)),
    st.floats(0.0, 1.0), st.floats(-320.0, 0.0).map(lambda x: 10.0**x),
    st.floats(-300.0, -20.0).map(lambda x: 10.0**x))


@seed(20261019)
@settings(max_examples=400, deadline=None, database=None)
@given(alphas=st.lists(moment_weight, min_size=1, max_size=4), q=moment_noise)
def test_moment_curve_matches_the_leading_route(alphas, q):
    got = outcome(moment_curve, alphas, q)
    want = outcome(approx_rows_reference, alphas, q)
    if got != want:
        # The one difference: the reference refuses every table where its Q fit at
        # alpha = 1e-3 refuses (q below about 4.4e-305), a fit no column prints.
        assert want == outcome(dvq_reference, 1e-3, q)
        want = outcome(approx_rows_reference, alphas, q, uncalibrated_leads)
    assert got == want
    if isinstance(got, str):  # a table's rows are the rows run alone
        assert got == repr([moment_curve([a], q)[0] for a in alphas])
