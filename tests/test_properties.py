"""Property tests of the closed forms and the detection route, with hypothesis.

Each property must hold at every input the strategies draw, not just at
grid points: positivity of D and V, growth of D with the input weight,
the qubit Pinsker bound for the warden's single-use divergence, and for
the warden's n-use trace distance T: growth with n, 0 <= T <= 1,
linearity in alpha at n = 1, and one row giving the same bits alone as
inside a table.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import e1only_marginal, trace_distance
from qcovert.channels import Scenario
from qcovert.covert import moment_curve
from qcovert.detection import MAX_USES_ALLENV, warden_errors

LN2 = math.log(2.0)

# interior noise levels and weights down to 1e-16, drawn log-uniformly
noise = st.floats(min_value=1e-3, max_value=1.0 - 1e-3)
weight = st.floats(min_value=-16.0, max_value=math.log10(0.5)).map(lambda x: 10.0**x)


@settings(max_examples=300, deadline=None)
@given(alpha=st.floats(min_value=1e-16, max_value=1.0 - 1e-16), q=noise)
def test_moments_are_positive(alpha, q):
    d, _, v, _, q4 = moment_curve([alpha], q)[0][2:7]
    assert d > 0.0 and v > 0.0 and q4 > 0.0


@settings(max_examples=300, deadline=None)
@given(a=weight, b=weight, q=noise)
def test_first_moment_grows_with_weight(a, b, q):
    (_, _, d_lo, *_), (_, _, d_hi, *_) = moment_curve(sorted((a, b)), q)
    assert d_lo <= d_hi


@settings(max_examples=300, deadline=None)
@given(alpha=st.floats(min_value=1e-8, max_value=1.0), q=noise)
def test_warden_divergence_obeys_pinsker(alpha, q):
    # D(rho||sigma) >= (2/ln 2) T(rho, sigma)^2 in bits
    t = trace_distance(e1only_marginal(alpha, q), e1only_marginal(0.0, q))
    div = warden_errors([1], [alpha], q, Scenario.E1_ONLY)[0].div_total
    assert div >= 2.0 / LN2 * t * t * (1.0 - 1e-12)


# the two scenarios whose warden sees a signal, with their largest n here
warden = st.sampled_from([(Scenario.E1_ONLY, 30), (Scenario.ALL_ENV, MAX_USES_ALLENV)])
# weights down to 1e-140: below about 1e-154 the E1 budget n D ~ alpha^2
# underflows and the row is refused (``test_cli.py``)
signal = st.one_of(st.just(1.0), st.floats(min_value=-140.0, max_value=0.0).map(lambda x: 10.0**x))


@settings(max_examples=60, deadline=None)
@given(case=warden, alpha=signal, q=noise)
def test_trace_distance_grows_with_uses_and_stays_in_unit_interval(case, alpha, q):
    # data processing: tracing out the last copy cannot raise T
    scenario, top = case
    dist = [r.trace_dist for r in
            warden_errors(range(1, top + 1), [alpha] * top, q, scenario)]
    assert all(0.0 < t <= 1.0 for t in dist)
    # a few ulps of slack where T has saturated at 1
    assert all(b >= a * (1.0 - 1e-14) for a, b in zip(dist, dist[1:]))


@settings(max_examples=200, deadline=None)
@given(case=warden, alpha=signal, q=noise)
def test_single_use_trace_distance_is_linear_in_weight(case, alpha, q):
    # omega_alpha - omega_0 = alpha (omega_1 - omega_0)
    t_one = warden_errors([1], [1.0], q, case[0])[0].trace_dist
    t = warden_errors([1], [alpha], q, case[0])[0].trace_dist
    assert t == pytest.approx(alpha * t_one, rel=1e-14, abs=0.0)


@settings(max_examples=100, deadline=None)
@given(case=warden, q=noise, data=st.data())
def test_one_row_equals_its_table_row_bit_for_bit(case, q, data):
    scenario, top = case
    ns = data.draw(st.lists(st.integers(1, top), min_size=1, max_size=8))
    alphas = data.draw(st.lists(st.one_of(st.just(0.0), signal),
                                min_size=len(ns), max_size=len(ns)))
    table = warden_errors(ns, alphas, q, scenario)
    for n, alpha, row in zip(ns, alphas, table):
        assert warden_errors([n], [alpha], q, scenario)[0] == row
