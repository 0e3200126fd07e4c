"""Property tests of the closed-form divergences, with hypothesis.

Each property must hold at every input the strategies draw, not just at
grid points: positivity of D and V, growth of D with the input weight,
and the qubit Pinsker bound for the warden's single-use divergence.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from qcovert.channels import e1only_marginal
from qcovert.covert import dvq_exact, willie_divergence
from qcovert.linalg import trace_distance

LN2 = math.log(2.0)

# interior noise levels and weights down to 1e-16, drawn log-uniformly
noise = st.floats(min_value=1e-3, max_value=1.0 - 1e-3)
weight = st.floats(min_value=-16.0, max_value=math.log10(0.5)).map(lambda x: 10.0**x)


@settings(max_examples=300, deadline=None)
@given(alpha=st.floats(min_value=1e-16, max_value=1.0 - 1e-16), q=noise)
def test_moments_are_positive(alpha, q):
    d, v, q4 = dvq_exact(alpha, q)
    assert d > 0.0 and v > 0.0 and q4 > 0.0


@settings(max_examples=300, deadline=None)
@given(a=weight, b=weight, q=noise)
def test_first_moment_grows_with_weight(a, b, q):
    lo, hi = sorted((a, b))
    assert dvq_exact(lo, q).d <= dvq_exact(hi, q).d


@settings(max_examples=300, deadline=None)
@given(alpha=st.floats(min_value=1e-8, max_value=1.0), q=noise)
def test_warden_divergence_obeys_pinsker(alpha, q):
    # D(rho||sigma) >= (2/ln 2) T(rho, sigma)^2 in bits
    t = trace_distance(e1only_marginal(alpha, q), e1only_marginal(0.0, q))
    assert willie_divergence(alpha, q) >= 2.0 / LN2 * t * t * (1.0 - 1e-12)
