import math

import numpy as np
import pytest

from oracles import basis_marginal_pair, eta, moments, projector, relative_entropy
from qcovert.channels import ChannelSpec, Scenario
from qcovert.divergences import DvqTriple

LN2 = math.log(2.0)


def classical_dvq(p, r):
    """Moments of the log-likelihood ratio for commuting (diagonal) states.

    Serves as an independent oracle: no operator logarithms involved,
    just scalar sums over the shared eigenbasis.
    """
    ell = [math.log2(pi / ri) for pi, ri in zip(p, r)]
    d = sum(pi * li for pi, li in zip(p, ell))
    v = sum(pi * (li - d) ** 2 for pi, li in zip(p, ell))
    q4 = sum(pi * (li - d) ** 4 for pi, li in zip(p, ell))
    return DvqTriple(d, v, q4)


def test_relative_entropy_of_identical_states_is_zero():
    rho = np.diag([0.3, 0.7]).astype(complex)
    assert relative_entropy(rho, rho) == 0.0


def test_relative_entropy_classical_pair():
    p, r = (0.3, 0.7), (0.6, 0.4)
    expected = classical_dvq(p, r).d
    got = relative_entropy(np.diag(p).astype(complex), np.diag(r).astype(complex))
    assert got == pytest.approx(expected, abs=1e-13)


@pytest.mark.parametrize("t", [1e-13, 5e-13, 2e-12])
def test_relative_entropy_keeps_small_genuine_eigenvalues(t):
    # diag(1-t, t) || diag(1-2t, 2t): both small eigenvalues are genuine,
    # far above eigensolver noise, so neither may be dropped as kernel nor
    # flagged as a support violation
    expected = (1.0 - t) * math.log1p(t / (1.0 - 2.0 * t)) / LN2 - t
    got = relative_entropy(np.diag([1.0 - t, t]).astype(complex),
                           np.diag([1.0 - 2.0 * t, 2.0 * t]).astype(complex))
    # a difference of O(1)-bit logarithms: a few ulp of absolute error
    assert got == pytest.approx(expected, rel=0.0, abs=1e-15)


def test_relative_entropy_pure_vs_maximally_mixed():
    # D(|psi><psi| || I/2) = 1 bit for any qubit pure state
    plus = projector([1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0)])
    assert relative_entropy(plus, 0.5 * np.eye(2)) == pytest.approx(1.0, abs=1e-12)


def test_relative_entropy_support_violation_is_infinite():
    rho = np.diag([0.5, 0.5]).astype(complex)
    sigma = np.diag([1.0, 0.0]).astype(complex)
    assert relative_entropy(rho, sigma) == math.inf


def test_relative_entropy_shape_mismatch():
    with pytest.raises(ValueError):
        relative_entropy(np.eye(2) / 2.0, np.eye(4) / 4.0)


def test_moments_match_classical_oracle():
    p, r = (0.2, 0.35, 0.45), (0.5, 0.25, 0.25)
    got = moments(np.diag(p).astype(complex), np.diag(r).astype(complex))
    expected = classical_dvq(p, r)
    assert got.d == pytest.approx(expected.d, abs=1e-13)
    assert got.v == pytest.approx(expected.v, abs=1e-13)
    assert got.q4 == pytest.approx(expected.q4, abs=1e-13)


def test_moments_of_pure_state_vs_mixed_reference():
    # L = I on the support, so the centered moments vanish identically
    psi = projector([0.6, 0.8])
    got = moments(psi, 0.5 * np.eye(2))
    assert got.d == pytest.approx(1.0, abs=1e-12)
    assert got.v == pytest.approx(0.0, abs=1e-12)
    assert got.q4 == pytest.approx(0.0, abs=1e-12)


def test_moments_support_violation():
    rho = np.diag([0.5, 0.5]).astype(complex)
    sigma = np.diag([1.0, 0.0]).astype(complex)
    assert moments(rho, sigma) == DvqTriple(math.inf, math.inf, math.inf)


def test_eta_classical_diagonal():
    # commuting case: only diagonal matrix elements of Delta survive, each
    # weighted by the degenerate divided difference 1/(sigma_i ln 2)
    sigma = (0.6, 0.4)
    rho = (0.5, 0.5)
    expected = sum((ri - si) ** 2 / (si * LN2) for ri, si in zip(rho, sigma))
    got = eta(np.diag(rho).astype(complex), np.diag(sigma).astype(complex))
    assert got == pytest.approx(expected, rel=1e-12)


def test_eta_fully_degenerate_reference():
    """Against I/2 every divided difference hits its limit 1/(lambda ln2)."""
    rho = np.array([[0.7, 0.1 + 0.2j], [0.1 - 0.2j, 0.3]], dtype=complex)
    sigma = 0.5 * np.eye(2, dtype=complex)
    delta = rho - sigma
    expected = (2.0 / LN2) * float(np.sum(np.abs(delta) ** 2))
    assert eta(rho, sigma) == pytest.approx(expected, rel=1e-12)


def test_eta_governs_small_mixture_divergence():
    # D((1-t) sigma + t rho || sigma) = t^2 eta/2 + O(t^3)
    sigma = np.diag([0.6, 0.4]).astype(complex)
    rho = np.array([[0.5, 0.2], [0.2, 0.5]], dtype=complex)
    curvature = eta(rho, sigma)
    t = 1e-3
    d = relative_entropy((1.0 - t) * sigma + t * rho, sigma)
    assert d / (t * t * curvature / 2.0) == pytest.approx(1.0, rel=5e-3)


def test_eta_kernel_coupling_is_infinite():
    sigma = np.diag([0.5, 0.5, 0.0]).astype(complex)
    rho = np.diag([0.5, 0.4, 0.1]).astype(complex)
    assert eta(rho, sigma) == math.inf


def test_eta_finite_on_shared_support():
    sigma = np.diag([0.5, 0.5, 0.0]).astype(complex)
    rho = np.diag([0.6, 0.4, 0.0]).astype(complex)
    expected = (0.1**2 + 0.1**2) / (0.5 * LN2)
    assert eta(rho, sigma) == pytest.approx(expected, rel=1e-12)


def test_eta_infinite_for_all_env_warden():
    # the active marginal leaks onto the innocent marginal's kernel, so the
    # quadratic covertness expansion has no finite coefficient there
    omega_0, omega_1 = basis_marginal_pair(ChannelSpec(0.5, Scenario.ALL_ENV))
    assert eta(omega_1, omega_0) == math.inf


def test_eta_shape_mismatch():
    with pytest.raises(ValueError):
        eta(np.eye(2) / 2.0, np.eye(3) / 3.0)
