import math

import numpy as np
import pytest

from oracles import (
    depolarize,
    depolarize_pauli_form,
    dilated_output,
    partial_trace,
    projector,
    pure_state,
    stinespring_isometry,
    willie_marginal,
)
from qcovert.channels import (
    ChannelSpec,
    Scenario,
    allenv_null_vectors,
    basis_marginal_pair,
    e1only_marginal,
    scenario_support_report,
)

Q_GRID = [0.1, 0.25, 0.5, 0.75, 0.9]

KET0 = projector([1.0, 0.0])
KET1 = projector([0.0, 1.0])


def random_qubit(rng):
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    return projector(v / np.linalg.norm(v))


def test_channel_spec_validation():
    spec = ChannelSpec(0.3, 1)
    assert spec.scenario is Scenario.ALL_ENV
    assert not spec.boundary
    assert ChannelSpec(0.0, 2).boundary and ChannelSpec(1.0, 3).boundary
    with pytest.raises(ValueError):
        ChannelSpec(-0.1, 1)
    with pytest.raises(ValueError):
        ChannelSpec(1.5, 1)
    with pytest.raises(ValueError):
        ChannelSpec(math.nan, 1)
    with pytest.raises(ValueError):
        ChannelSpec(0.5, 4)


def test_depolarize_endpoints():
    rho = random_qubit(np.random.default_rng(0))
    np.testing.assert_array_equal(depolarize(rho, 0.0), rho)  # q=0: identity channel
    assert np.array_equal(depolarize(rho, 1.0), 0.5 * np.eye(2))  # q=1: fully mixed


def test_depolarize_agrees_with_pauli_twirl():
    rng = np.random.default_rng(4)
    for _ in range(20):
        rho = random_qubit(rng)
        for q in Q_GRID:
            np.testing.assert_allclose(
                depolarize(rho, q), depolarize_pauli_form(rho, q), atol=1e-15
            )


def test_depolarize_input_validation():
    with pytest.raises(ValueError):
        depolarize(np.eye(2) / 2.0, 1.2)
    with pytest.raises(ValueError):
        depolarize(np.eye(4) / 4.0, 0.5)  # not a qubit


def test_stinespring_isometry_shape_and_isometry():
    for q in [0.0] + Q_GRID + [1.0]:
        v = stinespring_isometry(q)
        assert v.shape == (8, 2)
        np.testing.assert_allclose(v.conj().T @ v, np.eye(2), atol=1e-14)


def test_dilation_recovers_channel():
    rng = np.random.default_rng(5)
    for _ in range(10):
        rho = random_qubit(rng)
        for q in Q_GRID:
            joint = dilated_output(rho, q)
            assert joint.trace().real == pytest.approx(1.0, abs=1e-14)
            received = partial_trace(joint, [2, 2, 2], [0])
            np.testing.assert_allclose(received, depolarize(rho, q), atol=1e-14)


@pytest.mark.parametrize("scenario", list(Scenario))
@pytest.mark.parametrize("q", Q_GRID)
def test_closed_form_marginals_match_dilation(scenario, q):
    spec = ChannelSpec(q, scenario)
    omega_0, omega_1 = basis_marginal_pair(spec)
    np.testing.assert_allclose(willie_marginal(KET0, spec), omega_0, atol=1e-14)
    np.testing.assert_allclose(willie_marginal(KET1, spec), omega_1, atol=1e-14)


def test_e2only_marginals_identical_bitwise():
    omega_0, omega_1 = basis_marginal_pair(ChannelSpec(0.37, Scenario.E2_ONLY))
    assert np.array_equal(omega_0, omega_1)
    assert omega_0 is not omega_1


def test_e1only_marginal_is_affine_in_alpha():
    """The response to diag(1-a, a) is the a-mixture of the basis responses."""
    q = 0.6
    omega_0 = e1only_marginal(0.0, q)
    omega_1 = e1only_marginal(1.0, q)
    for a in (0.2, 0.5, 0.9):
        np.testing.assert_allclose(
            e1only_marginal(a, q), (1.0 - a) * omega_0 + a * omega_1, atol=1e-15
        )
    pair = basis_marginal_pair(ChannelSpec(q, Scenario.E1_ONLY))
    np.testing.assert_array_equal(pair[0], omega_0)
    np.testing.assert_array_equal(pair[1], omega_1)


def test_e1only_marginal_validation():
    with pytest.raises(ValueError):
        e1only_marginal(-0.1, 0.5)
    with pytest.raises(ValueError):
        e1only_marginal(0.5, 2.0)


@pytest.mark.parametrize("q", [0.0, 0.2, 0.5, 0.8])
def test_allenv_null_vectors_span_the_kernel(q):
    omega_0, omega_1 = basis_marginal_pair(ChannelSpec(q, Scenario.ALL_ENV))
    e0, f = allenv_null_vectors(q)
    # orthonormal
    assert np.vdot(e0, e0).real == pytest.approx(1.0, abs=1e-15)
    assert np.vdot(f, f).real == pytest.approx(1.0, abs=1e-15)
    assert abs(np.vdot(e0, f)) < 1e-15
    # annihilated by the innocent marginal
    assert np.linalg.norm(omega_0 @ e0) < 1e-15
    assert np.linalg.norm(omega_0 @ f) < 1e-15
    # overlap of the active marginal with the noise-independent kernel vector
    assert np.vdot(e0, omega_1 @ e0).real == pytest.approx(q / 2.0, abs=1e-14)


def test_allenv_second_kernel_vector_overlap():
    # <f| omega_1 |f> = q(1 - 3q/4)/(1 - q/2)
    for q in (0.25, 0.5, 0.75):
        _, omega_1 = basis_marginal_pair(ChannelSpec(q, Scenario.ALL_ENV))
        _, f = allenv_null_vectors(q)
        expected = q * (1.0 - 0.75 * q) / (1.0 - 0.5 * q)
        assert np.vdot(f, omega_1 @ f).real == pytest.approx(expected, abs=1e-14)


@pytest.mark.parametrize("q", [0.25, 0.5, 0.75])
def test_support_report_all_env_impossible(q):
    rep = scenario_support_report(ChannelSpec(q, Scenario.ALL_ENV))
    assert rep.verdict == "impossible"
    assert not rep.support_contained
    assert rep.kernel_overlap >= q / 2.0 - 1e-10
    assert rep.trace_dist > 0.0


@pytest.mark.parametrize("q", [0.25, 0.5, 0.75])
def test_support_report_e2_trivial(q):
    rep = scenario_support_report(ChannelSpec(q, Scenario.E2_ONLY))
    assert rep.verdict == "trivial"
    assert rep.support_contained
    assert rep.trace_dist == 0.0


@pytest.mark.parametrize(
    "q,det", [(0.25, 7.0 / 128.0), (0.5, 3.0 / 32.0), (0.75, 15.0 / 128.0)]
)
def test_support_report_e1_nontrivial(q, det):
    """Both hypothesis states are full rank with determinant q(2-q)/8."""
    rep = scenario_support_report(ChannelSpec(q, Scenario.E1_ONLY))
    assert rep.verdict == "nontrivial"
    assert rep.support_contained
    assert rep.trace_dist > 0.0
    assert rep.det_omega0 == pytest.approx(det, abs=1e-14)
    assert rep.det_omega1 == pytest.approx(det, abs=1e-14)


def test_support_report_boundaries_are_degenerate():
    for q in (0.0, 1.0):
        for scenario in Scenario:
            rep = scenario_support_report(ChannelSpec(q, scenario))
            assert rep.verdict == "degenerate"
            assert rep.note != ""
