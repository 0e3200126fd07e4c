import copy
import math
import pickle

import numpy as np
import pytest

from oracles import (
    _support_mask,
    basis_marginal_pair,
    depolarize,
    depolarize_pauli_form,
    dilated_output,
    e1only_marginal,
    eig_hermitian,
    partial_trace,
    projector,
    stinespring_isometry,
)
from qcovert import detection
from qcovert.channels import ChannelSpec, Scenario, scenario_reports

Q_GRID = [0.1, 0.25, 0.5, 0.75, 0.9]
# the noise-independent kernel vector of ALL_ENV's omega_0 (index 2*E1 + E2)
E0 = np.array([0.0, 1.0j, 0.0, 1.0]) / math.sqrt(2.0)


def random_qubit(rng):
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    return projector(v / np.linalg.norm(v))


def test_channel_spec_validation():
    spec = ChannelSpec(0.3, 1)
    assert spec.scenario is Scenario.ALL_ENV
    with pytest.raises(ValueError):
        ChannelSpec(-0.1, 1)
    with pytest.raises(ValueError):
        ChannelSpec(1.5, 1)
    with pytest.raises(ValueError):
        ChannelSpec(math.nan, 1)
    with pytest.raises(ValueError):
        ChannelSpec(0.5, 4)


def test_channel_spec_is_an_immutable_value():
    spec = ChannelSpec(0.3, 1)
    with pytest.raises(AttributeError):
        spec.q = 0.1
    with pytest.raises(AttributeError):
        spec.scenario = Scenario.E1_ONLY
    assert repr(spec) == "ChannelSpec(q=0.3, scenario=<Scenario.ALL_ENV: 1>)"
    same = ChannelSpec(q=0.3, scenario=Scenario.ALL_ENV)
    assert spec == same and hash(spec) == hash(same)
    assert spec != ChannelSpec(0.3, 2) and spec != ChannelSpec(0.4, 1)
    assert ChannelSpec(0.3, 3.0).scenario is Scenario.E1_ONLY  # taken as Scenario takes it


def test_channel_spec_checks_every_new_spec():
    # a replaced field, a spec made from fields, a copy and a pickle each pass the check
    spec = ChannelSpec(0.3, 1)
    assert spec._replace(scenario=3) == ChannelSpec(0.3, Scenario.E1_ONLY)
    assert ChannelSpec._make([0.3, 2]).scenario is Scenario.E2_ONLY
    for bad in (lambda: spec._replace(q=1.5), lambda: spec._replace(scenario=4),
                lambda: ChannelSpec._make([math.nan, 1])):
        with pytest.raises(ValueError):
            bad()
    assert copy.deepcopy(spec) == pickle.loads(pickle.dumps(spec)) == spec


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
@pytest.mark.parametrize("q", [0.0, 5e-324, 1e-320, 1e-300, 1e-6, *Q_GRID, 1.0])
def test_closed_form_marginals_match_dilation(scenario, q):
    """``_warden_block``, the one closed form of the warden's states, against the dilation.

    Its accuracy where the dilation underflows, and the blind rule, are
    checked in ``test_detection.py::test_warden_block_matches_the_marginals``.
    """
    spec = ChannelSpec(q, scenario)
    a, b, c = detection._warden_block(spec)
    omega_0, omega_1 = basis_marginal_pair(spec)
    if scenario is Scenario.ALL_ENV:
        # E2 = 0 blocks [[a, +-c], [+-c, b]], E2 = 1 trace q/2 (index 2*E1 + E2)
        for omega, sign in zip((omega_0, omega_1), (1.0, -1.0)):
            block = [[a, sign * c], [sign * c, b]]
            np.testing.assert_allclose(omega[0::2, 0::2], block, rtol=0.0, atol=1e-15)
            assert np.trace(omega[1::2, 1::2]) == pytest.approx(q / 2.0, rel=0.0, abs=1e-15)
    else:
        # the diagonal, and c as the modulus of coherences of opposite sign
        np.testing.assert_allclose(omega_0.diagonal(), [a, b], rtol=0.0, atol=1e-15)
        assert c == pytest.approx(abs(omega_0[0, 1]), rel=0.0, abs=1e-15)
        assert omega_1[0, 1] == pytest.approx(-omega_0[0, 1], rel=0.0, abs=1e-15)


@pytest.mark.parametrize("q", [5e-324, 1e-320])
def test_dilation_keeps_the_coherence_at_subnormal_q(q):
    """The dilation's Pauli weight is 0.5 sqrt(q): with sqrt(0.25 q) the E1 coherence was 0."""
    spec = ChannelSpec(q, Scenario.E1_ONLY)
    omega_0, _ = basis_marginal_pair(spec)
    coherence = abs(omega_0[0, 1])
    assert coherence > 0.0
    assert coherence == pytest.approx(detection._warden_block(spec)[2], rel=1e-15, abs=0.0)


def test_e2only_marginals_identical_bitwise():
    omega_0, omega_1 = basis_marginal_pair(ChannelSpec(0.37, Scenario.E2_ONLY))
    assert np.array_equal(omega_0, omega_1)


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


def allenv_kernel(q):
    """ALL_ENV's omega_1 and the unit vector f that completes E0 to omega_0's kernel."""
    omega_0, omega_1 = basis_marginal_pair(ChannelSpec(q, Scenario.ALL_ENV))
    w, v = eig_hermitian(omega_0)
    kernel = v[:, ~_support_mask(w)]
    rest = kernel - np.outer(E0, E0.conj() @ kernel)  # the kernel with E0 projected out
    f = rest[:, np.argmax(np.linalg.norm(rest, axis=0))]
    return omega_0, omega_1, f / np.linalg.norm(f)


@pytest.mark.parametrize("q", [0.0, 0.2, 0.5, 0.8])
def test_allenv_null_vectors_span_the_kernel(q):
    omega_0, omega_1, f = allenv_kernel(q)
    # orthonormal
    assert np.vdot(E0, E0).real == pytest.approx(1.0, abs=1e-15)
    assert np.vdot(f, f).real == pytest.approx(1.0, abs=1e-15)
    assert abs(np.vdot(E0, f)) < 1e-15
    # annihilated by the innocent marginal
    assert np.linalg.norm(omega_0 @ E0) < 1e-15
    assert np.linalg.norm(omega_0 @ f) < 1e-15
    # overlap of the active marginal with the noise-independent kernel vector
    assert np.vdot(E0, omega_1 @ E0).real == pytest.approx(q / 2.0, abs=1e-14)


def test_allenv_second_kernel_vector_overlap():
    # <f| omega_1 |f> = q(1 - 3q/4)/(1 - q/2), the kernel overlap of ``scenario_reports``
    for q in (0.25, 0.5, 0.75):
        _, omega_1, f = allenv_kernel(q)
        expected = q * (1.0 - 0.75 * q) / (1.0 - 0.5 * q)
        assert np.vdot(f, omega_1 @ f).real == pytest.approx(expected, abs=1e-14)


@pytest.mark.parametrize("q", [0.25, 0.5, 0.75])
def test_support_report_all_env_impossible(q):
    rep = scenario_reports(q, [Scenario.ALL_ENV])[0]
    assert rep.verdict == "impossible"
    assert not rep.support_contained
    assert rep.kernel_overlap >= q / 2.0 - 1e-10
    assert rep.trace_dist > 0.0


@pytest.mark.parametrize("q", [0.25, 0.5, 0.75])
def test_support_report_e2_trivial(q):
    rep = scenario_reports(q, [Scenario.E2_ONLY])[0]
    assert rep.verdict == "trivial"
    assert rep.support_contained
    assert rep.trace_dist == 0.0


@pytest.mark.parametrize(
    "q,det", [(0.25, 7.0 / 128.0), (0.5, 3.0 / 32.0), (0.75, 15.0 / 128.0)]
)
def test_support_report_e1_nontrivial(q, det):
    """Both hypothesis states are full rank with determinant q(2-q)/8."""
    rep = scenario_reports(q, [Scenario.E1_ONLY])[0]
    assert rep.verdict == "nontrivial"
    assert rep.support_contained
    assert rep.trace_dist > 0.0
    assert rep.det_omega0 == pytest.approx(det, abs=1e-14)
    assert rep.det_omega1 == pytest.approx(det, abs=1e-14)


def test_support_report_boundaries_are_degenerate():
    for q in (0.0, -0.0, 1.0):
        for scenario in Scenario:
            rep = scenario_reports(q, [scenario])[0]
            assert rep.verdict == "degenerate"
            assert rep.note != ""
            # q = -0.0 is q = 0: no field is a signed zero
            fields = (rep.kernel_overlap, rep.trace_dist, rep.det_omega0, rep.det_omega1)
            assert all(math.copysign(1.0, x) == 1.0 for x in fields), rep


def test_scenario_reports_refuse_an_unknown_scenario_as_the_enum_does():
    for unknown in (0, 4, "1", 2.5):
        with pytest.raises(ValueError, match=rf"^{unknown!r} is not a valid Scenario$"):
            scenario_reports(0.5, [1, unknown])
