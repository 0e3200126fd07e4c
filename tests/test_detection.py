import math
import time

import numpy as np
import pytest

from qcovert import detection
from qcovert.channels import ChannelSpec, Scenario, basis_marginal_pair
from qcovert.covert import ScheduleParams
from qcovert.detection import (
    MAX_USES,
    MAX_USES_ALLENV,
    covertness_sweep,
    pinsker_floor,
    warden_error,
)
from qcovert.divergences import relative_entropy
from qcovert.linalg import tensor_power, trace_distance

LN2 = math.log(2.0)

E1_SPEC = ChannelSpec(0.5, Scenario.E1_ONLY)


def root_fidelity(rho, sigma):
    """||sqrt(rho) sqrt(sigma)||_1 from eigendecompositions of both states."""
    def sqrt_psd(a):
        w, v = np.linalg.eigh(a)
        return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T

    return float(np.sum(np.linalg.svd(sqrt_psd(rho) @ sqrt_psd(sigma), compute_uv=False)))


def test_pinsker_floor_values():
    assert pinsker_floor(0.0) == 0.5
    d = 0.08
    assert pinsker_floor(d) == pytest.approx(0.5 * (1.0 - math.sqrt(LN2 * d / 2.0)))
    assert pinsker_floor(10.0) < 0.0  # large budgets push the bound below zero
    with pytest.raises(ValueError):
        pinsker_floor(-1e-3)


@pytest.mark.parametrize("scenario", list(Scenario))
@pytest.mark.parametrize("n", [1, 2])
def test_null_input_gives_exactly_half(scenario, n):
    result = warden_error(n, 0.0, ChannelSpec(0.5, scenario))
    assert result.error_prob == 0.5
    assert result.trace_dist == 0.0
    assert result.div_total == 0.0


def test_warden_error_matches_direct_computation():
    n, alpha = 2, 0.3
    omega_0, omega_1 = basis_marginal_pair(E1_SPEC)
    omega_a = (1.0 - alpha) * omega_0 + alpha * omega_1
    diff = tensor_power(omega_a, n) - tensor_power(omega_0, n)
    dist = 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(diff))))
    result = warden_error(n, alpha, E1_SPEC)
    assert result.trace_dist == pytest.approx(dist, abs=1e-14)
    assert result.error_prob == pytest.approx(0.5 * (1.0 - dist), abs=1e-14)


def test_divergence_budget_is_additive():
    """n * D for one use equals the divergence of the n-copy pair."""
    alpha = 0.4
    omega_0, omega_1 = basis_marginal_pair(E1_SPEC)
    omega_a = (1.0 - alpha) * omega_0 + alpha * omega_1
    joint = relative_entropy(tensor_power(omega_a, 3), tensor_power(omega_0, 3))
    result = warden_error(3, alpha, E1_SPEC)
    assert result.div_total == pytest.approx(joint, abs=1e-11)
    assert result.div_total == pytest.approx(
        3.0 * relative_entropy(omega_a, omega_0), rel=1e-14
    )


def test_error_never_below_pinsker_floor():
    rng = np.random.default_rng(2)
    for _ in range(20):
        alpha = rng.uniform(0.0, 1.0)
        n = int(rng.integers(1, 6))
        r = warden_error(n, alpha, E1_SPEC)
        assert r.error_prob >= r.pinsker_floor - 1e-12


def test_all_env_divergence_is_infinite():
    # support escape: the budget blows up while the error itself stays sane
    r = warden_error(2, 0.3, ChannelSpec(0.5, Scenario.ALL_ENV))
    assert r.div_total == math.inf
    assert r.pinsker_floor == -math.inf
    assert 0.0 < r.error_prob < 0.5


def test_all_env_warden_detects_faster():
    # watching the whole environment strictly beats watching one qubit of it
    for n in (1, 2, 3):
        full = warden_error(n, 0.5, ChannelSpec(0.5, Scenario.ALL_ENV))
        part = warden_error(n, 0.5, E1_SPEC)
        assert full.error_prob < part.error_prob


def test_use_caps_and_validation():
    with pytest.raises(ValueError):
        warden_error(MAX_USES + 1, 0.1, E1_SPEC)
    with pytest.raises(ValueError):
        warden_error(MAX_USES_ALLENV + 1, 0.1, ChannelSpec(0.5, Scenario.ALL_ENV))
    with pytest.raises(ValueError):
        warden_error(0, 0.1, E1_SPEC)
    with pytest.raises(ValueError):
        warden_error(2, 1.1, E1_SPEC)
    # the all-env cap is tighter because the per-use dimension is 4, not 2
    assert warden_error(MAX_USES_ALLENV, 0.0, ChannelSpec(0.5, Scenario.ALL_ENV)).n == 5


def test_covertness_sweep_follows_schedule():
    results = covertness_sweep(0.05, 0.5, [1, 2, 4])
    assert [r.n for r in results] == [1, 2, 4]
    for r in results:
        assert r.alpha == pytest.approx(ScheduleParams(r.n, 0.05).alpha_n, rel=1e-14)
        assert r.error_prob >= r.pinsker_floor - 1e-12
    # scheduled weight decreases with blocklength
    alphas = [r.alpha for r in results]
    assert alphas == sorted(alphas, reverse=True)


def test_covertness_sweep_validation():
    with pytest.raises(ValueError):
        covertness_sweep(0.5, 0.5, [1, 2])  # exponent outside the schedule range
    with pytest.raises(ValueError):
        covertness_sweep(0.05, 1.5, [1, 2])


@pytest.mark.parametrize("alpha", [0.1, 0.3, 1.0 / 3.0, 0.7, 0.9, 1.0])
@pytest.mark.parametrize("n", [1, 4, MAX_USES])
def test_trivial_scenario_is_exactly_blind(alpha, n):
    # omega_1 == omega_0 in E2_ONLY; a rounded mixture of the two used to
    # give a -2e-16 divergence that the Pinsker floor rejected as bad input
    r = warden_error(n, alpha, ChannelSpec(0.4, Scenario.E2_ONLY))
    assert r.trace_dist == 0.0
    assert r.error_prob == 0.5
    assert r.div_total == 0.0
    assert r.pinsker_floor == 0.5


def _oracle_alphas(rng, n):
    return [0.0, 1.0, ScheduleParams(n, 0.05).alpha_n, rng.uniform(0.0, 1.0)]


@pytest.mark.parametrize(
    "scenario, cap",
    [(Scenario.E1_ONLY, 10), (Scenario.E2_ONLY, 10), (Scenario.ALL_ENV, 5)],
    ids=["E1_ONLY", "E2_ONLY", "ALL_ENV"],
)
def test_block_route_matches_dense_oracle(scenario, cap):
    """Block-route T against the dense Kronecker power and full eigensolve."""
    rng = np.random.default_rng(41 + int(scenario))
    for n in range(1, cap + 1):
        spec = ChannelSpec(rng.uniform(0.01, 0.99), scenario)
        omega_0, omega_1 = basis_marginal_pair(spec)
        dense_0 = tensor_power(omega_0, n)
        for alpha in _oracle_alphas(rng, n):
            omega_a = (1.0 - alpha) * omega_0 + alpha * omega_1
            dense = trace_distance(tensor_power(omega_a, n), dense_0)
            assert warden_error(n, alpha, spec).trace_dist == pytest.approx(dense, abs=1e-12)


def test_all_env_marginals_split_exactly_over_e2():
    """Entries between the E2 = 0 and E2 = 1 blocks (index 2*E1 + E2) are exact zeros."""
    rng = np.random.default_rng(5)
    for q in rng.uniform(0.01, 0.99, size=8):
        omega_0, omega_1 = basis_marginal_pair(ChannelSpec(q, Scenario.ALL_ENV))
        alpha = rng.uniform(0.0, 1.0)
        for omega in (omega_0, omega_1, (1.0 - alpha) * omega_0 + alpha * omega_1):
            assert not np.any(omega[0::2, 1::2])
            assert not np.any(omega[1::2, 0::2])


def test_all_env_cross_entries_are_verified(monkeypatch):
    omega_0, omega_1 = basis_marginal_pair(ChannelSpec(0.5, Scenario.ALL_ENV))
    leaky = omega_1.copy()
    leaky[0, 1] = leaky[1, 0] = 1e-300
    monkeypatch.setattr(detection, "basis_marginal_pair", lambda spec: (omega_0, leaky))
    with pytest.raises(ArithmeticError):
        warden_error(2, 0.3, ChannelSpec(0.5, Scenario.ALL_ENV))


def test_e1_at_the_use_cap_obeys_fidelity_bounds():
    n = MAX_USES
    alpha = ScheduleParams(n, 0.05).alpha_n
    start = time.perf_counter()
    r = warden_error(n, alpha, E1_SPEC)
    elapsed = time.perf_counter() - start
    omega_0, omega_1 = basis_marginal_pair(E1_SPEC)
    fid = root_fidelity((1.0 - alpha) * omega_0 + alpha * omega_1, omega_0)
    assert r.error_prob >= r.pinsker_floor
    # Fuchs-van de Graaf with the multiplicative n-copy fidelity fid**n
    assert 1.0 - fid**n <= r.trace_dist <= math.sqrt(1.0 - fid ** (2 * n))
    assert elapsed < 2.0
