import math
import time

import mpmath as mp
import numpy as np
import pytest

from oracles import (
    allenv_reference,
    basis_marginal_pair,
    mp_allenv_distances,
    relative_entropy,
    root_fidelity,
    symmetric_power,
    tensor_power,
    trace_distance,
)
from qcovert import cli, detection
from qcovert.channels import ChannelSpec, Scenario
from qcovert.covert import schedule_weights
from qcovert.detection import MAX_USES, MAX_USES_ALLENV, _pinsker_floor, warden_errors

LN2 = math.log(2.0)

E1_SPEC = ChannelSpec(0.5, Scenario.E1_ONLY)


def test_pinsker_floor_values():
    assert _pinsker_floor(0.0) == 0.5
    d = 0.08
    assert _pinsker_floor(d) == pytest.approx(0.5 * (1.0 - math.sqrt(LN2 * d / 2.0)))
    assert _pinsker_floor(10.0) < 0.0  # large budgets push the bound below zero


@pytest.mark.parametrize("scenario", list(Scenario))
@pytest.mark.parametrize("n", [1, 2])
def test_null_input_gives_exactly_half(scenario, n):
    result = warden_errors([n], [0.0], ChannelSpec(0.5, scenario))[0]
    assert result.error_prob == 0.5
    assert result.trace_dist == 0.0
    assert result.div_total == 0.0


def test_warden_error_matches_direct_computation():
    n, alpha = 2, 0.3
    omega_0, omega_1 = basis_marginal_pair(E1_SPEC)
    omega_a = (1.0 - alpha) * omega_0 + alpha * omega_1
    diff = tensor_power(omega_a, n) - tensor_power(omega_0, n)
    dist = 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(diff))))
    result = warden_errors([n], [alpha], E1_SPEC)[0]
    assert result.trace_dist == pytest.approx(dist, abs=1e-14)
    assert result.error_prob == pytest.approx(0.5 * (1.0 - dist), abs=1e-14)


def test_divergence_budget_is_additive():
    """n * D for one use equals the divergence of the n-copy pair."""
    alpha = 0.4
    omega_0, omega_1 = basis_marginal_pair(E1_SPEC)
    omega_a = (1.0 - alpha) * omega_0 + alpha * omega_1
    joint = relative_entropy(tensor_power(omega_a, 3), tensor_power(omega_0, 3))
    result = warden_errors([3], [alpha], E1_SPEC)[0]
    assert result.div_total == pytest.approx(joint, abs=1e-11)
    assert result.div_total == pytest.approx(
        3.0 * relative_entropy(omega_a, omega_0), rel=1e-14
    )


def test_error_never_below_pinsker_floor():
    rng = np.random.default_rng(2)
    for _ in range(20):
        alpha = rng.uniform(0.0, 1.0)
        n = int(rng.integers(1, 6))
        r = warden_errors([n], [alpha], E1_SPEC)[0]
        assert r.error_prob >= r.pinsker_floor - 1e-12


def test_all_env_divergence_is_infinite():
    # support escape: the budget blows up while the error itself stays sane
    r = warden_errors([2], [0.3], ChannelSpec(0.5, Scenario.ALL_ENV))[0]
    assert r.div_total == math.inf
    assert r.pinsker_floor == -math.inf
    assert 0.0 < r.error_prob < 0.5


def test_all_env_warden_detects_faster():
    # watching the whole environment strictly beats watching one qubit of it
    for n in (1, 2, 3):
        full = warden_errors([n], [0.5], ChannelSpec(0.5, Scenario.ALL_ENV))[0]
        part = warden_errors([n], [0.5], E1_SPEC)[0]
        assert full.error_prob < part.error_prob


def test_use_caps_and_validation():
    with pytest.raises(ValueError):
        warden_errors([MAX_USES + 1], [0.1], E1_SPEC)
    with pytest.raises(ValueError):
        warden_errors([MAX_USES_ALLENV + 1], [0.1], ChannelSpec(0.5, Scenario.ALL_ENV))
    with pytest.raises(ValueError):
        warden_errors([0], [0.1], E1_SPEC)
    with pytest.raises(ValueError):
        warden_errors([2], [1.1], E1_SPEC)
    # the all-env cap is as far as its secular-equation route is audited (test_accuracy.py)
    assert MAX_USES_ALLENV == 30
    r = warden_errors([MAX_USES_ALLENV], [0.3], ChannelSpec(0.5, Scenario.ALL_ENV))[0]
    assert r.n == 30 and 0.0 < r.error_prob < 0.5


def test_covertness_sweep_follows_schedule():
    ns = [1, 2, 4]
    results = warden_errors(ns, schedule_weights(ns, 0.05), E1_SPEC)
    assert [r.n for r in results] == [1, 2, 4]
    for r in results:
        assert r.alpha == pytest.approx(r.n ** (0.05 - 2.0 / 3.0), rel=1e-14)
        assert r.error_prob >= r.pinsker_floor - 1e-12
    # scheduled weight decreases with blocklength
    alphas = [r.alpha for r in results]
    assert alphas == sorted(alphas, reverse=True)


def test_covertness_sweep_validation():
    # a sweep's inputs are checked where they are built: the schedule, the channel, the table
    with pytest.raises(ValueError):
        list(schedule_weights([1], 0.5))  # exponent outside the schedule range
    with pytest.raises(ValueError):
        ChannelSpec(1.5, Scenario.E1_ONLY)
    with pytest.raises(ValueError):
        warden_errors([1, 2], [0.1], E1_SPEC)


@pytest.mark.parametrize("alpha", [0.1, 0.3, 1.0 / 3.0, 0.7, 0.9, 1.0])
@pytest.mark.parametrize("n", [1, 4, MAX_USES])
def test_trivial_scenario_is_exactly_blind(alpha, n):
    # omega_1 == omega_0 in E2_ONLY; a rounded mixture of the two used to
    # give a -2e-16 divergence that the Pinsker floor rejected as bad input
    r = warden_errors([n], [alpha], ChannelSpec(0.4, Scenario.E2_ONLY))[0]
    assert r.trace_dist == 0.0
    assert r.error_prob == 0.5
    assert r.div_total == 0.0
    assert r.pinsker_floor == 0.5


def _oracle_alphas(rng, n):
    return [0.0, 1.0, *schedule_weights([n], 0.05), rng.uniform(0.0, 1.0)]


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
            assert warden_errors([n], [alpha], spec)[0].trace_dist == pytest.approx(dense, abs=1e-12)


def test_all_env_marginals_split_exactly_over_e2():
    """Entries between the E2 = 0 and E2 = 1 blocks (index 2*E1 + E2) are exact zeros."""
    rng = np.random.default_rng(5)
    for q in rng.uniform(0.01, 0.99, size=8):
        omega_0, omega_1 = basis_marginal_pair(ChannelSpec(q, Scenario.ALL_ENV))
        alpha = rng.uniform(0.0, 1.0)
        for omega in (omega_0, omega_1, (1.0 - alpha) * omega_0 + alpha * omega_1):
            assert not np.any(omega[0::2, 1::2])
            assert not np.any(omega[1::2, 0::2])


@pytest.mark.parametrize("q", [0.0, 5e-324, 1e-320, 1e-300, 1e-6, 0.5, 1.0])
def test_warden_block_matches_the_marginals(q):
    """The real block (a, b, c) that ``warden_errors`` runs on, at the edges of q.

    c is checked against 50 digits, also at subnormal q; the entries
    against the dilation are checked in
    ``test_channels.py::test_closed_form_marginals_match_dilation``.
    """
    for scenario in Scenario:
        c = detection._warden_block(ChannelSpec(q, scenario))[2]
        if scenario is not Scenario.E2_ONLY:
            weight = mp.mpf(3) / 4 if scenario is Scenario.ALL_ENV else mp.mpf(1) / 2
            with mp.workdps(50):
                exact = mp.sqrt(q) / 2 * mp.sqrt(1 - weight * q)
            assert c == pytest.approx(float(exact), rel=1e-15, abs=0.0)
        # c == 0 is the blind rule; near q = 0 the order of c's factors decides it
        assert (c == 0.0) == (scenario is Scenario.E2_ONLY or q == 0.0)


def test_e1_at_the_use_cap_obeys_fidelity_bounds():
    n = MAX_USES
    (alpha,) = schedule_weights([n], 0.05)
    start = time.perf_counter()
    r = warden_errors([n], [alpha], E1_SPEC)[0]
    elapsed = time.perf_counter() - start
    omega_0, omega_1 = basis_marginal_pair(E1_SPEC)
    fid = root_fidelity((1.0 - alpha) * omega_0 + alpha * omega_1, omega_0)
    assert r.error_prob >= r.pinsker_floor
    # Fuchs-van de Graaf with the multiplicative n-copy fidelity fid**n
    assert 1.0 - fid**n <= r.trace_dist <= math.sqrt(1.0 - fid ** (2 * n))
    assert elapsed < 2.0


@pytest.mark.parametrize(
    "scenario, ns",
    [(Scenario.E1_ONLY, [3, 10, 1, 7, 2, 10]), (Scenario.ALL_ENV, [1, 3, 5, 2, 4, 5])],
    ids=["E1_ONLY", "ALL_ENV"],
)
def test_table_rows_do_not_depend_on_their_neighbours(scenario, ns):
    # rows of small n come first, so a block order taken from the table
    # (rather than fixed per shape) would change the larger rows' sums
    rng = np.random.default_rng(17)
    spec = ChannelSpec(0.9157811524513488, scenario)
    alphas = [float(a) for a in 10.0 ** rng.uniform(-15, 0, size=len(ns))]
    table = detection.warden_errors(ns, alphas, spec)
    assert table == [warden_errors([n], [a], spec)[0] for n, a in zip(ns, alphas)]
    assert detection.warden_errors(ns[::-1], alphas[::-1], spec) == table[::-1]


@pytest.mark.parametrize(
    "scenario, ns",
    [(Scenario.E1_ONLY, [100, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 99, 100, 4]),
     (Scenario.ALL_ENV, [1, 2, 3, 4, 5, 5, 3, 1])],
    ids=["E1_ONLY", "ALL_ENV"],
)
def test_streamed_chunks_leave_every_row_bit_identical(scenario, ns, monkeypatch):
    # rows are sorted by n, cut into chunks and streamed degree by degree;
    # none of that may move a row's T by one bit
    rng = np.random.default_rng(23)
    spec = ChannelSpec(0.775748, scenario)
    alphas = [1.0, 1e-15] + [float(a) for a in 10.0 ** rng.uniform(-15, 0, size=len(ns) - 2)]
    table = [r.trace_dist for r in detection.warden_errors(ns, alphas, spec)]
    assert table == [warden_errors([n], [a], spec)[0].trace_dist for n, a in zip(ns, alphas)]
    order = rng.permutation(len(ns))
    for rows_per_chunk in (2, 1):  # one row a chunk: slot 0 with a single live row
        monkeypatch.setattr(detection, "CHUNK_ENTRIES", rows_per_chunk * (max(ns) + 1) ** 2)
        shuffled = detection.warden_errors([ns[i] for i in order], [alphas[i] for i in order], spec)
        assert [r.trace_dist for r in shuffled] == [table[i] for i in order]


@pytest.mark.parametrize("q", [1e-6, 0.5, 1.0])
def test_fused_step_carries_every_slot_on_its_own_block(q):
    # slot 0 of each degree's stack is Sym^k(omega_0), slot 1 + i row i's
    # difference Sym^k(omega_a) - Sym^k(omega_0); rows leave the stack
    # once k passes their n
    block = detection._warden_block(ChannelSpec(q, Scenario.E1_ONLY))
    a, b, c = block
    ns = np.array([9, 7, 7, 4, 2, 1])
    alphas = np.array([1e-15, 0.3, 1.0, 0.3, 1.0, 1e-15])
    omega_0 = np.array([[a, c], [c, b]])
    delta = np.array([[0.0, -2.0 * c], [-2.0 * c, 0.0]])
    levels = list(detection._sym_levels(block, alphas, ns))
    assert len(levels) == ns[0] + 1
    for k, stack in enumerate(levels):
        assert stack.shape == (1 + np.count_nonzero(ns >= k), k + 1, k + 1)
        assert np.array_equal(stack[0], symmetric_power(omega_0, k))
        for diff, alpha in zip(stack[1:], alphas):
            sym_a = symmetric_power(omega_0 + alpha * delta, k)
            np.testing.assert_allclose(stack[0] + diff, sym_a, rtol=0.0,
                                       atol=1e-14 * np.linalg.norm(sym_a, 2))


@pytest.mark.parametrize("q", [0.99, 0.999, 1.0])
def test_saturated_trace_distance_stays_a_probability(q):
    # at alpha = 1 and q near 1, T is within an ulp or two of 1, and the
    # block sum can round past it
    for scenario, n in ((Scenario.ALL_ENV, MAX_USES_ALLENV), (Scenario.E1_ONLY, MAX_USES)):
        try:
            r = warden_errors([n], [1.0], ChannelSpec(q, scenario))[0]
        except ArithmeticError as exc:
            # E1's E = (1 - T)/2 has no relative accuracy this close to T = 1;
            # a row whose E fell below the Fuchs-van de Graaf floor is refused
            assert scenario is Scenario.E1_ONLY and "Fuchs-van de Graaf" in str(exc)
            continue
        assert 0.0 < r.trace_dist <= 1.0
        if scenario is Scenario.E1_ONLY:
            assert detection._fidelity_floor(n, 1.0, q * (1.0 - 0.5 * q)) <= r.error_prob < 0.5
            continue
        # ALL_ENV's E is its own sum of positive terms: relative accuracy (the
        # stated bound of test_accuracy.py) down to 1e-172, and an exact 0 at
        # q = 1, where the states are orthogonal
        error = allenv_reference()[n, q, 1.0][1]
        if error == 0:
            assert r.error_prob == 0.0
        else:
            assert r.error_prob == pytest.approx(float(error), rel=1e-13, abs=0.0)


def test_all_env_error_near_orthogonal_states_is_not_printed_as_zero(tmp_path):
    # (1 - T)/2 printed 0 here with exit 0; the true E is 7.96012e-30
    path = tmp_path / "saturated.csv"
    argv = ["detect-sim", "--scenario", "1", "--n-grid", "5", "--alpha-grid", "1", "--q", "0.999"]
    assert cli.main(argv + ["--out", str(path)]) == 0
    header, row = path.read_text().splitlines()
    printed = float(dict(zip(header.split(","), row.split(",")))["E_n"])
    ((_, error),) = mp_allenv_distances(5, [1.0], 0.999)
    assert printed == pytest.approx(float(error), rel=1e-11, abs=0.0)
    assert printed == pytest.approx(7.96012e-30, rel=1e-6)


def test_all_env_table_makes_no_eigensolve_and_no_degree_step(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("ALL_ENV rows need no matrix")

    monkeypatch.setattr(np.linalg, "eigvalsh", forbidden)
    monkeypatch.setattr(detection, "_sym_levels", forbidden)
    ns = list(range(1, MAX_USES_ALLENV + 1))
    rows = warden_errors(ns, [0.3] * len(ns), ChannelSpec(0.5, Scenario.ALL_ENV))
    assert all(0.0 < r.trace_dist < 1.0 and 0.0 < r.error_prob < 0.5 for r in rows)
    with pytest.raises(AssertionError):
        warden_errors([2], [0.3], E1_SPEC)  # the E1 route still takes both


def test_secular_root_is_the_smallest_eigenvalue():
    """-s is the smallest eigenvalue of diag(d) - w w^T, d_0 >= d_j >= 0, w_0^2 - d_0 = base."""
    rng = np.random.default_rng(29)
    for m in range(1, 9):
        for _ in range(25):
            d = np.sort(10.0 ** rng.uniform(-6, 0, size=m + 1))[::-1]
            w = 10.0 ** rng.uniform(-4, 0, size=m + 1)
            low = np.linalg.eigvalsh(np.diag(d) - np.outer(w, w))[0]
            if low >= 0.0:
                continue  # sum_j w_j^2/d_j <= 1: no negative eigenvalue to find
            s, rest = detection._secular_root(w[0] ** 2 - d[0], d[0], list(w[1:]), list(d[1:]))
            # eigvalsh is accurate to about eps times the matrix norm
            assert s == pytest.approx(-low, rel=1e-12, abs=1e-14 * (d[0] + w @ w)), (d, w)
            assert rest == pytest.approx(np.sum(w[1:] ** 2 * d[1:] / (d[1:] + s)), rel=1e-12)


def test_e1_table_makes_one_eigvalsh_per_degree_with_rows(monkeypatch):
    shapes = []
    eigvalsh = np.linalg.eigvalsh

    def counted(blocks):
        shapes.append(blocks.shape)
        return eigvalsh(blocks)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    warden_errors([2, 9, 6, 1, 6], [0.5, 0.3, 1e-9, 0.7, 1.0], E1_SPEC)
    # the odd rows 9, 1 have blocks at degrees 1, 3, 5, 7, 9 and the even rows
    # 6, 6, 2 at 0, 2, 4, 6; degree 8 has none
    assert shapes == [(3, 1, 1), (2, 2, 2), (3, 3, 3), (1, 4, 4), (2, 5, 5), (1, 6, 6),
                      (2, 7, 7), (1, 8, 8), (1, 10, 10)]


@pytest.mark.parametrize("q", [0.05, 0.5, 0.9, 1.0])
def test_fidelity_floor_matches_the_dense_root_fidelity(q):
    # (1 - sqrt(1 - F^(2n)))/2 with F from the dense states; written as
    # F^(2n) / (2 (1 + sqrt(1 - F^(2n)))) so that it holds at 2e-31 too
    omega_0, omega_1 = basis_marginal_pair(ChannelSpec(q, Scenario.E1_ONLY))
    for alpha in (0.05, 0.3, 0.5, 0.7, 1.0):
        fid = root_fidelity((1.0 - alpha) * omega_0 + alpha * omega_1, omega_0)
        for n in (1, 10, MAX_USES):
            power = fid ** (2 * n)
            want = power / (2.0 * (1.0 + math.sqrt(1.0 - power)))
            got = detection._fidelity_floor(n, alpha, q * (1.0 - 0.5 * q))
            assert got == pytest.approx(want, rel=1e-12, abs=0.0), (alpha, n)
