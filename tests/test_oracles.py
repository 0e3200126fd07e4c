"""Self-tests of the float64 oracles in ``oracles.py``, and the tie of its mpmath states to them."""

import math

import mpmath as mp
import numpy as np
import pytest

from oracles import (
    DPS,
    _e1_marginal,
    _mp_joint_output,
    e1only_marginal,
    eig_hermitian,
    joint_output_closed_form,
    matrix_log2,
    partial_trace,
    product_of_marginals,
    projector,
    relative_entropy,
    symmetric_power,
    tensor,
    tensor_power,
    trace_distance,
)

LN2 = math.log(2.0)


def classical_d(p, r):
    """Relative entropy in bits of commuting (diagonal) states, by a scalar sum over their eigenbasis."""
    return sum(pi * math.log2(pi / ri) for pi, ri in zip(p, r))


def random_density(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = g @ g.conj().T
    return m / m.trace()


def test_projector_is_idempotent():
    p = projector([0.6, 0.8j])
    np.testing.assert_allclose(p @ p, p, atol=1e-15)
    assert p.trace().real == pytest.approx(1.0, abs=1e-15)


def test_tensor_matches_kron():
    rng = np.random.default_rng(3)
    a = random_density(rng, 2)
    b = random_density(rng, 3)
    np.testing.assert_array_equal(tensor(a, b), np.kron(a, b))
    np.testing.assert_array_equal(tensor(a, b, a), np.kron(np.kron(a, b), a))


def test_tensor_power():
    rho = np.diag([0.25, 0.75]).astype(complex)
    np.testing.assert_array_equal(tensor_power(rho, 1), rho)
    assert tensor_power(rho, 3).shape == (8, 8)


def random_unitary(rng):
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    return np.linalg.qr(g)[0]


def test_symmetric_power_is_a_representation():
    rng = np.random.default_rng(11)
    for k in (0, 1, 2, 5, 12, 40):
        # products of unitaries and states keep every Sym^k entry of order 1
        a, b = random_unitary(rng), random_density(rng, 2)
        np.testing.assert_allclose(
            symmetric_power(a @ b, k), symmetric_power(a, k) @ symmetric_power(b, k),
            rtol=0.0, atol=1e-12,
        )
        np.testing.assert_array_equal(symmetric_power(np.eye(2), k), np.eye(k + 1))
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    np.testing.assert_array_equal(symmetric_power(a, 1), a)
    np.testing.assert_array_equal(symmetric_power(a, 0), [[1.0]])


def test_symmetric_power_is_the_symmetric_block_of_the_tensor_power():
    rng = np.random.default_rng(12)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    for k in (2, 3, 6):
        # column m of dicke is the normalized Dicke state with m ones
        ones = np.array([bin(i).count("1") for i in range(2**k)])
        dicke = (ones[:, None] == np.arange(k + 1)) / np.sqrt(
            [math.comb(k, m) for m in range(k + 1)]
        )
        np.testing.assert_allclose(
            symmetric_power(a, k), dicke.T @ tensor_power(a, k) @ dicke,
            rtol=1e-12, atol=1e-12 * np.linalg.norm(a, 2) ** k,
        )


def test_partial_trace_of_product_state():
    rng = np.random.default_rng(7)
    a = random_density(rng, 2)
    b = random_density(rng, 3)
    joint = np.kron(a, b)
    np.testing.assert_allclose(partial_trace(joint, [2, 3], [0]), a, atol=1e-14)
    np.testing.assert_allclose(partial_trace(joint, [2, 3], [1]), b, atol=1e-14)


def test_partial_trace_keeps_original_order():
    rng = np.random.default_rng(8)
    a = random_density(rng, 2)
    b = random_density(rng, 2)
    c = random_density(rng, 2)
    joint = np.kron(np.kron(a, b), c)
    # keep indices are a set; the kept factors stay in subsystem order
    np.testing.assert_allclose(
        partial_trace(joint, [2, 2, 2], [2, 0]), np.kron(a, c), atol=1e-14
    )


def test_partial_trace_preserves_trace():
    rng = np.random.default_rng(9)
    rho = random_density(rng, 8)
    reduced = partial_trace(rho, [2, 2, 2], [1])
    assert reduced.trace().real == pytest.approx(1.0, abs=1e-13)


def test_eig_hermitian_reconstructs():
    rng = np.random.default_rng(12)
    for dim in (2, 4, 7):
        rho = random_density(rng, dim)
        dec = eig_hermitian(rho)
        assert np.all(np.diff(dec.eigenvalues) <= 0.0)
        np.testing.assert_allclose(dec.reconstruct(), rho, atol=1e-12)
        # columns orthonormal
        gram = dec.eigenvectors.conj().T @ dec.eigenvectors
        np.testing.assert_allclose(gram, np.eye(dim), atol=1e-12)


def test_eig_hermitian_matches_eigvalsh():
    rng = np.random.default_rng(13)
    rho = random_density(rng, 5)
    ours = eig_hermitian(rho).eigenvalues
    ref = np.sort(np.linalg.eigvalsh(rho))[::-1]
    np.testing.assert_allclose(ours, ref, atol=1e-13)


def test_matrix_log2_diagonal():
    rho = np.diag([0.5, 0.25, 0.25]).astype(complex)
    expected = np.diag([-1.0, -2.0, -2.0])
    np.testing.assert_allclose(matrix_log2(rho), expected, atol=1e-14)


def test_matrix_log2_on_support_maps_kernel_to_zero():
    rho = np.diag([0.5, 0.5, 0.0]).astype(complex)
    out = matrix_log2(rho)
    np.testing.assert_allclose(out, np.diag([-1.0, -1.0, 0.0]), atol=1e-14)


def test_trace_distance_basic_values():
    zero = np.diag([1.0, 0.0]).astype(complex)
    one = np.diag([0.0, 1.0]).astype(complex)
    assert trace_distance(zero, zero) == 0.0  # identical inputs, exactly
    assert trace_distance(zero, one) == pytest.approx(1.0, abs=1e-15)
    # classical diagonal pair: half the l1 distance of the spectra
    p = np.diag([0.7, 0.3]).astype(complex)
    r = np.diag([0.4, 0.6]).astype(complex)
    assert trace_distance(p, r) == pytest.approx(0.3, abs=1e-15)


def test_trace_distance_symmetry():
    rng = np.random.default_rng(30)
    a = random_density(rng, 3)
    b = random_density(rng, 3)
    assert trace_distance(a, b) == pytest.approx(trace_distance(b, a), abs=1e-15)


def test_trace_distance_shape_check():
    with pytest.raises(ValueError):
        trace_distance(np.eye(2), np.eye(3))


def test_relative_entropy_of_identical_states_is_zero():
    rho = np.diag([0.3, 0.7]).astype(complex)
    assert relative_entropy(rho, rho) == 0.0


def test_relative_entropy_classical_pair():
    p, r = (0.3, 0.7), (0.6, 0.4)
    expected = classical_d(p, r)
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


def _float64(m):
    """An mpmath matrix rounded entrywise to a complex128 array."""
    return np.array([[complex(x) for x in row] for row in m.tolist()])


@pytest.mark.parametrize("alpha, q", [(0.0, 0.5), (1e-12, 1e-9), (1e-3, 0.3), (0.2, 0.9),
                                      (0.7, 1.0 - 1e-9), (1.0, 0.5)])
def test_mp_states_round_to_the_float64_states(alpha, q):
    """``mp_dvq``'s and the mpmath warden's states are the dense float64 ones at more digits.

    ``e1only_marginal`` is a partial trace of the channel's Stinespring
    dilation, and ``test_covert.py`` ties the joint output and the product
    of its marginals to it; this ties the mpmath references to them, entry
    by entry within a few roundings and structural zeros exactly.
    """
    with mp.workdps(DPS):
        rho, sigma = _mp_joint_output(alpha, q)
        omega = _e1_marginal(mp.mpf(alpha), mp.mpf(q))
    for exact, dense in ((rho, joint_output_closed_form(alpha, q)),
                         (sigma, product_of_marginals(alpha, q)),
                         (omega, e1only_marginal(alpha, q))):
        np.testing.assert_allclose(dense, _float64(exact), rtol=1e-15, atol=0.0)
