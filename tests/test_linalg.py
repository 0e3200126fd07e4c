import math

import numpy as np
import pytest

from oracles import (
    DIM_CAP,
    density_operator,
    eig_hermitian,
    hermitian_operator,
    matrix_log2,
    monomial_step,
    order_eigensystem,
    partial_trace,
    projector,
    pure_state,
    symmetric_power,
    tensor,
    tensor_power,
    trace_distance,
)
from qcovert.linalg import dicke_scaling


def random_density(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = g @ g.conj().T
    return m / m.trace()


def test_hermitian_operator_accepts_and_casts():
    out = hermitian_operator([[1.0, 2.0], [2.0, -1.0]])
    assert out.dtype == np.complex128
    assert out.shape == (2, 2)


def test_hermitian_operator_rejections():
    with pytest.raises(ValueError):
        hermitian_operator(np.ones((2, 3)))
    with pytest.raises(ValueError):
        hermitian_operator([[0.0, 1.0], [0.0, 0.0]])  # not Hermitian
    with pytest.raises(ValueError):
        hermitian_operator([[np.nan, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        hermitian_operator([[0.0, 1.0j], [1.0j, 0.0]])  # anti-Hermitian off-diagonal


def test_density_operator_rejections():
    with pytest.raises(ValueError):
        density_operator(np.eye(2))  # trace 2
    with pytest.raises(ValueError):
        density_operator(np.diag([1.5, -0.5]))  # negative eigenvalue


def test_density_operator_tolerates_tiny_negativity():
    rho = np.diag([1.0 + 1e-12, -1e-12])
    assert density_operator(rho).shape == (2, 2)


def test_pure_state_norm_check():
    v = pure_state([1.0 / math.sqrt(2.0), 1.0j / math.sqrt(2.0)])
    assert v.dtype == np.complex128
    with pytest.raises(ValueError):
        pure_state([1.0, 1.0])
    with pytest.raises(ValueError):
        pure_state([[1.0], [0.0]])


def test_projector_is_idempotent():
    v = pure_state([0.6, 0.8j])
    p = projector(v)
    np.testing.assert_allclose(p @ p, p, atol=1e-15)
    assert p.trace().real == pytest.approx(1.0, abs=1e-15)


def test_tensor_matches_kron():
    rng = np.random.default_rng(3)
    a = random_density(rng, 2)
    b = random_density(rng, 3)
    np.testing.assert_array_equal(tensor(a, b), np.kron(a, b))
    np.testing.assert_array_equal(tensor(a, b, a), np.kron(np.kron(a, b), a))


def test_tensor_dimension_cap():
    big = np.eye(64)
    assert tensor(big, big).shape == (DIM_CAP, DIM_CAP)
    with pytest.raises(ValueError):
        tensor(big, big, np.eye(2))
    with pytest.raises(ValueError):
        tensor()


def test_tensor_power():
    rho = np.diag([0.25, 0.75]).astype(complex)
    np.testing.assert_array_equal(tensor_power(rho, 1), rho)
    assert tensor_power(rho, 3).shape == (8, 8)
    with pytest.raises(ValueError):
        tensor_power(rho, 0)


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
    with pytest.raises(ValueError):
        symmetric_power(np.eye(3), 2)
    with pytest.raises(ValueError):
        symmetric_power(a, -1)


def test_monomial_step_broadcasts_over_stacked_matrices():
    rng = np.random.default_rng(13)
    a = rng.normal(size=(4, 2, 2)) + 1j * rng.normal(size=(4, 2, 2))
    mono = np.ones((1, 1), dtype=np.complex128)
    stacked = [mono]
    for _ in range(5):
        stacked.append(monomial_step(a, stacked[-1]))
    for i in range(4):
        np.testing.assert_allclose(stacked[-1][i] * dicke_scaling(5), symmetric_power(a[i], 5),
                                   rtol=0.0, atol=1e-13 * np.linalg.norm(a[i], 2) ** 5)
    assert not dicke_scaling(5).flags.writeable


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


def test_partial_trace_rejections():
    with pytest.raises(ValueError):
        partial_trace(np.eye(4), [2, 3], [0])  # dims do not multiply to 4
    with pytest.raises(ValueError):
        partial_trace(np.eye(4), [2, 2], [2])  # keep index out of range
    with pytest.raises(ValueError):
        partial_trace(np.eye(4), [2, 2], [])


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


def test_order_eigensystem_phase_convention():
    """Leading significant entry of each eigenvector is rotated real positive."""
    w = [1.0, 0.5]
    v = np.array([[1j, 0.0], [0.0, -1.0]], dtype=complex)
    dec = order_eigensystem(w, v)
    assert dec.eigenvectors[0, 0] == pytest.approx(1.0)
    assert dec.eigenvectors[1, 1] == pytest.approx(1.0)


def test_order_eigensystem_is_deterministic_under_ties():
    # fully degenerate spectrum: columns are reordered lexicographically,
    # so any permutation of the same basis gives the same output
    v = np.eye(3, dtype=complex)
    shuffled = v[:, [2, 0, 1]]
    a = order_eigensystem([1.0, 1.0, 1.0], v)
    b = order_eigensystem([1.0, 1.0, 1.0], shuffled)
    np.testing.assert_array_equal(a.eigenvectors, b.eigenvectors)
    np.testing.assert_array_equal(a.eigenvalues, b.eigenvalues)


def test_matrix_log2_diagonal():
    rho = np.diag([0.5, 0.25, 0.25]).astype(complex)
    expected = np.diag([-1.0, -2.0, -2.0])
    np.testing.assert_allclose(matrix_log2(rho), expected, atol=1e-14)


def test_matrix_log2_on_support_maps_kernel_to_zero():
    rho = np.diag([0.5, 0.5, 0.0]).astype(complex)
    out = matrix_log2(rho)
    np.testing.assert_allclose(out, np.diag([-1.0, -1.0, 0.0]), atol=1e-14)


def test_matrix_log2_rejects_negative_eigenvalue():
    with pytest.raises(ValueError):
        matrix_log2(np.diag([1.5, -0.5]))  # genuinely negative eigenvalue


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
