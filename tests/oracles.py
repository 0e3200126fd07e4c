"""Reference implementations the tests compare the library against.

None of these is used by the library itself.  The float64 ones take the
states they are given as valid, unchecked: every caller is a test that
builds them.  These kinds live here:

* The ground truth of the states: the depolarizing channel (``depolarize``
  and its Pauli-twirl form), its Stinespring isometry and dilated output,
  and the warden marginal ``willie_marginal`` by ``partial_trace``, with
  the dense warden states built from it (``basis_marginal_pair``,
  ``e1only_marginal``); the entangled input, the arrow-matrix joint output
  with its parameters (``arrow_params``), the product of its marginals and
  the arrow matrix's closed-form spectral decomposition (``arrow_spectral``).
* Dense double-precision linear algebra on those states: the eigensolver
  ``eig_hermitian`` (numpy's, eigenvalues descending) with the support
  rule, the ``trace_distance`` and ``root_fidelity``, ``projector``,
  Kronecker ``tensor`` and ``tensor_power`` (the 2^n-dimensional n-use
  states), ``symmetric_power`` of one 2x2 matrix by the degree step
  ``monomial_step`` (which ``detection`` runs fused over a stack of
  blocks) and the operator logarithm ``matrix_log2``.
* The dense double-precision ``relative_entropy`` from operator
  logarithms, the generic route that the warden divergence's scalar closed
  form in ``qcovert.covert`` replaced.
* mpmath references at ``DPS`` digits (more where a value is tiny): the
  joint-output moments D, V, Q (``mp_dvq``, on the joint output and the
  product of its marginals built by ``_mp_joint_output``), the E1 warden's
  single-use divergence and its curvature, each from a high-precision
  eigendecomposition of the dense matrices, so none shares a formula with
  the closed forms it checks; the fields of a scenario report
  (``mp_support_fields``); the standard normal quantile from mpmath's
  ``erfinv`` (``mp_normal_quantile``); the warden's n-use trace distance
  as a Schur-Weyl block sum (``mp_warden_trace_distances``), and ALL_ENV's
  T and error probability from one reduced block per sector
  (``mp_allenv_distances``), whose values on ``ALLENV_GRID`` are committed
  (``write_allenv_reference``), as are the E1 warden's T and error
  probability on ``E1_ROWS``, up to n = 100 (``write_e1_reference``).
* The stdlib route to the CLI's tables, ``stdlib_table_text``: ``csv.writer``
  over the formatted values, and ``json.dumps(indent=2)`` with non-finite
  floats as the CSV's strings, which the CLI's row templates replaced.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
from typing import NamedTuple

import mpmath as mp
import numpy as np

from qcovert.channels import Scenario, _check_q
from qcovert.linalg import dicke_scaling

DPS = 50


# ----------------------------------------------------------------------
# Dense linear algebra


# Support rule, shared by every kernel test: an eigenvalue or a weight at or
# below SUPPORT_RTOL * dim * lambda_max counts as zero.  A backward-stable
# Hermitian eigensolver moves eigenvalues by a small multiple of
# eps * lambda_max (at most 5 eps * lambda_max measured on rank-deficient
# states up to dim 1024), so anything above the floor is a genuine
# eigenvalue and keeps its logarithm.
SUPPORT_RTOL = 4.0 * float(np.finfo(np.float64).eps)


class SpectralDecomposition(NamedTuple):
    """Eigenvalues (real, descending) and matching orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        """Reassemble sum_i lambda_i |v_i><v_i|."""
        w, v = self
        return (v * w) @ v.conj().T


def _descending(eigenvalues, eigenvectors) -> SpectralDecomposition:
    """The eigenpairs sorted by eigenvalue, largest first."""
    w = np.asarray(eigenvalues, dtype=np.float64)
    order = np.argsort(-w, kind="stable")
    return SpectralDecomposition(w[order], np.asarray(eigenvectors, dtype=np.complex128)[:, order])


def eig_hermitian(h) -> SpectralDecomposition:
    """Spectral decomposition of a Hermitian matrix by ``numpy.linalg.eigh``, descending."""
    return _descending(*np.linalg.eigh(np.asarray(h, dtype=np.complex128)))


def _support_floor(eigenvalues: np.ndarray) -> float:
    """Largest magnitude that counts as zero beside these (descending) eigenvalues."""
    return SUPPORT_RTOL * len(eigenvalues) * max(float(eigenvalues[0]), 0.0)


def _support_mask(eigenvalues: np.ndarray) -> np.ndarray:
    """Boolean mask of the eigenvalues above the support floor."""
    return eigenvalues > _support_floor(eigenvalues)


def trace_distance(rho, sigma) -> float:
    """Half the trace norm of rho - sigma for Hermitian arguments."""
    r = np.asarray(rho, dtype=np.complex128)
    s = np.asarray(sigma, dtype=np.complex128)
    if r.shape != s.shape or r.ndim != 2 or r.shape[0] != r.shape[1]:
        raise ValueError(f"incompatible shapes {r.shape} and {s.shape}")
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(r - s))))


def root_fidelity(rho, sigma) -> float:
    """||sqrt(rho) sqrt(sigma)||_1 from eigendecompositions of both states."""
    def sqrt_psd(a):
        w, v = np.linalg.eigh(a)
        return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T

    return float(np.sum(np.linalg.svd(sqrt_psd(rho) @ sqrt_psd(sigma), compute_uv=False)))


def projector(psi) -> np.ndarray:
    """Rank-1 projector |psi><psi| of a state vector."""
    v = np.asarray(psi, dtype=np.complex128)
    return np.outer(v, v.conj())


def tensor(*factors) -> np.ndarray:
    """Kronecker product of matrices or vectors, first factor's indices most significant."""
    return functools.reduce(np.kron, (np.asarray(f, dtype=np.complex128) for f in factors))


def tensor_power(op, n: int) -> np.ndarray:
    """n-fold Kronecker power of an operator, n >= 1."""
    return tensor(*[op] * n)


def monomial_step(a, mono) -> np.ndarray:
    """Monomial matrix of Sym^(k+1)(A) from that of Sym^k(A), stacked.

    On the monomial basis x^(k-l) y^l of degree-k polynomials, A sends
    x -> a00 x + a10 y and y -> a01 x + a11 y, so column m of the monomial
    matrix M_k(A) holds the coefficients of (a00 x + a10 y)^(k-m)
    (a01 x + a11 y)^m.  One more factor a00 x + a10 y gives the columns
    m <= k of M_(k+1), and one more a01 x + a11 y on column k gives the
    new last column: two taps per column, no polynomial product.  The
    step is linear in A and in M separately.  ``a`` has shape (..., 2, 2)
    and ``mono`` (..., k+1, k+1); their leading axes broadcast.
    """
    lead = np.broadcast_shapes(a.shape[:-2], mono.shape[:-2])
    size = mono.shape[-1] + 1
    out = np.zeros(lead + (size, size), dtype=np.result_type(a, mono))
    a00, a01, a10, a11 = (a[..., i, j, np.newaxis] for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)))
    out[..., :-1, :-1] = a00[..., np.newaxis] * mono
    out[..., 1:, :-1] += a10[..., np.newaxis] * mono
    last = mono[..., -1]
    out[..., :-1, -1] = a01 * last
    out[..., 1:, -1] += a11 * last
    return out


def symmetric_power(a, k: int) -> np.ndarray:
    """k-th symmetric power Sym^k(A) of a 2x2 matrix, in the Dicke basis.

    Sym^k(A) is A^{(x)k} restricted to the symmetric subspace of k qubits,
    whose orthonormal Dicke basis vector m (0 <= m <= k) is the uniform
    superposition of the C(k, m) strings with m ones.  The map is a
    representation: Sym^k(AB) = Sym^k(A) Sym^k(B), Sym^k(I) = I,
    Sym^1(A) = A, and Sym^0(A) = [[1]].  Built by k ``monomial_step``
    calls and one ``dicke_scaling``, cost O(k^3) with no k-qubit matrix.
    """
    a = np.asarray(a, dtype=np.complex128)
    mono = np.ones((1, 1), dtype=np.complex128)
    for _ in range(k):
        mono = monomial_step(a, mono)
    return mono * dicke_scaling(k)


def partial_trace(rho, dims, keep) -> np.ndarray:
    """Trace out all subsystems not listed in `keep`.

    Parameters
    ----------
    rho : array_like
        Operator on the composite space, dimension prod(dims).
    dims : sequence of int
        Subsystem dimensions, most significant first.
    keep : iterable of int
        Indices (into dims) of the subsystems to retain; the result keeps
        them in their original order.
    """
    dims = list(dims)
    t = np.asarray(rho, dtype=np.complex128).reshape(dims + dims)
    # Trace out in descending index order so earlier axis numbers stay valid.
    for ax in sorted(set(range(len(dims))) - set(keep), reverse=True):
        half = t.ndim // 2
        t = np.trace(t, axis1=ax, axis2=ax + half)
    kept = math.prod(dims[k] for k in keep)
    return t.reshape(kept, kept)


def matrix_log2(rho) -> np.ndarray:
    """Operator logarithm base 2 of a positive semidefinite matrix.

    Kernel eigenvalues, those at or below the support floor, map to 0,
    giving the log on the support only.
    """
    w, v = eig_hermitian(rho)
    support = _support_mask(w)
    logw = np.zeros_like(w)
    logw[support] = np.log2(w[support])
    return (v * logw) @ v.conj().T


# ----------------------------------------------------------------------
# Dense channel routes


SIGMA_I = np.eye(2, dtype=np.complex128)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)


def depolarize(rho, q: float) -> np.ndarray:
    """Apply the qubit depolarizing channel with noise parameter q.

    Returns (1-q) rho + q I/2.  Equivalently, by the Pauli twirl
    identity, (1 - 3q/4) rho + (q/4)(X rho X + Y rho Y + Z rho Z);
    ``depolarize_pauli_form`` computes that version for cross-checking.
    """
    _check_q(q)
    rho = np.asarray(rho, dtype=np.complex128)
    return (1.0 - q) * rho + (q / 2.0) * SIGMA_I


def depolarize_pauli_form(rho, q: float) -> np.ndarray:
    """Depolarizing channel as an explicit Pauli mixture (twirl form)."""
    _check_q(q)
    rho = np.asarray(rho, dtype=np.complex128)
    flipped = sum(p @ rho @ p for p in (SIGMA_X, SIGMA_Y, SIGMA_Z))
    return (1.0 - 0.75 * q) * rho + 0.25 * q * flipped


def stinespring_isometry(q: float) -> np.ndarray:
    """8x2 isometry dilating the depolarizing channel into (B, E1, E2).

    Column action on the input qubit:

        V |psi> = sqrt(1 - 3q/4) |psi>|00>
                + sqrt(q/4) (X|psi>|01> + Y|psi>|11> + Z|psi>|10>)

    with the environment kets labelled |E1 E2>.  Satisfies V^dag V = I_2.
    The Pauli weight is written 0.5 sqrt(q), which does not underflow at
    subnormal q as sqrt(0.25 q) does.
    """
    _check_q(q)
    env = np.eye(4, dtype=np.complex128)  # index = 2*E1 + E2
    terms = (
        (math.sqrt(1.0 - 0.75 * q), SIGMA_I, env[0]),
        (0.5 * math.sqrt(q), SIGMA_X, env[1]),
        (0.5 * math.sqrt(q), SIGMA_Y, env[3]),
        (0.5 * math.sqrt(q), SIGMA_Z, env[2]),
    )
    v = np.zeros((8, 2), dtype=np.complex128)
    for weight, pauli, ket in terms:
        v += weight * np.kron(pauli, ket.reshape(4, 1))
    defect = np.max(np.abs(v.conj().T @ v - SIGMA_I))
    if defect > 1e-12:
        raise ArithmeticError(f"isometry defect {defect:g} exceeds 1e-12")
    return v


def dilated_output(rho, q: float) -> np.ndarray:
    """Joint (B, E1, E2) output state V rho V^dag of the dilation."""
    rho = np.asarray(rho, dtype=np.complex128)
    v = stinespring_isometry(q)
    return v @ rho @ v.conj().T


def willie_marginal(rho, q: float, scenario: Scenario) -> np.ndarray:
    """Warden's output state, obtained from the dilation by partial trace.

    Dimension 4 (on E1 (x) E2, index 2*E1 + E2) for ALL_ENV, 2 otherwise.
    This is the ground truth of the warden's states: the tests take every
    dense omega from it, and check each warden route's closed form of
    those states (E1's ``detection._warden_block``) against it.
    """
    joint = dilated_output(rho, q)
    keep = {
        Scenario.ALL_ENV: [1, 2],
        Scenario.E2_ONLY: [2],
        Scenario.E1_ONLY: [1],
    }[scenario]
    return partial_trace(joint, [2, 2, 2], keep)


def basis_marginal_pair(q: float, scenario: Scenario) -> tuple[np.ndarray, np.ndarray]:
    """Warden states (omega_0, omega_1) for the inputs |0><0| and |1><1|."""
    return (willie_marginal(np.diag([1.0, 0.0]), q, scenario),
            willie_marginal(np.diag([0.0, 1.0]), q, scenario))


def e1only_marginal(alpha: float, q: float) -> np.ndarray:
    """E1 warden state for the input diag(1 - alpha, alpha)."""
    return willie_marginal(np.diag([1.0 - alpha, alpha]), q, Scenario.E1_ONLY)


# ----------------------------------------------------------------------
# Dense joint output of the entangled input


def entangled_input(alpha: float) -> np.ndarray:
    """Weakly entangled sender state sqrt(1-alpha)|00> + sqrt(alpha)|11>."""
    return np.array([math.sqrt(1.0 - alpha), 0.0, 0.0, math.sqrt(alpha)], dtype=np.complex128)


class ArrowMatrixParams(NamedTuple):
    """Parameters of a 4x4 arrow matrix: diagonal (a, b, c, d), corners e."""

    a: float
    b: float
    c: float
    d: float
    e: float


def arrow_params(alpha: float, q: float) -> ArrowMatrixParams:
    """Arrow parameters of the joint retained/received output state."""
    half = q / 2.0
    return ArrowMatrixParams(
        a=(1.0 - half) * (1.0 - alpha),
        b=half * (1.0 - alpha),
        c=half * alpha,
        d=(1.0 - half) * alpha,
        e=(1.0 - q) * math.sqrt(alpha * (1.0 - alpha)),
    )


def arrow_matrix(p: ArrowMatrixParams) -> np.ndarray:
    """Assemble the 4x4 arrow matrix from its parameters."""
    m = np.diag([p.a, p.b, p.c, p.d]).astype(np.complex128)
    m[0, 3] = m[3, 0] = p.e
    return m


def joint_output_closed_form(alpha: float, q: float) -> np.ndarray:
    """Joint state of the retained qubit and the channel output.

    The entangled input with weight alpha, sent through the depolarizing
    channel on its second half, lands on the arrow matrix with diagonal
    ((1-q/2)(1-alpha), (q/2)(1-alpha), (q/2)alpha, (1-q/2)alpha) and
    corner coupling (1-q) sqrt(alpha(1-alpha)).
    """
    return arrow_matrix(arrow_params(alpha, q))


def binary_convolution(a: float, b: float) -> float:
    """Probability that exactly one of two independent biased bits is 1."""
    return (1.0 - a) * b + a * (1.0 - b)


def product_of_marginals(alpha: float, q: float) -> np.ndarray:
    """Tensor product of the joint output's two marginals (diagonal)."""
    m0 = binary_convolution(1.0 - q / 2.0, alpha)
    m1 = binary_convolution(q / 2.0, alpha)
    return np.diag(
        [(1.0 - alpha) * m0, (1.0 - alpha) * m1, alpha * m0, alpha * m1]
    ).astype(np.complex128)


def arrow_spectral(p: ArrowMatrixParams) -> SpectralDecomposition:
    """Closed-form spectral decomposition of an arrow matrix.

    The uncoupled middle entries b and c are eigenvalues outright; the
    corner-coupled 2x2 block contributes

        lambda_{1,4} = ((a+d) +/- sqrt((a+d)^2 - 4(ad - e^2))) / 2

    with eigenvectors proportional to (e, 0, 0, lambda - a).  Both the
    small eigenvalue and the eigenvector gaps are computed in
    cancellation-free forms so the decomposition stays accurate when e
    or the gap a-d is tiny.
    """
    a, b, c, d, e = p
    if e == 0.0:
        return _descending([a, b, c, d], np.eye(4, dtype=np.complex128))

    lam1, lam4, gap1, gap4 = _coupled_pair(a, d, e, a * d - e * e)
    v1 = np.array([e, 0.0, 0.0, gap1], dtype=np.complex128)
    v4 = np.array([e, 0.0, 0.0, gap4], dtype=np.complex128)
    v1 /= np.linalg.norm(v1)
    v4 /= np.linalg.norm(v4)
    basis = np.zeros((4, 4), dtype=np.complex128)
    basis[:, 0] = v1
    basis[1, 1] = 1.0
    basis[2, 2] = 1.0
    basis[:, 3] = v4
    return _descending([lam1, b, c, lam4], basis)


def _coupled_pair(a: float, d: float, e: float, det: float) -> tuple[float, float, float, float]:
    """Eigenvalues of the 2x2 block [[a, e], [e, d]] with their offsets from a.

    Returns (lambda_1, lambda_4, lambda_1 - a, lambda_4 - a), lambda_1 the
    root of larger magnitude; det = ad - e^2 is passed in so callers that
    know it in product form avoid that subtraction.  The small root and
    the offsets are rationalized on the branch where direct subtraction
    would cancel.
    """
    r = math.hypot(a - d, 2.0 * e)
    if a + d >= 0.0:
        lam1 = 0.5 * (a + d + r)
        lam4 = det / lam1
    else:
        lam4 = 0.5 * (a + d - r)
        lam1 = det / lam4
    if a >= d:
        gap1 = 2.0 * e * e / (r + (a - d))
        gap4 = -0.5 * ((a - d) + r)
    else:
        gap1 = 0.5 * ((d - a) + r)
        gap4 = -2.0 * e * e / (r + (d - a))
    return lam1, lam4, gap1, gap4


# ----------------------------------------------------------------------
# Dense relative entropy


def _support_violation(rho: np.ndarray, sigma: np.ndarray) -> bool:
    """True if rho carries weight above the support floor on the kernel of sigma."""
    w, v = eig_hermitian(sigma)
    kernel = v[:, ~_support_mask(w)]
    if kernel.shape[1] == 0:
        return False
    leaked = float(np.einsum("ij,ji->", kernel.conj().T @ rho, kernel).real)
    return leaked > _support_floor(w)


def relative_entropy(rho, sigma) -> float:
    """Quantum relative entropy D(rho||sigma) in bits.

    Tr[rho (log2 rho - log2 sigma)] when supp(rho) is contained in
    supp(sigma); +inf otherwise.
    """
    rho = np.asarray(rho, dtype=np.complex128)
    sigma = np.asarray(sigma, dtype=np.complex128)
    if rho.shape != sigma.shape:
        raise ValueError(f"incompatible shapes {rho.shape} and {sigma.shape}")
    if _support_violation(rho, sigma):
        return math.inf
    diff = matrix_log2(rho) - matrix_log2(sigma)
    return float(np.trace(rho @ diff).real)


# ----------------------------------------------------------------------
# mpmath references


def _digits(*tiny: float) -> int:
    """Working digits that leave DPS digits after cancelling down to the product of ``tiny``."""
    return DPS + sum(max(0, int(-math.log10(x))) for x in tiny)


def _logm_hermitian(m):
    w, v = mp.eighe(m)
    return v * mp.diag([mp.log(x) for x in w]) * v.transpose_conj()


def _trace_mul(a, b):
    return mp.re(sum(a[i, k] * b[k, i] for i in range(a.rows) for k in range(a.cols)))


def _mp_joint_output(alpha, q):
    """(rho, sigma) as mpmath matrices at the working digits: the joint output and its marginals' product.

    rho is the entangled input with weight alpha after the depolarizing
    channel on its second half, and sigma is diagonal.  They are the
    float64 ``joint_output_closed_form`` and ``product_of_marginals`` at
    more digits; ``tests/test_oracles.py`` checks that, and
    ``tests/test_covert.py`` ties those two to the dilation.
    """
    a, q_ = mp.mpf(alpha), mp.mpf(q)
    half = q_ / 2
    e = (1 - q_) * mp.sqrt(a * (1 - a))
    rho = mp.matrix([[(1 - half) * (1 - a), 0, 0, e],
                     [0, half * (1 - a), 0, 0],
                     [0, 0, half * a, 0],
                     [e, 0, 0, (1 - half) * a]])
    m0 = (1 - half) * (1 - a) + half * a  # retained qubit, P(0)
    m1 = half * (1 - a) + (1 - half) * a
    return rho, mp.diag([(1 - a) * m0, (1 - a) * m1, a * m0, a * m1])


def mp_dvq(alpha: float, q: float) -> tuple:
    """(D, V, Q) in bits of the arrow-matrix joint output vs its marginals.

    Builds the 4x4 joint output and the product of its marginals from
    the model, and takes log rho by a high-precision eigendecomposition.
    rho's smallest eigenvalue is about alpha q, and near alpha = 1/2 V is
    about q log^2 q, so the digits grow with log(1/q) as well as log(1/alpha).
    """
    with mp.workdps(_digits(alpha, q)):
        rho, sigma = _mp_joint_output(alpha, q)
        loglike = _logm_hermitian(rho) - mp.diag([mp.log(sigma[i, i]) for i in range(4)])
        d = _trace_mul(rho, loglike)
        centered = loglike - d * mp.eye(4)
        sq = centered * centered
        v = _trace_mul(rho, sq)
        q4 = _trace_mul(rho, sq * sq)
        ln2 = mp.log(2)
        return d / ln2, v / ln2**2, q4 / ln2**4


def _e1_marginal(alpha, q):
    s = mp.sqrt((1 - 3 * q / 4) * q / 4)
    off = (1 - 2 * alpha) * (s - 0.25j * q)
    return mp.matrix([[1 - q / 2, off], [mp.conj(off), q / 2]])


def _mp_basis_marginals(q, scenario: Scenario):
    """(omega_0, omega_1) for the basis inputs, as dense mpmath matrices."""
    if scenario is Scenario.E2_ONLY:
        omega = mp.diag([1 - q / 2, q / 2])
        return omega, omega
    if scenario is Scenario.E1_ONLY:
        return _e1_marginal(mp.mpf(0), q), _e1_marginal(mp.mpf(1), q)
    s = mp.sqrt((1 - 3 * q / 4) * q / 4)
    c = q / 4
    return tuple(
        mp.matrix([[1 - 3 * c, 0, sign * s, 0],
                   [0, c, 0, -sign * 1j * c],
                   [sign * s, 0, c, 0],
                   [0, sign * 1j * c, 0, c]])
        for sign in (1, -1)
    )


def mp_support_fields(q: float, scenario: Scenario) -> tuple:
    """(kernel_overlap, trace_dist, det_omega0, det_omega1) of a scenario report.

    From ``mp.eighe`` of the dense marginals at enough digits that an
    eigenvalue of size q stands DPS digits above the working precision:
    the kernel of omega_0 is spanned by the eigenvectors whose
    eigenvalues are at most 10**(10 - dps), the overlap is the largest
    eigenvalue of omega_1 compressed to the kernel, and a rank-deficient
    omega has determinant exactly 0.
    """
    dps = _digits(q) + 10
    with mp.workdps(dps):
        omega_0, omega_1 = _mp_basis_marginals(mp.mpf(q), scenario)
        w, v = mp.eighe(omega_0)
        floor = mp.mpf(10) ** (10 - dps)
        kernel = [k for k in range(len(w)) if abs(w[k]) <= floor]
        overlap = mp.mpf(0)
        if kernel:
            basis = mp.matrix([[v[i, k] for k in kernel] for i in range(v.rows)])
            overlap = max(mp.eighe(basis.transpose_conj() * omega_1 * basis, eigvals_only=True))
        dist = _mp_trace_norm(omega_0 - omega_1) / 2
        dets = [mp.mpf(0) if kernel else mp.re(mp.det(m)) for m in (omega_0, omega_1)]
        return (overlap, dist, *dets)


def mp_willie_divergence(alpha: float, q: float):
    """D(omega_alpha || omega_0) in bits for the E1 warden's 2x2 marginals.

    D is about alpha^2 q log(1/q) against logarithms of size log(1/q), so
    the digits grow with log(1/q) as well as log(1/alpha).
    """
    with mp.workdps(2 * _digits(alpha, q)):
        a, q_ = mp.mpf(alpha), mp.mpf(q)
        omega_a, omega_0 = _e1_marginal(a, q_), _e1_marginal(mp.mpf(0), q_)
        diff = _logm_hermitian(omega_a) - _logm_hermitian(omega_0)
        return _trace_mul(omega_a, diff) / mp.log(2)


def mp_willie_eta(q: float):
    """eta(omega_1 || omega_0) in bits by divided differences in omega_0's eigenbasis."""
    with mp.workdps(DPS):
        q_ = mp.mpf(q)
        omega_0, omega_1 = _e1_marginal(mp.mpf(0), q_), _e1_marginal(mp.mpf(1), q_)
        w, v = mp.eighe(omega_0)
        m = v.transpose_conj() * (omega_1 - omega_0) * v
        total = mp.mpf(0)
        for i in range(2):
            for j in range(2):
                if i == j:
                    coeff = 1 / w[i]
                else:
                    coeff = (mp.log(w[i]) - mp.log(w[j])) / (w[i] - w[j])
                total += coeff * abs(m[i, j]) ** 2
        return total / mp.log(2)


def mp_normal_quantile(p: float):
    """Phi^{-1}(p) = sqrt(2) erfinv(2p - 1), with DPS digits left after 2p - 1 nears -1 or 1."""
    with mp.workdps(_digits(min(p, 1.0 - p))):
        return mp.sqrt(2) * mp.erfinv(2 * mp.mpf(p) - 1)


def _mp_symmetric_power(a, k: int):
    """Sym^k of a 2x2 mpmath matrix in the Dicke basis, by the binomial expansion.

    Entry (l, m) is sqrt(C(k, m) / C(k, l)) times the coefficient of
    x^(k-l) y^l in (a00 x + a10 y)^(k-m) (a01 x + a11 y)^m.
    """
    p00, p01, p10, p11 = ([x**e for e in range(k + 1)]
                          for x in (a[0, 0], a[0, 1], a[1, 0], a[1, 1]))
    s = mp.matrix(k + 1, k + 1)
    for m in range(k + 1):
        for l in range(k + 1):
            coeff = mp.fsum(
                math.comb(k - m, j) * math.comb(m, l - j)
                * p00[k - m - j] * p10[j] * p01[m - l + j] * p11[l - j]
                for j in range(max(0, l - m), min(k - m, l) + 1)
            )
            s[l, m] = mp.sqrt(mp.mpf(math.comb(k, m)) / math.comb(k, l)) * coeff
    return s


def _mp_spin_blocks(a, n: int):
    """(multiplicity, det(a)^r Sym^(n-2r)(a)) for r = 0..n//2."""
    det = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
    return [(math.comb(n, r) - (math.comb(n, r - 1) if r else 0),
             det**r * _mp_symmetric_power(a, n - 2 * r)) for r in range(n // 2 + 1)]


def _mp_kron(a, b):
    out = mp.matrix(a.rows * b.rows, a.cols * b.cols)
    for i in range(a.rows):
        for j in range(a.cols):
            for k in range(b.rows):
                for l in range(b.cols):
                    out[i * b.rows + k, j * b.cols + l] = a[i, j] * b[k, l]
    return out


def _mp_trace_norm(m):
    return sum(abs(w) for w in mp.eighe(m, eigvals_only=True))


def _mp_warden_blocks(alpha, q, scenario: Scenario):
    """Real 2x2 blocks of the warden marginal at weight alpha, in a rotated basis.

    E1_ONLY: the marginal itself, after the diagonal unitary that makes
    its off-diagonal (1 - 2 alpha)(s - i q/4) real, of modulus
    (1 - 2 alpha) sqrt(q (2 - q) / 8).  ALL_ENV: its E2 = 0 block, which is
    real, and its E2 = 1 block after the same kind of rotation.  The
    rotation does not depend on alpha, so applied to every copy of both
    hypotheses it leaves their trace distance unchanged; real blocks
    halve the cost of ``mp.eighe``.
    """
    sign = 1 - 2 * alpha
    if scenario is Scenario.E1_ONLY:
        off = sign * mp.sqrt(q * (2 - q) / 8)
        return (mp.matrix([[1 - q / 2, off], [off, q / 2]]),)
    s = mp.sqrt((1 - 3 * q / 4) * q / 4)
    return (mp.matrix([[1 - 3 * q / 4, sign * s], [sign * s, q / 4]]),
            mp.matrix([[q / 4, sign * q / 4], [sign * q / 4, q / 4]]))


def mp_warden_trace_distances(n: int, alphas, q: float, scenario: Scenario, dps: int = 40):
    """T of the n-copy warden hypotheses by the Schur-Weyl block sum, one per alpha.

    Every block difference det(A_a)^r Sym^k(A_a) - det(A_0)^r Sym^k(A_0)
    (for ALL_ENV, the Kronecker product of an E2 = 0 and an E2 = 1 block
    in each of the C(n, k) sectors) is formed by subtraction at ``dps``
    digits, with Sym^k by the binomial expansion, and diagonalized with
    ``mp.eighe``.
    """
    with mp.workdps(dps):
        q_ = mp.mpf(q)
        if scenario is Scenario.E1_ONLY:
            sectors = [(1, n, 0)]
        elif scenario is Scenario.ALL_ENV:
            sectors = [(math.comb(n, k), n - k, k) for k in range(n + 1)]
        else:
            raise ValueError(f"no block-sum reference for {scenario.name}")

        def blocks(alpha):
            halves = _mp_warden_blocks(alpha, q_, scenario)
            out = []
            for weight, k0, k1 in sectors:
                for m0, b0 in _mp_spin_blocks(halves[0], k0):
                    if len(halves) == 1:
                        out.append((weight * m0, b0))
                        continue
                    out.extend((weight * m0 * m1, _mp_kron(b0, b1))
                               for m1, b1 in _mp_spin_blocks(halves[1], k1))
            return out

        null = blocks(mp.mpf(0))
        return [
            sum(m * _mp_trace_norm(b_a - b_0) for (m, b_a), (_, b_0) in zip(blocks(mp.mpf(a)), null)) / 2
            for a in alphas
        ]


# An error probability below this is reported as exactly 0: it is far below
# the smallest subnormal float, and the states are orthogonal there (q = 1,
# alpha = 1), where no working precision would make the difference exact.
MP_ZERO_DIGITS = 400


def mp_allenv_distances(n: int, alphas, q: float) -> list[tuple]:
    """(T, E) of the ALL_ENV warden at n uses, one pair per alpha, from the reduced sectors.

    T = sum_k C(n, k) (q/2)^k s_k, with -s_k the smallest eigenvalue of the
    (n - k + 1)-dimensional block (1 - alpha)^k Sym^(n-k)(Z_alpha) -
    Sym^(n-k)(Z_0) of the E2 = 0 blocks (the reduction that
    ``mp_warden_trace_distances`` checks at small n), by ``mp.eigsy``.
    E = (1 - T)/2 is formed by subtraction, so the working digits grow until
    E keeps DPS significant digits: 50 plus the decades E lies below 1.
    """
    out = []
    for alpha in alphas:
        digits = DPS
        while True:
            with mp.workdps(digits):
                q_, a_ = mp.mpf(q), mp.mpf(alpha)
                (z_0,), (z_a,) = (_mp_warden_blocks(x, q_, Scenario.ALL_ENV)[:1]
                                  for x in (mp.mpf(0), a_))
                dist = mp.mpf(0)
                for k in range(n + 1):
                    diff = ((1 - a_) ** k * _mp_symmetric_power(z_a, n - k)
                            - _mp_symmetric_power(z_0, n - k))
                    dist -= math.comb(n, k) * (q_ / 2) ** k * min(mp.eigsy(diff, eigvals_only=True))
                error = (1 - dist) / 2
                lost = int(-mp.log10(error)) + 1 if error > 0 else digits
                if lost <= digits - DPS or lost > MP_ZERO_DIGITS:
                    out.append((+dist, +error if lost <= MP_ZERO_DIGITS else mp.mpf(0)))
                    break
                digits = lost + DPS + 10
    return out


ALLENV_REFERENCE = "allenv_reference.json"
ALLENV_GRID = {"n": (1, 3, 5, 10, 30), "q": (1e-6, 0.05, 0.5, 0.9, 0.99, 0.999, 1.0),
               "alpha": (1e-15, 1e-6, 0.3, 0.7, 1.0)}


def _committed_rows(name: str) -> dict:
    """The rows [n, q, alpha, T, E] of a committed reference file: {(n, q, alpha): (T, E)} as mpf."""
    with open(f"{__file__.rsplit('/', 1)[0]}/{name}", encoding="utf-8") as data:
        rows = json.load(data)["rows"]
    with mp.workdps(30):
        return {(n, q, alpha): (mp.mpf(dist), mp.mpf(error)) for n, q, alpha, dist, error in rows}


def allenv_reference() -> dict:
    """The committed ``write_allenv_reference`` values: {(n, q, alpha): (T, E)} as mpf."""
    return _committed_rows(ALLENV_REFERENCE)


def write_allenv_reference(directory="tests") -> None:
    """Write ``mp_allenv_distances`` on ``ALLENV_GRID`` to ``directory/ALLENV_REFERENCE``.

    Rows are [n, q, alpha, T, E] with T and E as 25-digit strings.  From the
    repository root: ``PYTHONPATH=src:tests python -c "import oracles;
    oracles.write_allenv_reference()"`` (about 5 minutes on one core).
    """
    rows = []
    for n in ALLENV_GRID["n"]:
        for q in ALLENV_GRID["q"]:
            pairs = mp_allenv_distances(n, ALLENV_GRID["alpha"], q)
            rows += [[n, q, alpha, mp.nstr(dist, 25), mp.nstr(error, 25)]
                     for alpha, (dist, error) in zip(ALLENV_GRID["alpha"], pairs)]
    text = json.dumps({"grid": ALLENV_GRID, "rows": rows}, indent=1)
    with open(f"{directory}/{ALLENV_REFERENCE}", "w", encoding="utf-8") as out:
        out.write(text + "\n")


E1_REFERENCE = "e1_reference.json"
# E1 rows past the n <= 20 of the direct block-sum audit: alpha = 1 at n = 50 and
# 100 (q = 0.5), where T is all but 1, n = 99 at q = 1, and alpha = 1e-15 and
# n**-0.5 at n = 100, the square-root regime.
E1_ROWS = ((50, 0.5, 1.0), (100, 0.5, 1.0), (99, 1.0, 0.383)) + tuple(
    (100, q, alpha) for q in (0.05, 0.5, 0.95) for alpha in (1e-15, 100**-0.5))


def e1_reference() -> dict:
    """The committed ``write_e1_reference`` values: {(n, q, alpha): (T, E)} as mpf."""
    return _committed_rows(E1_REFERENCE)


def write_e1_reference(directory="tests") -> None:
    """Write the E1 warden's T and E = (1 - T)/2 on ``E1_ROWS`` to ``directory/E1_REFERENCE``.

    T is ``mp_warden_trace_distances`` at its 40 digits, and E is formed
    from it at those digits.  Rows are [n, q, alpha, T, E] with T and E as
    25-digit strings.  From the repository root: ``PYTHONPATH=src:tests
    python -c "import oracles; oracles.write_e1_reference()"`` (about 15
    minutes on one core).
    """
    dists = {}
    for n, q in dict.fromkeys((n, q) for n, q, _ in E1_ROWS):  # one null block set per (n, q)
        alphas = [alpha for n_, q_, alpha in E1_ROWS if (n_, q_) == (n, q)]
        refs = mp_warden_trace_distances(n, alphas, q, Scenario.E1_ONLY)
        dists.update(((n, q, alpha), dist) for alpha, dist in zip(alphas, refs))
    rows = []
    for key, dist in dists.items():
        with mp.workdps(40):
            error = (1 - dist) / 2
        rows.append([*key, mp.nstr(dist, 25), mp.nstr(error, 25)])
    text = json.dumps({"rows": rows}, indent=1)
    with open(f"{directory}/{E1_REFERENCE}", "w", encoding="utf-8") as out:
        out.write(text + "\n")


# ----------------------------------------------------------------------
# CLI tables by the standard library


def _fmt(value) -> str:
    """A CSV field: lowercase booleans, ints as they are, floats to 12 significant digits."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _json_ready(value):
    """``value`` with every non-finite float as the string the CSV prints."""
    if isinstance(value, float) and not math.isfinite(value):
        return _fmt(value)
    if isinstance(value, dict):
        return {key: _json_ready(v) for key, v in value.items()}
    if isinstance(value, list):
        return [_json_ready(v) for v in value]
    return value


def stdlib_table_text(config: dict, rows: list, columns, fmt: str) -> str:
    """The text ``qcovert.cli.write_output`` writes for a table in format ``fmt``.

    ``columns`` holds the column names in order (a command's declared
    ``columns`` dict will do).
    """
    columns = list(columns)
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])
        return buf.getvalue()
    payload = {"config": config, "rows": [dict(zip(columns, row)) for row in rows]}
    return json.dumps(_json_ready(payload), indent=2, allow_nan=False) + "\n"
