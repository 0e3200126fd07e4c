"""Reference implementations the tests compare the library against.

None of these is used by the library itself.  These kinds live here:

* Dense double-precision linear algebra and channel routes, the generic
  matrices behind the library's closed forms: Hermitian validation
  (``hermitian_operator``), the eigensolver ``eig_hermitian`` with its
  ordering convention (``order_eigensystem``) and support rule, the
  ``trace_distance`` and ``root_fidelity``, validated states
  (``density_operator``, ``pure_state``), ``projector``, Kronecker
  ``tensor`` and ``tensor_power``, ``symmetric_power`` of one 2x2 matrix
  by the degree step ``monomial_step`` (which ``detection`` runs fused
  over a stack of blocks),
  ``partial_trace`` and the operator logarithm ``matrix_log2``; the
  depolarizing channel (``depolarize`` and its Pauli-twirl form), its
  Stinespring isometry and dilated output, the warden marginal
  ``willie_marginal`` by partial trace and the dense warden states built
  from it (``basis_marginal_pair``, ``e1only_marginal``), and the
  eigensolver route to the feasibility verdicts
  (``dense_support_report``); the entangled input, the
  arrow-matrix joint output with its parameters (``arrow_params``), the
  product of its marginals and the arrow matrix's spectral decomposition.
* Dense double-precision functionals on arbitrary density matrices:
  ``relative_entropy``, ``moments`` (D, V, Q from operator logarithms)
  and ``eta`` (the divided-difference curvature).  They are the generic
  routes that the scalar closed forms in ``qcovert.covert`` replaced.
* mpmath references at ``DPS`` digits (more where a value is tiny): the
  joint-output moments, the E1 warden's single-use divergence and its
  curvature, each from a high-precision eigendecomposition of the dense
  matrices, so none shares a formula with the closed forms it checks;
  the warden's n-use trace distance as a Schur-Weyl block sum
  (``mp_warden_trace_distances``), and ALL_ENV's T and error probability
  from one reduced block per sector (``mp_allenv_distances``), whose
  values on ``ALLENV_GRID`` are committed (``write_allenv_reference``).
* The scalar closed forms by their helper route: ``dvq_reference``,
  ``willie_divergence_reference``, ``logM_reference`` and
  ``rate_rows_reference`` sum over lists through helper calls
  (``_coupled_pair``, ``_g`` by a loop, ``_central_moments``) and check
  every argument per row, with the moments and the warden's divergence
  defined on all of [0, 1] (``_check_unit``, and ``_dvq_noiseless`` at
  q = 0).  ``qcovert.covert``'s kernels ``_dvq``, ``_logM`` and
  ``_willie_divergence`` do the same floating-point operations in the
  same order, written flat, unchecked, and with the per-table constants
  hoisted into ``rate_reports``, so the two must agree bit for bit,
  refusals included, on the domain the tables hand the kernels.  Likewise
  ``approx_rows_reference`` builds ``moment_curve``'s rows from the checks
  of the CLI, ``dvq_reference`` per row and ``leading_reference``, the
  leading forms with a fourth-moment constant fitted at alpha = 1e-3.
  And ``support_reports_reference`` builds the feasibility reports by one
  ``Scenario(...)`` call per row, as ``channels.scenario_reports`` did
  before its lookup table: the same fields, bit for bit, refusals
  included, but for that table's refusal below the normal range.
* The qubit wardens' detection route with numpy tables,
  ``qubit_rows_reference``: per chunk the powers, repeats and per-degree
  coefficients as stacked arrays, the block norms added by fancy-indexed
  sums, and the budget by the checked ``willie_divergence_reference`` per
  row.  ``qcovert.detection`` builds those tables in plain Python with the
  same floating-point operations, so the two agree bit for bit, refusals
  included (but for the fidelity-floor refusal, which the reference lacks).
* The stdlib route to the CLI's tables, ``stdlib_table_text``: ``csv.writer``
  over the formatted values, and ``json.dumps(indent=2)`` with non-finite
  floats as the CSV's strings, which the CLI's row templates replaced.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from typing import NamedTuple

import mpmath as mp
import numpy as np

from qcovert.channels import (
    _BOUNDARY_NOTES,
    ChannelSpec,
    Scenario,
    SupportReport,
    _check_q,
)
from qcovert.covert import (
    BERRY_ESSEEN,
    RateReport,
    _e1_bloch,
    _eta,
    _inv_normal_cdf,
    _require_normal,
    check_nu,
)
from qcovert.detection import DetectionResult, _warden_block
from qcovert.divergences import DvqTriple
from qcovert.linalg import dicke_scaling

LN2 = math.log(2.0)
DPS = 50


def _check_unit(name: str, x: float):
    if not (0.0 <= x <= 1.0) or math.isnan(x):
        raise ValueError(f"{name}={x!r} outside [0, 1]")


# ----------------------------------------------------------------------
# Dense linear algebra


DIM_CAP = 2**12

HERMITICITY_TOL = 1e-12
# Support rule, shared by every kernel test: an eigenvalue or a weight at or
# below SUPPORT_RTOL * dim * lambda_max counts as zero.  A backward-stable
# Hermitian eigensolver moves eigenvalues by a small multiple of
# eps * lambda_max (at most 5 eps * lambda_max measured on rank-deficient
# states up to dim 1024), so anything above the floor is a genuine
# eigenvalue and keeps its logarithm.
SUPPORT_RTOL = 4.0 * float(np.finfo(np.float64).eps)


def hermitian_operator(matrix) -> np.ndarray:
    """Validate a dense Hermitian matrix and return it as complex128.

    Parameters
    ----------
    matrix : array_like
        Square matrix expected to satisfy A = A^dagger entrywise within
        HERMITICITY_TOL.

    Returns
    -------
    numpy.ndarray
        The validated matrix, dtype complex128.

    Raises
    ------
    ValueError
        If the matrix is not square, contains non-finite entries,
        violates Hermiticity, or its dimension falls outside [1, DIM_CAP].
    """
    a = np.asarray(matrix, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    dim = a.shape[0]
    if dim < 1 or dim > DIM_CAP:
        raise ValueError(f"dimension {dim} outside [1, {DIM_CAP}]")
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise ValueError("matrix contains non-finite entries")
    defect = np.max(np.abs(a - a.conj().T))
    if defect > HERMITICITY_TOL:
        raise ValueError(f"matrix is not Hermitian: max |A - A^dag| = {defect:g}")
    return a


class SpectralDecomposition(NamedTuple):
    """Eigenvalues (real, descending) and matching orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        """Reassemble sum_i lambda_i |v_i><v_i|."""
        w, v = self
        return (v * w) @ v.conj().T


def _lexicographic_key(column: np.ndarray):
    return tuple(x for entry in column for x in (entry.real, entry.imag))


def order_eigensystem(eigenvalues, eigenvectors) -> SpectralDecomposition:
    """Put an eigensystem into the package's deterministic convention.

    Eigenvalues sorted descending; each eigenvector's first entry of
    non-negligible magnitude is rotated to be real positive; exact
    eigenvalue ties are broken by lexicographic comparison of the
    phase-fixed vectors.  Equal inputs therefore give identical outputs.
    """
    w = np.asarray(eigenvalues, dtype=np.float64).copy()
    v = np.asarray(eigenvectors, dtype=np.complex128).copy()
    order = np.argsort(-w, kind="stable")
    w = w[order]
    v = v[:, order]
    for k in range(v.shape[1]):
        col = v[:, k]
        lead = np.flatnonzero(np.abs(col) > 1e-12 * np.abs(col).max())[0]
        z = col[lead]
        v[:, k] = col * (z.conjugate() / abs(z))
    start = 0
    for stop in range(1, len(w) + 1):
        if stop == len(w) or w[stop] != w[start]:
            if stop - start > 1:
                cols = sorted(range(start, stop), key=lambda k: _lexicographic_key(v[:, k]))
                v[:, start:stop] = v[:, cols]
            start = stop
    return SpectralDecomposition(w, v)


def eig_hermitian(h) -> SpectralDecomposition:
    """Spectral decomposition of a Hermitian matrix, deterministically ordered."""
    a = hermitian_operator(h)
    w, v = np.linalg.eigh(a)
    return order_eigensystem(w, v)


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


TRACE_TOL = 1e-10
PSD_TOL = 1e-10
NORM_TOL = 1e-12


def density_operator(matrix) -> np.ndarray:
    """Validate a density operator: Hermitian, unit trace, PSD up to tolerance."""
    a = hermitian_operator(matrix)
    tr = a.trace().real
    if abs(tr - 1.0) > TRACE_TOL:
        raise ValueError(f"trace {tr!r} differs from 1 by more than {TRACE_TOL:g}")
    smallest = np.linalg.eigvalsh(a)[0]
    if smallest < -PSD_TOL:
        raise ValueError(f"negative eigenvalue {smallest:g} below -{PSD_TOL:g}")
    return a


def pure_state(vector) -> np.ndarray:
    """Validate a unit-norm complex state vector."""
    v = np.asarray(vector, dtype=np.complex128)
    if v.ndim != 1 or v.size < 1:
        raise ValueError(f"expected a nonempty vector, got shape {v.shape}")
    if not np.all(np.isfinite(v.real)) or not np.all(np.isfinite(v.imag)):
        raise ValueError("vector contains non-finite entries")
    norm = np.linalg.norm(v)
    if abs(norm - 1.0) > NORM_TOL:
        raise ValueError(f"norm {norm!r} differs from 1 by more than {NORM_TOL:g}")
    return v


def projector(psi) -> np.ndarray:
    """Rank-1 projector |psi><psi| of a state vector."""
    v = np.asarray(psi, dtype=np.complex128)
    return np.outer(v, v.conj())


def tensor(*factors) -> np.ndarray:
    """Kronecker product, first factor's indices most significant.

    Accepts matrices or vectors.  Raises ValueError if the result's
    leading dimension would exceed DIM_CAP.
    """
    if not factors:
        raise ValueError("tensor() needs at least one factor")
    out = np.asarray(factors[0], dtype=np.complex128)
    for f in factors[1:]:
        f = np.asarray(f, dtype=np.complex128)
        if out.shape[0] * f.shape[0] > DIM_CAP:
            raise ValueError(
                f"tensor result dimension {out.shape[0] * f.shape[0]} exceeds cap {DIM_CAP}"
            )
        out = np.kron(out, f)
    return out


def tensor_power(op, n: int) -> np.ndarray:
    """n-fold Kronecker power of an operator."""
    if n < 1:
        raise ValueError(f"power {n} must be a positive integer")
    out = np.asarray(op, dtype=np.complex128)
    for _ in range(n - 1):
        out = tensor(out, op)
    return out


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
    if a.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {a.shape}")
    if k < 0 or k != int(k):
        raise ValueError(f"power {k!r} must be a nonnegative integer")
    mono = np.ones((1, 1), dtype=np.complex128)
    for _ in range(int(k)):
        mono = monomial_step(a, mono)
    return mono * dicke_scaling(int(k))


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
    a = np.asarray(rho, dtype=np.complex128)
    dims = [int(d) for d in dims]
    if any(d < 1 for d in dims):
        raise ValueError(f"subsystem dimensions must be positive, got {dims}")
    total = math.prod(dims)
    if a.ndim != 2 or a.shape != (total, total):
        raise ValueError(f"shape {a.shape} does not match subsystem dims {dims}")
    keep = sorted(set(int(k) for k in keep))
    if not keep or keep[0] < 0 or keep[-1] >= len(dims):
        raise ValueError(f"keep={keep} is not a nonempty subset of subsystem indices")

    t = a.reshape(dims + dims)
    # Trace out in descending index order so earlier axis numbers stay valid.
    for ax in sorted(set(range(len(dims))) - set(keep), reverse=True):
        half = t.ndim // 2
        t = np.trace(t, axis1=ax, axis2=ax + half)
    kept = math.prod(dims[k] for k in keep)
    return t.reshape(kept, kept)


def matrix_log2(rho) -> np.ndarray:
    """Operator logarithm base 2 of a positive semidefinite matrix.

    Kernel eigenvalues map to 0, giving the log on the support only.
    Eigenvalues below -PSD_TOL are a domain error.
    """
    w, v = eig_hermitian(rho)
    if w[-1] < -PSD_TOL:
        raise ValueError(f"matrix is not PSD: eigenvalue {w[-1]:g}")
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


def _require_qubit(rho) -> np.ndarray:
    rho = density_operator(rho)
    if rho.shape != (2, 2):
        raise ValueError(f"expected a qubit state, got shape {rho.shape}")
    return rho


def depolarize(rho, q: float) -> np.ndarray:
    """Apply the qubit depolarizing channel with noise parameter q.

    Returns (1-q) rho + q I/2.  Equivalently, by the Pauli twirl
    identity, (1 - 3q/4) rho + (q/4)(X rho X + Y rho Y + Z rho Z);
    ``depolarize_pauli_form`` computes that version for cross-checking.
    """
    _check_q(q)
    rho = _require_qubit(rho)
    return (1.0 - q) * rho + (q / 2.0) * SIGMA_I


def depolarize_pauli_form(rho, q: float) -> np.ndarray:
    """Depolarizing channel as an explicit Pauli mixture (twirl form)."""
    _check_q(q)
    rho = _require_qubit(rho)
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
    rho = _require_qubit(rho)
    v = stinespring_isometry(q)
    return v @ rho @ v.conj().T


def willie_marginal(rho, spec: ChannelSpec) -> np.ndarray:
    """Warden's output state, obtained from the dilation by partial trace.

    Dimension 4 (on E1 (x) E2, index 2*E1 + E2) for ALL_ENV, 2 otherwise.
    This is the ground truth of the warden's states: the tests take every
    dense omega from it, and check ``detection._warden_block``, the one
    closed form of those states, against it.
    """
    joint = dilated_output(rho, spec.q)
    keep = {
        Scenario.ALL_ENV: [1, 2],
        Scenario.E2_ONLY: [2],
        Scenario.E1_ONLY: [1],
    }[spec.scenario]
    return partial_trace(joint, [2, 2, 2], keep)


def basis_marginal_pair(spec: ChannelSpec) -> tuple[np.ndarray, np.ndarray]:
    """Warden states (omega_0, omega_1) for the inputs |0><0| and |1><1|."""
    return willie_marginal(np.diag([1.0, 0.0]), spec), willie_marginal(np.diag([0.0, 1.0]), spec)


def e1only_marginal(alpha: float, q: float) -> np.ndarray:
    """E1 warden state for the input diag(1 - alpha, alpha)."""
    return willie_marginal(np.diag([1.0 - alpha, alpha]), ChannelSpec(q, Scenario.E1_ONLY))


def dense_support_report(spec: ChannelSpec) -> SupportReport:
    """Feasibility verdict from a dense eigensolve of the basis marginals.

    The route ``channels.scenario_reports`` replaced with closed
    forms: the kernel of omega_0 under the support rule, the largest
    eigenvalue of omega_1 compressed to it, the trace distance from
    ``eigvalsh`` and LU determinants.

    Verdicts: "impossible" when supp(omega_1) escapes supp(omega_0) (the
    warden detects a single use with positive probability), "trivial"
    when omega_0 = omega_1 (the warden learns nothing at any power),
    "nontrivial" otherwise, and "degenerate" at the q in {0, 1}
    boundaries where the channel itself collapses.
    """
    omega_0, omega_1 = basis_marginal_pair(spec)
    w, v = eig_hermitian(omega_0)
    kernel = v[:, ~_support_mask(w)]
    if kernel.shape[1] == 0:
        overlap = 0.0
    else:
        compressed = kernel.conj().T @ omega_1 @ kernel
        overlap = float(np.max(np.abs(np.linalg.eigvalsh(compressed))))
    contained = overlap <= _support_floor(w)
    dist = trace_distance(omega_0, omega_1)
    det0 = float(np.linalg.det(omega_0).real)
    det1 = float(np.linalg.det(omega_1).real)

    if spec.q in _BOUNDARY_NOTES:
        verdict, note = "degenerate", _BOUNDARY_NOTES[spec.q]
    elif not contained:
        verdict, note = "impossible", ""
    elif dist == 0.0:
        verdict, note = "trivial", ""
    else:
        verdict, note = "nontrivial", ""
    return SupportReport(
        scenario=int(spec.scenario),
        label=spec.scenario.name,
        q=spec.q,
        support_contained=contained,
        kernel_overlap=overlap,
        trace_dist=dist,
        det_omega0=det0,
        det_omega1=det1,
        verdict=verdict,
        note=note,
    )


class ReferenceSupportReport(NamedTuple):
    """``SupportReport`` as ``support_reports_reference`` builds it: the member, no label."""

    scenario: Scenario
    q: float
    support_contained: bool
    kernel_overlap: float
    trace_dist: float
    det_omega0: float
    det_omega1: float
    verdict: str
    note: str = ""


def support_reports_reference(q: float, scenarios) -> list[ReferenceSupportReport]:
    """The closed-form reports by one ``Scenario(...)`` call per row.

    ``channels.scenario_reports`` before it looked each scenario up in a
    table built at import and checked for fields below the normal range,
    kept verbatim but for its record, which has the ``Scenario`` member in
    place of the number and its label.
    """
    _check_q(q)
    m, d = q.as_integer_ratio()
    q_pos = m / d  # q, with -0.0 as +0.0 so that no field is a signed zero
    note = _BOUNDARY_NOTES.get(q, "")
    reports = []
    for scenario in map(Scenario, scenarios):
        if scenario is Scenario.E2_ONLY:
            overlap, dist, det = 0.0, 0.0, m * (2 * d - m) / (4 * d * d)
        elif scenario is Scenario.E1_ONLY:
            overlap, det = 0.0, m * (2 * d - m) / (8 * d * d)
            dist = math.sqrt(m * (2 * d - m) / (2 * d * d))
        else:
            overlap, det = m * (4 * d - 3 * m) / (2 * d * (2 * d - m)), 0.0
            dist = 0.5 * (math.sqrt(q_pos * (4.0 - 3.0 * q_pos)) + q_pos)  # 2s + q/2
        contained = overlap == 0.0
        if note:
            verdict = "degenerate"
        elif not contained:
            verdict = "impossible"
        else:
            verdict = "trivial" if dist == 0.0 else "nontrivial"
        reports.append(
            ReferenceSupportReport(scenario, q, contained, overlap, dist, det, det, verdict, note))
    return reports


# ----------------------------------------------------------------------
# Dense joint output of the entangled input


def entangled_input(alpha: float) -> np.ndarray:
    """Weakly entangled sender state sqrt(1-alpha)|00> + sqrt(alpha)|11>."""
    _check_unit("alpha", alpha)
    return pure_state(
        [math.sqrt(1.0 - alpha), 0.0, 0.0, math.sqrt(alpha)]
    )


class ArrowMatrixParams(NamedTuple):
    """Parameters of a 4x4 arrow matrix: diagonal (a, b, c, d), corners e."""

    a: float
    b: float
    c: float
    d: float
    e: float


def arrow_params(alpha: float, q: float) -> ArrowMatrixParams:
    """Arrow parameters of the joint retained/received output state."""
    _check_unit("alpha", alpha)
    _check_unit("q", q)
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
    _check_unit("alpha", alpha)
    _check_unit("q", q)
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
        return order_eigensystem([a, b, c, d], np.eye(4, dtype=np.complex128))

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
    return order_eigensystem([lam1, b, c, lam4], basis)


# ----------------------------------------------------------------------
# The closed forms by their helper route


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


_EPS = float(np.finfo(np.float64).eps)
_G_SERIES = tuple(1.0 / (k * (k - 1)) for k in range(14, 1, -1))


def _g(u: float) -> float:
    """(1 + u) log(1 + u) - u >= 0, by its series where that form would cancel."""
    if abs(u) > 0.05:
        return (1.0 + u) * math.log1p(u) - u
    total = 0.0
    for c in _G_SERIES:  # Horner on u^2 sum_j (-u)^j c_{j+2}
        total = c - u * total
    return u * u * total


def _g_ratio(u: float, num: float, den: float) -> float:
    """g(u) for 1 + u = num / den: ``_g``, or the quotient where 1 + u < 1e-3 may round to 0."""
    return _g(u) if u > -0.999 else num / den * math.log(num / den) - u


def _log_ratio(u: float, num: float, den: float) -> float:
    """log(1 + u) for 1 + u = num / den: log1p near 1, the quotient near 0."""
    return math.log1p(u) if u > -0.5 else math.log(num / den)


def _central_moments(centered, l14: float, weights) -> tuple[float, float]:
    """(V, Q) in nats from L - D in rho's eigenbasis: its diagonal ``centered``, coupling l14."""
    c11, c44, c_b, c_c = centered
    lam1, lam4, b, c = weights
    sq11 = c11 * c11 + l14 * l14
    sq44 = c44 * c44 + l14 * l14
    sq14 = l14 * (c11 + c44)
    v = lam1 * sq11 + lam4 * sq44 + b * c_b**2 + c * c_c**2
    q4 = (lam1 * (sq11 * sq11 + sq14 * sq14) + lam4 * (sq44 * sq44 + sq14 * sq14)
          + b * c_b**4 + c * c_c**4)
    return v, q4


def _dvq_noiseless(alpha: float) -> DvqTriple:
    """Moments at q = 0: rho is pure, so log rho = 0 and L = -log sigma.

    rho's vector weights |00> and |11> by 1 - alpha and alpha, where
    sigma is (1 - alpha)^2 and alpha^2: L is the two-point variable
    -2 log2 p with p = (1 - alpha, alpha).
    """
    p = 1.0 - alpha
    d = -2.0 * (p * math.log2(p) + alpha * math.log2(alpha))
    spread = 2.0 * math.log2(p / alpha)
    _require_normal("moment", d)  # V and Q vanish at alpha = 1/2
    v = p * alpha * spread**2
    return DvqTriple(d, v, v * (p**3 + alpha**3) * spread**2)


def dvq_reference(alpha: float, q: float) -> DvqTriple:
    """The moments D, V, Q of ``qcovert.covert._dvq`` by helper calls and list comprehensions.

    Every argument is checked, alpha in [0, 1] and q in [0, 1]: alpha is
    folded to min(alpha, 1 - alpha) as the tables fold it, the moments are
    0 where rho equals sigma (alpha = 0 or 1, q = 1) and the pure-state
    form at q = 0.
    """
    _check_unit("alpha", alpha)
    _check_unit("q", q)
    alpha = min(alpha, 1.0 - alpha)
    if alpha == 0.0 or q == 1.0:  # rho equals sigma exactly
        return DvqTriple(0.0, 0.0, 0.0)
    if q == 0.0:
        return _dvq_noiseless(alpha)
    half, eps = q / 2.0, 1.0 - q
    a, b = (1.0 - half) * (1.0 - alpha), half * (1.0 - alpha)
    c, d = half * alpha, (1.0 - half) * alpha
    e = eps * math.sqrt(alpha * (1.0 - alpha))
    shift = alpha * eps
    m0, m1 = (1.0 - half) - shift, half + shift
    det = alpha * (1.0 - alpha) * q * (1.0 - 0.75 * q)
    lam1, lam4, gap, _ = _coupled_pair(a, d, e, det)
    sigma = ((1.0 - alpha) * m0, (1.0 - alpha) * m1, alpha * m0, alpha * m1)
    _require_normal("spectral term", lam4, gap, c, sigma[3])
    rel = (shift / m0, -shift / m1, -eps * (1.0 - alpha) / m0, eps * (1.0 - alpha) / m1)
    log_ad = math.log1p((1.0 - 2.0 * alpha) / alpha)
    mean = (sigma[0] * _g(rel[0]) + sigma[1] * _g_ratio(rel[1], half, m1)
            + sigma[2] * _g_ratio(rel[2], half, m0) + sigma[3] * _g(rel[3])
            + a * _g(gap / a) + d * _g_ratio(-gap / d, lam4, d) + gap * log_ad)
    h = math.hypot(e, gap)
    cos, sin = e / h, gap / h
    cos2, sin2 = cos * cos, sin * sin
    l0, l3 = math.log1p(rel[0]), math.log1p(rel[3])
    l_b = _log_ratio(rel[1], half, m1)
    l_c = _log_ratio(rel[2], half, m0)
    log_s03 = log_ad + math.log1p(eps * (1.0 - 2.0 * alpha) / m1)
    l11 = math.log1p(gap / a) + cos2 * l0 + sin2 * (log_ad + l3)
    l44 = _log_ratio(-gap / d, lam4, d) + l3 - sin2 * log_s03
    l14 = cos * sin * log_s03
    logs, weights = (l11, l44, l_b, l_c), (lam1, lam4, b, c)
    v, q4 = _central_moments([x - mean for x in logs], l14, weights)
    slack = [math.copysign(_EPS * (abs(x) + abs(mean)), x - mean) for x in logs]
    v_hi, q4_hi = _central_moments([x - mean + s for x, s in zip(logs, slack)], l14, weights)
    if not (v_hi - v <= 1e-14 * v and q4_hi - q4 <= 1e-14 * q4):
        raise ArithmeticError(f"V={v / LN2**2!r}, Q={q4 / LN2**4!r} are within rounding of L - D")
    moments = DvqTriple(mean / LN2, v / LN2**2, q4 / LN2**4)
    _require_normal("moment", *moments)
    return moments


def willie_divergence_reference(alpha: float, q: float) -> float:
    """``qcovert.covert._willie_divergence`` with its per-q constants computed per call.

    Every argument is checked, alpha and q in [0, 1]; the divergence is 0
    where omega_alpha equals omega_0 (alpha = 0 or q = 0).
    """
    _check_unit("alpha", alpha)
    _check_unit("q", q)
    if alpha == 0.0 or q == 0.0:
        return 0.0
    perp2 = q * (1.0 - 0.5 * q)
    _require_normal("warden's Bloch weight P = q(1 - q/2)", perp2)
    z = 1.0 - q
    s_len = math.sqrt(perp2 + z * z)
    u = 1.0 - 2.0 * alpha
    r_len = math.sqrt(u * u * perp2 + z * z)
    delta = 4.0 * alpha * (1.0 - alpha) * perp2 / (s_len + r_len)
    one_minus_s = perp2 / (1.0 + s_len)
    binary = (0.5 * (1.0 + s_len) * _g(-delta / (1.0 + s_len))
              + 0.5 * one_minus_s * _g(delta / one_minus_s))
    if u >= 0.0:
        excess = 0.0 if z == 0.0 else (
            4.0 * alpha * alpha * z * z * perp2 / (r_len * s_len + u * perp2 + z * z))
    else:
        excess = (perp2 * (u * u * perp2 + (1.0 + u * u) * z * z) / (r_len * s_len + z * z)
                  - u * perp2)
    atanh_s = 0.5 * math.log((1.0 + s_len) ** 2 / perp2)
    d = (binary + atanh_s * excess / s_len) / LN2
    _require_normal("warden divergence", d)
    return d


def logM_reference(n: int, eps: float, dvq: DvqTriple) -> float:
    """``qcovert.covert._logM`` with its constants computed and its arguments checked per call."""
    if n < 2 or n != int(n):
        raise ValueError(f"blocklength n={n!r} must be an integer >= 2")
    if not (0.0 < eps < 1.0) or math.isnan(eps):
        raise ValueError(f"error tolerance eps={eps!r} outside (0, 1)")
    if not all(map(math.isfinite, dvq)):
        raise ValueError(f"moments must be finite, got {dvq}")
    if dvq.v <= 0.0:
        raise ArithmeticError("second moment V must be positive for the correction term")
    sqrt_2pi = math.sqrt(2.0 * math.pi)
    c_n = (BERRY_ESSEEN / sqrt_2pi * dvq.q4**0.75 / dvq.v + dvq.v / sqrt_2pi
           + math.log2(4.0 * eps * n))
    return n * dvq.d + math.sqrt(n * dvq.v) * _inv_normal_cdf(eps) - c_n


def rate_rows_reference(blocklengths, nu: float, q: float, eps: float = 0.05) -> list[RateReport]:
    """``qcovert.covert.rate_reports`` with the schedule's checks and every other check per row."""
    if not (0.0 < q < 1.0):
        raise ValueError(f"q={q:g} outside (0, 1)")
    eta = _eta(_e1_bloch(q))
    coeff = 2.0 * (2.0 / 3.0 - nu) * (1.0 - q) ** 2 / (2.0 - q)
    capacity = 4.0 * math.sqrt(2.0) / 3.0 * (1.0 - q) ** 2 / ((2.0 - q) * math.sqrt(eta))
    limit = coeff / math.sqrt(eta / 2.0)
    rows = []
    for n in blocklengths:
        if n < 1 or n != int(n):
            raise ValueError(f"blocklength n={n!r} must be a positive integer")
        check_nu(nu)
        alpha = float(n) ** (nu - 2.0 / 3.0)
        logM = logM_reference(n, eps, dvq_reference(alpha, q))
        div = n * willie_divergence_reference(alpha, q)
        rows.append(RateReport(
            n=n,
            nu=nu,
            q=q,
            alpha_n=alpha,
            eps=eps,
            logM_finite=logM,
            logM_asymptotic=coeff * float(n) ** (nu - 1.0 / 6.0) * math.sqrt(n) * math.log2(n),
            willie_div_total=div,
            covert_rate_L=logM / (math.log2(n) * math.sqrt(n * div)),
            capacity_lb=capacity,
            covert_rate_limit=limit,
        ))
    return rows


def _power_pair_reference(base_0, base_d: np.ndarray, count: int) -> tuple[np.ndarray, np.ndarray]:
    """b_a^s and b_a^s - b_0^s for s < count, b_a = b_0 + b_d, stacked on axis 0.

    The difference is carried as b_a (b_a^s - b_0^s) + b_d b_0^s, so no
    step subtracts two O(1) powers.
    """
    base_a = base_0 + base_d
    pow_0 = base_0 ** np.arange(count)
    pow_a = np.ones((count, len(base_d)))
    pow_d = np.zeros((count, len(base_d)))
    for s in range(count - 1):
        pow_a[s + 1] = base_a * pow_a[s]
        pow_d[s + 1] = base_a * pow_d[s] + base_d * pow_0[s]
    return pow_a, pow_d


def _sym_levels_reference(block, alphas: np.ndarray, ns: np.ndarray):
    """Yield [Sym^k(omega_0), Sym^k(omega_a) - Sym^k(omega_0) per live row] for k = 0..ns[0]."""
    a, b, c = block
    shift = np.concatenate(([0.0], alphas * (-2.0 * c)))[:, np.newaxis, np.newaxis]
    edge = c + shift
    lives = np.searchsorted(-ns, -np.arange(int(ns[0]) + 1), side="right").tolist()
    stack = np.zeros((len(alphas) + 1, 1, 1))
    stack[0] = 1.0
    yield stack
    for k in range(1, len(lives)):
        prev = stack[:lives[k] + 1]
        e, s = edge[:len(prev)], shift[1:len(prev)]
        stack = np.zeros((len(prev), k + 1, k + 1))
        sym = np.empty_like(stack)
        taps = sym[:, :-1, :-1]
        np.multiply(prev, a, out=stack[:, :-1, :-1])
        stack[:, 1:, :-1] += np.multiply(prev, e, out=taps)
        stack[:, :-1, -1] = e[..., 0] * prev[:, :, -1]
        stack[:, 1:, -1] += b * prev[:, :, -1]
        stack[1:, 1:, :-1] += np.multiply(prev[0], s, out=taps[1:])
        stack[1:, :-1, -1] += s[..., 0] * prev[0, :, -1]
        yield np.multiply(stack, dicke_scaling(k), out=sym)


def _qubit_distances_reference(block, ns: np.ndarray, alphas: np.ndarray) -> np.ndarray:
    """T for a qubit warden's block, rows sorted by n descending, by numpy tables per chunk."""
    a, b, c = block
    top = int(ns[0])
    pow_a, pow_d = _power_pair_reference(
        a * b - c * c, 4.0 * c * c * alphas * (1.0 - alphas), top // 2 + 1)
    repeats = np.array([[float(math.comb(n + 1, r) * max(n - 2 * r + 1, 0) // (n + 1))
                         for r in range(top // 2 + 1)] for n in ns.tolist()])
    degrees = np.arange(top + 1)
    spin = np.maximum(ns - degrees[:, np.newaxis], 0) // 2
    coefs = np.stack((repeats.T, pow_a, pow_d))[:, spin, np.arange(len(ns))]
    parity = [np.flatnonzero(ns % 2 == p) for p in (0, 1)]
    counts = [np.searchsorted(-ns[rows], -degrees, side="right").tolist() for rows in parity]
    terms = []
    for k, stack in enumerate(_sym_levels_reference(block, alphas, ns)):
        rows = parity[k % 2][:counts[k % 2][k]]
        if rows.size:
            mult, coef_a, coef_d = coefs[:, k, rows]
            blocks = (coef_a[:, np.newaxis, np.newaxis] * stack[rows + 1]
                      + coef_d[:, np.newaxis, np.newaxis] * stack[0])
            try:
                eigs = np.linalg.eigvalsh(blocks)
            except np.linalg.LinAlgError as exc:
                raise ArithmeticError(f"eigensolver failed: {exc}") from exc
            terms.append((rows, mult * np.abs(eigs).sum(axis=-1)))
    total = np.zeros(len(ns))
    for index, values in reversed(terms):
        total[index] += values
    return 0.5 * total


def qubit_rows_reference(ns, alphas, spec: ChannelSpec, chunk_entries: int = 2**19) -> list:
    """``qcovert.detection.warden_errors`` for a qubit warden (E1_ONLY, E2_ONLY) by numpy tables.

    The route before the per-chunk tables were built in plain Python: the
    powers, repeats and per-degree coefficients as stacked arrays, the block
    norms summed by fancy-indexed adds, and the budget by the checked
    ``willie_divergence_reference`` per row.  The E1 route must give the same
    floats, or raise the same refusals.
    """
    ns, alphas = list(ns), list(alphas)
    if len(ns) != len(alphas):
        raise ValueError(f"{len(ns)} blocklengths for {len(alphas)} weights")
    for n, alpha in zip(ns, alphas):
        if n < 1 or n != int(n):
            raise ValueError(f"number of uses n={n!r} must be a positive integer")
        if n > 100:
            raise ValueError(f"n={n} exceeds the cap 100 for scenario {spec.scenario.name}")
        if not (0.0 <= alpha <= 1.0) or math.isnan(alpha):
            raise ValueError(f"alpha={alpha!r} outside [0, 1]")
    block = _warden_block(spec)
    blind = block[2] == 0.0
    signal = [i for i, alpha in enumerate(alphas) if alpha != 0.0 and not blind]
    dist = np.zeros(len(ns))
    if signal:
        signal.sort(key=lambda i: -int(ns[i]))
        sig_ns = np.array([int(ns[i]) for i in signal])
        sig_alphas = np.array([float(alphas[i]) for i in signal])
        width = max(1, chunk_entries // (int(sig_ns[0]) + 1) ** 2)
        for lo in range(0, len(signal), width):
            part = slice(lo, lo + width)
            dist[signal[part]] = _qubit_distances_reference(block, sig_ns[part], sig_alphas[part])
    results = []
    for i, (n, alpha) in enumerate(zip(ns, alphas)):
        t = min(float(dist[i]), 1.0)
        if alpha == 0.0 or blind:
            div_total = 0.0
        else:
            if not sys.float_info.min <= t < math.inf:
                raise ArithmeticError(
                    f"trace distance {t!r} at n={n}, alpha={alpha!r} is not a positive normal float")
            div_total = n * willie_divergence_reference(alpha, spec.q)
        error = 0.5 * (1.0 - t)
        floor = 0.5 * (1.0 - math.sqrt(LN2 * div_total / 2.0))
        if error < floor - 1e-12:
            raise ArithmeticError(
                f"error probability {error} fell below the Pinsker floor {floor} at n={n}")
        results.append(DetectionResult(n, alpha, t, error, floor, div_total))
    return results


# Weight at which ``leading_reference`` reads the fourth-moment constant off
# ``dvq_reference``.
_REFERENCE_ALPHA = 1e-3


def leading_reference(alphas, q: float) -> list[DvqTriple]:
    """Leading small-alpha terms of the joint-vs-product moments, one per weight.

    D and V both carry the coefficient 2(1-q)^2/(2-q):

        D ~ -coeff * alpha * log2(alpha)
        V ~ +coeff * alpha * log2(alpha)^2

    The fourth moment is only an order class, O(alpha log^2 alpha); it is
    reported with its constant estimated from the exact computation at
    alpha = 1e-3, once for the whole grid.
    """
    _check_unit("q", q)
    coeff = 2.0 * (1.0 - q) ** 2 / (2.0 - q)
    q4_const = dvq_reference(_REFERENCE_ALPHA, q).q4 / (
        _REFERENCE_ALPHA * math.log2(_REFERENCE_ALPHA) ** 2
    )
    rows = []
    for alpha in alphas:
        _check_unit("alpha", alpha)
        if alpha == 0.0 or alpha == 1.0:
            rows.append(DvqTriple(0.0, 0.0, 0.0))
            continue
        log_a = math.log2(alpha)
        rows.append(DvqTriple(
            d=-coeff * alpha * log_a,
            v=coeff * alpha * log_a * log_a,
            q4=q4_const * alpha * log_a * log_a,
        ))
    return rows


def approx_rows_reference(alphas, q: float, leads=leading_reference) -> list[tuple]:
    """``qcovert.covert.moment_curve`` by the CLI's checks, ``leads`` and ``dvq_reference`` per row."""
    if not (0.0 < q < 1.0):
        raise ValueError(f"q={q:g} outside (0, 1)")
    for a in alphas:
        if not (0.0 <= a < 1.0):
            raise ValueError(f"alpha={a:g} outside [0, 1)")
    rows = []
    for a, lead in zip(alphas, leads(alphas, q)):
        if a == 0.0:
            rows.append((0.0,) * 7)
            continue
        exact = dvq_reference(a, q)
        rows.append((exact.d, lead.d, exact.v, lead.v, exact.q4,
                     exact.d / lead.d, exact.v / lead.v))
    return rows


# ----------------------------------------------------------------------
# Dense divergences


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
    rho = density_operator(rho)
    sigma = density_operator(sigma)
    if rho.shape != sigma.shape:
        raise ValueError(f"incompatible shapes {rho.shape} and {sigma.shape}")
    if _support_violation(rho, sigma):
        return math.inf
    diff = matrix_log2(rho) - matrix_log2(sigma)
    return float(np.trace(rho @ diff).real)


def moments(rho, sigma) -> DvqTriple:
    """D with the centered moments V = Tr[rho (L-D)^2], Q = Tr[rho (L-D)^4].

    L = log2 rho - log2 sigma on the support.  A support violation makes
    all three entries +inf.
    """
    rho = density_operator(rho)
    sigma = density_operator(sigma)
    if rho.shape != sigma.shape:
        raise ValueError(f"incompatible shapes {rho.shape} and {sigma.shape}")
    if _support_violation(rho, sigma):
        return DvqTriple(math.inf, math.inf, math.inf)
    loglike = matrix_log2(rho) - matrix_log2(sigma)
    d = float(np.trace(rho @ loglike).real)
    centered = loglike - d * np.eye(rho.shape[0])
    sq = centered @ centered
    v = float(np.trace(rho @ sq).real)
    q4 = float(np.trace(rho @ sq @ sq).real)
    return DvqTriple(d, v, q4)


def eta(rho, sigma) -> float:
    """Curvature of relative entropy at sigma in the direction rho - sigma.

    With sigma = sum_i lambda_i |v_i><v_i| and Delta = rho - sigma,

        eta = sum_{i,j} c_ij |<v_i| Delta |v_j>|^2,

    where c_ij is the divided difference (log2 lambda_i - log2 lambda_j)
    / (lambda_i - lambda_j), replaced by its analytic limit
    1/(lambda_i ln 2) when the eigenvalues coincide within 1e-12
    relative.  Returns +inf if Delta touches the kernel of sigma.
    """
    rho = hermitian_operator(rho)
    sigma = density_operator(sigma)
    if rho.shape != sigma.shape:
        raise ValueError(f"incompatible shapes {rho.shape} and {sigma.shape}")
    w, vecs = eig_hermitian(sigma)
    m = vecs.conj().T @ (rho - sigma) @ vecs
    support = _support_mask(w)
    if not support.all():
        coupling = np.abs(m[~support, :]).max(initial=0.0)
        coupling = max(coupling, np.abs(m[:, ~support]).max(initial=0.0))
        if coupling > 1e-12:
            return math.inf
    idx = np.flatnonzero(support)
    total = 0.0
    for i in idx:
        for j in idx:
            gap = w[i] - w[j]
            if abs(gap) < 1e-12 * w[0]:
                coeff = 1.0 / (w[i] * LN2)
            else:
                coeff = (math.log2(w[i]) - math.log2(w[j])) / gap
            total += coeff * float(abs(m[i, j]) ** 2)
    return total


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


def mp_dvq(alpha: float, q: float) -> tuple:
    """(D, V, Q) in bits of the arrow-matrix joint output vs its marginals.

    Builds the 4x4 joint output and the product of its marginals from
    the model, and takes log rho by a high-precision eigendecomposition.
    rho's smallest eigenvalue is about alpha q, and near alpha = 1/2 V is
    about q log^2 q, so the digits grow with log(1/q) as well as log(1/alpha).
    """
    with mp.workdps(_digits(alpha, q)):
        a, q_ = mp.mpf(alpha), mp.mpf(q)
        half = q_ / 2
        e = (1 - q_) * mp.sqrt(a * (1 - a))
        rho = mp.matrix([[(1 - half) * (1 - a), 0, 0, e],
                         [0, half * (1 - a), 0, 0],
                         [0, 0, half * a, 0],
                         [e, 0, 0, (1 - half) * a]])
        m0 = (1 - half) * (1 - a) + half * a  # retained qubit, P(0)
        m1 = half * (1 - a) + (1 - half) * a
        sigma = [(1 - a) * m0, (1 - a) * m1, a * m0, a * m1]
        loglike = _logm_hermitian(rho) - mp.diag([mp.log(s) for s in sigma])
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


def allenv_reference() -> dict:
    """The committed ``write_allenv_reference`` values: {(n, q, alpha): (T, E)} as mpf."""
    with open(f"{__file__.rsplit('/', 1)[0]}/{ALLENV_REFERENCE}", encoding="utf-8") as data:
        rows = json.load(data)["rows"]
    with mp.workdps(30):
        return {(n, q, alpha): (mp.mpf(dist), mp.mpf(error)) for n, q, alpha, dist, error in rows}


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
