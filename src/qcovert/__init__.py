"""Entanglement-assisted covert communication over the qubit depolarizing channel.

Numerical analysis of when a warden watching part of the channel
environment can be kept blind: per-scenario feasibility verdicts, exact
and asymptotic divergence moments, finite-blocklength message-size and
covert-rate bounds, and an exact detection simulator whose cost grows
polynomially in the blocklength.  The ``qcovert`` command-line tool wraps
the sweeps into CSV/JSON tables.
"""

from .channels import (
    ChannelSpec,
    Scenario,
    SupportReport,
    allenv_null_vectors,
    basis_marginal_pair,
    depolarize,
    depolarize_pauli_form,
    dilated_output,
    e1only_marginal,
    scenario_support_report,
    stinespring_isometry,
    willie_marginal,
)
from .covert import (
    ArrowMatrixParams,
    ConvergenceReport,
    DivergenceTotal,
    RateReport,
    ScheduleParams,
    arrow_matrix,
    arrow_params,
    arrow_spectral,
    asymptotic_logM,
    capacity_lower_bound,
    covert_rate,
    dvq_asymptotic,
    dvq_exact,
    entangled_input,
    finite_blocklength_logM,
    finite_rate_convergence,
    inverse_normal_cdf,
    joint_output_closed_form,
    leading_moments,
    product_of_marginals,
    rate_limit,
    rate_report,
    rate_reports,
    willie_divergence,
    willie_divergence_total,
    willie_eta,
)
from .detection import DetectionResult, covertness_sweep, pinsker_floor, warden_error
from .divergences import DvqTriple, relative_entropy
from .linalg import (
    DIM_CAP,
    SpectralDecomposition,
    density_operator,
    eig_hermitian,
    hermitian_operator,
    matrix_exp2,
    matrix_log2,
    partial_trace,
    projector,
    pure_state,
    symmetric_power,
    tensor,
    tensor_power,
    trace_distance,
)

__version__ = "0.1.0"
