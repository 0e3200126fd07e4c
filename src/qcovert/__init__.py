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
    scenario_reports,
)
from .covert import (
    RateReport,
    ScheduleParams,
    capacity_curve,
    dvq_exact,
    finite_blocklength_logM,
    inverse_normal_cdf,
    moment_curve,
    rate_reports,
    willie_divergence,
    willie_eta,
)
from .detection import DetectionResult, pinsker_floor, warden_errors
from .divergences import DvqTriple

__version__ = "0.1.0"
