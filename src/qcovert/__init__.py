"""Entanglement-assisted covert communication over the qubit depolarizing channel.

Numerical analysis of when a warden watching part of the channel
environment can be kept blind: per-scenario feasibility verdicts, exact
and asymptotic divergence moments, finite-blocklength message-size and
covert-rate bounds, and an exact detection simulator whose cost grows
polynomially in the blocklength.  The ``qcovert`` command-line tool wraps
the sweeps into CSV/JSON tables.
"""

from .channels import (
    Scenario,
    SupportReport,
    scenario_reports,
)
from .covert import (
    RateReport,
    capacity_curve,
    moment_curve,
    rate_reports,
    schedule_weights,
)
from .detection import DetectionResult, warden_errors

__version__ = "0.6.0"
