"""Seeded inputs for the three workloads.

A workload is a *round*: a list of CLI calls (argv lists without
``--out``).  The benchmark runs whole rounds, so every run attempts the
same operations in the same proportions.  Each round draws its own grid
points from ``random.Random("<workload>:<seed>:<round>")``, so no input
repeats between rounds and a memo that outlives one CLI call is never hit
by a later round, as it is never hit by a user's next process.  The four
fault calls of ``rate_table`` are fixed.
"""

from __future__ import annotations

import math
import random
from typing import NamedTuple


class Workload(NamedTuple):
    round: list          # argv lists, one per CLI call
    faults: list         # indices into round of the known-fault calls
    setup: list          # argv of the smallest first table, for setup_s
    probes: list         # probe kind for each call of the round, see probe.py
    detection: dict = {}  # index into round -> the detection.*_ms metric it times


# Known faults of the divergence path, each its own single-row call so it
# fails on every run until that path is mended.
FAULTS = [
    ["approx-check", "--q", "0.5", "--alpha-grid", "1e-12"],  # D 27% low, exit 0
    ["approx-check", "--q", "0.5", "--alpha-grid", "2e-12"],  # D_exact=inf, exit 0
    ["rate-table", "--q", "0.5", "--n-grid", "1e12"],        # div_total 7% low, exit 0
    ["rate-table", "--q", "0.5", "--n-grid", "1e15"],        # exit 2, negative divergence
]

RATE_POINTS = 40      # rate-table rows per call
ALPHA_POINTS = 40     # approx-check rows per call
BOUND_POINTS = 64     # bound-curve rows per call
SCENARIO_CALLS = 16   # scenario calls (3 rows each) per round


def _log_uniform(rng, lo, hi, k):
    return [math.exp(rng.uniform(math.log(lo), math.log(hi))) for _ in range(k)]


def _fmt(x: float) -> str:
    # Six significant digits, so the value the CLI parses is the value the
    # oracle uses.
    return f"{x:.6g}"


def rate_table(rng) -> Workload:
    ns = set()
    while len(ns) < RATE_POINTS:  # distinct, so the row count is fixed
        ns.add(round(_log_uniform(rng, 1e2, 1e7, 1)[0]))
    ns = sorted(ns)
    alphas = sorted(_log_uniform(rng, 1e-11, 1e-1, ALPHA_POINTS), reverse=True)
    rate = ["rate-table", "--q", "0.5", "--n-grid", ",".join(str(n) for n in ns)]
    approx = ["approx-check", "--q", "0.5",
              "--alpha-grid", ",".join(_fmt(a) for a in alphas)]
    setup = ["rate-table", "--q", "0.5", "--n-grid", str(ns[0])]
    return Workload([rate, approx] + FAULTS, [2, 3, 4, 5], setup, ["closed"] * 6)


def q_scan(rng) -> Workload:
    qs = sorted(rng.uniform(0.01, 0.99) for _ in range(BOUND_POINTS))
    bound = ["bound-curve", "--q-grid", ",".join(_fmt(q) for q in qs)]
    scenarios = [["scenario", "--q", _fmt(rng.uniform(0.01, 0.99))]
                 for _ in range(SCENARIO_CALLS)]
    setup = ["bound-curve", "--q-grid", _fmt(qs[0])]
    # A scenario call is mostly argument parsing and file output, which the
    # cli probe follows and the closed probe does not.
    return Workload([bound] + scenarios, [], setup, ["closed"] + ["cli"] * SCENARIO_CALLS)


def detect_sim(rng) -> Workload:
    q = _fmt(rng.uniform(0.2, 0.8))
    nu = _fmt(rng.uniform(0.02, 0.15))
    common = ["--q", q, "--nu", nu]
    e1 = ["detect-sim", "--scenario", "3", "--n-grid", "1:10:1"] + common
    allenv = ["detect-sim", "--scenario", "1", "--n-grid", "1:5:1"] + common
    setup = ["detect-sim", "--scenario", "3", "--n-grid", "1"] + common
    # The grids end at n = 10 and n = 5, so the last warden_error call of
    # each table is the one its metric names.
    return Workload([e1, allenv], [], setup, ["dense", "dense"],
                    {0: "detection.e1_n10_ms", 1: "detection.allenv_n5_ms"})


WORKLOADS = {"rate_table": rate_table, "q_scan": q_scan, "detect_sim": detect_sim}


def make(name: str, seed: int, key) -> Workload:
    """The round ``key`` (a round number, or a set-up launch's label) of a seed."""
    return WORKLOADS[name](random.Random(f"{name}:{seed}:{key}"))
